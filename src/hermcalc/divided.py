"""Divided differences over eigenvalue chains and the one derivative core.

derivative_matrix is the core shared by the dd, exp and Fourier routes and
the seminorm probe: it rotates the directions into the eigenbasis of x,
contracts them there, and rotates the result back, for a stack of points
with a leading batch axis (the probe's candidates; a single point is the
B = 1 case). In the eigenbasis of a Hermitian x with eigenvalues lam, the
n-th derivative of g applied to x contracts the rotated directions against
the tensor of divided differences over eigenvalue chains:

    T[i0, in] = sum over middle indices of
        V1[i0, i1] ... Vn[i(n-1), in] * g[lam_i0, ..., lam_in]

summed over all orderings of the directions. derivative_matrix forms, per
direction V_k, the paths of the others over their orderings by one rule at
every n >= 2: the paths of a set S from rows a sum V_f[a, i1] times the
paths of S without f (over all rows, formed once per call) over f in S.
One batched matmul contracts them with the tensor, and V_k closes each
path. At n = 4 the middle indices are a pair (i1, i2) and the tensor is
symmetric in it, so the paths are folded onto the d(d+1)/2 ascending pairs
(i <= j) first, P[i, j] + P[j, i] off the diagonal and P[i, i] on it, and
the tensor is gathered for those pairs alone: half the entries and half the
products, with results that move by rounding only. The tensor,
(B,) + (d,)^(n+1), is never built whole: it is gathered from the table,
and the paths formed and contracted, one block of leading indices a at a
time, a block holding at most SLAB_ENTRIES entries (chain_tensor gathers
it whole). A block is gathered through the top level first: the table's
entries for the tuples that hold each leading index, one row per index,
then the symmetric rank map within those rows (at n = 4 read at the
ascending pairs, in intp once per call).

One Newton table computes those values. It runs over ascending index
tuples into the rows of an array t of nodes: ascending eigenvalues, or
those times a complex z (exp(z x) on the exp route), whose spans,
midpoints and Newton divisors are then the real ones times z. Divided
differences are symmetric, so the table holds each ascending index tuple
of a row once, and the level below supplies every entry's two parents.
The index structure of a level (its tuples, their parents' ranks, the
map that inserts an index into a tuple of the level below, and that
level's rank map) depends on d and the level alone. One structure is kept
per level, read-only, in uint8 tuples and int32 ranks, built from the
level below for the largest d asked for so far; its tuples are in colex
order (by last index, then by the rest), so the structure of any smaller
d is its prefix, read as views. It is shared by every call and every row,
and holds at most 16.7 MiB, every level of d = 32 up to n = 4; a call
computes the values only.
Every entry, over nodes t_k0..t_kj with span w = |t_kj - t_k0| and
midpoint c, reads B w for w, B = g.band(c) of g's growth statement (see
functions.ScalarFunction; 1 but for the Fourier sum and the gaussian past
|c| = 1), and follows one rule:

  * B w <= TAYLOR_SPAN (BAND_TAYLOR_SPAN for a g with a bandwidth): the
    Taylor series about c,
        sum_q g^(j+q)(c) / (j+q)! * h_q(t_k0 - c, ..., t_kj - c),
    h_q the complete homogeneous symmetric sums, g's orders from one
    g.derivatives call per level, for q = 0..Q with no exit on a term that
    happens to be 0;
  * otherwise the Newton recurrence (T[k1..kj] - T[k0..k(j-1)]) / (t_kj - t_k0).

The recurrence is only used where it divides by more than 1 / B, so its
rounding, against the scale B^j / j! of the level, does not grow from level
to level. The term count Q of an entry depends on its reach rho = B w / 2,
its level and g's growth class alone: it is the first Q whose entry in the
class's table of reaches covers rho, one np.searchsorted per level. The
table of a class is built on first use and bounds the tail, with
|h_q| <= C(j+q, q) (w / 2)^q, by eps A B^j m_j / j!:
  * "band", |g^(k)(c)| <= A B^k (m_k = 1): rho^(Q+1) e^rho / (Q+1)! <= eps;
  * "gaussian", |g^(k)(c)| <= A B^k sqrt(k!): the first omitted term
    sqrt((j+Q+1)! / j!) rho^(Q+1) / (Q+1)!, over 1 - theta, theta =
    sqrt(j+Q+2) rho / (Q+2) the largest ratio of the terms after it, <= eps;
  * "flat", |g^(k)(c)| / k! <= A: rho^Q <= eps, which bounds its terms;
  * "finite" (a polynomial): no reach short of the whole series.
A g with a last order (a polynomial's degree, or max_order) takes its series
no further than that order. A g whose max_order is below n is refused
before the table is built, since level n holds the coincident tuples
(i, ..., i). Otherwise such a g (the cubic spline, max_order 1) takes the
Taylor series only over nodes within sqrt(eps) (1 + |c|), where
cancellation in the recurrence would cost more than the truncation. Each
level picks its branches first and sizes the series of its Taylor entries
alone.
"""

from functools import cache, reduce
from math import comb, factorial
from threading import RLock

import numpy as np

from .errors import check_finite

# entries per slab (1 MB complex): a probe stack's B d^(n+1), a leading-index
# block's B d^n (a1 - a0), a chunk of one level's Taylor entries, whose entries
# times terms Q + 1 stay within TAYLOR_TERM_ENTRIES (a slab up to Q = 15, as
# exp, sin and cos take at rho = 1/2; 6278 entries for monomial:170 at Q = 166)
SLAB_ENTRIES = 1 << 16
TAYLOR_TERM_ENTRIES = 1 << 20
TAYLOR_SPAN = 1.0
BAND_TAYLOR_SPAN = 4.0
# the length less one of a growth class's table of reaches: a polynomial's
# largest degree (functions.POLY_MAX_DEGREE); a band table then reaches 40
TAYLOR_MAX_TERMS = 170
_EPS = float(np.finfo(float).eps)
_LOG_EPS = float(np.log(_EPS))
_SQRT_EPS = float(np.sqrt(_EPS))
# Newton steps of a table of reaches: from the linear root they take at most 6
_REACH_STEPS = 8
# level j -> its index structure over the most nodes asked for so far
_LEVELS = {}
# reentrant: building a level takes the level below from _level
_LEVELS_LOCK = RLock()


@cache
def _reaches(growth, j):
    """r[Q], Q = 0..TAYLOR_MAX_TERMS, increasing: the largest reach rho that
    the series to Q terms past the leading one covers at level j, by the
    module's tail bound of the growth class. Each bound is F(u) = L in
    u = log rho, F convex and increasing, so Newton's method from the root
    of its linear part (Q+1) u descends onto its root."""
    q = np.arange(TAYLOR_MAX_TERMS + 1.0)
    if growth == "finite":
        return np.zeros_like(q)
    if growth == "flat":
        with np.errstate(divide="ignore"):
            return np.exp(_LOG_EPS / q)
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, TAYLOR_MAX_TERMS + j + 3)))])
    limit = log_factorial[1:][: len(q)] + _LOG_EPS
    if growth == "band":
        extra = lambda u: (np.exp(u), np.exp(u))
    else:
        limit -= 0.5 * (log_factorial[q.astype(int) + j + 1] - log_factorial[j])
        a = np.sqrt(q + j + 2.0) / (q + 2.0)
        extra = lambda u: (-np.log1p(-a * np.exp(u)), a * np.exp(u) / (1.0 - a * np.exp(u)))
    u = limit / (q + 1.0)
    for _ in range(_REACH_STEPS):
        value, slope = extra(u)
        u -= ((q + 1.0) * u + value - limit) / (q + 1.0 + slope)
    return np.exp(u)


def _taylor_terms(g, j, rho):
    """Terms Q past the leading one at level j for the reaches rho of Taylor
    entries alone, rho <= half the Taylor span: the first Q whose reach in
    the table of g's growth class covers rho, cut at g's last order."""
    reach = _reaches(g.growth, j)
    if (last := g.max_order if g.degree is None else g.degree) is not None:
        reach = np.append(reach[: max(last - j, 0)], np.inf)
    return np.searchsorted(reach, rho)


def _taylor(g, nodes, j, terms, dtype):
    """Taylor values of level-j entries over the rows of nodes (k, j+1),
    the k-th summed to terms[k] terms past the first."""
    mid = 0.5 * (nodes[:, 0] + nodes[:, -1])
    qmax = int(terms.max())
    # ahead of the h sums, so that g's own temporaries are freed before those
    # are made: it lowers the probe's peak memory
    ders = g.derivatives(mid, j, qmax).T
    # h[s] = complete homogeneous sum of degree s of the offsets from mid
    h = np.zeros((qmax + 1, len(mid)), nodes.dtype)
    h[0] = 1.0
    for y in (nodes - mid[:, None]).T:
        for s in range(1, qmax + 1):
            h[s] += y * h[s - 1]
    # then h[s] / (j+s)!, and 0 past each entry's own term count: g's orders
    # are finite at every midpoint, so ders[s] * 0 adds nothing there
    h /= np.array([float(factorial(j + s)) for s in range(qmax + 1)])[:, None]
    h[np.arange(qmax + 1)[:, None] > terms] = 0.0
    acc = np.zeros(len(mid), dtype=dtype)
    for s in range(qmax, -1, -1):
        acc += ders[s] * h[s]
    return acc


def _longer(tuples, d):
    """Each row of the colex-ordered tuples extended by every v from its last
    index to d - 1, in colex order: by v, then by row."""
    last, parent = np.nonzero(tuples[:, -1] <= np.arange(d)[:, None])
    last = last[:, None].astype(tuples.dtype)
    return np.concatenate([tuples.take(parent, axis=0), last], axis=1)


def _level(d, j):
    """Index structure of level j of the Newton table over d nodes: the
    ascending (j+1)-index tuples (C, j+1) in colex order, the ranks lo and
    hi (C,) of each tuple's parents in level j-1, the tuple without its
    last and without its first index (empty at level 0), the insertion map
    ins (d, C'), ins[v, r] = the rank of the level-(j-1) tuple r with v
    added, and the rank map sym of level j-1, (d,) * j, symmetric (valid at
    every index order). The tuples are in the smallest unsigned type that
    holds d, the ranks in int32, and all are read-only views of the one
    structure kept for level j, built for the largest d so far: in colex
    order, the tuples over d nodes and their ranks are its prefix."""
    with _LEVELS_LOCK:
        if j not in _LEVELS or len(_LEVELS[j][3]) < d:
            _LEVELS[j] = _build_level(d, j)
        tuples, lo, hi, ins, sym = _LEVELS[j]
    c = comb(d + j, j + 1)
    return tuples[:c], lo[:c], hi[:c], ins[:d, : comb(d + j - 1, j)], sym[(slice(d),) * j]


def _build_level(d, j):
    """_level's arrays over d nodes, built from level j-1 (taken from _level)."""
    if j == 0:
        # below level 0 is the empty tuple, rank 0
        ids, none, sym = np.arange(d)[:, None], np.empty(0, np.int32), np.zeros((), np.int32)
        level = ids.astype(np.min_scalar_type(d)), none, none, ids.astype(np.int32), sym
    else:
        below, _, _, ins, sym = _level(d, j - 1)
        # gathers only: the rank map of level j, d^(j+1) entries, is never built
        sym, tuples = ins.T[sym], _longer(below, d)
        ins, rank = np.empty((d, len(below)), np.int32), np.arange(len(tuples), dtype=np.int32)
        for k in range(j + 1):
            # the rank of each tuple without its k-th index: hi at k = 0, lo at k = j
            parent = sym[tuple(tuples[:, i] for i in range(j + 1) if i != k)]
            ins[tuples[:, k], parent] = rank
            hi = parent if k == 0 else hi
        level = tuples, parent, hi, ins, sym
    for a in level:
        a.flags.writeable = False
    return level


def _newton_table(g, t, n):
    """Divided differences of g over every ascending (n+1)-index tuple into
    the rows of t (B, d), by the module rule. Level 0 is g at every node;
    level j takes each tuple's two parents from level j-1, the tuple
    without its last and without its first index. The tuples and parent
    ranks come from _level, so a call whose levels are cached computes the
    values alone. A g whose max_order is below n raises OrderSupportError
    first. Returns the top level's insertion map ins (d, C') and the rank
    map sym of level n-1, (d,) * n, both from _level, and the complex table
    (B, C): entry T[:, i0, ..., in] of the tensor is
    table[:, ins[i0, sym[i1, ..., in]]]."""
    g.check_order(n, "divided differences")
    d = t.shape[1]
    table = g.values(t)
    limit = TAYLOR_SPAN if g.bandwidth is None else BAND_TAYLOR_SPAN
    for j in range(1, n + 1):
        tuples, lo, hi, _, _ = _level(d, j)
        first, last = t[:, tuples[:, 0]], t[:, tuples[:, -1]]
        span, mid = last - first, 0.5 * (last + first)
        reach = g.band(mid) * np.abs(span)
        taylor = reach <= limit
        if g.max_order is not None:
            taylor &= reach <= _SQRT_EPS * (1.0 + np.abs(mid))
        table = (table[:, hi] - table[:, lo]) / np.where(taylor, 1.0, span)
        row, col = np.nonzero(taylor)
        terms = _taylor_terms(g, j, 0.5 * reach[row, col])
        step = min(SLAB_ENTRIES, TAYLOR_TERM_ENTRIES // (int(terms.max(initial=0)) + 1))
        for s in range(0, len(row), step):
            r, c = row[s : s + step], col[s : s + step]
            table[r, c] = _taylor(g, t[r[:, None], tuples[c]], j, terms[s : s + step], table.dtype)
    _, _, _, ins, sym = _level(d, n)
    return ins, sym, table.astype(np.complex128, copy=False)


def _gather(ins, sym, table, a):
    """Tensor entries T[:, a] for a slice a of leading indices, from
    _newton_table's result: shape (B, len(a)) + (d,) * n. Through the top
    level first: the rows ins[a] of the table, then sym within each row."""
    return table[:, ins[a]][:, :, sym]


def chain_tensor(nodes, n, g):
    """Tensors of divided differences of g over all (n+1)-index chains of
    each row of the (B, d) array nodes, by the module rule; shape
    (B,) + (d,) * (n+1). Divided differences are symmetric, so the table
    holds every ascending index tuple once and every entry is gathered
    from it through the symmetric rank maps. A g whose max_order is below
    n raises OrderSupportError first."""
    return _gather(*_newton_table(g, nodes, n), slice(None))


def to_eigenbasis(vectors, dirs):
    """Directions rotated into the eigenbasis, U* V U, for eigenvectors U of
    shape (..., d, d) and directions V of shape (..., n, d, d)."""
    u = vectors[..., None, :, :]
    return u.conj().swapaxes(-1, -2) @ dirs @ u


def _paths(w, rest, rows, inner):
    """Paths V_f1[a, i1] ... V_fm[i(m-1), c] over the orderings of the directions
    w[:, f], f in the ascending tuple rest, from the rows a in rows: (B, len(a), d,
    d^(m-1)), [z, a, c, (i1, ..., i(m-1))]. The sum over f in rest of V_f[a, i1] times
    the paths of rest without f over all rows, which inner keeps by their tuple."""
    if len(rest) == 1:
        return w[:, rest[0], rows, :, None]
    b, d = w.shape[0], w.shape[-1]
    lefts = [rest[:i] + rest[i + 1 :] for i in range(len(rest))]
    # V_f[a, i1] times the paths from i1, kept read as [z, 1, c, i1, ...]
    formed = {left: _paths(w, left, slice(None), inner) for left in lefts if left not in inner}
    inner.update({left: p.swapaxes(1, 2)[:, None] for left, p in formed.items()})
    terms = (w[:, f, rows, None, :, None] * inner[left] for f, left in zip(rest, lefts))
    return reduce(np.add, terms).reshape(b, -1, d, d ** (len(rest) - 1))


@np.errstate(over="ignore", invalid="ignore")
def derivative_matrix(lam, vectors, dirs, g):
    """D^n g(x)[dirs] at every point x = U diag(lam) U* of a stack: lam
    (B, d) ascending (or such rows times a complex z, for exp(z x)),
    U = vectors (B, d, d), dirs (B, n, d, d); returns (B, d, d). A single
    point is the B = 1 case. Rotate the directions into the eigenbasis,
    contract against the tensor over the chains of lam summed over all
    direction orderings, rotate back. Where g overflows at the nodes, or
    the result is not finite, OverflowRangeError, and no numpy warning."""
    b, n, d = dirs.shape[0], dirs.shape[1], lam.shape[1]
    w = to_eigenbasis(vectors, dirs)
    if n == 0:
        core = np.zeros((b, d, d), dtype=np.complex128)
        core[:, np.arange(d), np.arange(d)] = chain_tensor(lam, n, g)
    elif n == 1:
        core = w[:, 0] * chain_tensor(lam, n, g)
    else:
        (ins, sym, table), inner = _newton_table(g, lam, n), {}
        if n == 4:
            # the ascending middle pairs (i, j), the d diagonal ones first, and
            # the tensor's rank map read at [c, (i, j), b], in intp once per call
            i, j = np.triu_indices(d, 1)
            pi, pj = np.concatenate([np.arange(d), i]), np.concatenate([np.arange(d), j])
            sym, pair, swapped = sym[:, pi, pj].astype(np.intp), d * pi + pj, d * j + i
        # V_k[c, b] closes X[z, a, c, k, b] = (paths @ T)[z, a, c, k, b], laid
        # out [z, (c, k), b]; in place, so the close adds no array of X's size
        ends = w.transpose(0, 2, 1, 3).reshape(b, d * n, d)
        core, step = np.empty((b, d, d), dtype=np.complex128), max(1, SLAB_ENTRIES // (b * d**n))
        for a in (slice(a0, a0 + step) for a0 in range(0, d, step)):
            # paths[z, a, c, k, m]: V[a, i1] ... V[i(n-2), c] over the orderings of all but V_k
            others = (tuple(f for f in range(n) if f != k) for k in range(n))
            paths = np.stack([_paths(w, rest, a, inner) for rest in others], axis=3)
            if n == 4:
                # folded: P[i, j] + P[j, i] off the diagonal, P[i, i] on it
                paths, off = paths[..., pair], paths[..., swapped]
                paths[..., d:] += off
            # the block is symmetric, so T[z, a, m, c, b] reads as [z, a, c, m, b]
            t = _gather(ins, sym, table, a).reshape(b, -1, d, paths.shape[-1], d)
            x = (paths @ t).reshape(b, -1, d * n, d)
            x *= ends[:, None]
            core[:, a] = x.sum(axis=2)
    result = vectors @ core @ vectors.conj().swapaxes(-1, -2)
    return check_finite(f"D^{n} {g.label()}(x)[dirs]", result)
