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

summed over all orderings of the directions. derivative_matrix forms, for
each direction V_k, the paths of the other n - 1 directions summed over
their orderings (from n = 4 for one block of leading indices at a time);
one batched matmul contracts them with the tensor, and V_k closes each
path. The tensor, (B,) + (d,)^(n+1), is never built whole: it is gathered
from the table and contracted one block of leading indices at a time, a
block holding at most SLAB_ENTRIES entries (chain_tensor gathers it whole).

One Newton table computes those values. It runs over ascending index
tuples into the rows of an array t of nodes: ascending eigenvalues, or
those times a complex z (exp(z x) on the exp route), whose spans,
midpoints and Newton divisors are then the real ones times z. Divided
differences are symmetric, so the table holds each ascending index tuple
of a row once, and the level below supplies every entry's two parents.
Every entry, over nodes t_k0..t_kj with span w = |t_kj - t_k0|, follows
one rule:

  * w <= TAYLOR_SPAN: the Taylor series about the midpoint c,
        sum_q g^(j+q)(c) / (j+q)! * h_q(t_k0 - c, ..., t_kj - c),
    h_q the complete homogeneous symmetric sums, g's orders from one
    g.derivatives call per level, for q = 0..Q with no exit on a term that
    happens to be 0. A polynomial g takes its whole finite series,
    Q = degree - j; any other g takes rho^Q <= eps, rho = w / 2, which
    bounds the tail when g^(k)(c) / k! does not grow with k (exp, sin, cos;
    the gaussian's grow like |c|^k / k!, which stays within 1e-13 for
    midpoints |c| <= 15);
  * otherwise the Newton recurrence (T[k1..kj] - T[k0..k(j-1)]) / (t_kj - t_k0).

The recurrence is only used where it divides by more than 1, so its
rounding does not grow from level to level. A g with a bandwidth B,
|g^(k)| <= A B^k (the Fourier route's table, its trigonometric sum g~),
reads B w for w and BAND_TAYLOR_SPAN for TAYLOR_SPAN, and takes the
smallest Q with rho^(Q+1) e^rho / (Q+1)! <= eps, which bounds the tail by
eps A B^j / j!. A g whose max_order is below n is refused before the table
is built, since level n holds the coincident tuples (i, ..., i). Otherwise
such a g (the cubic spline, max_order 1) takes the Taylor branch only where
orders j + Q exist, i.e. over coincident nodes, and takes its leading terms
up to max_order where w <= sqrt(eps) (1 + |c|): there cancellation in the
recurrence would cost more than the truncation.
"""

import itertools
from functools import reduce
from math import factorial

import numpy as np

# entries per slab (1 MB complex): a probe stack's B d^(n+1), a leading-index
# block's B d^n (a1 - a0), a chunk of one level's Taylor entries, whose entries
# times terms Q + 1 stay within TAYLOR_TERM_ENTRIES (19784 entries at Q = 52)
SLAB_ENTRIES = 1 << 16
TAYLOR_TERM_ENTRIES = 1 << 20
TAYLOR_SPAN = 1.0
BAND_TAYLOR_SPAN = 4.0
_EPS = float(np.finfo(float).eps)
_LOG_EPS = float(np.log(_EPS))
_SQRT_EPS = float(np.sqrt(_EPS))


def _taylor_terms(g, j, rho):
    """Terms Q past the leading one at level j for scaled half-spans rho."""
    if g.degree is not None:
        return np.where(rho > 0.0, max(g.degree - j, 0), 0)
    if g.bandwidth is not None:
        # smallest Q with rho^(Q+1) e^rho / (Q+1)! <= eps (Taylor entries have rho <= 2)
        rho = np.minimum(rho, 0.5 * BAND_TAYLOR_SPAN)
        q, tail = np.zeros(rho.shape, dtype=np.intp), rho * np.exp(rho)
        while (more := tail > _EPS).any():
            q[more] += 1
            tail[more] *= rho[more] / (q[more] + 1)
        return q
    # rho^Q <= eps; capped where Taylor entries end, so log rho is never 0
    safe = np.where(rho > 0.0, np.minimum(rho, 0.5 * TAYLOR_SPAN), 0.5)
    return np.where(rho > 0.0, np.ceil(_LOG_EPS / np.log(safe)), 0.0).astype(np.intp)


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
    """Each ascending row extended by every v from its last index to d - 1, in order."""
    parent, last = np.nonzero(np.arange(d) >= tuples[:, -1:])
    return np.concatenate([tuples.take(parent, axis=0), last[:, None]], axis=1)


def _newton_table(g, t, n):
    """Divided differences of g over every ascending (n+1)-index tuple into
    the rows of t (B, d), by the module rule. Level 0 is g at every node;
    level j takes each tuple's two parents from level j-1, the tuple
    without its last and without its first index. A g whose max_order is
    below n raises OrderSupportError first. Returns the top level's
    insertion map ins (d, C'), ins[v, r] = the rank of the level-(n-1)
    tuple r with v added, the rank map of level n-1, (d,) * n, symmetric
    (valid at every index order), and the complex table (B, C): entry
    T[:, i0, ..., in] of the tensor is table[:, ins[i0, sym[i1, ..., in]]]."""
    g.check_order(n, "divided differences")
    d = t.shape[1]
    # level -1 holds the empty tuple
    table, tuples = g.values(t), np.arange(d)[:, None]
    sym, ins = np.zeros((), dtype=np.intp), tuples
    band, limit = (1.0, TAYLOR_SPAN) if g.bandwidth is None else (g.bandwidth, BAND_TAYLOR_SPAN)
    for j in range(1, n + 1):
        # gathers only: the top level's map, d^(n+1) entries, is never built
        sym, ins = ins.T[sym], np.empty((d, len(tuples)), dtype=np.intp)
        tuples = _longer(tuples, d)
        # parents[k] = the rank of each tuple without its k-th index
        parents = [sym[tuple(tuples[:, i] for i in range(j + 1) if i != k)] for k in range(j + 1)]
        for k, parent in enumerate(parents):
            ins[tuples[:, k], parent] = np.arange(len(tuples))
        lo, hi = parents[-1], parents[0]
        first, last = t[:, tuples[:, 0]], t[:, tuples[:, -1]]
        span = last - first
        reach = band * np.abs(span)
        taylor = reach <= limit
        terms = _taylor_terms(g, j, 0.5 * reach)
        if g.max_order is not None:
            close = reach <= _SQRT_EPS * (1.0 + np.abs(0.5 * (last + first)))
            taylor &= (j + terms <= g.max_order) | close
            terms = np.minimum(terms, g.max_order - j)
        table = (table[:, hi] - table[:, lo]) / np.where(taylor, 1.0, span)
        row, col = np.nonzero(taylor)
        step = min(SLAB_ENTRIES, TAYLOR_TERM_ENTRIES // (int(terms[row, col].max(initial=0)) + 1))
        for s in range(0, len(row), step):
            r, c = row[s : s + step], col[s : s + step]
            table[r, c] = _taylor(g, t[r[:, None], tuples[c]], j, terms[r, c], table.dtype)
    return ins, sym, table.astype(np.complex128, copy=False)


def _gather(ins, sym, table, a):
    """Tensor entries T[:, a] for a slice a of leading indices, from
    _newton_table's result: shape (B, len(a)) + (d,) * n."""
    return table[:, ins[a][:, sym]]


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


def _orderings(w, skip):
    """V_j1[i0, i1] ... V_jm[i(m-1), im] summed over the orderings of the m directions
    w[:, j], j not in skip; shape (B, d, d^(m-1), d), [z, i0, ..., im]."""
    b, d = w.shape[0], w.shape[-1]
    chain = lambda p, v: (p[..., None] * v[:, None]).reshape(b, -1, d)
    orders = itertools.permutations([w[:, j] for j in range(w.shape[1]) if j not in skip])
    return sum(reduce(chain, order) for order in orders).reshape(b, d, -1, d)


def derivative_matrix(lam, vectors, dirs, g):
    """D^n g(x)[dirs] at every point x = U diag(lam) U* of a stack: lam
    (B, d) ascending (or such rows times a complex z, for exp(z x)),
    U = vectors (B, d, d), dirs (B, n, d, d); returns (B, d, d). A single
    point is the B = 1 case. Rotate the directions into the eigenbasis,
    contract against the tensor over the chains of lam summed over all
    direction orderings, rotate back."""
    b, n, d = dirs.shape[0], dirs.shape[1], lam.shape[1]
    w = to_eigenbasis(vectors, dirs)
    if n == 0:
        core = np.zeros((b, d, d), dtype=np.complex128)
        core[:, np.arange(d), np.arange(d)] = chain_tensor(lam, n, g)
    elif n == 1:
        core = w[:, 0] * chain_tensor(lam, n, g)
    else:
        newton = _newton_table(g, lam, n)
        # paths[:, a, c, k, m]: V[a, i1] ... V[i(n-2), c], middle indices m, summed over the orderings
        # of all but V_k; from n = 4 per block with half the multiplies, sum_f V_f[a, i1] tails[{k, f}]
        if n < 4:
            whole = np.empty((b, d, d, n, d ** (n - 2)), dtype=np.complex128)
            for k in range(n):
                whole[:, :, :, k] = _orderings(w, {k}).swapaxes(2, 3)
        else:
            pairs = itertools.combinations(range(n), 2)
            tails = {frozenset(p): _orderings(w, p).transpose(0, 3, 1, 2)[:, None] for p in pairs}
            terms = lambda h, k: (h[:, f] * tails[frozenset((k, f))] for f in range(n) if f != k)
        # V_k[c, b] closes X[z, a, c, k, b] = (paths @ T)[z, a, c, k, b], laid
        # out [z, (c, k), b]; in place, so the close adds no array of X's size
        ends = w.transpose(0, 2, 1, 3).reshape(b, d * n, d)
        core, step = np.empty((b, d, d), dtype=np.complex128), max(1, SLAB_ENTRIES // (b * d**n))
        for a in (slice(a0, a0 + step) for a0 in range(0, d, step)):
            if n < 4:
                paths = whole[:, a]
            else:
                heads = w[:, :, a, None, :, None]
                paths = np.stack([reduce(np.add, terms(heads, k)) for k in range(n)], axis=3)
                paths = paths.reshape(b, -1, d, n, d ** (n - 2))
            # the block is symmetric, so T[z, a, m, c, b] reads as [z, a, c, m, b]
            t = _gather(*newton, a).reshape(b, -1, d, d ** (n - 2), d)
            x = (paths @ t).reshape(b, -1, d * n, d)
            x *= ends[:, None]
            core[:, a] = x.sum(axis=2)
    return vectors @ core @ vectors.conj().swapaxes(-1, -2)
