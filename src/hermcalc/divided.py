"""Divided differences over eigenvalue chains and the one derivative core.

derivative_matrix is the core shared by the dd, exp and Fourier routes: it
rotates the directions into the eigenbasis of x, contracts them there, and
rotates the result back. In the eigenbasis of a Hermitian x with
eigenvalues lam, the n-th derivative of g applied to x contracts the
rotated directions against the tensor of divided differences over
eigenvalue chains:

    T[i0, in] = sum over middle indices of
        V1[i0, i1] ... Vn[i(n-1), in] * g[lam_i0, ..., lam_in]

summed over all orderings of the directions. derivative_matrix sums them by
subsets, as the Monte Carlo kernel does, and folds the last direction into
the contraction with the tensor, so it builds nothing of the tensor's size.

chain_dd is the one engine for those values. It evaluates g[t_0, ..., t_m]
for a whole array of chains t: ascending eigenvalues, or those times a
complex z (exp(z x) on the exp route), whose spans, midpoints and Newton
divisors are then the real chain's times z. Every entry of the Newton
table, over t_i..t_(i+j) with span w = |t_(i+j) - t_i|, follows one rule:

  * w <= TAYLOR_SPAN: the Taylor series about the midpoint c,
        sum_q g^(j+q)(c) / (j+q)! * h_q(t_i - c, ..., t_(i+j) - c),
    h_q the complete homogeneous symmetric sums, for q = 0..Q with no exit
    on a term that happens to be 0. A polynomial g takes its whole finite
    series, Q = degree - j; any other g takes rho^Q <= eps, rho = w / 2,
    which bounds the tail when g^(k)(c) / k! does not grow with k (exp, sin,
    cos; the gaussian's grow like |c|^k / k!, which stays within 1e-13 for
    midpoints |c| <= 15);
  * otherwise the Newton recurrence (T[i+1, j-1] - T[i, j-1]) / (t_(i+j) - t_i).

The recurrence is only used where it divides by more than 1, so its
rounding does not grow from level to level. A g with a bandwidth B,
|g^(k)| <= A B^k (the Fourier route's trigonometric sum), reads B w for w
and BAND_TAYLOR_SPAN for TAYLOR_SPAN, and takes the smallest Q with
rho^(Q+1) e^rho / (Q+1)! <= eps, which bounds the tail by eps A B^j / j!.
A g with a finite max_order (the cubic spline, max_order 1) takes the
Taylor branch where orders j + Q exist, i.e. over coincident nodes, and
its leading terms up to max_order where w <= sqrt(eps) (1 + |c|), there
cancellation in the recurrence would cost more than the truncation; such
an entry at a level past max_order raises OrderSupportError.
"""

import itertools
from math import factorial

import numpy as np

from .errors import OrderSupportError

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
    safe = np.where(rho > 0.0, rho, 0.5)
    return np.where(rho > 0.0, np.ceil(_LOG_EPS / np.log(safe)), 0.0).astype(np.intp)


def _taylor(g, t, j, sel, terms, dtype):
    """Taylor values of the level-j table at the selected (chain, i)
    entries, in np.nonzero(sel) order, summed to terms[k] terms past the
    first for the k-th. Entries are sorted by their term count, so those
    still summing order s are a prefix; unsorted, the deriv benchmark ran 32 % longer."""
    ci, ii = np.nonzero(sel)
    order = np.argsort(-terms, kind="stable")
    ci, ii, q = ci[order], ii[order], terms[order]
    nodes = t[ci[:, None], ii[:, None] + np.arange(j + 1)]
    mid = 0.5 * (nodes[:, 0] + nodes[:, -1])
    qmax = int(q[0])
    # count[s] = number of entries with at least s terms past the first
    count = np.searchsorted(-q, -np.arange(qmax + 1), side="right")
    # h[s] = complete homogeneous sum of degree s of the offsets from mid
    h = [np.ones(count[0], t.dtype)] + [np.zeros(count[s], t.dtype) for s in range(1, qmax + 1)]
    for y in (nodes - mid[:, None]).T:
        for s in range(1, qmax + 1):
            h[s] += y[: count[s]] * h[s - 1][: count[s]]
    acc = np.zeros(len(q), dtype=dtype)
    for s in range(qmax, -1, -1):
        k = count[s]
        acc[:k] += np.asarray(g.eval_derivative(mid[:k], j + s)) * (h[s] / factorial(j + s))
    out = np.empty_like(acc)
    out[order] = acc
    return out


def chain_dd(g, chains):
    """g[t_0, ..., t_m] for every row t of the (C, m+1) array chains, by
    the module rule: rows ascending, or such rows times a complex z, which
    g.eval_derivative must then accept. Returns shape (C,)."""
    t = np.asarray(chains, dtype=complex if np.iscomplexobj(chains) else float)
    m = t.shape[1] - 1
    table = np.asarray(g.eval_derivative(t, 0))
    band, limit = (1.0, TAYLOR_SPAN) if g.bandwidth is None else (g.bandwidth, BAND_TAYLOR_SPAN)
    # Entries under a whole chain that takes the Taylor branch are not needed;
    # skipping them makes chain_dd up to 1.6x faster on unit-norm spectra.
    whole = (band * np.abs(t[:, -1] - t[:, 0]) <= limit) & (g.max_order is None)
    for j in range(1, m + 1):
        span = t[:, j:] - t[:, :-j]
        reach = band * np.abs(span)
        taylor = reach <= limit
        terms = _taylor_terms(g, j, 0.5 * reach)
        if g.max_order is not None:
            close = reach <= _SQRT_EPS * (1.0 + np.abs(0.5 * (t[:, j:] + t[:, :-j])))
            taylor &= (j + terms <= g.max_order) | close
            if j > g.max_order and taylor.any():
                raise OrderSupportError(
                    f"{g.label()}: nodes {np.min(reach[taylor]):.1e} apart "
                    f"need derivative order {j}, but only {g.max_order} is supported"
                )
            terms = np.minimum(terms, g.max_order - j)
        table = (table[:, 1:] - table[:, :-1]) / np.where(taylor, 1.0, span)
        sel = taylor if j == m else taylor & ~whole[:, None]
        if sel.any():
            table[sel] = _taylor(g, t, j, sel, terms[sel], table.dtype)
    return table[:, 0]


def chain_tensor(nodes, n, g):
    """Tensor of divided differences of g over all (n+1)-index chains of
    nodes as chain_dd takes them: chain_dd runs once, on the C(d+n, n+1)
    sorted index tuples (divided differences are symmetric), and the values
    are scattered to every permutation of the tensor axes."""
    d = len(nodes)
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(d), n + 1)),
        dtype=np.intp,
    ).reshape(-1, n + 1)
    vals = chain_dd(g, nodes[idx])
    tensor = np.empty((d,) * (n + 1), dtype=np.complex128)
    for perm in itertools.permutations(range(n + 1)):
        tensor[tuple(idx[:, p] for p in perm)] = vals
    return tensor


def to_eigenbasis(dec, dirs):
    """Directions rotated into the eigenbasis: U* V U."""
    uh = dec.vectors.conj().T
    return [uh @ v @ dec.vectors for v in dirs]


def derivative_matrix(h, dirs, g, scale=1.0):
    """D^n g(scale x)[dirs] for the HermitianMatrix x = h: rotate the
    directions into its eigenbasis, contract against the tensor over the
    chains of scale * lam summed over all direction orderings, rotate back."""
    dec = h.eig()
    w = to_eigenbasis(dec, dirs)
    n, d = len(dirs), h.dim
    tensor = chain_tensor(scale * dec.eigenvalues, n, g)
    if n < 2:
        core = w[0] * tensor if n else np.diag(tensor)
    else:
        # Sum over orderings by subsets, as expderiv._mc_chunk does per
        # sample: paths[mask] holds, summed over the orderings of the j
        # directions in mask, V_1[i0, i1] ... V_j[i(j-1), ij].
        paths = {0: np.ones(d)}
        for _ in range(n - 1):
            nxt = {}
            for mask, p in paths.items():
                for k in (k for k in range(n) if not mask >> k & 1):
                    term = p[..., None] * w[k]
                    key = mask | 1 << k
                    if nxt.setdefault(key, term) is not term:
                        nxt[key] += term
            paths = nxt
        # the one direction each path misses closes it inside the contraction
        t, full = tensor.reshape(d, -1, d, d), (1 << n) - 1
        core = sum(
            np.einsum("amc,cb,amcb->ab", p.reshape(d, -1, d), w[(full ^ m).bit_length() - 1], t)
            for m, p in paths.items()
        )
    return dec.vectors @ core @ dec.vectors.conj().T
