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

chain_dd is the one engine for those values. It evaluates
g[z t_0, ..., z t_m] for a whole array of ascending chains t, with an
optional trailing axis of complex scales z (1 for g(x), the scale for
exp(scale x), i s for the Fourier synthesis). Every entry of the Newton
table, the divided difference over the nodes t_i..t_(i+j) with span
w = t_(i+j) - t_i, follows one rule:

  * |z| w <= TAYLOR_SPAN: the Taylor series about the midpoint c,
        sum_q g^(j+q)(z c) / (j+q)! * z^q * h_q(t_i - c, ..., t_(i+j) - c),
    h_q the complete homogeneous symmetric sums, for q = 0..Q with no exit
    on a term that happens to be 0. A polynomial g takes its whole finite
    series, Q = degree - j; any other g takes rho^Q <= eps, rho = |z| w / 2,
    which bounds the tail when g^(k)(c) / k! does not grow with k (exp, sin,
    cos; the gaussian's grow like |c|^k / k!, which stays within 1e-13 for
    midpoints |c| <= 15);
  * otherwise the Newton recurrence (T[i+1, j-1] - T[i, j-1]) / (z w).

The recurrence is only used where it divides by more than 1, so its
rounding does not grow from level to level. A g with a finite max_order
(the cubic spline, max_order 1) takes the Taylor branch where orders j + Q
exist, i.e. over coincident nodes, and its leading terms up to max_order
where |z| w <= sqrt(eps) (1 + |z c|), there cancellation in the recurrence
would cost more than the truncation; such an entry at a level past
max_order raises OrderSupportError.
"""

import itertools
from math import factorial

import numpy as np

from .errors import OrderSupportError

TAYLOR_SPAN = 1.0
_LOG_EPS = float(np.log(np.finfo(float).eps))
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def _taylor_terms(g, j, rho):
    """Terms Q past the leading one at level j for scaled half-spans rho."""
    if g.degree is not None:
        return np.where(rho > 0.0, max(g.degree - j, 0), 0)
    safe = np.where(rho > 0.0, rho, 0.5)
    return np.where(rho > 0.0, np.ceil(_LOG_EPS / np.log(safe)), 0.0).astype(np.intp)


def _taylor(g, t, j, zs, sel, terms, dtype):
    """Taylor values of the level-j table at the selected (chain, i, z)
    entries, in np.nonzero(sel) order, summed to terms[k] terms past the
    first for the k-th. Entries are sorted by their term count, so the
    entries still summing order s are always a prefix. The Fourier
    synthesis, whose scaled spans spread over all term counts, needs this:
    without it the crosscheck benchmark ran 40 % longer."""
    ci, ii, zi = np.nonzero(sel)
    order = np.argsort(-terms, kind="stable")
    ci, ii, zi, q = ci[order], ii[order], zi[order], terms[order]
    nodes = t[ci[:, None], ii[:, None] + np.arange(j + 1)]
    mid = 0.5 * (nodes[:, 0] + nodes[:, -1])
    qmax = int(q[0])
    # count[s] = number of entries with at least s terms past the first
    count = np.searchsorted(-q, -np.arange(qmax + 1), side="right")
    # h[s] = complete homogeneous sum of degree s of the offsets from mid
    h = [np.ones(count[0])] + [np.zeros(count[s]) for s in range(1, qmax + 1)]
    for y in (nodes - mid[:, None]).T:
        for s in range(1, qmax + 1):
            h[s] += y[: count[s]] * h[s - 1][: count[s]]
    zsel = zs[zi]
    u = mid * zsel
    acc = np.zeros(len(q), dtype=dtype)
    for s in range(qmax, -1, -1):
        k = count[s]
        coef = np.asarray(g.eval_derivative(u[:k], j + s)) * (h[s] / factorial(j + s))
        acc[:k] = acc[:k] * zsel[:k] + coef
    out = np.empty_like(acc)
    out[order] = acc
    return out


def chain_dd(g, chains, z=None):
    """g[z t_0, ..., z t_m] for every row t of chains, by the module rule.

    chains is a (C, m+1) array of real ascending rows; g provides
    eval_derivative(u, order), max_order and degree, and must accept
    complex u when z is complex. Returns shape (C,) without z and
    (C, len(z)) with a 1-d z.
    """
    t = np.asarray(chains, dtype=float)
    m = t.shape[1] - 1
    zs = np.ones(1) if z is None else np.asarray(z, dtype=np.complex128).reshape(-1)
    table = np.asarray(g.eval_derivative(t[:, :, None] * zs, 0))
    dtype = np.result_type(table, zs)
    # Entries under a whole chain that takes the Taylor branch are not
    # needed; skipping them keeps the Fourier synthesis, where most chains
    # are whole at small |z|, from paying for every level.
    whole = np.abs((t[:, -1] - t[:, 0])[:, None, None] * zs) <= TAYLOR_SPAN
    whole &= g.max_order is None
    for j in range(1, m + 1):
        scaled = (t[:, j:] - t[:, :-j])[:, :, None] * zs
        taylor = np.abs(scaled) <= TAYLOR_SPAN
        terms = _taylor_terms(g, j, 0.5 * np.abs(scaled))
        if g.max_order is not None:
            mid = 0.5 * (t[:, j:] + t[:, :-j])[:, :, None] * zs
            close = np.abs(scaled) <= _SQRT_EPS * (1.0 + np.abs(mid))
            taylor &= (j + terms <= g.max_order) | close
            if j > g.max_order and taylor.any():
                raise OrderSupportError(
                    f"{g.label()}: nodes {np.min(np.abs(scaled[taylor])):.1e} apart "
                    f"need derivative order {j}, but only {g.max_order} is supported"
                )
            terms = np.minimum(terms, g.max_order - j)
        table = (table[:, 1:] - table[:, :-1]) / np.where(taylor, 1.0, scaled)
        sel = taylor if j == m else taylor & ~whole
        if sel.any():
            table[sel] = _taylor(g, t, j, zs, sel, terms[sel], dtype)
    return table[:, 0] if z is not None else table[:, 0, 0]


def chain_tensor(lam, n, dd_of_chains):
    """Tensor of divided differences over all (n+1)-index eigenvalue chains.

    dd_of_chains maps a (C, n+1) array of ascending eigenvalue chains to C
    values. It is called once, on the C(d+n, n+1) sorted index tuples
    (divided differences are symmetric), and the values are scattered to
    every permutation of the tensor axes.
    """
    d = len(lam)
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(d), n + 1)),
        dtype=np.intp,
    ).reshape(-1, n + 1)
    vals = dd_of_chains(lam[idx])
    tensor = np.empty((d,) * (n + 1), dtype=np.complex128)
    for perm in itertools.permutations(range(n + 1)):
        tensor[tuple(idx[:, p] for p in perm)] = vals
    return tensor


def to_eigenbasis(dec, dirs):
    """Directions rotated into the eigenbasis: U* V U."""
    uh = dec.vectors.conj().T
    return [uh @ v @ dec.vectors for v in dirs]


def derivative_matrix(h, dirs, dd_of_chains):
    """D^n g(x)[dirs] for the HermitianMatrix h: rotate the directions into
    its eigenbasis, contract against the chain tensor summed over all
    direction orderings, rotate back."""
    dec = h.eig()
    w = to_eigenbasis(dec, dirs)
    n, d = len(dirs), h.dim
    tensor = chain_tensor(dec.eigenvalues, n, dd_of_chains)
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
