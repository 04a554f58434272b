"""Confluent divided differences and the one derivative core.

derivative_matrix is the core shared by the dd, exp and Fourier routes: it
rotates the directions into the eigenbasis of x, contracts them there, and
rotates the result back. In the eigenbasis of a Hermitian x with
eigenvalues lam, the n-th derivative of g applied to x contracts the
rotated directions against the tensor of divided differences over
eigenvalue chains:

    T[i0, in] = sum over middle indices of
        V1[i0, i1] ... Vn[i(n-1), in] * g[lam_i0, ..., lam_in]

summed over all orderings of the directions. The divided differences are
computed by the Newton recurrence, switching to a Taylor expansion around
the cluster midpoint whenever a chain's span falls below the clustering
tolerance. For exp the first divided difference uses the exact product
form exp((a+b)/2) * sinh((a-b)/2) / ((a-b)/2), stable at every gap.
"""

import itertools
from math import factorial

import numpy as np

from .errors import OrderSupportError

CLUSTER_TOL_FACTOR = 1e-6
TAYLOR_TERMS = 12

_EINSUM = {
    1: "ab,ab->ab",
    2: "ab,bc,abc->ac",
    3: "ab,bc,cd,abcd->ad",
    4: "ab,bc,cd,de,abcde->ae",
}


def cluster_tolerance(scale):
    """Clustering tolerance 1e-6 * (1 + scale), scale = max |node|."""
    return CLUSTER_TOL_FACTOR * (1.0 + float(scale))


def complete_homogeneous(ys, qmax):
    """h_0..h_qmax, the complete homogeneous symmetric sums of ys."""
    h = np.zeros(qmax + 1, dtype=np.result_type(np.asarray(ys), np.float64))
    h[0] = 1.0
    for y in ys:
        for q in range(1, qmax + 1):
            h[q] = h[q] + y * h[q - 1]
    return h


def _sinhc(w):
    """sinh(w)/w, series for small |w|."""
    w = np.asarray(w, dtype=np.complex128)
    small = np.abs(w) < 1e-4
    wsafe = np.where(small, 1.0, w)
    w2 = w * w
    return np.where(small, 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0), np.sinh(wsafe) / wsafe)


def exp_dd_scaled(chain, z):
    """Divided differences of exp over the nodes z * chain, vectorized in z.

    chain is an ascending tuple of real nodes, z an ndarray of complex
    scale factors. Returns one divided difference per z entry.
    """
    z = np.asarray(z, dtype=np.complex128)
    m = len(chain) - 1
    if m == 0:
        return np.exp(z * chain[0])
    lam_max = max(abs(chain[0]), abs(chain[-1]))
    # Per-z cluster threshold on the scaled span |z| * (b - a).
    tol = CLUSTER_TOL_FACTOR * (1.0 + np.abs(z) * lam_max)

    def taylor(i, j):
        # dd of exp over z*chain[i..i+j] around the scaled midpoint.
        sub = chain[i : i + j + 1]
        c = 0.5 * (sub[0] + sub[-1])
        h = complete_homogeneous([y - c for y in sub], TAYLOR_TERMS)
        acc = np.zeros_like(z)
        zpow = np.ones_like(z)
        for q in range(TAYLOR_TERMS + 1):
            acc = acc + zpow * (h[q] / factorial(j + q))
            zpow = zpow * z
        return np.exp(z * c) * acc

    table = [[np.exp(z * t) for t in chain]]
    for j in range(1, m + 1):
        row = []
        for i in range(0, m - j + 1):
            a, b = chain[i], chain[i + j]
            if j == 1:
                row.append(np.exp(z * (0.5 * (a + b))) * _sinhc(z * (0.5 * (b - a))))
                continue
            span = z * (b - a)
            mask = np.abs(span) < tol
            denom = np.where(mask, 1.0, span)
            rec = (table[j - 1][i + 1] - table[j - 1][i]) / denom
            row.append(np.where(mask, taylor(i, j), rec) if mask.any() else rec)
        table.append(row)
    return table[m][0]


def function_dd(g, chain, tol):
    """Divided difference of a scalar function over ascending real nodes.

    g must provide eval_derivative(t, order) and max_order (None meaning
    unlimited). Chains whose span is below tol are evaluated by a Taylor
    expansion around the midpoint using as many derivative orders as g
    supports; a cluster of m+1 nodes needs at least the m-th derivative.
    """
    m = len(chain) - 1
    if m == 0:
        return g.eval_derivative(chain[0], 0)

    def taylor(sub):
        order = len(sub) - 1
        if g.max_order is not None and g.max_order < order:
            raise OrderSupportError(
                f"{g.kind}: clustered nodes need derivative order {order}, "
                f"but only {g.max_order} is supported"
            )
        c = 0.5 * (sub[0] + sub[-1])
        cap = order + TAYLOR_TERMS
        if g.max_order is not None:
            cap = min(cap, g.max_order)
        h = complete_homogeneous([y - c for y in sub], cap - order)
        acc = 0.0
        for q in range(cap - order + 1):
            term = (g.eval_derivative(c, order + q) / factorial(order + q)) * h[q]
            acc = acc + term
            if abs(term) <= 1e-18 * (abs(acc) + 1e-300):
                break
        return acc

    table = [[g.eval_derivative(t, 0) for t in chain]]
    for j in range(1, m + 1):
        row = []
        for i in range(0, m - j + 1):
            span = chain[i + j] - chain[i]
            if span < tol:
                row.append(taylor(chain[i : i + j + 1]))
            else:
                row.append((table[j - 1][i + 1] - table[j - 1][i]) / span)
        table.append(row)
    return table[m][0]


def chain_tensor(lam, n, dd_of_chain):
    """Tensor of divided differences over all (n+1)-index eigenvalue chains.

    dd_of_chain maps an ascending tuple of eigenvalues to a scalar. Values
    are computed once per sorted chain (divided differences are symmetric)
    and scattered to the full (d, ..., d) tensor.
    """
    d = len(lam)
    if n == 0:
        return np.array([dd_of_chain((lam[i],)) for i in range(d)], dtype=np.complex128)
    grid = np.indices((d,) * (n + 1)).reshape(n + 1, -1).T
    grid = np.sort(grid, axis=1)
    uniq, inverse = np.unique(grid, axis=0, return_inverse=True)
    vals = np.array(
        [dd_of_chain(tuple(lam[j] for j in row)) for row in uniq], dtype=np.complex128
    )
    return vals[np.asarray(inverse).reshape(-1)].reshape((d,) * (n + 1))


def contract_ordered(tensor, dirs_seq):
    """Contract the chain tensor with one ordering of eigenbasis directions."""
    n = len(dirs_seq)
    if n == 0:
        return np.diag(tensor)
    if n == 1:
        return dirs_seq[0] * tensor
    return np.einsum(_EINSUM[n], *dirs_seq, tensor, optimize=True)


def to_eigenbasis(dec, dirs):
    """Directions rotated into the eigenbasis: U* V U."""
    uh = dec.vectors.conj().T
    return [uh @ v @ dec.vectors for v in dirs]


def derivative_matrix(h, dirs, dd_of_chain):
    """D^n g(x)[dirs] for the HermitianMatrix h: rotate the directions into
    its eigenbasis, contract against the chain tensor summed over all
    direction orderings, rotate back."""
    dec = h.eig()
    dirs_eig = to_eigenbasis(dec, dirs)
    tensor = chain_tensor(dec.eigenvalues, len(dirs), dd_of_chain)
    core = np.zeros((h.dim, h.dim), dtype=np.complex128)
    for phi in itertools.permutations(range(len(dirs))):
        core += contract_ordered(tensor, [dirs_eig[i] for i in phi])
    return dec.vectors @ core @ dec.vectors.conj().T
