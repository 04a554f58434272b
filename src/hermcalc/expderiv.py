"""Matrix exponential and its higher-order derivatives.

Two independent routes compute the n-th derivative of exp at a Hermitian
point applied to direction matrices:

  * exp_derivative_dd: exact eigenbasis contraction against divided
    differences of exp over eigenvalue chains.
  * exp_derivative_mc: Monte-Carlo quadrature of the simplex integral
    sum over orderings of exp(t0 x) v exp(t1 x) ... exp(tn x), with the
    simplex carrying total mass 1/n!, each batch of samples joined in one
    GEMM over the sample axis per subset of directions (see _mc_sum).

Both accept a complex scale factor z and differentiate at z*x; the dd
route takes the divided differences over the complex nodes z lam.
"""

from dataclasses import dataclass
from itertools import combinations
from math import factorial

import numpy as np

from . import rng
from .divided import derivative_matrix, to_eigenbasis
from .errors import CapExceededError, OverflowRangeError, ParseError
from .functions import ExpFunction
from .linalg import HermitianMatrix

EXP_DERIV_MAX_N = 4
EXP_DERIV_MAX_DIM = 32
SIMPLEX_MAX_N = 8
EXP_ARG_LIMIT = 700.0
# (sample, row, column) entries per array of an MC sub-block (512 KB complex):
# keeps the GEMMs in cache and bounds memory; draws and batches do not depend on it.
MC_SUB_ENTRIES = 1 << 15


@dataclass
class MultilinearDerivative:
    """Result of applying an n-th derivative to a tuple of directions."""

    matrix: np.ndarray
    order: int
    method: str
    scale: complex = 1.0 + 0.0j
    samples: int | None = None
    std_error: np.ndarray | None = None
    seed: int | None = None


@dataclass
class VolumeEstimate:
    value: float
    std_error: float
    samples: int
    n: int
    seed: int


def reference_simplex_volume(n):
    """Exact mass of the n-simplex under the chain measure, 1/n!."""
    return 1.0 / factorial(n)


def check_derivative_args(x, dirs):
    """Argument check shared by the derivative routes.

    Returns (HermitianMatrix of x, Hermitian directions as an (n, d, d) array).
    The order and dimension caps raise CapExceededError; a direction that
    is not Hermitian or not shaped like x raises ParseError naming it.
    """
    h = x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)
    n = len(dirs)
    if n > EXP_DERIV_MAX_N:
        raise CapExceededError(f"derivative: order {n} exceeds cap {EXP_DERIV_MAX_N}")
    if h.dim > EXP_DERIV_MAX_DIM:
        raise CapExceededError(f"derivative: dimension {h.dim} exceeds cap {EXP_DERIV_MAX_DIM}")
    out = []
    for j, v in enumerate(dirs):
        try:
            arr = HermitianMatrix(v).array
        except ParseError as exc:
            raise ParseError(f"direction {j}: {exc}") from None
        if arr.shape != (h.dim, h.dim):
            raise ParseError(f"direction {j}: shape {arr.shape} does not match x, dim {h.dim}")
        out.append(arr)
    return h, np.array(out, dtype=np.complex128).reshape(n, h.dim, h.dim)


def _check_exp_range(who, z, lam):
    """The range check of every exp route over a spectrum lam: exp(z lam)
    overflows once |Re z| max|lam| exceeds EXP_ARG_LIMIT."""
    bound = abs(complex(z).real) * float(np.max(np.abs(lam)))
    if bound > EXP_ARG_LIMIT:
        raise OverflowRangeError(f"{who}: |Re z| max|lambda| = {bound:.3e} > {EXP_ARG_LIMIT:g}")


def mat_exp(x, t=1.0):
    """exp(t x) = U exp(t lambda) U* for Hermitian x and any complex t. The
    overflow check bounds the largest real part of the exponent,
    |Re t| max|lambda| (imaginary t gives a unitary)."""
    dec = (x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)).eig()
    _check_exp_range("mat_exp", t, dec.eigenvalues)
    return (dec.vectors * np.exp(complex(t) * dec.eigenvalues)) @ dec.vectors.conj().T


def exp_derivative_dd(x, dirs, scale=1.0):
    """n-th derivative of exp at scale*x applied to dirs, via divided
    differences of exp over eigenvalue chains of x."""
    h, dirs = check_derivative_args(x, dirs)
    scale, dec = complex(scale), h.eig()
    _check_exp_range("exp_derivative_dd", scale, dec.eigenvalues)
    g = ExpFunction()
    matrix = derivative_matrix(scale * dec.eigenvalues[None], dec.vectors[None], dirs[None], g)[0]
    return MultilinearDerivative(matrix=matrix, order=len(dirs), method="dd", scale=scale)


def _real_gemm(a, w):
    """a @ w for a complex w whose last axis is contiguous: one real GEMM on
    w's float64 view when a is real, as the exponentials of a real scale are."""
    if a.dtype == np.complex128:
        return a @ w
    return (a @ w.view(np.float64)).view(np.complex128)


def _mc_sum(ex, dirs_eig, pairs):
    """The eigenbasis chain sums, summed over orderings, of diag(ex_0) V_1
    diag(ex_1) ... V_n diag(ex_n) / n!, summed over a sub-block of samples;
    ex is laid out (level, sample, eigenvalue). Up to level n - 1 the
    orderings are summed over subsets per sample, as divided.derivative_matrix
    does without the diagonals: level[mask] (sample, row, column) holds,
    summed over the orderings of the j directions in mask, V_1 diag(ex_1) V_2
    ... diag(ex_j-1) V_j / n!. Level 2 is ex_1 times pairs[1 << k | 1 << l]
    [i, a, m] = (V_k[a, i] V_l[i, m] + V_l[a, i] V_k[i, m]) / n!. The last
    direction k, the outer diagonals and the sum over samples are one GEMM
    over the sample axis per level-(n - 1) mask: G[c, a, m] = sum_s
    ex_n[s, c] ex_0[s, a] F[s, a, m] ex_n-1[s, m], and Y[a, c] = sum_m
    G[c, a, m] V_k[m, c]. For n <= 2 the level-(n - 1) factors are constant."""
    n, s, d = ex.shape[0] - 1, ex.shape[1], ex.shape[2]
    if n == 0:
        return np.diag(ex[0].sum(axis=0))
    if n == 1:
        return dirs_eig[0] * (ex[0].T @ ex[1])
    outer = ex[0][:, :, None] * ex[n - 1][:, None, :]
    if n == 2:
        g = ex[2].T @ outer.reshape(s, -1)
        return np.einsum("cam,mac->ac", g.reshape(d, d, d), pairs[3])
    level = {m: _real_gemm(ex[1], p.reshape(d, -1)).reshape(s, d, d) for m, p in pairs.items()}
    # each level array is read once, so the diagonals scale it in place
    for j in range(2, n - 1):
        nxt = {}
        for mask, f in level.items():
            f *= ex[j][:, None, :]
            for k in (k for k in range(n) if not mask >> k & 1):
                term = (f.reshape(-1, d) @ dirs_eig[k]).reshape(s, d, d)
                key = mask | 1 << k
                if nxt.setdefault(key, term) is not term:
                    nxt[key] += term
        level = nxt
    y, full = 0, (1 << n) - 1
    for m, f in level.items():
        f *= outer
        g = _real_gemm(ex[n].T, f.reshape(s, -1)).reshape(d, d, d)
        y = y + np.einsum("cam,mc->ac", g, dirs_eig[(full ^ m).bit_length() - 1])
    return y


def exp_derivative_mc(x, dirs, samples, seed, scale=1.0, threads=1):
    """Monte-Carlo estimate of the exp derivative with per-entry standard
    errors: uniform simplex samples, E[integrand] / n! summed over direction
    orderings. Each 4096-sample block is summed in batches of
    b = min(256, max(1, samples // 64)) samples, the last one of a block
    possibly partial, and each batch sum is rotated back once; std_error is
    the batch-means estimate sqrt(sum_k n_k |m_k - m|^2 / ((K - 1) N)) over
    the K batches, the per-sample one for b = 1. Bit-reproducible; threads
    is accepted and ignored."""
    h, dirs = check_derivative_args(x, dirs)
    n = len(dirs)
    samples = int(samples)
    if samples < 2:
        raise ParseError("exp_derivative_mc: need at least 2 samples")
    scale, dec = complex(scale), h.eig()
    _check_exp_range("exp_derivative_mc", scale, dec.eigenvalues)
    d, u = h.dim, dec.vectors
    dirs_eig = to_eigenbasis(u, dirs)
    pairs = {
        1 << k | 1 << l: (a.T[:, :, None] * b[:, None, :] + b.T[:, :, None] * a[:, None, :])
        / factorial(n)
        for (k, a), (l, b) in combinations(enumerate(dirs_eig), 2)
    }
    batch = min(256, max(1, samples // 64))
    sub = min(batch, MC_SUB_ENTRIES // (d * d))
    z = scale.real if scale.imag == 0 else scale
    total = np.zeros((d, d), dtype=np.complex128)
    m2 = done = batches = 0
    for block, count in rng.blocks(samples):
        e = rng.generator(seed, rng.STREAM_SIMPLEX, block).standard_exponential((count, n + 1))
        t = e / e.sum(axis=1, keepdims=True)
        ex = np.exp(z * np.multiply.outer(t.T, dec.eigenvalues))
        for lo in range(0, count, batch):
            hi = min(lo + batch, count)
            subs = (ex[:, i : min(i + sub, hi)] for i in range(lo, hi, sub))
            y = sum(_mc_sum(part, dirs_eig, pairs) for part in subs)
            y, size = u @ y @ u.conj().T, hi - lo
            if done:  # Chan's update of sum_k n_k |m_k - m|^2, the batch as one point
                dev = y / size - total / done
                m2 = m2 + (dev.real**2 + dev.imag**2) * (size * done / (done + size))
            total += y
            done += size
            batches += 1
    return MultilinearDerivative(
        matrix=total / samples,
        order=n,
        method="mc",
        scale=scale,
        samples=samples,
        std_error=np.sqrt(m2 / ((batches - 1) * samples)),
        seed=int(seed),
    )


def simplex_volume_mc(n, samples, seed, threads=1):
    """Monte-Carlo volume of {t in [0,1]^n : sum t <= 1}, expected 1/n!.
    threads is accepted and ignored."""
    if n < 0:
        raise ParseError(f"simplex_volume_mc: order must be >= 0, got {n}")
    if n > SIMPLEX_MAX_N:
        raise CapExceededError(f"simplex_volume_mc: n = {n} above {SIMPLEX_MAX_N}")
    samples = int(samples)
    if n == 0:
        return VolumeEstimate(value=1.0, std_error=0.0, samples=samples, n=0, seed=int(seed))
    if samples < 2:
        raise ParseError("simplex_volume_mc: need at least 2 samples")

    def chunk_hits(block, count):
        gen = rng.generator(seed, rng.STREAM_VOLUME, block)
        u = gen.random((count, n))
        return int(np.count_nonzero(u.sum(axis=1) <= 1.0))

    hits = sum(chunk_hits(block, count) for block, count in rng.blocks(samples))
    p = hits / samples
    se = float(np.sqrt(p * (1.0 - p) / samples))
    return VolumeEstimate(value=p, std_error=se, samples=samples, n=n, seed=int(seed))
