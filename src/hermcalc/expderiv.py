"""Matrix exponential and its higher-order derivatives.

Two independent routes compute the n-th derivative of exp at a Hermitian
point applied to direction matrices:

  * exp_derivative_dd: exact eigenbasis contraction against divided
    differences of exp over eigenvalue chains.
  * exp_derivative_mc: Monte-Carlo quadrature of the simplex integral
    sum over orderings of exp(t0 x) v exp(t1 x) ... exp(tn x), with the
    simplex carrying total mass 1/n!.

Both accept a complex scale factor z and differentiate at z*x; the dd
route takes the divided differences over the complex nodes z lam.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import rng
from .divided import derivative_matrix, to_eigenbasis
from .errors import CapExceededError, OverflowRangeError, ParseError
from .functions import ExpFunction
from .linalg import HermitianMatrix, as_array, eig, frobenius

EXP_DERIV_MAX_N = 4
EXP_DERIV_MAX_DIM = 32
SIMPLEX_MAX_N = 8
EXP_ARG_LIMIT = 700.0
# (row, sample, column) entries per array of an MC sub-block (512 KB): keeps
# the arrays in cache and bounds the memory; the draws do not depend on it.
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

    Returns (HermitianMatrix of x, list of Hermitian direction arrays).
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
    return h, out


def mat_exp(x, t=1.0):
    """exp(t x). Eigenbasis route for Hermitian x with real or imaginary t,
    scipy.linalg.expm otherwise. The overflow check bounds the largest
    real part of the exponent: |Re t| max|lambda| on the eigenbasis route
    (imaginary t gives a unitary), ||x||_F |t| for expm."""
    t = complex(t)
    arr = as_array(x)
    scale = frobenius(arr)
    hermitian = isinstance(x, HermitianMatrix) or (
        frobenius(arr - arr.conj().T) <= 1e-12 * max(scale, 1e-300)
    )
    if hermitian and (t.imag == 0.0 or t.real == 0.0):
        dec = x.eig() if isinstance(x, HermitianMatrix) else eig(arr)
        bound = abs(t.real) * float(np.max(np.abs(dec.eigenvalues)))
        if bound > EXP_ARG_LIMIT:
            raise OverflowRangeError(
                f"mat_exp: |Re t| * max|lambda| = {bound:.3e} exceeds {EXP_ARG_LIMIT:g}"
            )
        w = np.exp(t * dec.eigenvalues)
        return (dec.vectors * w) @ dec.vectors.conj().T

    if scale * abs(t) > EXP_ARG_LIMIT:
        raise OverflowRangeError(
            f"mat_exp: ||x|| * |t| = {scale * abs(t):.3e} exceeds {EXP_ARG_LIMIT:g}"
        )
    # Imported here: scipy.linalg is slow to load and rarely needed.
    from scipy.linalg import expm

    return expm(t * arr)


def exp_derivative_dd(x, dirs, scale=1.0):
    """n-th derivative of exp at scale*x applied to dirs, via divided
    differences of exp over eigenvalue chains of x."""
    h, dirs = check_derivative_args(x, dirs)
    scale = complex(scale)
    if abs(scale.real) * np.max(np.abs(h.eig().eigenvalues)) > EXP_ARG_LIMIT:
        raise OverflowRangeError("exp derivative: spectrum too large for exp")
    matrix = derivative_matrix(h, dirs, ExpFunction(), scale)
    return MultilinearDerivative(matrix=matrix, order=len(dirs), method="dd", scale=scale)


def _merge_m2(n_a, sum_a, m2_a, n_b, sum_b, m2_b):
    """Chan's update: m2 = sum |y - mean|^2 over two joined groups, from each one's n, sum, m2."""
    if not n_a:
        return m2_b
    delta = sum_b / n_b - sum_a / n_a
    return m2_a + m2_b + (delta.real**2 + delta.imag**2) * (n_a * n_b / (n_a + n_b))


def _mc_chunk(block, count, seed, lam, scale, dirs_eig, vectors):
    """One counter-seeded chunk: per-sample chain products in the original
    basis, their sum and their sum of |y - mean|^2."""
    n = len(dirs_eig)
    d = len(lam)
    gen = rng.generator(seed, rng.STREAM_SIMPLEX, block)
    e = gen.standard_exponential((count, n + 1))
    t = e / e.sum(axis=1, keepdims=True)
    ex = np.exp(scale * np.multiply.outer(t, lam))
    total = m2 = 0.0
    step = MC_SUB_ENTRIES // (d * d)
    for lo in range(0, count, step):
        exs = ex[lo : lo + step]
        # Sum over orderings by subsets, as divided.derivative_matrix does
        # without the diagonals: level[mask] holds, summed over the
        # orderings of the j directions in mask, V_1 diag(ex_1) V_2 ...
        # diag(ex_j-1) V_j, laid out (row, sample, column) so that each
        # factor is one GEMM.
        level = {0: np.eye(d)[:, None, :]}
        for j in range(n):
            nxt = {}
            for mask, f in level.items():
                f = f * exs[:, j] if j else f
                for k in (k for k in range(n) if not mask >> k & 1):
                    term = (f.reshape(-1, d) @ dirs_eig[k]).reshape(d, -1, d)
                    key = mask | 1 << k
                    if nxt.setdefault(key, term) is not term:
                        nxt[key] += term  # in place: a fresh array costs more
            level = nxt
        # the outer diagonals diag(ex_0) and diag(ex_n), then back to the
        # original basis, vectors @ y @ vectors^H, as two GEMMs
        y = level[(1 << n) - 1] * (exs[:, 0].T[:, :, None] / factorial(n))
        if n:
            y *= exs[:, n]
        y = vectors @ y.reshape(d, -1)
        y = (y.reshape(-1, d) @ vectors.conj().T).reshape(d, -1, d)
        sub = y.sum(axis=1)
        y -= sub[:, None, :] / len(exs)  # in place: a fresh array made MC 12 % slower
        sq = np.einsum("isj,isj->ij", y.view(np.float64), y.view(np.float64))
        m2 = _merge_m2(lo, total, m2, len(exs), sub, sq[:, 0::2] + sq[:, 1::2])
        total = total + sub
    return total, m2


def exp_derivative_mc(x, dirs, samples, seed, scale=1.0, threads=1):
    """Monte-Carlo estimate of the exp derivative with per-entry standard
    errors: uniform simplex samples, E[integrand] / n! summed over
    direction orderings. Bit-reproducible; threads is accepted and ignored."""
    h, dirs = check_derivative_args(x, dirs)
    n = len(dirs)
    samples = int(samples)
    if samples < 2:
        raise ParseError("exp_derivative_mc: need at least 2 samples")
    scale = complex(scale)
    dec = h.eig()
    dirs_eig = to_eigenbasis(dec, dirs)

    d = h.dim
    total = np.zeros((d, d), dtype=np.complex128)
    m2 = done = 0
    for block, count in rng.blocks(samples):
        sum_y, m2_y = _mc_chunk(block, count, seed, dec.eigenvalues, scale, dirs_eig, dec.vectors)
        m2 = _merge_m2(done, total, m2, count, sum_y, m2_y)
        total += sum_y
        done += count
    mean = total / samples
    se = np.sqrt(m2 / ((samples - 1) * samples))
    return MultilinearDerivative(
        matrix=mean,
        order=n,
        method="mc",
        scale=scale,
        samples=samples,
        std_error=se,
        seed=int(seed),
    )


def sample_simplex(n, seed, index=0):
    """One uniform sample from the n-simplex: n+1 normalized exponentials.
    Deterministic per (seed, index)."""
    if n < 0 or n > SIMPLEX_MAX_N:
        raise CapExceededError(f"sample_simplex: n = {n} outside 0..{SIMPLEX_MAX_N}")
    gen = rng.generator(seed, rng.STREAM_SIMPLEX, index)
    e = gen.standard_exponential(n + 1)
    return e / e.sum()


def simplex_volume_mc(n, samples, seed, threads=1):
    """Monte-Carlo volume of {t in [0,1]^n : sum t <= 1}, expected 1/n!.
    threads is accepted and ignored."""
    if n < 0 or n > SIMPLEX_MAX_N:
        raise CapExceededError(f"simplex_volume_mc: n = {n} outside 0..{SIMPLEX_MAX_N}")
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
