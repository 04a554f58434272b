"""Matrix exponential and its higher-order derivatives.

Two independent routes compute the n-th derivative of exp at a Hermitian
point applied to direction matrices:

  * exp_derivative_dd: exact eigenbasis contraction against divided
    differences of exp over eigenvalue chains.
  * exp_derivative_mc: Monte-Carlo quadrature of the simplex integral
    sum over orderings of exp(t0 x) v exp(t1 x) ... exp(tn x), with the
    simplex carrying total mass 1/n!.

Both accept a complex scale factor z and differentiate at z*x, which is
how the Fourier path evaluates derivatives at purely imaginary arguments.
"""

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import rng
from .divided import chain_dd, derivative_matrix, to_eigenbasis
from .errors import CapExceededError, OverflowRangeError, ParseError
from .functions import ExpFunction
from .linalg import HermitianMatrix, as_array, eig, frobenius

EXP_DERIV_MAX_N = 4
EXP_DERIV_MAX_DIM = 32
SIMPLEX_MAX_N = 8
EXP_ARG_LIMIT = 700.0


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
    z = np.array([scale])
    matrix = derivative_matrix(h, dirs, lambda t: chain_dd(ExpFunction(), t, z)[:, 0])
    return MultilinearDerivative(matrix=matrix, order=len(dirs), method="dd", scale=scale)


def _mc_chunk(block, count, seed, lam, scale, dirs_eig, vectors):
    """One counter-seeded chunk: per-sample chain products in the original
    basis, reduced to (sum, sum of squares, count)."""
    n = len(dirs_eig)
    gen = rng.generator(seed, rng.STREAM_SIMPLEX, block)
    e = gen.standard_exponential((count, n + 1))
    t = e / e.sum(axis=1, keepdims=True)
    ex = np.exp(scale * np.multiply.outer(t, lam))
    d = len(lam)
    if n == 0:
        y = np.einsum("sa,ia,ja->sij", ex[:, 0, :], vectors, vectors.conj())
    else:
        # Chain diag(ex0) V_phi(1) diag(ex1) ... V_phi(n) diag(exn) as
        # batched matrix products over the sample axis.
        y = np.zeros((count, d, d), dtype=np.complex128)
        for phi in itertools.permutations(range(n)):
            m = (ex[:, 0, :, None] * dirs_eig[phi[0]][None, :, :]) * ex[:, 1, None, :]
            for j in range(1, n):
                m = m @ (dirs_eig[phi[j]][None, :, :] * ex[:, j + 1, None, :])
            y += m
        y /= factorial(n)
        y = vectors[None, :, :] @ y @ vectors.conj().T[None, :, :]
    return y.sum(axis=0), (y.real**2).sum(axis=0), (y.imag**2).sum(axis=0)


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
    total_re2 = np.zeros((d, d))
    total_im2 = np.zeros((d, d))
    for block, count in rng.blocks(samples):
        sum_y, sum_re2, sum_im2 = _mc_chunk(
            block, count, seed, dec.eigenvalues, scale, dirs_eig, dec.vectors
        )
        total += sum_y
        total_re2 += sum_re2
        total_im2 += sum_im2
    mean = total / samples
    var_re = np.maximum(total_re2 / samples - mean.real**2, 0.0)
    var_im = np.maximum(total_im2 / samples - mean.imag**2, 0.0)
    bessel = samples / (samples - 1)
    se = np.sqrt(bessel * (var_re + var_im) / samples)
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
