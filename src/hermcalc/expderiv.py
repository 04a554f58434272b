"""Matrix exponential and its higher-order derivatives.

Two independent routes compute the n-th derivative of exp at a Hermitian
point applied to direction matrices:

  * exp_derivative_dd: exact eigenbasis contraction against divided
    differences of exp over eigenvalue chains.
  * exp_derivative_mc: Monte-Carlo quadrature of the simplex integral
    sum over orderings of exp(t0 x) v exp(t1 x) ... exp(tn x), with the
    simplex carrying total mass 1/n!. A block's exponentials are laid out
    (level, batch, eigenvalue, sample), so the sample axis is innermost: one
    GEMM over it, between Kronecker products of the exponentials, forms a
    batch's moments, the directions applied after the sample sum (see
    _mc_moment), or, where those are too many, one per pair of directions
    joins per-sample pair products (_mc_sum).

Both accept a complex scale factor z and differentiate at z*x; the dd
route takes the divided differences over the complex nodes z lam. Each
route raises OverflowRangeError exactly where exp overflows at its nodes
(t lam, z lam, or the Monte Carlo route's mu = max Re(z lam)) or its result
is not finite.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from math import factorial

import numpy as np

from . import rng
from .divided import derivative_matrix, to_eigenbasis
from .errors import ParseError, check_complex, check_count, check_finite
from .functions import ExpFunction
from .linalg import HermitianMatrix

EXP_DERIV_MAX_N = 4
EXP_DERIV_MAX_DIM = 32
SIMPLEX_MAX_N = 8
# MC: the moment kernel's largest d^(n+1), and L, R and M entries per moment call
# (1 MB real), to keep its GEMMs in cache
MC_MOMENT_ENTRIES = 1 << 16
MC_GROUP_ENTRIES = 1 << 17


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


def check_derivative_caps(n, d):
    """The order n >= 0 and dimension d >= 1 of the derivative routes, with
    their caps, checked before any matrix is built."""
    check_count("derivative: order", n, 0, EXP_DERIV_MAX_N)
    check_count("derivative: dimension", d, 1, EXP_DERIV_MAX_DIM)


def check_derivative_args(x, dirs):
    """Argument check shared by the derivative routes.

    Returns (HermitianMatrix of x, Hermitian directions as an (n, d, d) array).
    The order and dimension caps raise CapExceededError; a direction that
    is not Hermitian or not shaped like x raises ParseError naming it.
    """
    h = x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)
    n = len(dirs)
    check_derivative_caps(n, h.dim)
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


@np.errstate(over="ignore", invalid="ignore")
def mat_exp(x, t=1.0):
    """exp(t x) = U exp(t lambda) U* for Hermitian x and any complex t;
    OverflowRangeError where exp(t lambda) overflows, never at imaginary t."""
    t = check_complex("mat_exp: t", t)
    dec = (x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)).eig()
    vals = ExpFunction().values(t * dec.eigenvalues)
    return check_finite("mat_exp", (dec.vectors * vals) @ dec.vectors.conj().T)


def exp_derivative_dd(x, dirs, scale=1.0):
    """n-th derivative of exp at scale*x applied to dirs, via divided
    differences of exp over eigenvalue chains of x."""
    h, dirs = check_derivative_args(x, dirs)
    scale, dec = check_complex("exp_derivative_dd: scale", scale), h.eig()
    g = ExpFunction()
    matrix = derivative_matrix(scale * dec.eigenvalues[None], dec.vectors[None], dirs[None], g)[0]
    return MultilinearDerivative(matrix=matrix, order=len(dirs), method="dd", scale=scale)


def _real_gemm(a, w, out=None):
    """a @ w, into out if given, for a complex w whose last axis is contiguous:
    one real GEMM on w's (and out's) float64 view when a is real, as the
    exponentials of a real scale are."""
    if a.dtype == np.complex128:
        return np.matmul(a, w, out=out)
    real = None if out is None else out.view(np.float64)
    return np.matmul(a, w.view(np.float64), out=real).view(np.complex128)


def _mc_weights(dirs_eig):
    """W = sum_s V_s1[i0, i1] ... V_sn[i(n-1), in] / n!, (re, im) as (2, d, d^(n-1), d)."""
    w = sum(reduce(lambda c, v: c[..., None] * v, order) for order in permutations(dirs_eig))
    return np.stack([w.real, w.imag]).reshape(2, len(w), -1, len(w)) / factorial(len(dirs_eig))


def _mc_moment(ex, w):
    """Per batch, the sum over its samples of the eigenbasis chains diag(ex_0)
    V_1 ... V_n diag(ex_n) / n! summed over orderings, ex (level, batch,
    eigenvalue, sample): the moments M[i0..in] = sum_s ex_0[i0, s] ...
    ex_n[in, s] are one GEMM over the sample axis, L R^T, L and R the
    Kronecker products of ex_0..ex_h-1 and of ex_h..ex_n, h = (n + 1) // 2,
    each formed with the sample axis last; Y[a, c] = sum_mid M[a, mid, c]
    W[a, mid, c], over W's parts if M is real. n = 0 is the diagonal."""
    n, (k, d, s) = ex.shape[0] - 1, ex.shape[1:]
    if n == 0:
        return ex[0].sum(axis=2)[:, :, None] * np.eye(d)
    h = (n + 1) // 2
    left, right = (
        reduce(lambda a, b: (a[:, :, None] * b[:, None]).reshape(k, -1, s), f)
        for f in (ex[:h], ex[h:])
    )
    m = (left @ right.swapaxes(1, 2)).reshape(k, d, -1, d)
    if m.dtype == np.complex128:
        return np.einsum("zamc,amc->zac", m, w[0] + 1j * w[1])
    y = np.einsum("zamc,xamc->zxac", m, w)
    return y[:, 0] + 1j * y[:, 1]


def _mc_terms(dirs_eig):
    """_mc_sum's (P, Q) per pair of directions, from chains, which maps a bit
    mask of directions to its V_k or to the pair's P laid out [i, a, m]."""
    n = len(dirs_eig)
    full, chains = (1 << n) - 1, {1 << k: v for k, v in enumerate(dirs_eig)}
    for (k, a), (l, b) in combinations(enumerate(dirs_eig), 2):
        p = a.T[:, :, None] * b[:, None, :] + b.T[:, :, None] * a[:, None, :]
        chains[1 << k | 1 << l] = p / factorial(n)
    pairs = [m for m in chains if m.bit_count() == 2]
    return [(chains[m].transpose(0, 2, 1).copy(), chains[full ^ m]) for m in pairs]


def _mc_sum(ex, terms):
    """The subset kernel, for n = 3 and 4 where _mc_moment's tensor costs
    more: the same per-batch sums, ex (level, batch, eigenvalue, sample),
    copied once to (level, batch, sample, eigenvalue), as its GEMMs put the
    samples on the rows. terms holds one (P, Q) per pair of directions
    k < l: P[i, m, a] = (V_k[a, i] V_l[i, m] + V_l[a, i] V_k[i, m]) / n!, and
    Q the last direction (n = 3) or the other pair's P as Q[j, m, c]
    (n = 4). Per sample, F[m, a] = ex_0[a] sum_i ex_1[i] P[i, m, a] ex_2[m].
    At n = 3 one GEMM over the sample axis joins ex_3, G[c, m, a] =
    sum_s ex_3[s, c] F[s, m, a], and then the last direction, Y[a, c] =
    sum_m G[c, m, a] Q[m, c]. At n = 4, R[m, c] = sum_j ex_3[j] Q[j, m, c]
    ex_4[c], and one GEMM over (sample, m) reading F transposed joins them:
    Y = n! F^T R, as both halves carry 1 / n!."""
    n, ex = ex.shape[0] - 1, np.ascontiguousarray(ex.swapaxes(2, 3))
    k, s, d = ex.shape[1:]
    outer = ex[2][..., :, None] * ex[0][..., None, :]
    # one buffer for every pair's F and, at n = 4, R: fresh arrays per pair
    # are returned to the OS and faulted back in per pair in a fresh process
    buf, y = np.empty((n - 2, k, s, d * d), dtype=np.complex128), 0
    for p, q in terms:
        f = _real_gemm(ex[1], p.reshape(d, -1), buf[0]).reshape(k, s, d, d)
        f *= outer
        if n == 3:
            g = _real_gemm(ex[3].swapaxes(1, 2), f.reshape(k, s, -1)).reshape(k, d, d, d)
            y = y + (q.T[:, None, :] @ g)[:, :, 0].swapaxes(1, 2)
        else:
            r = _real_gemm(ex[3], q.reshape(d, -1), buf[1]).reshape(k, s, d, d)
            r *= ex[4][..., None, :]
            y = y + f.reshape(k, -1, d).swapaxes(1, 2) @ r.reshape(k, -1, d)
    return y if n == 3 else y * factorial(n)


@np.errstate(over="ignore", invalid="ignore")
def exp_derivative_mc(x, dirs, samples, seed, scale=1.0, threads=1):
    """Monte-Carlo estimate of the exp derivative with per-entry standard
    errors: uniform simplex samples, E[integrand] / n! summed over direction
    orderings. Each 4096-sample block is summed in batches of
    b = min(256, max(1, samples // 64)) samples, the last one of a block
    possibly partial. The block's draws are normalised as (level, sample)
    rows, and its exponentials exp(t_j (z lam - mu)), mu = max Re(z lam) (refused
    first where exp(mu) overflows), are written once, laid out (level, batch,
    eigenvalue, sample), with exp taken in place: the t_j sum to 1, so each
    chain carries exp(mu) once, and the sums are multiplied by it. Its whole
    batches, then its partial batch, go to _mc_moment where d^(n+1) <=
    MC_MOMENT_ENTRIES, else to _mc_sum, and the block is merged by Chan's
    parallel update. std_error is the batch-means estimate sqrt(sum_k n_k
    |m_k - m|^2 / ((K - 1) N)) over the K batches, per sample for b = 1.
    Bit-reproducible; threads is ignored."""
    h, dirs = check_derivative_args(x, dirs)
    n = len(dirs)
    samples = check_count("exp_derivative_mc: samples", samples, 2)
    scale, dec = check_complex("exp_derivative_mc: scale", scale), h.eig()
    zlam = (scale.real if scale.imag == 0 else scale) * dec.eigenvalues[:, None]
    mu = float(zlam.real.max())  # 0 at an imaginary scale, whose bits do not change
    exp_mu, zlam = ExpFunction().values(mu), zlam - mu
    d, u = h.dim, dec.vectors
    dirs_eig = to_eigenbasis(u, dirs)
    batch = min(256, max(1, samples // 64))
    moment = n < 3 or d ** (n + 1) <= MC_MOMENT_ENTRIES
    if moment:
        kernel, w = _mc_moment, _mc_weights(dirs_eig) if n else None
        entries = batch * (d ** ((n + 1) // 2) + d ** (n // 2 + 1)) + d ** (n + 1)
        group = max(1, MC_GROUP_ENTRIES // entries)
    else:
        kernel, w, group = _mc_sum, _mc_terms(dirs_eig), 1
    total = np.zeros((d, d), dtype=np.complex128)
    m2 = done = batches = 0
    for block, count in rng.blocks(samples):
        gen = rng.generator(seed, rng.STREAM_SIMPLEX, block)
        t = gen.standard_exponential((count, n + 1)).T.copy()
        t /= t.sum(axis=0)
        # the exponentials (level, batch, eigenvalue, sample) of the block's
        # whole batches, then of its partial batch, in groups of whole batches
        cut, parts = count - count % batch, []
        for grid in (t[:, :cut].reshape(n + 1, -1, 1, batch), t[:, cut:].reshape(n + 1, 1, 1, -1)):
            if grid.size:
                ex = grid * zlam
                np.exp(ex, out=ex)
                parts += [ex[:, a : a + group] for a in range(0, ex.shape[1], group)]
        y = np.concatenate([kernel(part, w) for part in parts])
        # Chan's parallel update, the samples before the block taken as one more batch
        size = np.append(np.minimum(batch, count - batch * np.arange(len(y))), done)[:, None, None]
        y = np.concatenate([u @ y @ u.conj().T, total[None]])
        total, done, batches = y.sum(axis=0), done + count, batches + len(y) - 1
        dev = y / np.maximum(size, 1) - total / done
        m2 = m2 + (size * (dev.real**2 + dev.imag**2)).sum(axis=0)
    matrix = exp_mu * (total / samples)
    std_error = exp_mu * np.sqrt(m2 / ((batches - 1) * samples))
    check_finite("exp_derivative_mc: the estimate", (matrix, std_error))
    return MultilinearDerivative(
        matrix=matrix, order=n, method="mc", scale=scale, samples=samples, std_error=std_error,
        seed=int(seed),
    )


def simplex_volume_mc(n, samples, seed, threads=1):
    """Monte-Carlo volume of {t in [0,1]^n : sum t <= 1}, expected 1/n!.
    threads is accepted and ignored."""
    n = check_count("simplex_volume_mc: order", n, 0, SIMPLEX_MAX_N)
    samples = check_count("simplex_volume_mc: samples", samples, 2)
    seed = rng.check_seed(seed)
    if n == 0:
        return VolumeEstimate(value=1.0, std_error=0.0, samples=samples, n=0, seed=seed)

    def chunk_hits(block, count):
        gen = rng.generator(seed, rng.STREAM_VOLUME, block)
        u = gen.random((count, n))
        return int(np.count_nonzero(u.sum(axis=1) <= 1.0))

    hits = sum(chunk_hits(block, count) for block, count in rng.blocks(samples))
    p = hits / samples
    se = float(np.sqrt(p * (1.0 - p) / samples))
    return VolumeEstimate(value=p, std_error=se, samples=samples, n=n, seed=seed)
