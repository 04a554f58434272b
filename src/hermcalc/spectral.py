"""Scalar functions applied to Hermitian matrices, and their derivatives.

apply_function evaluates g on the spectrum. function_derivative_dd
contracts divided differences of g over eigenvalue chains (exact route).
function_derivative_fourier synthesizes the same derivative from a
frequency table: mollify g to compact support and transform it. The table
is itself the ScalarFunction g~(t) = sum_k w_k ghat(s_k) exp(i s_k t), and
its divided differences, taken by the dd route's engine, equal
sum_k w_k ghat(s_k) (i s_k)^n exp[i s_k t_0, ..., i s_k t_n], the s-grid
quadrature of ghat(s) (is)^n D^n(exp)(isx)[dirs]. The mollifier, transform
and s-grid share no code with the dd route, which makes the routes'
agreement a meaningful check. The transform is Simpson's rule on a t-grid
commensurate with the s-grid, so it is one exact FFT. The grid's edge is
accepted when the next, twice as wide grid measures a negligible mass
beyond it; nothing is extrapolated. The route serves orders up to
FOURIER_MAX_N and radii up to FOURIER_MAX_RADIUS.
"""

from dataclasses import dataclass

import numpy as np

from .divided import derivative_matrix
from .errors import GridError, RadiusError, check_count, check_finite, check_real
from .expderiv import MultilinearDerivative, check_derivative_args
from .functions import ScalarFunction
from .linalg import HermitianMatrix

FOURIER_S_MAX_CAP = 640.0
FOURIER_TAIL_TOL = 1e-8
# at n = 4 the |s|^4-amplified round-off of the transform misses dd by
# 1e-5 to 1e-4, so the route stops at order 3
FOURIER_MAX_N = 3
# a table's nodes and synthesis grow linearly in r: a sin table and a
# d = 32, n = 3 derivative peak at 285 MB at this radius, 648 MB at r = 250
FOURIER_MAX_RADIUS = 100.0


@np.errstate(over="ignore", invalid="ignore")
def apply_function(g, x):
    """g(x) for Hermitian x: eigenvalues mapped through g. Where g
    overflows at them, or g(x) is not finite, OverflowRangeError."""
    h = x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)
    dec = h.eig()
    vals = g.values(dec.eigenvalues).astype(np.complex128)
    return check_finite(f"{g.label()}(x)", (dec.vectors * vals) @ dec.vectors.conj().T)


def function_derivative_dd(g, x, dirs):
    """n-th derivative of x -> g(x) applied to Hermitian directions,
    via the divided-difference chain tensor."""
    h, dirs = check_derivative_args(x, dirs)
    dec = h.eig()
    matrix = derivative_matrix(dec.eigenvalues[None], dec.vectors[None], dirs[None], g)[0]
    return MultilinearDerivative(matrix=matrix, order=len(dirs), method="dd")


# ---------------------------------------------------------------------------
# Fourier synthesis


def mollifier_weight(t, r):
    """Smooth cutoff: 1 on [-r, r], 0 outside [-r-1, r+1], with a bump-based
    transition whose derivatives all vanish at the seams."""
    t = np.asarray(t, dtype=float)
    u = np.abs(t) - r
    w = np.ones_like(t)
    w[u >= 1.0] = 0.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        with np.errstate(under="ignore"):
            a = np.exp(-1.0 / um)
            b = np.exp(-1.0 / (1.0 - um))
        w[mid] = b / (a + b)
    return w


def simpson_weights(nnodes, h):
    if nnodes < 3 or nnodes % 2 == 0:
        raise GridError(f"simpson rule needs an odd node count >= 3, got {nnodes}")
    w = np.ones(nnodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass
class FourierTable(ScalarFunction):
    """The frequency table of a mollified g, and the function it defines,
    g~(t) = sum_k w_k ghat_k exp(i s_k t), of bandwidth max |s_k|."""

    kind = "fourier"
    growth = "band"

    g_label: str
    radius: float
    s: np.ndarray
    ghat: np.ndarray
    weights: np.ndarray
    n_max: int
    tail_fraction: float
    nt: int

    def __post_init__(self):
        self.coeffs = self.weights * self.ghat
        self.bandwidth = float(np.max(np.abs(self.s)))

    def derivatives(self, t, j, q):
        # a Taylor midpoint depends only on its tuple's first and last node,
        # so at most d (d + 1) / 2 per point are distinct
        u, inverse = np.unique(np.asarray(t, dtype=float), return_inverse=True)
        weights = self.coeffs[:, None] * (1j * self.s[:, None]) ** np.arange(j, j + q + 1)
        # einsum, not a BLAS product: each row is summed in one fixed order,
        # so a node's value does not depend on how many others share the call
        vals = np.einsum("us,sq->uq", np.exp(1j * np.outer(u, self.s)), weights)
        return vals[inverse.reshape(-1)].reshape(np.shape(t) + (q + 1,))

    def recon_residual(self, g):
        """The reconstruction check of a table built from g, on demand: max
        |g~(p) - g(p)| over 41 probes p on [-r, r], g~ by its own synthesis one
        probe at a time (all 41 at once take 108 MB per matrix at r = 100)."""
        probes = np.linspace(-self.radius, self.radius, 41)
        recon = np.array([self.eval_derivative(p, 0) for p in probes])
        return float(np.max(np.abs(recon - g.eval_derivative(probes, 0))))


def _transform_on_grid(g, r, m, s_reach):
    """ghat at s_k = k ds, |k| <= m, ds = pi / (4 (r + 1)), by composite
    Simpson over the mollified support, and the t-node count nt. Values
    below the round-off floor of the quadrature sums are indistinguishable
    from noise and come back as zero.

    The t-step is set so the first alias image of the quadrature lands
    beyond s_reach, where the mollified transform is negligible; for a
    compactly supported smooth integrand that makes Simpson spectrally
    accurate rather than h^4-limited. With N = 4 (nt - 1) the grids give
    ds dt = 2 pi / N and s_k (r + 1) = k pi / 4, so the sum is one FFT
    with exact phases, ghat(s_k) = e^{i pi k / 4} FFT_N(samples)[k mod N],
    and N >= 4m > 2m + 1 keeps every bin on its own FFT index.
    """
    width = r + 1.0
    nt = 2 * int(np.ceil(width / (np.pi / s_reach))) + 1  # odd, dt <= pi / s_reach
    t = np.linspace(-width, width, nt)
    wt = simpson_weights(nt, t[1] - t[0])
    samples = np.asarray(g.eval_derivative(t, 0), dtype=np.complex128)
    samples *= mollifier_weight(t, r) * wt / (2.0 * np.pi)
    floor = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(samples)))
    k = np.arange(-m, m + 1)
    ghat = np.fft.fft(samples, 4 * (nt - 1))[k] * np.exp(0.25j * np.pi * (k % 8))
    ghat[np.abs(ghat) < floor] = 0.0
    return ghat, nt


def _grid(g, r, target, n):
    """The s-grid reaching at least target (and 8 steps), ghat on it with a
    reach of twice its edge (at least edge + 40), its Simpson weights, the
    mass |s|^n |ghat| w per node, and the transform's nt."""
    ds = np.pi / (4.0 * (r + 1.0))
    m = max(int(np.ceil(target / ds)), 8)
    s = ds * np.arange(-m, m + 1)
    ghat, nt = _transform_on_grid(g, r, m, s[-1] + max(40.0, s[-1]))
    ws = simpson_weights(2 * m + 1, ds)
    return s, ghat, ws, np.abs(s) ** n * np.abs(ghat) * ws, nt


def check_fourier_ball(r, lam=()):
    """The Fourier route's ball: a radius r > 0 (else ParseError) up to
    FOURIER_MAX_RADIUS (else CapExceededError) that holds the spectrum lam."""
    check_real("fourier_table: radius", r, FOURIER_MAX_RADIUS)
    norm = float(np.max(np.abs(lam), initial=0.0))
    if norm > r * (1.0 + 1e-12) + 1e-12:
        raise RadiusError(f"fourier derivative: ||x|| = {norm:.6g} outside table radius {r:g}")


def fourier_table(g, r, n_max=2):
    """Build the frequency table for g mollified to [-r-1, r+1].

    The s-grid step pi / (4 (r + 1)) keeps eight nodes per oscillation of
    exp(i s lambda) over the ball of radius r plus the mollifier skirt.
    The edge s_max starts near 40 and doubles until the grid the next
    doubling builds holds at most FOURIER_TAIL_TOL of the current grid's
    mass of |s|^n_max |ghat| beyond s_max; that grid is free of aliasing up
    to 2 s_max, and it becomes the current one when the test fails, so no
    transform is computed twice. The measured fraction is tail_fraction;
    an s_max past FOURIER_S_MAX_CAP that still fails raises GridError.
    Orders above FOURIER_MAX_N and radii above FOURIER_MAX_RADIUS are
    refused before any transform.
    """
    check_fourier_ball(r)
    n_max = check_count("fourier_table: order", n_max, 0, FOURIER_MAX_N)
    s, ghat, ws, mass, nt = _grid(g, r, 40.0, n_max)
    while True:
        total, s_max = float(mass.sum()), s[-1]
        if total == 0.0:
            tail_fraction = 0.0
            break
        wider = _grid(g, r, 2.0 * s_max, n_max)
        tail_fraction = float(wider[3][np.abs(wider[0]) > s_max].sum()) / total
        if tail_fraction <= FOURIER_TAIL_TOL:
            break
        if s_max >= FOURIER_S_MAX_CAP:
            raise GridError(
                f"fourier_table: tail fraction {tail_fraction:.3e} above "
                f"{FOURIER_TAIL_TOL:g} at s_max = {s_max:.1f}; grid too small"
            )
        s, ghat, ws, mass, nt = wider

    return FourierTable(
        g_label=g.label(),
        radius=float(r),
        s=s,
        ghat=ghat,
        weights=ws,
        n_max=n_max,
        tail_fraction=tail_fraction,
        nt=int(nt),
    )


def function_derivative_fourier(table, x, dirs):
    """n-th derivative of x -> g(x) from the frequency table, as divided
    differences of the table's trigonometric sum g~."""
    h, dirs = check_derivative_args(x, dirs)
    n = check_count("fourier derivative: order", len(dirs), 0, table.n_max)
    dec = h.eig()
    check_fourier_ball(table.radius, dec.eigenvalues)
    matrix = derivative_matrix(dec.eigenvalues[None], dec.vectors[None], dirs[None], table)[0]
    return MultilinearDerivative(matrix=matrix, order=n, method="fourier")
