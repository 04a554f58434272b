"""Scalar functions applied to Hermitian matrices, and their derivatives.

apply_function evaluates g on the spectrum. function_derivative_dd
contracts divided differences of g over eigenvalue chains (exact route).
function_derivative_fourier synthesizes the same derivative from a
frequency table: mollify g to compact support, transform, and take divided
differences of g~(t) = sum_k w_k ghat(s_k) exp(i s_k t); they equal
sum_k w_k ghat(s_k) (i s_k)^n exp[i s_k t_0, ..., i s_k t_n], the s-grid
quadrature of ghat(s) (is)^n D^n(exp)(isx)[dirs]. The mollifier, transform,
s-grid and tail estimate share no code with the dd route, which makes the
routes' agreement a meaningful check. The transform is Simpson's rule on
a t-grid commensurate with the s-grid, so it is one exact FFT.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .divided import derivative_matrix
from .errors import CapExceededError, GridError, ParseError, RadiusError
from .expderiv import MultilinearDerivative, check_derivative_args
from .functions import ScalarFunction
from .linalg import HermitianMatrix

FOURIER_S_MAX_CAP = 640.0
FOURIER_TAIL_TOL = 1e-8


def apply_function(g, x):
    """g(x) for Hermitian x: eigenvalues mapped through g."""
    h = x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)
    dec = h.eig()
    vals = np.asarray(g.eval_derivative(dec.eigenvalues, 0), dtype=np.complex128)
    return (dec.vectors * vals) @ dec.vectors.conj().T


def function_derivative_dd(g, x, dirs):
    """n-th derivative of x -> g(x) applied to Hermitian directions,
    via the divided-difference chain tensor."""
    h, dirs = check_derivative_args(x, dirs)
    matrix = derivative_matrix(h, dirs, g)
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
class FourierTable:
    """Sampled frequency representation of a mollified scalar function."""

    g_label: str
    radius: float
    s: np.ndarray
    ghat: np.ndarray
    weights: np.ndarray
    n_max: int
    tail_fraction: float
    recon_residual: float
    dt: float
    nt: int


def _transform_on_grid(g, r, m, s_reach):
    """ghat at s_k = k ds, |k| <= m, ds = pi / (4 (r + 1)), by composite
    Simpson over the mollified support.

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
    # Round-off floor of the quadrature sums; transform values below this
    # are indistinguishable from noise.
    floor = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(samples)))
    k = np.arange(-m, m + 1)
    ghat = np.fft.fft(samples, 4 * (nt - 1))[k] * np.exp(0.25j * np.pi * (k % 8))
    return ghat, t[1] - t[0], nt, floor


def _tail_estimate(s_grid, ghat, floor, n):
    """Estimated mass of |s|^n |ghat(s)| beyond the grid edge.

    Fits the decay envelope of |ghat| over the outer clean region (values
    above the round-off floor), under both a power law A s^-p and a
    stretched exponential A exp(-c sqrt(s)); whichever fits the envelope
    better is integrated in closed form past s_max. Returns None when no
    established decay is visible yet, meaning the grid must grow.
    """
    s_max = s_grid[-1]
    pos = s_grid > 0
    s_pos = s_grid[pos]
    a_pos = np.abs(ghat[pos])
    clean = a_pos >= 10.0 * floor
    if not np.any(clean):
        # everything at round-off level: nothing measurable beyond the grid
        return 0.0
    s_hi = s_pos[clean][-1]
    if s_hi < 0.2 * s_max:
        # decay finished well inside the grid; the edge is pure noise
        return 0.0
    lo = s_hi / 3.0
    window = clean & (s_pos >= lo)
    if np.count_nonzero(window) < 8:
        return None
    sw = s_pos[window]
    aw = a_pos[window]
    # envelope on bins, to ride over oscillation zeros
    nbins = 12
    edges = np.linspace(lo, s_hi, nbins + 1)
    bs, ba = [], []
    for i in range(nbins):
        sel = (sw >= edges[i]) & (sw <= edges[i + 1])
        if np.any(sel):
            j = np.argmax(aw[sel])
            bs.append(sw[sel][j])
            ba.append(aw[sel][j])
    if len(bs) < 5:
        return None
    bs = np.array(bs)
    ba = np.array(ba)
    if ba[-1] > 0.2 * ba[0]:
        return None  # less than a decade of decay: not in the asymptotic regime
    ln_a = np.log(ba)

    best = None
    # power law
    coef = np.polyfit(np.log(bs), ln_a, 1)
    p = -coef[0]
    if p > n + 1:
        resid = float(np.sum((np.polyval(coef, np.log(bs)) - ln_a) ** 2))
        amp = np.exp(coef[1])
        tail = 2.0 * amp * s_max ** (n + 1 - p) / (p - n - 1)
        best = (resid, tail)
    # stretched exponential in sqrt(s)
    coef = np.polyfit(np.sqrt(bs), ln_a, 1)
    c = -coef[0]
    if c > 0:
        resid = float(np.sum((np.polyval(coef, np.sqrt(bs)) - ln_a) ** 2))
        amp = np.exp(coef[1])
        # int_S^inf s^n exp(-c sqrt(s)) ds = 2 Gamma(2n+2, c sqrt(S)) / c^(2n+2)
        incomplete = special.gammaincc(2 * n + 2, c * np.sqrt(s_max)) * special.gamma(2 * n + 2)
        tail = 2.0 * amp * 2.0 * incomplete / c ** (2 * n + 2)
        if best is None or resid < best[0]:
            best = (resid, tail)
    if best is None:
        return None
    return float(best[1])


def fourier_table(g, r, n_max=2):
    """Build the frequency table for g mollified to [-r-1, r+1].

    The s-grid step pi / (4 (r + 1)) keeps eight nodes per oscillation of
    exp(i s lambda) over the ball of radius r plus the mollifier skirt.
    s_max grows until the estimated not-yet-gridded tail of |s|^n_max
    |ghat| falls below FOURIER_TAIL_TOL of the whole; a cap failure raises
    GridError. Samples below the transform round-off floor are stored as
    zero so they cannot pollute later synthesis quadratures.
    """
    if r <= 0:
        raise ParseError(f"fourier_table: radius must be positive, got {r}")
    ds = np.pi / (4.0 * (r + 1.0))
    target = 40.0

    while True:
        m = max(int(np.ceil(target / ds)), 8)
        s_grid = ds * np.arange(-m, m + 1)
        reach = s_grid[-1] + max(40.0, s_grid[-1])
        ghat, dt, nt, floor = _transform_on_grid(g, r, m, reach)
        ghat[np.abs(ghat) < floor] = 0.0
        ws = simpson_weights(len(s_grid), ds)
        mass = np.abs(s_grid) ** n_max * np.abs(ghat) * ws
        total = float(mass.sum())
        if total == 0.0:
            tail_fraction = 0.0
            break
        tail = _tail_estimate(s_grid, ghat, floor, n_max)
        if tail is not None:
            tail_fraction = tail / total
            if tail_fraction <= FOURIER_TAIL_TOL:
                break
        else:
            tail_fraction = np.inf
        if s_grid[-1] >= FOURIER_S_MAX_CAP:
            raise GridError(
                f"fourier_table: estimated tail fraction {tail_fraction:.3e} "
                f"above {FOURIER_TAIL_TOL:g} at s_max = {s_grid[-1]:.1f}; grid too small"
            )
        target = 2.0 * s_grid[-1]

    probes = np.linspace(-r, r, 41)
    recon = np.exp(1j * np.outer(probes, s_grid)) @ (ws * ghat)
    gvals = np.asarray(g.eval_derivative(probes, 0), dtype=np.complex128)
    residual = float(np.max(np.abs(recon - gvals)))
    return FourierTable(
        g_label=g.label(),
        radius=float(r),
        s=s_grid,
        ghat=ghat,
        weights=ws,
        n_max=int(n_max),
        tail_fraction=tail_fraction,
        recon_residual=residual,
        dt=float(dt),
        nt=int(nt),
    )


class TrigonometricSum(ScalarFunction):
    """g~(t) = sum_k w_k ghat_k exp(i s_k t) of a FourierTable, bandwidth max |s_k|."""

    kind = "fourier"

    def __init__(self, table):
        self.s, self.coeffs = table.s, table.weights * table.ghat
        self.bandwidth = float(np.max(np.abs(table.s)))

    def eval_derivative(self, t, order):
        # the nodes are eigenvalues and midpoints, so few are distinct
        u, inverse = np.unique(np.asarray(t, dtype=float), return_inverse=True)
        vals = np.exp(1j * np.outer(u, self.s)) @ (self.coeffs * (1j * self.s) ** order)
        return vals[inverse].reshape(np.shape(t))


def function_derivative_fourier(table, x, dirs):
    """n-th derivative of x -> g(x) from the frequency table, as divided
    differences of the table's trigonometric sum."""
    h, dirs = check_derivative_args(x, dirs)
    n = len(dirs)
    if n > table.n_max:
        raise CapExceededError(
            f"fourier derivative: order {n} exceeds table n_max {table.n_max}"
        )
    norm = float(np.max(np.abs(h.eig().eigenvalues)))
    if norm > table.radius * (1.0 + 1e-12) + 1e-12:
        raise RadiusError(
            f"fourier derivative: ||x|| = {norm:.6g} outside table radius "
            f"{table.radius:g}"
        )
    matrix = derivative_matrix(h, dirs, TrigonometricSum(table))
    return MultilinearDerivative(matrix=matrix, order=n, method="fourier")
