"""Scalar functions applied to Hermitian matrices, and their derivatives.

apply_function evaluates g on the spectrum. function_derivative_dd
contracts divided differences of g over eigenvalue chains (exact route).
function_derivative_fourier synthesizes the same derivative from a
frequency table: mollify g to compact support, transform, then integrate
    integral of ghat(s) (is)^n D^n(exp)(isx)[dirs] ds,
which needs only derivatives of exp at imaginary arguments. The two
routes are algorithmically independent, which is what makes their
agreement a meaningful check.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .divided import chain_dd, derivative_matrix
from .errors import CapExceededError, GridError, ParseError, RadiusError
from .expderiv import MultilinearDerivative, check_derivative_args
from .functions import ExpFunction
from .linalg import HermitianMatrix

FOURIER_S_MAX_CAP = 640.0
FOURIER_TAIL_TOL = 1e-8
# (chain, node, z) entries per engine call in the synthesis. Larger blocks
# were no faster and, being kept on the heap between requests, raised the
# peak RSS of a process that builds Fourier tables after them.
SYNTH_BLOCK = 1 << 14


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
    matrix = derivative_matrix(h, dirs, lambda t: chain_dd(g, t))
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


def _transform_on_grid(g, r, s_grid, s_reach):
    """ghat on s_grid by composite Simpson over the mollified support.

    The t-step is set so the first alias image of the quadrature lands
    beyond s_reach, where the mollified transform is negligible; for a
    compactly supported smooth integrand that makes Simpson spectrally
    accurate rather than h^4-limited.
    """
    width = r + 1.0
    dt_target = np.pi / s_reach
    nt = int(np.ceil(2.0 * width / dt_target)) + 1
    if nt % 2 == 0:
        nt += 1
    t = np.linspace(-width, width, nt)
    wt = simpson_weights(nt, t[1] - t[0])
    samples = np.asarray(g.eval_derivative(t, 0), dtype=np.complex128)
    samples *= mollifier_weight(t, r) * wt / (2.0 * np.pi)
    # Round-off floor of the quadrature sums; transform values below this
    # are indistinguishable from noise.
    floor = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(samples)))
    ghat = np.empty(len(s_grid), dtype=np.complex128)
    block = 2048
    for lo in range(0, len(s_grid), block):
        sblk = s_grid[lo : lo + block]
        ghat[lo : lo + len(sblk)] = np.exp(-1j * np.outer(sblk, t)) @ samples
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


def fourier_table(g, r, s_max=None, ds=None, n_max=2, tail_tol=FOURIER_TAIL_TOL):
    """Build the frequency table for g mollified to [-r-1, r+1].

    The s-grid step keeps at least eight nodes per oscillation of
    exp(i s lambda) over the ball of radius r (plus the mollifier skirt).
    s_max grows until the estimated not-yet-gridded tail of
    |s|^n_max |ghat| falls below tail_tol of the whole; a cap failure
    raises GridError. Samples below the transform round-off floor are
    stored as zero so they cannot pollute later synthesis quadratures.
    """
    if r <= 0:
        raise ParseError(f"fourier_table: radius must be positive, got {r}")
    width = r + 1.0
    if ds is None:
        ds = np.pi / (4.0 * width)
    fixed_cap = s_max is not None
    target = float(s_max) if fixed_cap else 40.0

    while True:
        m = max(int(np.ceil(target / ds)), 8)
        s_grid = ds * np.arange(-m, m + 1)
        reach = s_grid[-1] + max(40.0, s_grid[-1])
        ghat, dt, nt, floor = _transform_on_grid(g, r, s_grid, reach)
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
            if tail_fraction <= tail_tol:
                break
        else:
            tail_fraction = np.inf
        if fixed_cap or s_grid[-1] >= FOURIER_S_MAX_CAP:
            raise GridError(
                f"fourier_table: estimated tail fraction {tail_fraction:.3e} "
                f"above {tail_tol:g} at s_max = {s_grid[-1]:.1f}; grid too small"
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


def function_derivative_fourier(table, x, dirs):
    """n-th derivative of x -> g(x) from the frequency table: quadrature of
    ghat(s) (is)^n times the exp derivative at isx over the s-grid."""
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
    z = 1j * table.s
    wn = table.weights * table.ghat * z**n
    exp = ExpFunction()

    def dd(t):
        step = max(1, SYNTH_BLOCK // (t.shape[1] * len(z)))
        return np.concatenate(
            [chain_dd(exp, t[lo : lo + step], z) @ wn for lo in range(0, len(t), step)]
        )

    matrix = derivative_matrix(h, dirs, dd)
    return MultilinearDerivative(matrix=matrix, order=n, method="fourier")
