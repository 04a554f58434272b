"""Seminorm bounds and the randomized lower-bound probe.

The seminorm of interest is the supremum of the n-th derivative norm of
x -> g(x) over the Hermitian ball of radius r, with unit-norm direction
tuples. Two upper bounds are computed:

  * sobolev_bound: |g^(n)(0)| plus sqrt(8r) times the L2 norm of
    g^(n+1) over [-r, r] (with a 1/(2 pi) normalization), valid for any
    smooth g.
  * power_bound: the exact k! / (k-n)! r^(k-n) bound for g(t) = t^k.

probe_seminorm certifies a lower bound by evaluating the derivative along
one candidate sequence, its caps checked before any work: two commuting
candidates (x = +-r times identity with identity directions, where these
bounds are tight), then random Hermitian points (boundary-biased) and
directions, then an annealed hill climb on the best candidate. A point is
one matrix and its n directions, (n + 1, d, d); every candidate and climb
state goes through one placement step, _place, which decomposes the
matrix once, scales it and its eigenvalues to a target norm (the norm of
a Hermitian matrix is its largest |eigenvalue|) and normalises the
directions. The sequence is evaluated in stacks through the one
derivative core: one divided-difference table over every point's
ascending index tuples, one fold with a leading batch axis, and one batch
of eigenvalues for the numerators and the direction norms together; the
derivatives of a g that is not real-valued are not Hermitian, and their
norms are largest singular values. A stack holds at most
divided.SLAB_ENTRIES chain-tensor entries B d^(n+1), so d <= 8, n <= 2
takes up to 128 candidates at once and d = 32, n = 4 one. Each evaluation
gives the same bits on a stack as alone, so the best candidate, the first
of the largest in candidate order, is the one a probe one at a time finds;
its point is the climb's first state. The climb steps are evaluated
speculatively in stacks of up to _stack_size(d, n) from the current state;
the first that beats it is accepted and the climb goes on from the step
after it, so the result equals that of the climb run one step after the
other.
"""

import io
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import divided, rng
from .divided import derivative_matrix
from .errors import OverflowRangeError, check_count, check_finite, check_real
from .expderiv import check_derivative_caps
from .functions import MonomialFunction
from .linalg import eig
from .spectral import simpson_weights

SOBOLEV_NODES = 2049
PROBE_DEFAULT_BUDGET = 64
PROBE_CLIMB_STEPS = 50
PROBE_BOUNDARY_FRACTION = 0.7
PROBE_CLIMB_DECAY = 0.664

CSV_HEADER = "g_kind,n,r,d,bound,empirical,slack,samples,seed"


def sobolev_bound(g, n, r):
    """Upper bound on the order-n derivative seminorm over the radius-r ball:
    |g^(n)(0)| + sqrt(8 r) * (integral of |g^(n+1)|^2 / (2 pi))^(1/2), the
    integral by Simpson's rule on SOBOLEV_NODES (odd) nodes."""
    n = check_count("sobolev_bound: order", n)
    check_real("sobolev_bound: radius", r)
    g.check_order(n + 1, "sobolev_bound")
    t = np.linspace(-r, r, SOBOLEV_NODES)
    w = simpson_weights(SOBOLEV_NODES, t[1] - t[0])
    with np.errstate(over="ignore"):  # an overflow gives inf, which check_finite reports
        integral = float(w @ np.abs(np.asarray(g.eval_derivative(t, n + 1))) ** 2)
    head = float(abs(g.eval_derivative(0.0, n)))
    value = head + np.sqrt(8.0 * r) * np.sqrt(integral / (2.0 * np.pi))
    return check_finite("sobolev_bound: the bound", value)


def power_bound(k, n, r):
    """Seminorm bound for t -> t^k: k!/(k-n)! r^(k-n); zero when n > k."""
    k, n = check_count("power_bound: power", k), check_count("power_bound: order", n)
    check_real("power_bound: radius", r, zero=True)
    if n > k:
        return 0.0
    try:
        value = factorial(k) / factorial(k - n) * r ** (k - n)
    except OverflowError:
        value = np.inf
    return check_finite("power_bound: the bound", value)


@dataclass
class SeminormEstimate:
    """Certified lower bound with the witness it was evaluated at."""

    value: float
    n: int
    r: float
    g_label: str
    witness_x: np.ndarray
    witness_dirs: list
    samples_used: int
    seed: int


@dataclass
class BoundReport:
    g_label: str
    n: int
    r: float
    d: int
    bound: float
    bound_method: str
    empirical: float
    slack: float
    samples: int
    seed: int

    def csv_row(self):
        return (
            f"{self.g_label},{self.n},{self.r:g},{self.d},"
            f"{self.bound!r},{self.empirical!r},{self.slack!r},"
            f"{self.samples},{self.seed}"
        )


def _norms(m):
    """Operator norms of a Hermitian stack taken as it is: the largest
    |eigenvalue| of each matrix over the last two axes."""
    return np.abs(np.linalg.eigvalsh(m)).max(axis=-1)


def _evaluate(g, lam, vectors, dirs, hermitian):
    """Derivative norms over direction-norm products at a stack of points
    given by their eigendecompositions, ascending lam (B, d) and vectors
    (B, d, d), with nonzero dirs (B, n, d, d) exactly Hermitian; the
    derivatives are Hermitian when g is real-valued. Returns (B,)."""
    try:
        der = derivative_matrix(lam, vectors, dirs, g)
    except OverflowRangeError as exc:  # g's values or a derivative overflowed
        raise OverflowRangeError(f"probe_seminorm: {exc}") from None
    if not hermitian:  # the largest singular value
        return np.linalg.svd(der, compute_uv=False)[..., 0] / np.prod(_norms(dirs), axis=1)
    # one eigvalsh call for every point's derivative and directions
    norms = _norms(np.concatenate([der[:, None], dirs], axis=1))
    return norms[:, 0] / np.prod(norms[:, 1:], axis=1)


def _stack_size(d, n):
    """Candidates per stack: as many as keep B d^(n+1) within one slab, at
    least 1, so a d = 32, n = 4 probe goes one candidate at a time."""
    return max(1, divided.SLAB_ENTRIES // d ** (n + 1))


def _place(points, fallback, r, targets=None):
    """Put points (B, n + 1, d, d) into the ball in place: scale each matrix
    and its eigenvalues to its target norm (targets, else min(norm, r), so
    norm / norm = 1 inside the ball) and normalise the directions, a zero
    one replaced by fallback's. Returns the eigenvalues and vectors."""
    dec = eig(points[:, 0])
    lam = dec.eigenvalues
    norms = np.abs(lam).max(axis=-1)
    targets = np.minimum(norms, r) if targets is None else targets
    scale = np.divide(targets, norms, out=np.zeros(len(points)), where=norms > 0)
    points[:, 0] *= scale[:, None, None]
    lam *= scale[:, None]
    vn = _norms(points[:, 1:])
    unit = points[:, 1:] / np.where(vn > 0, vn, 1.0)[..., None, None]
    points[:, 1:] = np.where((vn > 0)[..., None, None], unit, fallback)
    return lam, dec.vectors


def _candidate(n, r, eye, seed, j):
    """Candidate j as a point (n + 1, d, d) and its target norm: first the
    two commuting ones, +-r I with identity directions, then random ones,
    candidate j - 2 drawn from its own cells of the probe streams."""
    if j < 2:
        return np.stack([(r, -r)[j] * eye] + [eye] * n), r
    gen_x = rng.generator(seed, rng.STREAM_PROBE_X, j - 2)
    h = rng.random_hermitian(len(eye), gen_x)
    target = r if gen_x.random() < PROBE_BOUNDARY_FRACTION else r * gen_x.random()
    gen_v = rng.generator(seed, rng.STREAM_PROBE_DIRS, j - 2)
    return np.concatenate([h[None], rng.random_hermitians(n, len(eye), gen_v)]), target


def _climb_perturbations(n, r, d, seed, steps):
    """Every climb step's perturbations, (steps, n + 1, d, d): step k draws
    from its own cell of the climb stream a Hermitian matrix for the point,
    scaled by sigma_k = r / 2 * PROBE_CLIMB_DECAY**k, then one per direction,
    scaled by sigma_k / r."""
    out = np.empty((steps, n + 1, d, d), dtype=np.complex128)
    for k in range(steps):
        gen = rng.generator(seed, rng.STREAM_PROBE_CLIMB, k)
        # a Python scalar: a numpy power of the decay differs in the last bits
        sigma = 0.5 * r * PROBE_CLIMB_DECAY**k
        h = rng.random_hermitians(n + 1, d, gen)
        out[k, 0] = sigma * h[0]
        out[k, 1:] = (sigma / r) * h[1:]
    return out


def probe_seminorm(
    g,
    n,
    r,
    d,
    budget=PROBE_DEFAULT_BUDGET,
    seed=0,
    climb_steps=PROBE_CLIMB_STEPS,
    threads=1,
):
    """Randomized lower bound on the derivative seminorm over the ball.

    Candidates are drawn per-index from counter-based streams (70 percent
    on the boundary sphere, the rest uniformly scaled inward) and
    evaluated a stack at a time; the best, the first of the largest in
    candidate order, is refined by an annealed random-perturbation hill
    climb of climb_steps steps, evaluated speculatively in stacks with the
    result of the sequential climb, and the returned value is always a
    derivative norm actually evaluated at the stored witness. samples_used
    is 2 + budget + climb_steps. threads is accepted and ignored.
    """
    check_derivative_caps(n, d)
    check_real("probe_seminorm: radius", r)
    budget = check_count("probe_seminorm: budget", budget)
    climb_steps = check_count("probe_seminorm: climb_steps", climb_steps)
    seed = rng.check_seed(seed)
    # a real-valued g has Hermitian derivatives, whose norms are eigenvalues;
    # the dtype of its values on real nodes, read off no nodes at all
    hermitian = np.isrealobj(g.derivatives(np.empty(0), 0, 0))
    eye, size, total = np.eye(d, dtype=np.complex128), _stack_size(d, n), 2 + budget
    value, state = -1.0, None
    for lo in range(0, total, size):
        drawn = [_candidate(n, r, eye, seed, j) for j in range(lo, min(lo + size, total))]
        points = np.array([point for point, _ in drawn])
        lam, vectors = _place(points, eye, r, [target for _, target in drawn])
        # a strict > in candidate order: ties and NaN keep the earlier one
        for val, point in zip(_evaluate(g, lam, vectors, points[:, 1:], hermitian), points):
            if val > value:
                value, state = val, point

    # The climb: step k adds its perturbation to the state (the point and
    # its directions), puts it into the ball and is accepted when it beats
    # the state's value. Steps k..k+m-1 are evaluated speculatively as one
    # stack from the state; the first that beats it is the step the
    # sequential climb accepts, and the ones after it are evaluated again
    # from the new state.
    deltas = _climb_perturbations(n, r, d, seed, climb_steps)
    step, width = 0, 2
    while step < climb_steps:
        m = min(width, size, climb_steps - step)
        cand = state + deltas[step : step + m]
        lam, vectors = _place(cand, state[1:], r)
        vals = _evaluate(g, lam, vectors, cand[:, 1:], hermitian)
        hits = np.flatnonzero(vals > value)  # strict, as in the candidate phase
        if hits.size:
            i = int(hits[0])
            value, state = vals[i], cand[i]
            step, width = step + i + 1, 2
        else:
            step, width = step + m, 2 * width

    return SeminormEstimate(
        value=float(value),
        n=int(n),
        r=float(r),
        g_label=g.label(),
        witness_x=state[0],
        witness_dirs=list(state[1:]),
        samples_used=2 + budget + climb_steps,
        seed=seed,
    )


def seminorm_bound(g, n, r):
    """The upper bound reported for g, and its method: a monomial's exact
    power bound, else the Sobolev bound (which needs g^(n+1))."""
    if isinstance(g, MonomialFunction):
        return power_bound(g.k, n, r), "power"
    return sobolev_bound(g, n, r), "sobolev"


def bound_report(g, n, r, d, budget=PROBE_DEFAULT_BUDGET, seed=0):
    """Upper bound vs probed lower bound, as one report row; the probe's
    caps are checked before the bound's work."""
    check_derivative_caps(n, d)
    bound, method = seminorm_bound(g, n, r)
    est = probe_seminorm(g, n, r, d, budget=budget, seed=seed)
    return BoundReport(
        g_label=g.label(),
        n=int(n),
        r=float(r),
        d=int(d),
        bound=float(bound),
        bound_method=method,
        empirical=est.value,
        slack=float(bound - est.value),
        samples=est.samples_used,
        seed=int(seed),
    )


def reports_to_csv(reports):
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for rep in reports:
        buf.write(rep.csv_row() + "\n")
    return buf.getvalue()
