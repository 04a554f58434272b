"""Seminorm bounds and the randomized lower-bound probe.

The seminorm of interest is the supremum of the n-th derivative norm of
x -> g(x) over the Hermitian ball of radius r, with unit-norm direction
tuples. Two upper bounds are computed:

  * sobolev_bound: |g^(n)(0)| plus sqrt(8r) times the L2 norm of
    g^(n+1) over [-r, r] (with a 1/(2 pi) normalization), valid for any
    smooth g.
  * power_bound: the exact k! / (k-n)! r^(k-n) bound for g(t) = t^k.

probe_seminorm certifies a lower bound by evaluating the derivative at
random Hermitian points (boundary-biased) and directions, preceded by two
deterministic commuting candidates (x = +-r times identity with identity
directions, where these bounds are tight) and followed by an annealed
hill climb on the best candidate.
"""

import io
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import rng
from .errors import ParseError
from .functions import MonomialFunction
from .linalg import op_norm
from .spectral import function_derivative_dd, simpson_weights

SOBOLEV_MIN_NODES = 2049
PROBE_DEFAULT_BUDGET = 64
PROBE_CLIMB_STEPS = 50
PROBE_BOUNDARY_FRACTION = 0.7

CSV_HEADER = "g_kind,n,r,d,bound,empirical,slack,samples,seed"


def sobolev_bound(g, n, r, nodes=SOBOLEV_MIN_NODES):
    """Upper bound on the order-n derivative seminorm over the radius-r ball:
    |g^(n)(0)| + sqrt(8 r) * (integral of |g^(n+1)|^2 / (2 pi))^(1/2)."""
    if r <= 0:
        raise ParseError(f"sobolev_bound: radius must be positive, got {r}")
    if nodes < SOBOLEV_MIN_NODES:
        nodes = SOBOLEV_MIN_NODES
    if nodes % 2 == 0:
        nodes += 1
    g.check_order(n + 1, "sobolev_bound")
    t = np.linspace(-r, r, nodes)
    w = simpson_weights(nodes, t[1] - t[0])
    integrand = np.abs(np.asarray(g.eval_derivative(t, n + 1))) ** 2
    integral = float(w @ integrand)
    head = float(abs(g.eval_derivative(0.0, n)))
    return head + np.sqrt(8.0 * r) * np.sqrt(integral / (2.0 * np.pi))


def power_bound(k, n, r):
    """Seminorm bound for t -> t^k: k!/(k-n)! r^(k-n); zero when n > k."""
    if r < 0:
        raise ParseError(f"power_bound: radius must be >= 0, got {r}")
    if n > k:
        return 0.0
    return factorial(k) / factorial(k - n) * r ** (k - n)


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


def _evaluate(g, x, dirs):
    norms = [op_norm(v) for v in dirs]
    denom = float(np.prod(norms)) if norms else 1.0
    if denom == 0.0:
        return 0.0
    value = op_norm(function_derivative_dd(g, x, dirs).matrix)
    return value / denom


def _random_candidate(g, n, r, d, seed, index):
    gen_x = rng.generator(seed, rng.STREAM_PROBE_X, index)
    h = rng.random_hermitian(d, gen_x)
    nrm = op_norm(h)
    boundary = gen_x.random() < PROBE_BOUNDARY_FRACTION
    target = r if boundary else r * gen_x.random()
    x = h * (target / nrm) if nrm > 0 else np.zeros((d, d), dtype=np.complex128)
    gen_v = rng.generator(seed, rng.STREAM_PROBE_DIRS, index)
    dirs = []
    for _ in range(n):
        v = rng.random_hermitian(d, gen_v)
        vn = op_norm(v)
        dirs.append(v / vn if vn > 0 else np.eye(d, dtype=np.complex128))
    return _evaluate(g, x, dirs), x, dirs


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
    on the boundary sphere, the rest uniformly scaled inward), the best
    is refined by an annealed random-perturbation hill climb, and the
    returned value is always a derivative norm actually evaluated at the
    stored witness. threads is accepted and ignored.
    """
    if r <= 0 or d < 1 or budget < 0:
        raise ParseError("probe_seminorm: need r > 0, d >= 1, budget >= 0")
    eye = np.eye(d, dtype=np.complex128)
    evaluations = 0
    best = (-1.0, None, None)
    for x0 in (r * eye, -r * eye):
        val = _evaluate(g, x0, [eye] * n)
        evaluations += 1
        if val > best[0]:
            best = (val, x0, [eye.copy() for _ in range(n)])

    for i in range(budget):
        cand = _random_candidate(g, n, r, d, seed, i)
        if cand[0] > best[0]:
            best = cand
    evaluations += budget

    value, x, dirs = best
    sigma0 = 0.5 * r
    decay = 0.664
    for step in range(climb_steps):
        gen = rng.generator(seed, rng.STREAM_PROBE_CLIMB, step)
        sigma = sigma0 * decay**step
        xp = x + sigma * rng.random_hermitian(d, gen)
        nrm = op_norm(xp)
        if nrm > r:
            xp = xp * (r / nrm)
        dirs_p = []
        for v in dirs:
            vp = v + (sigma / r) * rng.random_hermitian(d, gen)
            vn = op_norm(vp)
            dirs_p.append(vp / vn if vn > 0 else v)
        val = _evaluate(g, xp, dirs_p)
        evaluations += 1
        if val > value:
            value, x, dirs = val, xp, dirs_p

    return SeminormEstimate(
        value=float(value),
        n=int(n),
        r=float(r),
        g_label=g.label(),
        witness_x=x,
        witness_dirs=dirs,
        samples_used=evaluations,
        seed=int(seed),
    )


def bound_report(g, n, r, d, budget=PROBE_DEFAULT_BUDGET, seed=0, climb_steps=PROBE_CLIMB_STEPS):
    """Upper bound vs probed lower bound, as one report row.

    Monomials get their exact power bound; everything else the Sobolev
    bound (which needs g^(n+1)).
    """
    if isinstance(g, MonomialFunction):
        bound = power_bound(g.k, n, r)
        method = "power"
    else:
        bound = sobolev_bound(g, n, r)
        method = "sobolev"
    est = probe_seminorm(g, n, r, d, budget=budget, seed=seed, climb_steps=climb_steps)
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
