"""Built-in invariant suite.

Each check exercises one identity or bound that the library is supposed
to satisfy unconditionally; together they cover every module. Checks are
deterministic for a fixed seed (thread count included), so two runs with
the same arguments produce byte-identical reports. ``quick`` mode trims
sample counts and instance grids to stay well under a minute.
"""

import math

import numpy as np

from . import expderiv
from .bounds import power_bound, probe_seminorm, sobolev_bound
from .combinatorics import enum_compositions
from .errors import ParseError
from .expderiv import (
    exp_derivative_dd,
    exp_derivative_mc,
    mat_exp,
    simplex_volume_mc,
)
from .functions import (
    ExpFunction,
    GaussianFunction,
    MonomialFunction,
    PolynomialFunction,
    SinFunction,
)
from .linalg import HermitianMatrix, frobenius, op_norm
from .oracle import FDConfig, exp_chain_quadrature, fd_derivative, symbolic_power_expand
from .powers import power_derivative
from .rng import STREAM_TEST, generator, random_hermitian
from .spectral import (
    apply_function,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
)


def _unit_dirs(d, n, gen):
    dirs = []
    for _ in range(n):
        v = random_hermitian(d, gen)
        dirs.append(v / op_norm(v))
    return dirs


def _check_simplex_volume(seed, quick):
    """MC volume of the standard corner simplex against 1/n! for n = 1..5."""
    samples = 2 * 10**5 if quick else 10**6
    worst = 0.0
    for n in range(1, 6):
        est = simplex_volume_mc(n, samples=samples, seed=seed)
        # resolved through the module so a corrupted constant is caught
        ref = expderiv.reference_simplex_volume(n)
        gap = abs(est.value - ref)
        if est.std_error == 0.0:
            if gap != 0.0:
                return False, f"n={n}: exact case deviates by {gap:.3e}"
            continue
        z = gap / est.std_error
        worst = max(worst, z)
        if z > 3.0:
            return False, f"n={n}: estimate {est.value:.8f} is {z:.2f} sigma from {ref:.8f}"
    return True, f"n=1..5 within 3 sigma (worst {worst:.2f}) at {samples} samples"


def _check_composition_count(seed, quick):
    cap = 6 if quick else 8
    for n in range(0, cap + 1):
        for k in range(0, cap + 1):
            got = len(enum_compositions(n, k))
            want = math.comb(n + k, n)
            if got != want:
                return False, f"(n={n}, k={k}): {got} compositions, expected {want}"
    return True, f"all (n, k) up to {cap} match the binomial count"


def _check_power_vs_words(seed, quick):
    """Ordered power-derivative sum against brute-force word enumeration."""
    instances = 20 if quick else 100
    gen = generator(seed, STREAM_TEST, 1)
    worst = 0.0
    for _ in range(instances):
        k = int(gen.integers(0, 6))
        n = int(gen.integers(0, 4))
        d = int(gen.integers(1, 7))
        x = random_hermitian(d, gen)
        dirs = [random_hermitian(d, gen) for _ in range(n)]
        a = power_derivative(k, n, x, dirs)
        b = symbolic_power_expand(k, x, dirs)
        scale = max(float(np.max(np.abs(a))), 1.0)
        dev = float(np.max(np.abs(a - b))) / scale
        worst = max(worst, dev)
        if dev > 1e-12:
            return False, f"k={k} n={n} d={d}: relative deviation {dev:.3e}"
    return True, f"{instances} instances, worst relative deviation {worst:.3e}"


def _check_dd_vs_mc(seed, quick):
    instances = 6 if quick else 50
    samples = 2 * 10**4 if quick else 10**5
    gen = generator(seed, STREAM_TEST, 2)
    worst_frac = 1.0
    for i in range(instances):
        n = int(gen.integers(1, 4))
        d = int(gen.integers(2, 9))
        x = random_hermitian(d, gen)
        dirs = [random_hermitian(d, gen) for _ in range(n)]
        dd = exp_derivative_dd(x, dirs).matrix
        mc = exp_derivative_mc(x, dirs, samples=samples, seed=(seed + i) % 2**32)
        se = np.maximum(mc.std_error, 1e-15)
        frac = float(np.mean(np.abs(mc.matrix - dd) <= 3.0 * se))
        worst_frac = min(worst_frac, frac)
        if frac < 0.95:
            return False, f"instance {i} (n={n}, d={d}): only {frac:.3f} of entries within 3 sigma"
    return True, f"{instances} instances, worst within-3-sigma fraction {worst_frac:.3f}"


def _check_dd_vs_quadrature(seed, quick):
    instances = 10 if quick else 50
    gen = generator(seed, STREAM_TEST, 3)
    worst = 0.0
    for _ in range(instances):
        d = int(gen.integers(2, 7))
        x = random_hermitian(d, gen)
        x *= float(gen.uniform(0.2, 2.0)) / max(op_norm(x), 1e-12)
        v = random_hermitian(d, gen)
        a = exp_derivative_dd(x, [v]).matrix
        q = exp_chain_quadrature(x, v, nodes=201)
        rel = float(np.max(np.abs(a - q))) / max(float(np.max(np.abs(a))), 1e-12)
        worst = max(worst, rel)
        if rel > 1e-9:
            return False, f"relative gap {rel:.3e} at d={d}"
    return True, f"{instances} instances, worst relative gap {worst:.3e}"


def _check_imaginary_exp_unitary(seed, quick):
    count = 30 if quick else 100
    gen = generator(seed, STREAM_TEST, 4)
    worst = 0.0
    for _ in range(count):
        d = int(gen.integers(1, 9))
        x = random_hermitian(d, gen, scale=float(gen.uniform(0.1, 3.0)))
        s = float(gen.uniform(-10.0, 10.0))
        nrm = op_norm(mat_exp(x, 1j * s))
        worst = max(worst, abs(nrm - 1.0))
        if abs(nrm - 1.0) > 1e-12:
            return False, f"||exp(i s x)|| = {nrm!r} at s={s:.3f}, d={d}"
    return True, f"{count} matrices, worst |norm - 1| = {worst:.3e}"


def _check_exp_sum_rule(seed, quick):
    """exp(x + y) = exp(x) exp(y) for commuting Hermitian pairs."""
    count = 15 if quick else 50
    gen = generator(seed, STREAM_TEST, 5)
    worst = 0.0
    for _ in range(count):
        d = int(gen.integers(2, 7))
        base = random_hermitian(d, gen)
        base /= op_norm(base)
        # polynomials in a common seed always commute; coefficients kept
        # moderate so exp() norms stay far from the float64 cliff
        cx = 0.6 * gen.normal(size=3)
        cy = 0.6 * gen.normal(size=3)
        eye = np.eye(d)
        x = cx[0] * eye + cx[1] * base + cx[2] * (base @ base)
        y = cy[0] * eye + cy[1] * base + cy[2] * (base @ base)
        left = mat_exp(HermitianMatrix(x + y), 1.0)
        right = mat_exp(HermitianMatrix(x), 1.0) @ mat_exp(HermitianMatrix(y), 1.0)
        scale = max(frobenius(left), 1.0)
        dev = frobenius(left - right) / scale
        worst = max(worst, dev)
        if dev > 1e-11:
            return False, f"relative defect {dev:.3e} at d={d}"
    return True, f"{count} commuting pairs, worst relative defect {worst:.3e}"


def _check_exp_time_derivative(seed, quick):
    """d/ds exp(s x) = x exp(s x), via the derivative at s x along x."""
    count = 15 if quick else 50
    gen = generator(seed, STREAM_TEST, 6)
    worst = 0.0
    for _ in range(count):
        d = int(gen.integers(2, 7))
        x = random_hermitian(d, gen)
        s = float(gen.uniform(-1.5, 1.5))
        lhs = exp_derivative_dd(s * x, [x]).matrix
        rhs = x @ mat_exp(HermitianMatrix(s * x), 1.0)
        scale = max(frobenius(rhs), 1.0)
        dev = frobenius(lhs - rhs) / scale
        worst = max(worst, dev)
        if dev > 1e-10:
            return False, f"relative defect {dev:.3e} at d={d}, s={s:.3f}"
    return True, f"{count} instances, worst relative defect {worst:.3e}"


def _check_derivative_scaling_bound(seed, quick):
    """||D^n exp(i s x)|| never beats |s|^n on unit directions."""
    count = 12 if quick else 40
    gen = generator(seed, STREAM_TEST, 7)
    worst = 0.0
    for _ in range(count):
        n = int(gen.integers(1, 4))
        d = int(gen.integers(2, 7))
        x = random_hermitian(d, gen)
        s = float(gen.uniform(0.2, 8.0))
        dirs = _unit_dirs(d, n, gen)
        # full derivative of x -> exp(isx): the chain integral times (is)^n
        der = (1j * s) ** n * exp_derivative_dd(x, dirs, scale=1j * s).matrix
        ratio = op_norm(der) / s**n
        worst = max(worst, ratio)
        if ratio > 1.0 + 1e-9:
            return False, f"norm ratio {ratio!r} exceeds 1 at n={n}, s={s:.3f}"
    return True, f"{count} instances, largest norm ratio {worst:.6f}"


def _check_power_seminorm(seed, quick):
    ks = (2, 4) if quick else (1, 2, 3, 4, 5, 6)
    ns = (1, 2) if quick else (1, 2, 3)
    radii = (0.5, 1.0) if quick else (0.5, 1.0, 2.0)
    samples = 40 if quick else 150
    for k in ks:
        for n in ns:
            if n > k:
                continue
            for r in radii:
                bound = power_bound(k, n, r)
                est = probe_seminorm(MonomialFunction(k), n, r, 3, budget=samples, seed=seed)
                if est.value > bound * (1.0 + 1e-9):
                    return False, (
                        f"k={k} n={n} r={r}: probe {est.value:.6e} exceeds bound {bound:.6e}"
                    )
    # tight commuting witness: x = r I reaches k r^(k-1) at n = 1
    bound = power_bound(2, 1, 1.0)
    est = probe_seminorm(MonomialFunction(2), 1, 1.0, 3, budget=40, seed=seed)
    if est.value < 0.999 * bound:
        return False, f"tight case k=2 n=1 reaches only {est.value / bound:.4f} of the bound"
    return True, f"monomial probes stay under the factorial bound; tight case at {est.value / bound:.4f}"


def _check_sobolev_seminorm(seed, quick):
    functions = [ExpFunction(), SinFunction(), GaussianFunction(), MonomialFunction(3)]
    ns = (0, 1) if quick else (0, 1, 2)
    radii = (1.0,) if quick else (0.5, 1.0, 2.0)
    dims = (2, 4) if quick else (2, 4, 8)
    samples = 30 if quick else 100
    worst_slack = np.inf
    for g in functions:
        for n in ns:
            for r in radii:
                for d in dims:
                    bound = sobolev_bound(g, n, r)
                    est = probe_seminorm(g, n, r, d, budget=samples, seed=seed)
                    slack = bound - est.value
                    worst_slack = min(worst_slack, slack)
                    if est.value > bound + 1e-9:
                        return False, (
                            f"{g.label()} n={n} r={r} d={d}: probe {est.value:.6e} "
                            f"exceeds bound {bound:.6e}"
                        )
    return True, f"all probes under the seminorm bound (smallest slack {worst_slack:.3e})"


def _check_dd_vs_fourier(seed, quick):
    gen = generator(seed, STREAM_TEST, 8)
    functions = [GaussianFunction(), SinFunction()]
    if not quick:
        functions.append(PolynomialFunction([0.3, -1.0, 0.0, 0.5, 0.0, 0.1, -0.02]))
    instances = 4 if quick else 17
    r = 2.0
    worst = 0.0
    for g in functions:
        table = fourier_table(g, r, n_max=2)
        for _ in range(instances):
            d = int(gen.integers(2, 5))
            x = random_hermitian(d, gen)
            x *= float(gen.uniform(0.3, 0.95)) * r / max(op_norm(x), 1e-12)
            for n in (0, 1, 2):
                dirs = [random_hermitian(d, gen) for _ in range(n)]
                ref = (
                    function_derivative_dd(g, x, dirs).matrix
                    if n
                    else apply_function(g, x)
                )
                alt = function_derivative_fourier(table, x, dirs).matrix
                scale = float(np.max(np.abs(ref))) + 1e-12
                rel = float(np.max(np.abs(ref - alt))) / scale
                tol = 1e-6 if n == 0 else 1e-5
                worst = max(worst, rel / tol)
                if rel > tol:
                    return False, (
                        f"{g.label()} n={n} d={d}: relative gap {rel:.3e} over {tol:g}"
                    )
    return True, f"two paths agree; worst gap at {worst:.4f} of tolerance"


def _check_fd_convergence(seed, quick):
    gen = generator(seed, STREAM_TEST, 9)
    d = 4
    x = random_hermitian(d, gen)
    x *= 1.0 / max(op_norm(x), 1e-12)
    v = random_hermitian(d, gen)
    v /= op_norm(v)
    w = random_hermitian(d, gen)
    w /= op_norm(w)
    g = ExpFunction()

    def f(m):
        return apply_function(g, HermitianMatrix(m))

    exact1 = function_derivative_dd(g, x, [v]).matrix
    steps = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for h in steps:
        fd = fd_derivative(f, x, [v], FDConfig(step=float(h)))
        errs.append(float(np.max(np.abs(fd - exact1))))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    if abs(slope - 2.0) > 0.1:
        return False, f"n=1 log-log slope {slope:.3f} not within 2.0 +- 0.1"
    scale1 = float(np.max(np.abs(exact1)))
    rel1 = errs[-1] / scale1
    if rel1 > 1e-7:
        return False, f"n=1 relative error {rel1:.3e} at h=1e-4 above 1e-7"

    exact2 = function_derivative_dd(g, x, [v, w]).matrix
    fd2 = fd_derivative(f, x, [v, w], FDConfig(step=1e-3))
    rel2 = float(np.max(np.abs(fd2 - exact2))) / float(np.max(np.abs(exact2)))
    if rel2 > 1e-4:
        return False, f"n=2 relative error {rel2:.3e} at h=1e-3 above 1e-4"
    return True, (
        f"slope {slope:.3f}; n=1 rel {rel1:.3e} at h=1e-4; n=2 rel {rel2:.3e} at h=1e-3"
    )


CHECKS = [
    ("simplex-volume", _check_simplex_volume),
    ("composition-count", _check_composition_count),
    ("power-derivative-vs-words", _check_power_vs_words),
    ("exp-derivative-dd-vs-mc", _check_dd_vs_mc),
    ("exp-derivative-vs-quadrature", _check_dd_vs_quadrature),
    ("imaginary-exp-unitary", _check_imaginary_exp_unitary),
    ("exp-sum-rule", _check_exp_sum_rule),
    ("exp-time-derivative", _check_exp_time_derivative),
    ("derivative-scaling-bound", _check_derivative_scaling_bound),
    ("power-seminorm-bound", _check_power_seminorm),
    ("sobolev-seminorm-bound", _check_sobolev_seminorm),
    ("function-derivative-dd-vs-fourier", _check_dd_vs_fourier),
    ("finite-difference-convergence", _check_fd_convergence),
]


def run_selftest(seed, quick=True, threads=1, names=None):
    """Run the invariant suite; returns a JSON-ready report dict.

    The report is fully determined by (seed, quick, names): no timestamps
    or timings, so identical invocations give identical bytes. threads is
    accepted and ignored. names, a list of check names, selects checks;
    ParseError for a bare string or for a name of no check.
    """
    if isinstance(names, str):
        raise ParseError(f"selftest: names must be a list of check names, got {names!r}")
    if unknown := sorted(set(names or ()) - {name for name, _ in CHECKS}):
        raise ParseError(f"selftest: unknown checks {', '.join(unknown)}")
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in names]
    results = []
    failed = []
    for name, fn in selected:
        try:
            ok, detail = fn(seed, quick)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            {"name": name, "status": "pass" if ok else "fail", "detail": detail}
        )
        if not ok:
            failed.append(name)
    return {
        "mode": "quick" if quick else "full",
        "seed": int(seed),
        "checks": results,
        "failed": failed,
        "all_pass": not failed,
    }
