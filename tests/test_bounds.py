"""Derivative seminorm bounds and the randomized probe that checks them."""

import functools
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hermcalc import bounds, divided, rng
from hermcalc.bounds import (
    CSV_HEADER,
    bound_report,
    power_bound,
    probe_seminorm,
    reports_to_csv,
    sobolev_bound,
)
from hermcalc.errors import (
    CapExceededError,
    OrderSupportError,
    OverflowRangeError,
    ParseError,
)
from hermcalc.functions import (
    ExpFunction,
    GaussianFunction,
    MonomialFunction,
    PolynomialFunction,
    TabulatedFunction,
    parse_function,
)
from hermcalc.linalg import op_norm
from hermcalc.spectral import function_derivative_dd


def test_power_bound_values():
    assert power_bound(2, 1, 1.0) == 2.0
    assert power_bound(3, 2, 0.5) == 3.0
    assert power_bound(5, 5, 2.0) == 120.0
    assert power_bound(1, 2, 1.0) == 0.0
    with pytest.raises(ParseError):
        power_bound(2, 1, -1.0)


def test_negative_orders_are_rejected():
    with pytest.raises(ParseError, match="order"):
        sobolev_bound(ExpFunction(), -1, 1.0)
    with pytest.raises(ParseError, match="order"):
        power_bound(3, -1, 1.0)
    with pytest.raises(ParseError, match="order must be >= 0"):
        probe_seminorm(GaussianFunction(), -1, 1.0, 4, budget=4, seed=1)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_non_finite_radii_are_rejected(r):
    with pytest.raises(ParseError, match="radius"):
        sobolev_bound(ExpFunction(), 1, r)
    with pytest.raises(ParseError, match="radius"):
        power_bound(3, 1, r)
    with pytest.raises(ParseError, match="radius"):
        probe_seminorm(GaussianFunction(), 1, r, 4, budget=4, seed=1)


def test_overflowing_bounds_and_probes_raise():
    for g, r in ((ExpFunction(), 800.0), (MonomialFunction(3), 1e200)):
        with pytest.raises(OverflowRangeError, match="sobolev_bound"):
            sobolev_bound(g, 1, r)
        with pytest.raises(OverflowRangeError, match="probe_seminorm"):
            probe_seminorm(g, 1, r, 2, budget=2, seed=0)
    # r ** 2 raises OverflowError for a float r and an int r; 3 * 1e154 ** 2 is inf
    for k, r in ((3, 1e200), (3, 10**200), (3, 1e154)):
        with pytest.raises(OverflowRangeError, match="power_bound"):
            power_bound(k, 1, r)


def test_sobolev_bound_exp_reference(monkeypatch):
    # |g(0)| + sqrt(8 r) ||g'||_{L2(-r,r)} / sqrt(2 pi) with g = exp, r = 1:
    # 1 + sqrt(8) sqrt((e^2 - e^-2)/(4 pi))
    b = sobolev_bound(ExpFunction(), 0, 1.0)
    assert b == pytest.approx(3.1489211466466434, abs=1e-9)
    # more quadrature nodes should barely move it
    monkeypatch.setattr(bounds, "SOBOLEV_NODES", 8193)
    b2 = sobolev_bound(ExpFunction(), 0, 1.0)
    assert abs(b - b2) < 1e-10


def test_sobolev_bound_monotone_in_radius():
    g = GaussianFunction()
    bounds = [sobolev_bound(g, 1, r) for r in (0.5, 1.0, 2.0)]
    assert bounds[0] < bounds[1] < bounds[2]


def test_sobolev_bound_rejects_table_at_high_order():
    ts = np.linspace(-2, 2, 33)
    tab = TabulatedFunction(ts, ts**2)
    with pytest.raises(OrderSupportError):
        sobolev_bound(tab, 1, 1.0)  # needs g'', table stops at g'


def test_probe_exp_reaches_scalar_maximum():
    # the scalar witness x = r I attains |exp|_{C(0,r)} exactly
    est = probe_seminorm(ExpFunction(), 0, 1.0, 4, budget=64, seed=9)
    assert est.value == pytest.approx(np.e, abs=1e-12)
    assert est.n == 0 and est.r == 1.0
    assert op_norm(est.witness_x) <= 1.0 + 1e-12


def test_probe_square_monomial_is_tight():
    est = probe_seminorm(MonomialFunction(2), 1, 1.0, 4, budget=64, seed=9)
    bound = power_bound(2, 1, 1.0)
    assert est.value <= bound + 1e-9
    assert est.value >= 0.999 * bound


def test_probe_stays_below_bound_random_kinds():
    gen = np.random.default_rng(81)
    kinds = [ExpFunction(), GaussianFunction(), PolynomialFunction([0.0, 1.0, 0.5])]
    for g in kinds:
        n = int(gen.integers(0, 3))
        r = float(gen.choice([0.5, 1.0, 2.0]))
        est = probe_seminorm(g, n, r, 3, budget=32, seed=int(gen.integers(1, 10**6)))
        bound = sobolev_bound(g, n, r)
        assert est.value <= bound + 1e-9
        assert est.samples_used > 0


def test_probe_witness_is_feasible():
    est = probe_seminorm(GaussianFunction(), 1, 1.5, 3, budget=32, seed=4)
    assert op_norm(est.witness_x) <= 1.5 + 1e-9
    assert len(est.witness_dirs) == 1
    for v in est.witness_dirs:
        defect = op_norm(v - v.conj().T)
        assert defect < 1e-12


def test_probe_deterministic():
    a = probe_seminorm(ExpFunction(), 1, 1.0, 3, budget=32, seed=5)
    b = probe_seminorm(ExpFunction(), 1, 1.0, 3, budget=32, seed=5)
    assert a.value == b.value
    np.testing.assert_array_equal(a.witness_x, b.witness_x)


def _hermitian(gen, *shape):
    a = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def test_hermitian_norms_match_the_svd():
    gen = np.random.default_rng(17)
    shifted = _hermitian(gen, 4, 5, 5)
    # shifted down past its spectrum: the largest |eigenvalue| is the most negative one
    shifted -= 2 * np.linalg.norm(shifted, 2, axis=(-2, -1))[:, None, None] * np.eye(5)
    cases = [
        _hermitian(gen, 6, 6),  # one matrix
        _hermitian(gen, 7, 4, 4),
        _hermitian(gen, 3, 2, 8, 8),  # (B, n, d, d), as the directions
        shifted,
        np.zeros((3, 3), dtype=np.complex128),
        np.zeros((2, 3, 3), dtype=np.complex128),
        _hermitian(gen, 1, 1),
        _hermitian(gen, 5, 2, 1, 1),
        np.array([[-2.5 + 0j]]),
    ]
    assert np.all(np.linalg.eigvalsh(shifted)[..., -1] < 0)
    for m in cases:
        got, want = bounds._norms(m), np.linalg.norm(m, 2, axis=(-2, -1))
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


PROBE_KINDS = [
    GaussianFunction(),
    parse_function("sin"),
    ExpFunction(),
    PolynomialFunction([0.5, 1.0 - 0.5j, 0.25j, 0.1]),  # complex: the SVD path
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", PROBE_KINDS, ids=lambda g: g.label())
def test_probe_value_is_the_norm_at_its_witness(g, n):
    est = probe_seminorm(g, n, 1.5, 4, budget=16, seed=31)
    der = function_derivative_dd(g, est.witness_x, est.witness_dirs).matrix
    value = op_norm(der) / np.prod([op_norm(v) for v in est.witness_dirs])
    assert est.value == pytest.approx(value, rel=1e-13, abs=0)


def _count_solves(monkeypatch):
    """Matrices given to each numpy.linalg solver, and the calls of
    numpy.linalg.norm of order 2 (op_norm's SVD), while the spy is in place."""
    seen = dict.fromkeys(("eigh", "eigvalsh", "svd", "norm"), 0)
    for name in seen:

        def spy(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            if _name != "norm":
                seen[_name] += np.size(a) // np.shape(a)[-1] ** 2
            elif kwargs.get("ord", args[0] if args else None) == 2:
                seen[_name] += 1
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    evaluate, points = bounds._evaluate, []

    def count_points(g, lam, *args):
        points.append(len(lam))
        return evaluate(g, lam, *args)

    monkeypatch.setattr(bounds, "_evaluate", count_points)
    return seen, points


@pytest.mark.parametrize("g", PROBE_KINDS, ids=lambda g: g.label())
def test_probe_decomposes_each_point_once(g, monkeypatch):
    seen, points = _count_solves(monkeypatch)
    n = 2
    probe_seminorm(g, n, 1.0, 4, budget=8, seed=5)
    evaluated = sum(points)
    assert evaluated >= 2 + 8 + bounds.PROBE_CLIMB_STEPS
    assert seen["eigh"] == evaluated
    assert seen["norm"] == 0
    # a real g's derivatives are Hermitian: no SVD; a complex g's take one each
    real = not isinstance(g, PolynomialFunction)
    assert seen["svd"] == (0 if real else evaluated)
    # eigvalsh: every point's n drawn or perturbed directions when it is placed,
    # then its n unit directions and a real g's derivative when it is evaluated
    assert seen["eigvalsh"] == evaluated * (2 * n + real)


def test_bound_report_monomial_row():
    rep = bound_report(MonomialFunction(2), 1, 1.0, 4, budget=64, seed=9)
    assert rep.bound == 2.0
    assert rep.bound_method == "power"
    assert rep.slack >= 0.0
    assert rep.csv_row().startswith("monomial:2,1,1,4,2.0,")


def test_reports_to_csv_header():
    rep = bound_report(ExpFunction(), 0, 1.0, 2, budget=16, seed=2)
    text = reports_to_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "g_kind,n,r,d,bound,empirical,slack,samples,seed"
    assert len(lines) == 2
    assert lines[1].startswith("exp,0,1,2,")


def _witness_digest(est):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(est.witness_x).tobytes())
    for v in est.witness_dirs:
        h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()[:16]


# (g, d, n) -> (value.hex(), first 16 hex digits of the SHA-256 of the
# witness x and direction bytes, samples_used) at r = 1.5, budget 32,
# seed 2026, recorded from the one-candidate-at-a-time probe
# (bounds._stack_size patched to 1)
GOLDEN_PROBES = {
    ("gaussian", 4, 1): ("0x1.1d6f92dd7e41ap-1", "29fced81731e005c", 84),
    ("gaussian", 4, 2): ("0x1.62ab32504b560p-1", "a09092d4e6112032", 84),
    ("gaussian", 8, 1): ("0x1.fac619b98b463p-2", "9b21e4ffc94c45ac", 84),
    ("gaussian", 8, 2): ("0x1.11229bb27a5ecp-1", "d5632d46a3063ecf", 84),
    ("sin", 4, 1): ("0x1.fc71abf1c1d40p-1", "19c0d611794bbc32", 84),
    ("sin", 4, 2): ("0x1.feb7a9b2c6d8bp-1", "5de889478e2d5611", 84),
    ("sin", 8, 1): ("0x1.ff32fcd00d42dp-1", "a605793401d7d713", 84),
    ("sin", 8, 2): ("0x1.feb7a9b2c6d8bp-1", "fee5bb58e4f328ce", 84),
    ("exp", 4, 1): ("0x1.1ed3fe64fc541p+2", "766b3a5006cd0e4f", 84),
    ("exp", 4, 2): ("0x1.1ed3fe64fc541p+2", "5de889478e2d5611", 84),
    ("exp", 8, 1): ("0x1.1ed3fe64fc541p+2", "814f62a1a90753c8", 84),
    ("exp", 8, 2): ("0x1.1ed3fe64fc541p+2", "fee5bb58e4f328ce", 84),
    ("monomial:3", 4, 1): ("0x1.b000000000000p+2", "766b3a5006cd0e4f", 84),
    ("monomial:3", 4, 2): ("0x1.2000000000000p+3", "5de889478e2d5611", 84),
    ("monomial:3", 8, 1): ("0x1.b000000000000p+2", "814f62a1a90753c8", 84),
    ("monomial:3", 8, 2): ("0x1.2000000000000p+3", "fee5bb58e4f328ce", 84),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_PROBES))
def test_probe_matches_golden(key):
    g, d, n = key
    est = probe_seminorm(parse_function(g), n, 1.5, d, budget=32, seed=2026)
    assert (est.value.hex(), _witness_digest(est), est.samples_used) == GOLDEN_PROBES[key]


# (g, d, n, budget, climb_steps) -> as above, recorded alike:
# d = 8, n = 4 takes stacks of two, so budget 5 makes three; budgets 0 and 1
GOLDEN_EDGES = {
    ("gaussian", 8, 4, 5, 3): ("0x1.c3ea8e592aca0p+0", "11b9474933e67c76", 10),
    ("sin", 8, 4, 5, 3): ("0x1.feb7a9b2c6d8ap-1", "11b9474933e67c76", 10),
    ("gaussian", 4, 2, 0, 50): ("0x1.64b81e9e2af6bp-1", "71ac87ce79a656aa", 52),
    ("sin", 4, 2, 1, 50): ("0x1.feb7a9b2c6d8bp-1", "5de889478e2d5611", 53),
    ("gaussian", 3, 1, 1, 0): ("0x1.f2aa8b6b380b0p-2", "b7248a4346a426be", 3),
    ("sin", 5, 3, 0, 0): ("0x1.21bd54fc5f9a6p-4", "6f591623e7478021", 2),
    ("gaussian", 4, 3, 32, 50): ("0x1.81ef8d44735d9p-1", "5cea1824c4ab8edd", 84),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_EDGES))
def test_probe_stack_edges_match_golden(key):
    g, d, n, budget, climb = key
    est = probe_seminorm(parse_function(g), n, 1.5, d, budget=budget, seed=2026, climb_steps=climb)
    assert (est.value.hex(), _witness_digest(est), est.samples_used) == GOLDEN_EDGES[key]


def test_probe_stack_size_bounds_memory(monkeypatch):
    # the bench shapes (d <= 8, n <= 2, 32 candidates) take one stack; the cap shape one candidate
    assert bounds._stack_size(8, 2) >= 32
    assert bounds._stack_size(8, 4) == 2
    assert bounds._stack_size(32, 4) == 1
    # stacks of one candidate give the same estimate as stacks of many
    a = probe_seminorm(GaussianFunction(), 2, 1.0, 4, budget=20, seed=3, climb_steps=5)
    monkeypatch.setattr(divided, "SLAB_ENTRIES", 1)
    assert bounds._stack_size(4, 2) == 1
    b = probe_seminorm(GaussianFunction(), 2, 1.0, 4, budget=20, seed=3, climb_steps=5)
    assert a.value == b.value and _witness_digest(a) == _witness_digest(b)


@pytest.mark.parametrize("route", [probe_seminorm, bound_report], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n, d, cap", [(2000, 2, "order 2000"), (1, 1000, "dimension 1000")])
def test_probe_caps_come_before_any_work(route, n, d, cap):
    # the Sobolev bound alone holds about 16 KB per order, and a d x d
    # complex matrix 16 d^2 bytes: 16 MB at d = 1000
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=f"derivative: {cap} exceeds cap"):
            route(GaussianFunction(), n, 1.0, d, budget=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_probe_rejects_negative_climb_steps():
    with pytest.raises(ParseError, match="climb_steps must be >= 0"):
        probe_seminorm(GaussianFunction(), 1, 1.0, 2, budget=2, seed=0, climb_steps=-1)


def _sequential_climb(g, n, r, d, seed, budget, steps):
    """The climb one step after the other, from the probe's best candidate:
    (value, witness x, witness directions) after every step count in 0..steps
    and the accepted steps."""
    est = probe_seminorm(g, n, r, d, budget=budget, seed=seed, climb_steps=0)
    value, x, dirs = est.value, est.witness_x, est.witness_dirs
    states, accepted = [(value, x, dirs)], []
    sigma0 = 0.5 * r
    decay = 0.664
    hermitian = np.isrealobj(g(np.linspace(-r, r, 3)))
    for step in range(steps):
        gen = rng.generator(seed, rng.STREAM_PROBE_CLIMB, step)
        sigma = sigma0 * decay**step
        xp = x + sigma * rng.random_hermitian(d, gen)
        vps = [v + (sigma / r) * rng.random_hermitian(d, gen) for v in dirs]
        # the point's norm from its one eigendecomposition, the directions' from eigvalsh
        lam, vectors = np.linalg.eigh(xp)
        nrm = np.abs(lam).max()
        if nrm > r:
            xp, lam = xp * (r / nrm), lam * (r / nrm)
        vns = bounds._norms(np.array(vps).reshape(n, d, d))
        dirs_p = [vp / vn if vn > 0 else v for v, vp, vn in zip(dirs, vps, vns)]
        dirs_p_stack = np.array(dirs_p).reshape(1, n, d, d)
        val = bounds._evaluate(g, lam[None], vectors[None], dirs_p_stack, hermitian)[0]
        if val > value:
            value, x, dirs = val, xp, dirs_p
            accepted.append(step)
        states.append((value, x, dirs))
    return states, accepted


CLIMB_KINDS = ("gaussian", "sin", "cos", "exp", "monomial:3")
# (d, n, seed): one seed per shape
CLIMB_SHAPES = [(d, n, 11 + 4 * i + n) for i, d in enumerate((2, 4, 8)) for n in range(4)]
CLIMB_COUNTS = (0, 1, 2, 3, 50)
CLIMB_CAPS = (None, 1, 3)  # the stack size: the library's, and capped at 1 and 3


@functools.cache
def _reference(kind, d, n, seed):
    g, steps = parse_function(kind), max(CLIMB_COUNTS)
    states, accepted = _sequential_climb(g, n, 1.5, d, seed, 4, steps)
    digests = [
        (float(value).hex(), _witness_digest(SimpleNamespace(witness_x=x, witness_dirs=dirs)))
        for value, x, dirs in states
    ]
    return digests, tuple(accepted)


def _windows(accepted, steps, cap):
    """The speculative climb's stacks as (size, accepted slot or None),
    replayed from the sequential climb's accepted steps: the size starts at
    2, doubles after a stack with no acceptance up to cap and goes back to
    2 after one."""
    out, step, width = [], 0, 2
    while step < steps:
        m = min(width, cap, steps - step)
        hit = next((a - step for a in accepted if step <= a < step + m), None)
        out.append((m, hit))
        step, width = (step + hit + 1, 2) if hit is not None else (step + m, 2 * width)
    return out


def _cap_entries(cap, d, n):
    return divided.SLAB_ENTRIES if cap is None else cap * d ** (n + 1)


@pytest.mark.parametrize("cap", CLIMB_CAPS)
@pytest.mark.parametrize("kind", CLIMB_KINDS)
def test_speculative_climb_equals_sequential_climb(kind, cap, monkeypatch):
    evaluate, stacks = bounds._evaluate, []

    def spy(g, lam, vectors, dirs, hermitian):
        stacks.append(len(lam))
        return evaluate(g, lam, vectors, dirs, hermitian)

    monkeypatch.setattr(bounds, "_evaluate", spy)
    for d, n, seed in CLIMB_SHAPES:
        digests, accepted = _reference(kind, d, n, seed)
        monkeypatch.setattr(divided, "SLAB_ENTRIES", _cap_entries(cap, d, n))
        size = bounds._stack_size(d, n)
        assert cap is None or size == cap
        for steps in CLIMB_COUNTS:
            stacks.clear()
            est = probe_seminorm(
                parse_function(kind), n, 1.5, d, budget=4, seed=seed, climb_steps=steps
            )
            got = (est.value.hex(), _witness_digest(est), est.samples_used)
            assert got == (*digests[steps], 2 + 4 + steps), (d, n, seed, steps)
            # the 2 + 4 candidates take -(-(2 + 4) // size) stacks, the climb the rest
            climb = stacks[-(-(2 + 4) // size) :]
            assert climb == [m for m, _ in _windows(accepted, steps, size)], (d, n, seed, steps)


def test_speculative_climb_cases_cover_the_window_rule():
    counts, last_slot = [], 0
    for kind in CLIMB_KINDS:
        for d, n, seed in CLIMB_SHAPES:
            _, accepted = _reference(kind, d, n, seed)
            counts.append(len(accepted))
            for cap in CLIMB_CAPS:
                size = bounds._stack_size(d, n) if cap is None else cap
                windows = _windows(accepted, max(CLIMB_COUNTS), size)
                last_slot += sum(m > 1 and hit == m - 1 for m, hit in windows)
    assert 0 in counts
    assert max(counts) >= 10
    assert last_slot > 0
