"""Scalar functions of Hermitian matrices: direct spectral application,
divided-difference derivatives, and the Fourier synthesis path."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from hermcalc.divided import chain_tensor
from hermcalc.errors import (
    CapExceededError,
    GridError,
    OrderSupportError,
    ParseError,
    RadiusError,
)
from hermcalc.expderiv import exp_derivative_dd, mat_exp
from hermcalc.functions import (
    CosFunction,
    ExpFunction,
    GaussianFunction,
    MonomialFunction,
    PolynomialFunction,
    SinFunction,
    TabulatedFunction,
    parse_function,
)
from hermcalc.linalg import frobenius, op_norm
from hermcalc.oracle import fd_derivative
from hermcalc.powers import power_derivative
from hermcalc.spectral import (
    FOURIER_MAX_N,
    FOURIER_MAX_RADIUS,
    _grid,
    apply_function,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
    mollifier_weight,
    simpson_weights,
)


def random_hermitian(gen, d, scale=1.0):
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- apply


def test_apply_on_diagonal_matrices():
    x = np.diag([0.0, 1.0]).astype(complex)
    out = apply_function(GaussianFunction(), x)
    np.testing.assert_allclose(np.diag(out).real, [1.0, np.exp(-0.5)], atol=1e-15)
    out = apply_function(ExpFunction(), np.zeros((3, 3), dtype=complex))
    np.testing.assert_array_equal(out, np.eye(3))


def test_apply_exp_matches_mat_exp():
    gen = np.random.default_rng(61)
    x = random_hermitian(gen, 5)
    np.testing.assert_allclose(
        apply_function(ExpFunction(), x), mat_exp(x), rtol=0, atol=1e-13 * np.exp(op_norm(x))
    )


def test_apply_pythagorean_identity():
    gen = np.random.default_rng(62)
    x = random_hermitian(gen, 6, scale=3.0)
    s = apply_function(SinFunction(), x)
    c = apply_function(CosFunction(), x)
    assert op_norm(s @ s + c @ c - np.eye(6)) < 1e-13


# ---------------------------------------------------------------- dd path


def test_dd_exp_matches_dedicated_path():
    gen = np.random.default_rng(63)
    x = random_hermitian(gen, 4)
    dirs = [random_hermitian(gen, 4) for _ in range(2)]
    a = function_derivative_dd(ExpFunction(), x, dirs).matrix
    b = exp_derivative_dd(x, dirs).matrix
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * frobenius(b))


def test_dd_monomial_matches_word_expansion():
    # every order of the derivative core against the word expansion in the
    # original basis, which shares no code with it; distinct directions
    gen = np.random.default_rng(64)
    for d in (1, 2, 5):
        x = random_hermitian(gen, d)
        dirs = [random_hermitian(gen, d) for _ in range(4)]
        for k in (4, 6):
            for n in range(5):
                a = function_derivative_dd(MonomialFunction(k), x, dirs[:n]).matrix
                b = power_derivative(k, n, x, dirs[:n])
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-11 * max(frobenius(b), 1.0))


def test_dd_polynomial_is_sum_of_monomials():
    gen = np.random.default_rng(65)
    x = random_hermitian(gen, 3)
    v = random_hermitian(gen, 3)
    coeffs = [0.5, -1.0, 0.0, 2.0]
    a = function_derivative_dd(PolynomialFunction(coeffs), x, [v]).matrix
    b = sum(
        c * function_derivative_dd(MonomialFunction(k), x, [v]).matrix
        for k, c in enumerate(coeffs)
        if c
    )
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(frobenius(b), 1.0))


def test_dd_fully_degenerate_spectrum():
    # at x = c I the first derivative is g'(c) v exactly
    gen = np.random.default_rng(66)
    v = random_hermitian(gen, 4)
    x = 1.0 * np.eye(4, dtype=complex)
    d = function_derivative_dd(GaussianFunction(), x, [v]).matrix
    expected = -np.exp(-0.5) * v
    np.testing.assert_allclose(d, expected, rtol=0, atol=1e-14)


def test_dd_near_degenerate_stays_accurate():
    # eigenvalue gap of 1e-12, deep in the Taylor branch
    gen = np.random.default_rng(67)
    x = np.diag([0.5, 0.5 + 1e-12, 1.5]).astype(complex)
    v = random_hermitian(gen, 3)
    got = function_derivative_dd(GaussianFunction(), x, [v]).matrix
    fd = fd_derivative(lambda m: apply_function(GaussianFunction(), m), x, [v])
    assert op_norm(got - fd) < 1e-6


def test_dd_gaussian_against_finite_difference():
    gen = np.random.default_rng(68)
    for _ in range(4):
        x = random_hermitian(gen, 4)
        v = random_hermitian(gen, 4)
        got = function_derivative_dd(GaussianFunction(), x, [v]).matrix
        fd = fd_derivative(lambda m: apply_function(GaussianFunction(), m), x, [v])
        assert op_norm(got - fd) < 1e-6 * max(op_norm(got), 1.0)


def test_tabulated_function_behavior():
    ts = np.linspace(-4.0, 4.0, 161)
    tab = TabulatedFunction(ts, np.exp(-(ts**2) / 2.0))
    gen = np.random.default_rng(69)
    x = random_hermitian(gen, 3)
    x *= 2.0 / op_norm(x)
    approx = apply_function(tab, x)
    exact = apply_function(GaussianFunction(), x)
    assert op_norm(approx - exact) < 1e-5
    # spline supports one derivative order; order 2 needs g'' at
    # coinciding nodes, which the table cannot provide
    v = random_hermitian(gen, 3)
    function_derivative_dd(tab, np.eye(3, dtype=complex), [v])
    with pytest.raises(OrderSupportError):
        function_derivative_dd(tab, np.eye(3, dtype=complex), [v, v])
    with pytest.raises(ParseError):
        apply_function(tab, np.diag([9.0, 0.0, 0.0]).astype(complex))


def test_parse_function_specs():
    assert parse_function("exp").kind == "exp"
    assert parse_function("gaussian").kind == "gaussian"
    assert parse_function("monomial:3").k == 3
    assert parse_function("poly:1,0,2").coeffs.tolist() == [1.0, 0.0, 2.0]
    with pytest.raises(ParseError):
        parse_function("monomial:x")
    with pytest.raises(ParseError):
        parse_function("poly:1,b")
    with pytest.raises(ParseError):
        parse_function("no-such-file.json")


# ---------------------------------------------------------------- divided


def exp_dd(chain, z):
    """Divided differences of exp over the nodes z * chain, one per z: the
    top entry of the engine's table over each scaled chain as one row."""
    m = len(chain) - 1
    tensor = chain_tensor(np.outer(z, chain), m, ExpFunction())
    return tensor[(slice(None),) + tuple(range(m + 1))]


def test_exp_dd_first_order_formula():
    a, b = 0.3, 1.1
    z = np.array([1.0 + 0.0j])
    got = exp_dd((a, b), z)[0]
    expected = (np.exp(b) - np.exp(a)) / (b - a)
    assert abs(got - expected) < 1e-14 * abs(expected)


def test_exp_dd_scaled_argument():
    # table of e^(z t) over the chain, scale kept out of the prefactor
    a, b = -0.4, 0.9
    z = np.array([2.0j, 0.5 + 0.0j])
    got = exp_dd((a, b), z)
    expected = (np.exp(z * b) - np.exp(z * a)) / (z * (b - a))
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_exp_dd_confluent_limit():
    # repeated node: the divided difference becomes the derivative e^a
    z = np.array([1.0 + 0.0j])
    got = exp_dd((0.7, 0.7), z)[0]
    assert abs(got - np.exp(0.7)) < 1e-13
    # tiny gap agrees with the analytic midpoint form
    tiny = exp_dd((0.7, 0.7 + 1e-13), z)[0]
    assert abs(tiny - np.exp(0.7)) < 1e-12


# ---------------------------------------------------------------- fourier


@pytest.fixture(scope="module")
def gaussian_table():
    return fourier_table(GaussianFunction(), r=2.0, n_max=2)


def test_mollifier_profile():
    r = 2.0
    t = np.array([0.0, 1.9, 2.0, 2.5, 2.75, 3.0, 3.2])
    w = mollifier_weight(t, r)
    np.testing.assert_array_equal(w[:3], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(w[5:], [0.0, 0.0])
    # symmetric bump transition crosses one half at the seam midpoint
    assert w[3] == pytest.approx(0.5, abs=1e-15)
    assert 0.0 < w[4] < 0.5


def test_fourier_transform_of_gaussian():
    # with the cutoff pushed far out the mollified transform is the
    # textbook gaussian transform to high accuracy
    table = fourier_table(GaussianFunction(), r=6.0, n_max=0)
    mid = np.searchsorted(table.s, 0.0)
    assert table.s[mid] == 0.0
    ref = np.exp(-table.s**2 / 2.0) / np.sqrt(2.0 * np.pi)
    band = np.abs(table.s) <= 10.0
    err = np.max(np.abs(table.ghat[band] - ref[band]))
    assert err < 1e-8
    assert abs(table.ghat[mid].real - 0.3989422804014327) < 1e-9


def quadrature_samples(g, r, nt):
    """The transform's integrand g(t) w(t) / 2pi on its nt Simpson nodes
    over [-r-1, r+1], w the mollifier times the Simpson weights, formed
    with the same operations as the library so the values agree bitwise."""
    width = r + 1.0
    t = np.linspace(-width, width, nt)
    wt = simpson_weights(nt, t[1] - t[0])
    samples = np.asarray(g.eval_derivative(t, 0), dtype=np.complex128)
    samples *= mollifier_weight(t, r) * wt / (2.0 * np.pi)
    return t, samples


TRANSFORM_FUNCTIONS = [
    GaussianFunction(),
    SinFunction(),
    ExpFunction(),
    MonomialFunction(3),
    PolynomialFunction([0.5, -1.0, 0.25, 0.1]),
]


@pytest.mark.parametrize("r", [0.5, 2.0, 6.0])
@pytest.mark.parametrize("g", TRANSFORM_FUNCTIONS, ids=lambda g: g.label())
def test_fourier_table_matches_dense_sum(g, r):
    # the table on its documented grid, against the quadrature sum
    # sum_j samples_j exp(-i s t_j) formed densely, row block by row block
    table = fourier_table(g, r, n_max=2)
    m = (len(table.s) - 1) // 2
    np.testing.assert_array_equal(table.s, np.pi / (4.0 * (r + 1.0)) * np.arange(-m, m + 1))
    t, samples = quadrature_samples(g, r, table.nt)
    ref = np.concatenate(
        [np.exp(-1j * np.outer(table.s[lo : lo + 256], t)) @ samples
         for lo in range(0, len(table.s), 256)]
    )
    assert np.max(np.abs(table.ghat - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fourier_table_gaussian_bins_match_mpmath():
    # exact nodes t_j = -w + 2wj/(nt-1) and bins s_k = k pi / (4w) at 40
    # digits, with the table's own double samples as the integrand. Every
    # bin is within an FFT's rounding, log2(N) eps ||samples||_2, plus the
    # rounding of the stored value; bins 10 to 24, |ghat| from 1e-2 to
    # 4e-4, are within 1e-17.
    r = 2.0
    table = fourier_table(GaussianFunction(), r, n_max=2)
    _, samples = quadrature_samples(GaussianFunction(), r, table.nt)
    eps = np.finfo(float).eps
    fft_err = np.log2(4 * (table.nt - 1)) * eps * np.linalg.norm(samples)
    mid = (len(table.s) - 1) // 2
    with mp.workdps(40):
        w = mp.mpf(r) + 1
        nodes = [-w + 2 * w * j / (table.nt - 1) for j in range(table.nt)]
        terms = [mp.mpc(c.real, c.imag) for c in samples]
        for k in range(32):
            s = k * mp.pi / (4 * w)
            ref = mp.fsum(c * mp.expj(-s * tj) for c, tj in zip(terms, nodes))
            got = table.ghat[mid + k]
            err = abs(mp.mpc(got.real, got.imag) - ref)
            assert err <= fft_err + eps * abs(ref)
            if k in (10, 14, 16, 18, 24):
                assert err <= 1e-17


@pytest.mark.parametrize("g", [SinFunction(), ExpFunction()], ids=lambda g: g.label())
def test_fourier_tables_at_radius_six(g):
    # these tables used to raise GridError: the dense sum's phase rounding
    # at s t up to about 4500 rad kept the grid edge above the noise cut
    table = fourier_table(g, 6.0, n_max=2)
    assert table.tail_fraction <= 1e-8
    gen = np.random.default_rng(73)
    x = random_hermitian(gen, 5)
    x *= 5.5 / op_norm(x)
    dirs = [random_hermitian(gen, 5) for _ in range(2)]
    a = function_derivative_fourier(table, x, dirs).matrix
    b = function_derivative_dd(g, x, dirs).matrix
    assert op_norm(a - b) <= 1e-6 * op_norm(b)


# the Fourier route's own check over the order cap: every order it serves
# meets dd, and order 4 is refused before any transform
ROUTE_FUNCTIONS = ["gaussian", "sin", "cos", "exp", "monomial:3"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0.5, 2.0, 6.0])
@pytest.mark.parametrize("spec", ROUTE_FUNCTIONS)
def test_fourier_route_meets_dd_up_to_order_three(spec, r, n):
    # the table the CLI builds for order n, at a point of norm 0.95 r
    g = parse_function(spec)
    table = fourier_table(g, r, n_max=n)
    gen = np.random.default_rng(97)
    x = random_hermitian(gen, 4)
    x *= 0.95 * r / op_norm(x)
    dirs = [random_hermitian(gen, 4) for _ in range(n)]
    a = function_derivative_fourier(table, x, dirs).matrix
    b = function_derivative_dd(g, x, dirs).matrix
    scale = op_norm(b)
    assert op_norm(a - b) <= 1e-5 * (scale if scale > 0 else 1.0)


@pytest.fixture
def no_transform(monkeypatch):
    def fail(*args):
        raise AssertionError("a transform ran for a request that must be refused")

    monkeypatch.setattr("hermcalc.spectral._transform_on_grid", fail)


@pytest.mark.parametrize("r", [0.5, 2.0, 6.0])
@pytest.mark.parametrize("spec", ROUTE_FUNCTIONS)
def test_fourier_route_refuses_order_four(spec, r, no_transform):
    assert FOURIER_MAX_N == 3
    with pytest.raises(CapExceededError, match="order 4"):
        fourier_table(parse_function(spec), r, n_max=4)


@pytest.mark.parametrize(
    "r, n_max, error",
    [
        (np.nan, 1, ParseError),
        (np.inf, 1, ParseError),
        (-np.inf, 1, ParseError),
        (0.0, 1, ParseError),
        (np.nextafter(FOURIER_MAX_RADIUS, np.inf), 1, CapExceededError),
        (1e300, 1, CapExceededError),
        (2.0, -1, ParseError),
    ],
)
def test_fourier_table_checks_its_arguments_first(r, n_max, error, no_transform):
    with pytest.raises(error, match="radius" if n_max == 1 else "order"):
        fourier_table(SinFunction(), r, n_max=n_max)


def test_fourier_tail_is_measured_on_the_next_grid():
    # the grid twice as wide holds the reported fraction of the mass of
    # |s| |ghat| beyond the table's edge, and the table is its centre
    t = fourier_table(GaussianFunction(), 2.0, n_max=1)
    s, _, _, mass, _ = _grid(GaussianFunction(), 2.0, 2.0 * t.s[-1], 1)
    beyond = np.abs(s) > t.s[-1]
    total = float(np.sum(np.abs(t.s) * np.abs(t.ghat) * t.weights))
    assert 0.0 < t.tail_fraction == float(mass[beyond].sum()) / total <= 1e-8
    np.testing.assert_array_equal(s[~beyond], t.s)


def test_fourier_table_of_the_zero_function_keeps_the_base_grid():
    # no mass at all, so no wider grid is measured and the tail fraction is 0
    t = fourier_table(parse_function("poly:0"), 2.0, n_max=1)
    assert t.tail_fraction == 0.0 and not np.any(t.ghat)
    assert t.s[-1] == pytest.approx(40.06, abs=0.01)


def test_fourier_table_of_a_cubic_spline_misses_the_tail_tolerance():
    # the spline is only C^2 at its knots, so |s| |ghat| keeps 3.3e-7 of its
    # mass beyond the largest grid
    ts = np.linspace(-4.0, 4.0, 9)
    with pytest.raises(GridError) as info:
        fourier_table(TabulatedFunction(ts, np.abs(ts)), 2.0, n_max=1)
    assert str(info.value) == (
        "fourier_table: tail fraction 3.286e-07 above 1e-08 at s_max = 640.9; grid too small"
    )


def test_fourier_table_memory_at_the_radius_cap():
    # the reconstruction check sums one probe at a time: a (41, nodes)
    # complex matrix of the 164,609-node sin table at r = 100 alone is 108 MB
    tracemalloc.start()
    try:
        fourier_table(SinFunction(), 100.0, n_max=3).recon_residual(SinFunction())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_fourier_table_diagnostics(gaussian_table):
    t = gaussian_table
    assert t.tail_fraction < 1e-8
    assert t.recon_residual(GaussianFunction()) < 1e-8
    assert t.n_max == 2
    # grid stayed at the base extent, no doubling escalation
    assert t.s[-1] <= 641.0


def test_fourier_apply_matches_spectral(gaussian_table):
    gen = np.random.default_rng(70)
    x = random_hermitian(gen, 4)
    x *= 1.5 / op_norm(x)
    a = function_derivative_fourier(gaussian_table, x, []).matrix
    b = apply_function(GaussianFunction(), x)
    assert op_norm(a - b) < 1e-6


def test_fourier_derivative_matches_dd(gaussian_table):
    gen = np.random.default_rng(71)
    for n in (1, 2):
        x = random_hermitian(gen, 4)
        x *= 1.5 / op_norm(x)
        dirs = [random_hermitian(gen, 4) for _ in range(n)]
        a = function_derivative_fourier(gaussian_table, x, dirs).matrix
        b = function_derivative_dd(GaussianFunction(), x, dirs).matrix
        assert op_norm(a - b) <= 1e-5 * (op_norm(b) + 1e-12)


def clustered_fourier_errors(g, d):
    """Relative op-norm errors against dd of the r=2 synthesis of g at d,
    rows n = 1, 2, 3, columns gap = 1e-1 ... 1e-9: four eigenvalues a gap
    apart near 0.4, the rest in [-1.8, 1.8], in a random basis."""
    table = fourier_table(g, 2.0, n_max=3)
    gen = np.random.default_rng(80 + d)
    errors = np.empty((3, 9))
    for n in (1, 2, 3):
        for e in range(1, 10):
            lam = np.concatenate([0.4 + 10.0**-e * np.arange(4), gen.uniform(-1.8, 1.8, d - 4)])
            q, _ = np.linalg.qr(random_hermitian(gen, d))
            x = (q * lam) @ q.conj().T
            x = 0.5 * (x + x.conj().T)
            dirs = [random_hermitian(gen, d) for _ in range(n)]
            a = function_derivative_fourier(table, x, dirs).matrix
            b = function_derivative_dd(g, x, dirs).matrix
            errors[n - 1, e - 1] = op_norm(a - b) / op_norm(b)
    return errors


# clustered_fourier_errors of the earlier synthesis, which summed
# w_k ghat_k (i s_k)^n exp[i s_k t_0, ..., i s_k t_n] over the s-grid
EARLIER_CLUSTERED_ERRORS = {
    ("gaussian", 4): [
        [3.15e-13, 2.66e-13, 5.38e-13, 5.13e-13, 5.09e-13, 5.07e-13, 5.07e-13, 5.07e-13, 5.07e-13],
        [1.51e-11, 5.87e-11, 4.44e-11, 3.88e-11, 4.30e-11, 4.33e-11, 4.33e-11, 4.33e-11, 4.33e-11],
        [8.06e-09, 1.80e-08, 2.96e-08, 2.61e-08, 2.54e-08, 2.54e-08, 2.53e-08, 2.53e-08, 2.53e-08],
    ],
    ("gaussian", 8): [
        [3.14e-13, 2.01e-13, 6.09e-13, 2.93e-13, 1.70e-13, 5.76e-13, 3.58e-13, 3.40e-13, 3.57e-13],
        [1.95e-10, 3.22e-11, 1.69e-11, 3.72e-11, 3.57e-11, 3.93e-11, 2.03e-11, 3.06e-11, 3.45e-11],
        [7.67e-09, 4.42e-09, 8.41e-09, 6.79e-09, 9.14e-09, 1.31e-08, 9.42e-09, 1.01e-08, 1.40e-08],
    ],
    ("sin", 4): [
        [1.01e-13, 1.50e-13, 1.11e-13, 2.12e-13, 2.21e-13, 2.24e-13, 2.24e-13, 2.24e-13, 2.24e-13],
        [2.35e-11, 1.82e-10, 4.36e-10, 4.25e-10, 4.16e-10, 4.15e-10, 4.15e-10, 4.15e-10, 4.15e-10],
        [4.29e-09, 2.13e-08, 2.00e-08, 3.45e-08, 3.80e-08, 3.83e-08, 3.83e-08, 3.83e-08, 3.83e-08],
    ],
    ("sin", 8): [
        [2.12e-13, 7.34e-14, 3.12e-13, 3.71e-13, 1.28e-13, 4.81e-13, 1.86e-13, 1.43e-13, 2.65e-13],
        [6.43e-11, 5.38e-11, 1.55e-10, 1.32e-10, 2.99e-10, 7.77e-11, 1.82e-10, 3.17e-10, 1.05e-10],
        [4.00e-09, 8.18e-09, 2.43e-08, 1.14e-08, 1.92e-08, 1.60e-08, 1.16e-08, 2.26e-08, 3.16e-08],
    ],
}


@pytest.mark.parametrize("kind, d", sorted(EARLIER_CLUSTERED_ERRORS))
def test_fourier_on_clustered_spectra(kind, d):
    errors = clustered_fourier_errors(parse_function(kind), d)
    earlier = np.array(EARLIER_CLUSTERED_ERRORS[kind, d])
    assert np.all(errors <= 2.0 * earlier), errors / earlier
    assert np.all(errors <= 1e-5), errors


def test_fourier_radius_and_order_guards(gaussian_table):
    gen = np.random.default_rng(72)
    x = random_hermitian(gen, 3)
    x *= 3.0 / op_norm(x)
    with pytest.raises(RadiusError):
        function_derivative_fourier(gaussian_table, x, [])
    y = random_hermitian(gen, 3)
    y *= 0.5 / op_norm(y)
    dirs = [random_hermitian(gen, 3) for _ in range(3)]
    with pytest.raises(CapExceededError):
        function_derivative_fourier(gaussian_table, y, dirs)


def test_fourier_direction_and_dimension_checks(gaussian_table):
    x = 0.5 * np.eye(3, dtype=complex)
    with pytest.raises(ParseError, match="direction 0"):
        function_derivative_fourier(gaussian_table, x, [np.eye(2)])
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(ParseError, match="direction 1"):
        function_derivative_fourier(gaussian_table, x, [np.eye(3), skew])
    big = np.zeros((40, 40), dtype=complex)
    with pytest.raises(CapExceededError):
        function_derivative_fourier(gaussian_table, big, [np.eye(40)])


@pytest.mark.parametrize("nnodes", [1, 2, 4, 100])
def test_simpson_weights_need_an_odd_count_of_at_least_3(nnodes):
    with pytest.raises(GridError, match="odd node count >= 3"):
        simpson_weights(nnodes, 0.1)
