"""Scalar functions of Hermitian matrices: direct spectral application,
divided-difference derivatives, and the Fourier synthesis path."""

import numpy as np
import pytest

from hermcalc.divided import chain_dd
from hermcalc.errors import (
    CapExceededError,
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
    apply_function,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
    mollifier_weight,
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
    gen = np.random.default_rng(64)
    x = random_hermitian(gen, 4)
    v = random_hermitian(gen, 4)
    w = random_hermitian(gen, 4)
    for n, dirs in ((1, [v]), (2, [v, w])):
        a = function_derivative_dd(MonomialFunction(4), x, dirs).matrix
        b = power_derivative(4, n, x, dirs)
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
    """Divided differences of exp over the nodes z * chain, one per z."""
    return chain_dd(ExpFunction(), np.array([chain]), z)[0]


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


def test_fourier_table_diagnostics(gaussian_table):
    t = gaussian_table
    assert t.tail_fraction < 1e-8
    assert t.recon_residual < 1e-8
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
