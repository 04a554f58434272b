"""Derivatives of matrix powers via the ordered word expansion."""

import numpy as np
import pytest

from hermcalc.errors import CapExceededError, ParseError
from hermcalc.powers import power_derivative


def rand_mats(gen, d, count):
    return [gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)) for _ in range(count)]


def test_square_first_derivative_identity():
    gen = np.random.default_rng(21)
    x, v = rand_mats(gen, 4, 2)
    got = power_derivative(2, 1, x, [v])
    np.testing.assert_array_equal(got, x @ v + v @ x)


def test_cube_second_derivative_is_six_words():
    gen = np.random.default_rng(22)
    x, v, w = rand_mats(gen, 3, 3)
    # canonical order: permutations of (v, w) outer, then splitting positions
    expected = (
        x @ v @ w + v @ x @ w + v @ w @ x
        + x @ w @ v + w @ x @ v + w @ v @ x
    )
    got = power_derivative(3, 2, x, [v, w])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.linalg.norm(expected))


def test_order_above_power_vanishes():
    gen = np.random.default_rng(23)
    x, v, w = rand_mats(gen, 3, 3)
    assert np.all(power_derivative(1, 2, x, [v, w]) == 0.0)
    np.testing.assert_array_equal(power_derivative(3, 0, x, []), x @ x @ x)


def test_first_derivative_against_finite_difference():
    # (x + h v)^k expanded to first order
    gen = np.random.default_rng(24)
    for k in (2, 3, 5):
        x, v = rand_mats(gen, 4, 2)
        h = 1e-7
        fd = (np.linalg.matrix_power(x + h * v, k) - np.linalg.matrix_power(x - h * v, k)) / (2 * h)
        got = power_derivative(k, 1, x, [v])
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-5 * np.linalg.norm(fd))


def test_multilinearity_in_directions():
    gen = np.random.default_rng(25)
    x, v, w, u = rand_mats(gen, 3, 4)
    a, b = 0.7, -1.3
    lhs = power_derivative(4, 2, x, [a * v + b * w, u])
    rhs = a * power_derivative(4, 2, x, [v, u]) + b * power_derivative(4, 2, x, [w, u])
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * np.linalg.norm(rhs))


def test_power_caps_and_argument_checks():
    x = np.eye(2, dtype=complex)
    v = np.eye(2, dtype=complex)
    with pytest.raises(CapExceededError):
        power_derivative(13, 1, x, [v])
    with pytest.raises(CapExceededError):
        power_derivative(4, 6, x, [v] * 6)
    with pytest.raises(ParseError):
        power_derivative(4, 2, x, [v])


@pytest.mark.parametrize("shape", [(3, 3), (1, 1)])
def test_directions_must_match_the_matrix_shape(shape):
    x = np.eye(2, dtype=complex)
    with pytest.raises(ParseError, match=r"direction 1: shape .* does not match"):
        power_derivative(3, 2, x, [x, np.eye(shape[0])])
