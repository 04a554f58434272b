"""Independent reference computations: finite differences, scalar quadrature,
and the symbolic power expansion they are checked against."""

import numpy as np
import pytest

from hermcalc.errors import CapExceededError, ParseError
from hermcalc.linalg import op_norm
from hermcalc.oracle import (
    FDConfig,
    exp_chain_quadrature,
    fd_derivative,
    symbolic_power_expand,
)
from hermcalc.expderiv import exp_derivative_dd, mat_exp
from hermcalc.powers import power_derivative


def random_hermitian(gen, d, scale=1.0):
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def test_fd_exp_at_zero_returns_direction():
    gen = np.random.default_rng(31)
    v = random_hermitian(gen, 4)
    got = fd_derivative(mat_exp, np.zeros((4, 4), dtype=complex), [v])
    # default step 1e-4, central difference error is O(h^2)
    assert op_norm(got - v) < 1e-7


def test_fd_is_exact_on_quadratics():
    # the central difference has no error on t -> (x + t v)^2
    gen = np.random.default_rng(32)
    x = random_hermitian(gen, 3)
    v = random_hermitian(gen, 3)
    got = fd_derivative(lambda m: m @ m, x, [v])
    np.testing.assert_allclose(got, x @ v + v @ x, rtol=0, atol=1e-9)


def test_fd_second_order_scalar():
    # d^2/dt^2 exp(t) at 0 with v = w = 1 is exactly 1
    one = np.ones((1, 1), dtype=complex)
    got = fd_derivative(mat_exp, np.zeros((1, 1), dtype=complex), [one, one])
    assert abs(got[0, 0] - 1.0) < 1e-5


def test_fd_step_override():
    gen = np.random.default_rng(33)
    x = random_hermitian(gen, 3)
    v = random_hermitian(gen, 3)
    coarse = fd_derivative(mat_exp, x, [v], config=FDConfig(step=1e-2))
    fine = fd_derivative(mat_exp, x, [v], config=FDConfig(step=1e-5))
    ref = exp_derivative_dd(x, [v]).matrix
    assert op_norm(fine - ref) < op_norm(coarse - ref)


def test_quadrature_limits():
    gen = np.random.default_rng(34)
    x = random_hermitian(gen, 4)
    v = random_hermitian(gen, 4)
    # at x = 0 the chain integral collapses to the direction itself
    got = exp_chain_quadrature(np.zeros((4, 4), dtype=complex), v)
    assert op_norm(got - v) < 1e-12
    # linear in the direction
    lhs = exp_chain_quadrature(x, 2.5 * v)
    rhs = 2.5 * exp_chain_quadrature(x, v)
    assert op_norm(lhs - rhs) < 1e-12 * op_norm(rhs)


def test_quadrature_known_entry():
    # diag(0, log 2): the off-diagonal response is (e^b - e^a)/(b - a) = 1/log 2
    x = np.diag([0.0, np.log(2.0)]).astype(complex)
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    got = exp_chain_quadrature(x, v, nodes=401)
    assert abs(got[0, 1].real - 1.0 / np.log(2.0)) < 1e-9


def test_quadrature_agrees_with_divided_differences():
    gen = np.random.default_rng(35)
    for _ in range(5):
        x = random_hermitian(gen, 4)
        x *= 1.5 / op_norm(x)
        v = random_hermitian(gen, 4)
        ref = exp_derivative_dd(x, [v]).matrix
        got = exp_chain_quadrature(x, v, nodes=201)
        assert op_norm(got - ref) <= 1e-9 * max(op_norm(ref), 1.0)


def test_symbolic_expand_small_cases():
    gen = np.random.default_rng(36)
    x = random_hermitian(gen, 3)
    v = random_hermitian(gen, 3)
    w = random_hermitian(gen, 3)
    np.testing.assert_array_equal(symbolic_power_expand(2, x, [v]), x @ v + v @ x)
    assert np.all(symbolic_power_expand(1, x, [v, w]) == 0.0)
    np.testing.assert_array_equal(symbolic_power_expand(0, x, []), np.eye(3))


def test_symbolic_expand_matches_power_derivative_bitwise():
    gen = np.random.default_rng(37)
    for _ in range(10):
        d = int(gen.integers(2, 7))
        k = int(gen.integers(0, 6))
        n = int(gen.integers(0, 4))
        x = random_hermitian(gen, d)
        dirs = [random_hermitian(gen, d) for _ in range(n)]
        a = power_derivative(k, n, x, dirs)
        b = symbolic_power_expand(k, x, dirs)
        np.testing.assert_array_equal(a, b)


def test_fd_order_cap_and_step_check():
    x = np.zeros((2, 2), dtype=complex)
    v = np.eye(2, dtype=complex)
    with pytest.raises(CapExceededError):
        fd_derivative(mat_exp, x, [v, v, v, v])
    with pytest.raises(ParseError):
        fd_derivative(mat_exp, x, [v], config=FDConfig(step=-1.0))


@pytest.mark.parametrize(
    "oracle, error, match",
    [
        (lambda x: exp_chain_quadrature(x, x, nodes=1), ParseError, "nodes must be odd >= 3"),
        (lambda x: exp_chain_quadrature(x, x, nodes=200), ParseError, "nodes must be odd >= 3"),
        (lambda x: symbolic_power_expand(-1, x, []), ParseError, "k must be >= 0"),
        (lambda x: symbolic_power_expand(12, x, [x] * 3), CapExceededError, r"words \d+ exceeds cap"),
        (lambda x: symbolic_power_expand(13, x, []), CapExceededError, "k 13 exceeds cap 12"),
        # a 1 x 1 direction was broadcast into a wrong result, a 3 x 3 one a bare ValueError
        (lambda x: fd_derivative(mat_exp, x, [x[:1, :1]]), ParseError, r"0: shape \(1, 1\) does"),
        (lambda x: fd_derivative(mat_exp, x, [x, np.eye(3)]), ParseError, r"1: shape \(3, 3\) does"),
        (lambda x: exp_chain_quadrature(x, np.eye(3)), ParseError, r"0: shape \(3, 3\) does"),
        (lambda x: symbolic_power_expand(3, x, [np.eye(3)]), ParseError, r"0: shape \(3, 3\) does"),
    ],
    ids=["one-node", "even-nodes", "negative-power", "word-budget", "power-cap", "fd-1x1-direction",
         "fd-3x3-direction", "quadrature-direction", "word-expansion-direction"],
)
def test_oracles_refuse_bad_arguments(oracle, error, match):
    with pytest.raises(error, match=match):
        oracle(np.eye(2, dtype=complex))

