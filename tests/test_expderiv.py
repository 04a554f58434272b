"""Exponential derivatives: divided-difference evaluation, the Monte Carlo
sampler over ordered simplices, and the simplex volume estimator."""

import numpy as np
import pytest

from hermcalc.errors import CapExceededError, OverflowRangeError
from hermcalc.expderiv import (
    exp_derivative_dd,
    exp_derivative_mc,
    mat_exp,
    reference_simplex_volume,
    sample_simplex,
    simplex_volume_mc,
)
from hermcalc.linalg import frobenius, op_norm


def random_hermitian(gen, d, scale=1.0):
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def test_mat_exp_basics():
    assert np.array_equal(mat_exp(np.zeros((3, 3), dtype=complex)), np.eye(3))
    x = np.array([[0.3]], dtype=complex)
    assert abs(mat_exp(x)[0, 0] - np.exp(0.3)) < 1e-15
    # commuting check: exp(x) exp(-x) = identity
    gen = np.random.default_rng(41)
    h = random_hermitian(gen, 5)
    prod = mat_exp(h) @ mat_exp(h, -1.0)
    assert op_norm(prod - np.eye(5)) < 1e-13


def test_mat_exp_against_scipy():
    from scipy.linalg import expm

    gen = np.random.default_rng(42)
    for _ in range(5):
        x = random_hermitian(gen, 6, scale=2.0)
        np.testing.assert_allclose(mat_exp(x), expm(x), rtol=0, atol=1e-11 * np.exp(op_norm(x)))


def test_mat_exp_jordan_block_complex_time():
    # exp(t [[a, 1], [0, a]]) = e^(ta) [[1, t], [0, 1]]; t has both parts
    # nonzero and x is not Hermitian
    a, t = 0.7, 0.8 - 1.3j
    x = np.array([[a, 1.0], [0.0, a]], dtype=complex)
    ref = np.exp(t * a) * np.array([[1.0, t], [0.0, 1.0]])
    np.testing.assert_allclose(mat_exp(x, t), ref, rtol=0, atol=1e-14)


def test_mat_exp_imaginary_time_does_not_overflow():
    # exp(i x) is unitary however large x is; only |Re t| max|lambda| counts
    got = mat_exp(np.diag([800.0, 0.0]).astype(complex), 1j)
    np.testing.assert_allclose(got, np.diag([np.exp(800j), 1.0]), rtol=0, atol=1e-12)
    with pytest.raises(OverflowRangeError):
        mat_exp(np.diag([800.0, 0.0]).astype(complex), -1.0)


def test_derivative_at_zero_is_direction():
    gen = np.random.default_rng(43)
    v = random_hermitian(gen, 4)
    d = exp_derivative_dd(np.zeros((4, 4), dtype=complex), [v])
    assert op_norm(d.matrix - v) < 1e-14
    assert d.order == 1 and d.method == "dd"


def test_derivative_known_offdiagonal_entry():
    # eigenvalues 0 and log 2: first divided difference of exp is
    # (2 - 1)/log 2, frozen to the digit below
    x = np.diag([0.0, np.log(2.0)]).astype(complex)
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    d = exp_derivative_dd(x, [v])
    assert d.matrix[0, 1].real == pytest.approx(1.4426950408889632, abs=1e-15)


def test_derivative_order_zero_is_exp():
    gen = np.random.default_rng(44)
    x = random_hermitian(gen, 5)
    d = exp_derivative_dd(x, [])
    np.testing.assert_allclose(d.matrix, mat_exp(x), rtol=0, atol=1e-13 * np.exp(op_norm(x)))


def test_derivative_symmetric_in_directions():
    gen = np.random.default_rng(45)
    x = random_hermitian(gen, 4)
    v = random_hermitian(gen, 4)
    w = random_hermitian(gen, 4)
    a = exp_derivative_dd(x, [v, w]).matrix
    b = exp_derivative_dd(x, [w, v]).matrix
    assert frobenius(a - b) < 1e-13 * frobenius(a)


def test_derivative_linear_in_each_direction():
    gen = np.random.default_rng(46)
    x = random_hermitian(gen, 4)
    v, w, u = (random_hermitian(gen, 4) for _ in range(3))
    lhs = exp_derivative_dd(x, [0.7 * v - 1.2 * w, u]).matrix
    rhs = 0.7 * exp_derivative_dd(x, [v, u]).matrix - 1.2 * exp_derivative_dd(x, [w, u]).matrix
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * frobenius(rhs))


def test_derivative_hermitian_for_real_scale():
    gen = np.random.default_rng(47)
    x = random_hermitian(gen, 5)
    dirs = [random_hermitian(gen, 5) for _ in range(2)]
    m = exp_derivative_dd(x, dirs).matrix
    assert frobenius(m - m.conj().T) < 1e-12 * frobenius(m)


def test_derivative_against_finite_difference():
    from hermcalc.oracle import fd_derivative

    gen = np.random.default_rng(48)
    x = random_hermitian(gen, 4)
    v = random_hermitian(gen, 4)
    fd = fd_derivative(mat_exp, x, [v])
    ref = exp_derivative_dd(x, [v]).matrix
    assert op_norm(fd - ref) < 1e-6 * max(op_norm(ref), 1.0)


def test_mc_agrees_with_dd_within_sigma():
    gen = np.random.default_rng(49)
    worst = 0.0
    for trial in range(3):
        d = int(gen.integers(2, 6))
        n = int(gen.integers(1, 4))
        x = random_hermitian(gen, d)
        dirs = [random_hermitian(gen, d) for _ in range(n)]
        ref = exp_derivative_dd(x, dirs).matrix
        est = exp_derivative_mc(x, dirs, samples=20000, seed=100 + trial)
        assert est.samples == 20000
        se = np.maximum(est.std_error, 1e-300)
        z = np.abs(est.matrix - ref) / se
        worst = max(worst, float(z.max()))
    # all entries within a generous multiple of the reported error
    assert worst < 5.0


def test_mc_is_deterministic_and_thread_invariant():
    gen = np.random.default_rng(50)
    x = random_hermitian(gen, 4)
    dirs = [random_hermitian(gen, 4) for _ in range(2)]
    a = exp_derivative_mc(x, dirs, samples=5000, seed=7)
    b = exp_derivative_mc(x, dirs, samples=5000, seed=7)
    c = exp_derivative_mc(x, dirs, samples=5000, seed=7, threads=4)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(a.matrix, c.matrix)
    np.testing.assert_array_equal(a.std_error, b.std_error)
    np.testing.assert_array_equal(a.std_error, c.std_error)
    # a different seed actually changes the stream
    other = exp_derivative_mc(x, dirs, samples=5000, seed=8)
    assert not np.array_equal(a.matrix, other.matrix)


def test_sample_simplex_properties():
    # barycentric output: n + 1 nonnegative weights summing to 1
    for n in (1, 2, 4):
        pts = sample_simplex(n, seed=3, index=5)
        assert pts.shape == (n + 1,)
        assert np.all(pts >= 0)
        assert abs(pts.sum() - 1.0) < 1e-14
        again = sample_simplex(n, seed=3, index=5)
        np.testing.assert_array_equal(pts, again)
        assert not np.array_equal(pts, sample_simplex(n, seed=3, index=6))


def test_simplex_volume_reference_values():
    # 1/n! for the ordered corner simplex
    expected = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0]
    got = [reference_simplex_volume(n) for n in range(6)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=0)


def test_simplex_volume_mc_matches_reference():
    # n = 1 is exact (every draw is inside), larger n within 3 sigma
    est = simplex_volume_mc(1, samples=1000, seed=1)
    assert est.value == 1.0 and est.std_error == 0.0
    for n in (2, 3, 4):
        est = simplex_volume_mc(n, samples=40000, seed=n)
        diff = abs(est.value - reference_simplex_volume(n))
        assert diff <= 3.0 * est.std_error
        assert est.n == n and est.samples == 40000


def test_simplex_volume_mc_deterministic():
    a = simplex_volume_mc(3, samples=10000, seed=12)
    b = simplex_volume_mc(3, samples=10000, seed=12)
    c = simplex_volume_mc(3, samples=10000, seed=12, threads=3)
    assert a.value == b.value == c.value
    assert a.std_error == b.std_error == c.std_error


def test_caps_and_overflow_guards():
    x = np.zeros((2, 2), dtype=complex)
    v = np.eye(2, dtype=complex)
    with pytest.raises(CapExceededError):
        exp_derivative_dd(x, [v] * 5)
    with pytest.raises(OverflowRangeError):
        mat_exp(np.diag([800.0, 0.0]).astype(complex))
    with pytest.raises(CapExceededError):
        simplex_volume_mc(9, samples=100, seed=0)
