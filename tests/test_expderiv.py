"""Exponential derivatives: divided-difference evaluation, the Monte Carlo
sampler over ordered simplices, and the simplex volume estimator."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hermcalc import expderiv, rng
from hermcalc.errors import CapExceededError, OverflowRangeError, ParseError
from hermcalc.expderiv import (
    exp_derivative_dd,
    exp_derivative_mc,
    mat_exp,
    reference_simplex_volume,
    simplex_volume_mc,
)
from hermcalc.functions import ExpFunction
from hermcalc.linalg import frobenius, op_norm
from hermcalc.spectral import apply_function, function_derivative_dd


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


def test_mat_exp_rejects_non_hermitian_x():
    with pytest.raises(ParseError):
        mat_exp(np.array([[0.7, 1.0], [0.0, 0.7]], dtype=complex), 0.8 - 1.3j)


def test_mat_exp_complex_time_against_scipy():
    # exp(t x) = U exp(t lambda) U* for every complex t, both parts nonzero
    from scipy.linalg import expm

    gen = np.random.default_rng(44)
    t = 0.3 + 0.7j
    for _ in range(5):
        x = random_hermitian(gen, 6, scale=2.0)
        np.testing.assert_allclose(
            mat_exp(x, t), expm(t * x), rtol=0, atol=1e-11 * np.exp(op_norm(x))
        )


def test_mat_exp_imaginary_time_does_not_overflow():
    # exp(i x) is unitary however large x is; only exp(t lambda) itself counts,
    # so exp(-x) = diag(0, 1) is a result, not an overflow
    got = mat_exp(np.diag([800.0, 0.0]).astype(complex), 1j)
    np.testing.assert_allclose(got, np.diag([np.exp(800j), 1.0]), rtol=0, atol=1e-12)
    got = mat_exp(np.diag([800.0, 0.0]).astype(complex), -1.0)
    np.testing.assert_array_equal(got, np.diag([0.0, 1.0]))


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


def test_mc_memory_at_the_caps():
    # the subset kernel holds a few (sample, row, column) arrays of one batch;
    # a d^(n+1) tensor per batch would be about 268 MB at d = 32, n = 4
    gen = np.random.default_rng(52)
    x = random_hermitian(gen, 32)
    dirs = [random_hermitian(gen, 32) for _ in range(4)]
    tracemalloc.start()
    try:
        exp_derivative_mc(x, dirs, samples=2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_mc_memory_of_a_full_subset_batch():
    # one subset-kernel call on a whole batch of 256 samples, the largest b, at
    # the cap shape d = 32, n = 4, with complex exponentials: it holds a few
    # (sample, row, column) arrays of 4 MB, about 12.5 MB at its peak
    gen = np.random.default_rng(59)
    lam = np.linalg.eigvalsh(random_hermitian(gen, 32))
    dirs = np.array([random_hermitian(gen, 32) for _ in range(4)])
    t = gen.dirichlet(np.ones(5), 256)
    ex = np.exp((0.7 - 0.4j) * np.einsum("sl,e->les", t, lam / np.max(np.abs(lam))))[:, None]
    terms = expderiv._mc_terms(dirs)
    tracemalloc.start()
    try:
        y = expderiv._mc_sum(ex, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (1, 32, 32)
    assert peak < 16 * 2**20


def mc_reference(x, dirs, samples, seed, scale):
    """The MC estimate formed one sample at a time in the original basis:
    the same Philox draws, exp(scale t_j x) from numpy's eigh, and the
    chains summed over orderings as stacks of per-sample d x d products.
    The standard error is the batch-means one: inside each 4096-sample
    block, batches of b = min(256, max(1, samples // 64)) samples, the last
    one possibly partial, and se^2 = sum_k n_k |m_k - m|^2 / ((K - 1) N)
    over the K batches; for b = 1 it is the per-sample estimator."""
    lam, u = np.linalg.eigh(x)
    n = len(dirs)
    b = min(256, max(1, samples // 64))
    ys, batches = [], []
    for block, count in rng.blocks(samples):
        e = rng.generator(seed, rng.STREAM_SIMPLEX, block).standard_exponential((count, n + 1))
        t = e / e.sum(axis=1, keepdims=True)
        ex = [
            (u * np.exp(scale * t[:, j, None] * lam)[:, None, :]) @ u.conj().T
            for j in range(n + 1)
        ]
        y = 0.0
        for phi in itertools.permutations(range(n)):
            m = ex[0]
            for j, k in enumerate(phi):
                m = m @ dirs[k] @ ex[j + 1]
            y = y + m
        ys.append(y / math.factorial(n))
        batches += [ys[-1][lo : lo + b] for lo in range(0, count, b)]
    mean = np.concatenate(ys).mean(axis=0)
    sizes = np.array([len(batch) for batch in batches])[:, None, None]
    dev = np.array([batch.mean(axis=0) for batch in batches]) - mean
    var = (sizes * (dev.real**2 + dev.imag**2)).sum(axis=0) / (len(batches) - 1)
    return mean, np.sqrt(var / samples)


@pytest.mark.parametrize("scale", [1.0, 0.7 - 0.4j, 3.3j])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_mc_matches_per_sample_reference(d, scale):
    # 5000 samples span two Philox blocks in batches of 78, with a partial
    # batch closing either block; at 2 and 100 samples every batch is one
    # sample. A real scale takes real exponentials, 3.3j complex ones on
    # the unit circle
    gen = np.random.default_rng(53 + d)
    for samples in (5000, 2, 100):
        for n in range(5):
            x = random_hermitian(gen, d)
            x *= 1.5 / op_norm(x)
            dirs = [random_hermitian(gen, d) for _ in range(n)]
            est = exp_derivative_mc(x, dirs, samples=samples, seed=21, scale=scale)
            mean, se = mc_reference(x, dirs, samples, 21, scale)
            assert np.max(np.abs(est.matrix - mean)) <= 1e-12 * np.max(np.abs(mean))
            if n == 0 or d == 1:
                # commuting factors: every sample gives the same matrix, so the
                # standard error is 0 up to the rounding of the batch means
                assert np.max(est.std_error) <= 1e-12 * np.max(np.abs(mean))
            else:
                assert np.max(np.abs(est.std_error - se)) <= 1e-12 * np.max(se)


@pytest.mark.parametrize("scale", [1.0, 0.7 - 0.4j])
def test_mc_sub_blocks_only_regroup_the_sums(monkeypatch, scale):
    # MC_MOMENT_ENTRIES = 0 sends n = 3 and 4 to the subset kernel, which gets
    # one batch per call: 5000 samples in batches of 78 are 52 whole batches
    # and one of 40 in the first block, 11 and one of 46 in the second. Its
    # result is the sum over the batch's samples, so summing it over
    # sub-blocks of 7 samples moves the estimate and its standard error by
    # rounding only
    gen = np.random.default_rng(54)
    x = random_hermitian(gen, 5)
    kernel, calls = expderiv._mc_sum, []

    def split(ex, terms):
        calls.append((ex.shape[1], ex.shape[3]))
        return sum(kernel(ex[..., a : a + 7], terms) for a in range(0, ex.shape[3], 7))

    monkeypatch.setattr(expderiv, "MC_MOMENT_ENTRIES", 0)
    for n in (3, 4):
        dirs = [random_hermitian(gen, 5) for _ in range(n)]
        whole = exp_derivative_mc(x, dirs, samples=5000, seed=22, scale=scale)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(expderiv, "_mc_sum", split)
            parts = exp_derivative_mc(x, dirs, samples=5000, seed=22, scale=scale)
        assert calls == [(1, 78)] * 52 + [(1, 40)] + [(1, 78)] * 11 + [(1, 46)]
        tol = 1e-12 * np.max(np.abs(whole.matrix))
        assert np.max(np.abs(parts.matrix - whole.matrix)) <= tol
        assert np.max(np.abs(parts.std_error - whole.std_error)) <= tol


@pytest.mark.parametrize("scale", [1.0, 0.7 - 0.4j])
def test_mc_batch_groups_only_regroup_the_sums(monkeypatch, scale):
    # 5000 samples in batches of 78: 52 whole batches and one of 40 in the
    # first block, 11 and one of 46 in the second. With room for 3 batches
    # per moment-kernel call instead of all of a block's, the estimate and
    # its standard error move by rounding only
    gen = np.random.default_rng(55)
    x = random_hermitian(gen, 5)
    kernel, groups = expderiv._mc_moment, []
    for n in range(5):
        dirs = [random_hermitian(gen, 5) for _ in range(n)]
        whole = exp_derivative_mc(x, dirs, samples=5000, seed=23, scale=scale)
        h = (n + 1) // 2
        per_batch = 78 * (5**h + 5 ** (n + 1 - h)) + 5 ** (n + 1)
        groups.clear()
        with monkeypatch.context() as m:
            m.setattr(expderiv, "MC_GROUP_ENTRIES", 3 * per_batch)
            m.setattr(
                expderiv,
                "_mc_moment",
                lambda *a: groups.append((a[0].shape[1], a[0].shape[3])) or kernel(*a),
            )
            split = exp_derivative_mc(x, dirs, samples=5000, seed=23, scale=scale)
        tol = 1e-12 * np.max(np.abs(whole.matrix))
        assert np.max(np.abs(split.matrix - whole.matrix)) <= tol
        assert np.max(np.abs(split.std_error - whole.std_error)) <= tol
        # 17 groups of 3 batches and one of 1, then 3 of 3 and one of 2 whole
        # batches, each block closed by its partial batch
        assert groups == [(3, 78)] * 17 + [(1, 78), (1, 40)] + [(3, 78)] * 3 + [(2, 78), (1, 46)]


@pytest.mark.parametrize("scale", [1.0, 0.7 - 0.4j, 3.3j])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_moment_and_subset_kernels_agree(monkeypatch, d, scale):
    # MC_MOMENT_ENTRIES = 0 sends every n >= 3 shape to the subset kernel;
    # n <= 2 has the moment kernel only, whatever the threshold
    gen = np.random.default_rng(56 + d)
    x = random_hermitian(gen, d)
    x *= 1.5 / op_norm(x)
    moment, subset = expderiv._mc_moment, expderiv._mc_sum
    for n in range(1, 5):
        dirs = [random_hermitian(gen, d) for _ in range(n)]
        calls = []
        monkeypatch.setattr(expderiv, "_mc_moment", lambda *a: calls.append("moment") or moment(*a))
        monkeypatch.setattr(expderiv, "_mc_sum", lambda *a: calls.append("subset") or subset(*a))
        a = exp_derivative_mc(x, dirs, samples=5000, seed=24, scale=scale)
        with monkeypatch.context() as m:
            m.setattr(expderiv, "MC_MOMENT_ENTRIES", 0)
            b = exp_derivative_mc(x, dirs, samples=5000, seed=24, scale=scale)
        assert set(calls) == ({"moment"} if n <= 2 else {"moment", "subset"})
        tol = 1e-12 * np.max(np.abs(a.matrix))
        assert np.max(np.abs(a.matrix - b.matrix)) <= tol
        assert np.max(np.abs(a.std_error - b.std_error)) <= tol


class _Chosen(Exception):
    pass


def test_mc_kernel_by_shape(monkeypatch):
    # the moment kernel wherever its tensor has d^(n+1) <= 2^16 entries: the
    # bench's shapes (d in {4, 8}, n in {2, 3}) and every cap shape but
    # (32, 3), (16, 4) and (32, 4), where the subset kernel runs
    def chosen(name):
        def stop(*args):
            raise _Chosen(name)

        return stop

    monkeypatch.setattr(expderiv, "_mc_moment", chosen("moment"))
    monkeypatch.setattr(expderiv, "_mc_sum", chosen("subset"))
    gen = np.random.default_rng(57)
    for d in (4, 8, 16, 32):
        x = random_hermitian(gen, d)
        for n in range(5):
            dirs = [random_hermitian(gen, d) for _ in range(n)]
            with pytest.raises(_Chosen) as took:
                exp_derivative_mc(x, dirs, samples=100000, seed=1)
            subset = (d, n) in ((32, 3), (16, 4), (32, 4))
            assert str(took.value) == ("subset" if subset else "moment"), (d, n)


@pytest.mark.parametrize("d, n", [(16, 3), (8, 4)])
def test_mc_memory_of_the_moment_kernel(d, n):
    # its largest shapes stay within the bound of the cap shape's subset path
    gen = np.random.default_rng(58)
    x = random_hermitian(gen, d)
    dirs = [random_hermitian(gen, d) for _ in range(n)]
    tracemalloc.start()
    try:
        exp_derivative_mc(x, dirs, samples=10000, seed=4, scale=0.7 - 0.4j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("d, n, bound", [(4, 2, 1_397_556), (8, 3, 3_522_728)])
def test_mc_memory_of_a_whole_call(d, n, bound):
    # the bench's MC shapes at 10^5 samples: each block's exponentials are
    # written once, laid out (level, batch, eigenvalue, sample), and exp
    # runs in place. The bounds are the peaks, in bytes, of the layout before
    # it, an einsum exponent grid (level, sample, eigenvalue) and exp into a
    # fresh array; this one peaks at 1,170,540 and 2,476,200 bytes. All four
    # were recorded with numpy 2.4.6 on CPython 3.11, whose temporaries they
    # include, so another numpy may need them measured again
    gen = np.random.default_rng(60)
    x = random_hermitian(gen, d)
    dirs = [random_hermitian(gen, d) for _ in range(n)]
    tracemalloc.start()
    try:
        exp_derivative_mc(x, dirs, samples=100000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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


def test_simplex_volume_mc_checks_samples_before_the_order_zero_shortcut():
    assert simplex_volume_mc(0, samples=2, seed=0).value == 1.0
    for n in (0, 2):
        with pytest.raises(ParseError, match="samples must be >= 2"):
            simplex_volume_mc(n, samples=-5, seed=0)


def test_seeds_outside_32_bits_are_refused_not_aliased():
    # the stream key holds the seed as one 32-bit word; a wider seed would
    # repeat the draws of another seed
    assert rng.check_seed(2**32 - 1) == 2**32 - 1
    rng.generator(2**32 - 1, rng.STREAM_VOLUME)
    for seed in (-1, 2**32):
        with pytest.raises(ParseError, match=r"\[0, 2\^32\)"):
            rng.generator(seed, rng.STREAM_VOLUME)
        with pytest.raises(ParseError):
            simplex_volume_mc(3, samples=100, seed=seed)
        with pytest.raises(ParseError):
            exp_derivative_mc(np.eye(2), [np.eye(2)], samples=100, seed=seed)


@pytest.mark.parametrize("seed", [3.7, True, "7", None])
def test_seeds_that_are_not_integers_are_refused_not_truncated(seed):
    with pytest.raises(ParseError, match="seed must be an integer"):
        rng.check_seed(seed)


@pytest.mark.parametrize("estimate", [simplex_volume_mc, exp_derivative_mc])
def test_mc_estimates_need_at_least_2_samples(estimate):
    args = (2,) if estimate is simplex_volume_mc else (np.eye(2), [np.eye(2)])
    with pytest.raises(ParseError, match="samples must be >= 2"):
        estimate(*args, samples=1, seed=0)


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
    with pytest.raises(ParseError, match="order"):
        simplex_volume_mc(-1, samples=100, seed=0)
    # exp(800) overflows on both derivative routes; an imaginary scale cannot
    big, sx = np.diag([800.0, 1.0]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(OverflowRangeError):
        exp_derivative_dd(big, [sx])
    with pytest.raises(OverflowRangeError):
        exp_derivative_mc(big, [sx], samples=1000, seed=1)
    assert np.all(np.isfinite(exp_derivative_mc(big, [sx], samples=100, seed=1, scale=1j).matrix))


def _outcome(route):
    """The route's matrix, or None where it raises OverflowRangeError."""
    try:
        result = route()
    except OverflowRangeError:
        return None
    return result if isinstance(result, np.ndarray) else result.matrix


_SX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
_S3 = np.array([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]], dtype=complex)


@pytest.mark.parametrize(
    "spectrum, v",
    [([top, 0.0], _SX) for top in (-800.0, -705.0, 699.0, 705.0, 800.0)]
    + [([699.0, 698.5, 0.0], _S3), ([-705.0, -705.5, -710.0], _S3)],
    ids=["-800", "-705", "699", "705", "800", "3x3-699", "3x3-neg705"],
)
def test_exp_routes_refuse_exactly_where_exp_overflows(spectrum, v):
    # one rule on every exp route: g = exp at the nodes on the way in, a finite
    # result on the way out; so exp(-800 x) is a result, exp(800 x) is refused
    x = np.diag(spectrum).astype(complex)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3):
            dd = _outcome(lambda: exp_derivative_dd(x, [v] * n))
            g = _outcome(lambda: function_derivative_dd(ExpFunction(), x, [v] * n))
            assert (dd is None) == (g is None)
            if dd is None:
                continue
            top = np.max(np.abs(dd))
            assert np.max(np.abs(dd - g)) <= 4 * eps * top
            mc = exp_derivative_mc(x, [v] * n, samples=100_000, seed=7)
            assert np.all(np.isfinite(mc.std_error))
            assert np.all(np.abs(mc.matrix - dd) <= 5 * mc.std_error + 4 * eps * top)
        assert (_outcome(lambda: mat_exp(x)) is None) == (
            _outcome(lambda: apply_function(ExpFunction(), x)) is None
        )
        assert _outcome(lambda: mat_exp(x, 1j)) is not None
    # refused exactly where exp(max lambda) overflows, log(float max) = 709.78
    assert (dd is None) == (max(spectrum) > 709.8)
