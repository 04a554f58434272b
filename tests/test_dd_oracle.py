"""The divided-difference engine against oracles that share no code with it.

mpmath: the Lagrange form sum_i g(t_i) / prod_(k != i) (t_i - t_k) over
distinct nodes, at 60 significant digits plus the digits that form loses
to cancellation (about m * log10(1 / span)).

scipy.linalg.expm of the block-bidiagonal matrix with x on the diagonal and
v_1..v_n above it: its top-right block is the simplex integral of
exp(t_0 x) v_1 exp(t_1 x) ... v_n exp(t_n x), and the sum of that block over
the orderings of the directions is D^n exp(x)[v_1..v_n] (Najfeld & Havel,
Adv. Appl. Math. 16, 1995; Mathias, SIMAX 17, 1996).
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hermcalc.divided import chain_dd
from hermcalc.errors import OrderSupportError
from hermcalc.expderiv import exp_derivative_dd
from hermcalc.functions import ExpFunction, PolynomialFunction, TabulatedFunction, parse_function
from hermcalc.spectral import function_derivative_dd

REL_TOL = 1e-10
SPANS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0)
MP_FUNCTIONS = {
    "exp": mp.exp,
    "sin": mp.sin,
    "gaussian": lambda t: mp.exp(-t * t / 2),
}


def mp_divided_difference(f, t, z=1):
    """f[z t_0, ..., z t_m] for distinct real nodes t, in mpmath."""
    m = len(t) - 1
    extra = int(m * max(0.0, -math.log10((t[-1] - t[0]) * abs(z)))) + 5
    with mp.workdps(60 + extra):
        zz = mp.mpmathify(z)
        nodes = [zz * mp.mpf(float(x)) for x in t]
        total = mp.mpf(0)
        for i, a in enumerate(nodes):
            denom = mp.mpf(1)
            for k, b in enumerate(nodes):
                if k != i:
                    denom *= a - b
            total += f(a) / denom
        return complex(total)


def spread_nodes(m, span, start=0.3):
    """m+1 ascending nodes from start to start + span, interior ones random."""
    u = np.sort(np.random.default_rng(m).uniform(size=m + 1))
    return start + span * (u - u[0]) / (u[-1] - u[0])


@pytest.mark.parametrize("kind", sorted(MP_FUNCTIONS))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_engine_matches_mpmath_over_spans(kind, m):
    g = parse_function(kind)
    for span in SPANS:
        t = spread_nodes(m, span)
        got = chain_dd(g, t[None, :])[0]
        exact = mp_divided_difference(MP_FUNCTIONS[kind], t)
        assert abs(got - exact) <= REL_TOL * abs(exact), (kind, m, span, got, exact)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_engine_matches_mpmath_for_exp_at_imaginary_scale(m):
    z = np.array([0.25j, 1.7j, -3.0j])
    for span in SPANS:
        t = spread_nodes(m, span)
        got = chain_dd(ExpFunction(), z[:, None] * t)
        for k, zk in enumerate(z):
            exact = mp_divided_difference(mp.exp, t, complex(zk))
            assert abs(got[k] - exact) <= REL_TOL * abs(exact), (m, span, zk, got[k], exact)


@pytest.mark.parametrize("degree", [2, 5, 9, 14, 20])
def test_polynomials_match_mpmath_near_zero(degree):
    # Taylor coefficients of t^k about a small midpoint c grow like k / c,
    # so only the whole finite series is exact there. Nonnegative nodes and
    # positive coefficients keep the exact values free of cancellation.
    coeffs = np.random.default_rng(degree).uniform(0.5, 1.5, degree + 1)
    cases = [
        (parse_function(f"monomial:{degree}"), lambda t: t**degree),
        (PolynomialFunction(coeffs), lambda t: mp.polyval(list(coeffs[::-1]), t)),
    ]
    for g, f in cases:
        for m in range(1, min(degree, 4) + 1):
            for start in (0.0, 1e-6, 1e-3, 0.1):
                for span in SPANS:
                    t = spread_nodes(m, span, start)
                    got = chain_dd(g, t[None, :])[0]
                    exact = mp_divided_difference(f, t)
                    assert abs(got - exact) <= REL_TOL * abs(exact), (
                        g.label(), m, start, span, got, exact,
                    )


@pytest.mark.parametrize(
    "degree, nodes", [(20, [0.1, 0.11]), (5, [0.0, 2e-6]), (20, [1e-3, 1e-3 + 1e-9])]
)
def test_monomial_over_close_pairs(degree, nodes):
    got = chain_dd(parse_function(f"monomial:{degree}"), np.array([nodes]))[0]
    exact = mp_divided_difference(lambda t: t**degree, np.array(nodes))
    assert abs(got - exact) <= REL_TOL * abs(exact)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gaps=st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=4),
    start=st.floats(-3.0, 3.0),
    imaginary=st.booleans(),
    scale=st.floats(0.05, 2.0),
)
def test_exp_engine_on_random_clusters(gaps, start, imaginary, scale):
    # gaps log-uniform from 1e-12 to 1; |z| span <= 2 keeps the exact value
    # away from zero (phases spread over less than 2 radians)
    t = start + np.concatenate([[0.0], np.cumsum(10.0 ** np.array(gaps))])
    z = scale / max(t[-1] - t[0], 1.0) * (1j if imaginary else 1.0)
    got = chain_dd(ExpFunction(), z * t[None, :])[0]
    exact = mp_divided_difference(mp.exp, t, z)
    assert abs(got - exact) <= REL_TOL * abs(exact)


def block_expm_derivative(x, dirs):
    """D^n exp(x)[dirs] from the top-right blocks of block-bidiagonal expm."""
    d, n = x.shape[0], len(dirs)
    total = np.zeros((d, d), dtype=complex)
    for perm in itertools.permutations(range(n)):
        big = np.kron(np.eye(n + 1), x).astype(complex)
        for k, j in enumerate(perm):
            big[k * d : (k + 1) * d, (k + 1) * d : (k + 2) * d] = dirs[j]
        total += expm(big)[:d, n * d :]
    return total


def clustered_hermitian(gen, d, gap):
    """Four eigenvalues gap apart near 0.4, the rest in [-3, 3], in a random basis."""
    lam = np.concatenate([0.4 + gap * np.arange(4), gen.uniform(-3.0, 3.0, d - 4)])
    q, _ = np.linalg.qr(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)))
    x = (q * lam) @ q.conj().T
    return 0.5 * (x + x.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exp_derivative_matches_block_expm_on_clusters(n):
    gen = np.random.default_rng(300 + n)
    for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        x = clustered_hermitian(gen, 6, gap)
        dirs = []
        for _ in range(n):
            a = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
            dirs.append(0.5 * (a + a.conj().T))
        got = exp_derivative_dd(x, dirs).matrix
        ref = block_expm_derivative(x, dirs)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err <= REL_TOL, (n, gap, err)


@pytest.mark.parametrize("scale", [0.0, -2.0, 0.7 - 0.4j, 3.3j])
def test_scaled_exp_derivative_matches_block_expm(scale):
    # complex nodes z lam: at z = 0 every node coincides, at z = -2 they
    # run backwards along the real line
    gen = np.random.default_rng(400)
    for d, n in ((1, 2), (3, 1), (4, 3), (6, 2), (6, 3)):
        x = clustered_hermitian(gen, d, 1e-6) if d >= 4 else np.diag(gen.uniform(-1, 1, d))
        dirs = []
        for _ in range(n):
            a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            dirs.append(0.5 * (a + a.conj().T))
        got = exp_derivative_dd(x, dirs, scale=scale).matrix
        ref = block_expm_derivative(scale * x, dirs)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err <= REL_TOL, (scale, d, n, err)


def test_spline_is_not_taylor_expanded_past_its_order():
    ts = np.linspace(-4.0, 4.0, 161)
    tab = TabulatedFunction(ts, np.exp(-(ts**2) / 2.0))
    a, b = 0.5, 0.5 + 1e-3
    # a close pair takes the Newton quotient of spline values, never g''
    got = chain_dd(tab, np.array([[a, b], [a, a]]))
    np.testing.assert_allclose(
        got, [(tab(b) - tab(a)) / (b - a), tab.eval_derivative(a, 1)], rtol=1e-13
    )
    # order 2 over a coincident pair next to a distinct node needs only g'
    got = chain_dd(tab, np.array([[a, a, 0.6]]))[0]
    expected = ((tab(0.6) - tab(a)) / (0.6 - a) - tab.eval_derivative(a, 1)) / (0.6 - a)
    assert abs(got - expected) <= 1e-12 * abs(expected)
    with pytest.raises(OrderSupportError):
        chain_dd(tab, np.array([[a, a, a]]))


@pytest.mark.parametrize("seed", [0, 2, 13])
def test_spline_on_a_rotated_repeated_eigenvalue(seed):
    # eigh returns the double eigenvalue 0.5 split by a few ulps; the pair
    # must still take g'(0.5), as over exactly tied nodes, and order 2 over
    # it is still beyond the spline
    ts = np.linspace(-4.0, 4.0, 161)
    tab = TabulatedFunction(ts, np.exp(-(ts**2) / 2.0))
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
    lam = np.array([0.5, 0.5, 1.0])
    x = (q * lam) @ q.conj().T
    x = 0.5 * (x + x.conj().T)
    a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    v = 0.5 * (a + a.conj().T)
    got = function_derivative_dd(tab, x, [v]).matrix
    tied = function_derivative_dd(tab, np.diag(lam).astype(complex), [q.conj().T @ v @ q])
    ref = q @ tied.matrix @ q.conj().T
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    with pytest.raises(OrderSupportError):
        function_derivative_dd(tab, x, [v, v])
