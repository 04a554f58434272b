"""Taylor term counts from each function's growth statement.

Each growth class has one table of reaches, built on first use; a count is
the first entry that covers an entry's reach. The tables must meet their
stated tail bounds, the Fourier sum's counts must equal the band rule's
loop, and the gaussian's divided differences must hold 1e-13 relative
against mpmath up to midpoints |c| = 6. Past that, g's own rounded square
(t^2 eps / 4 of g, 7e-14 at |t| = 35) is amplified by the recurrence just
past the switch, up to 2e-12 at |c| = 35, n = 4 (it was 2e-6 with the
rho^Q <= eps count), which the looser bound there states.
"""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from hermcalc import divided
from hermcalc.functions import GaussianFunction
from test_dd_oracle import chain_dd, mp_divided_difference

EPS = float(np.finfo(float).eps)
RHO = np.linspace(1e-4, 2.0, 4001)


def _tail(growth, j, q, rho):
    """The module's stated bound for q terms past the leading one, in floats."""
    if growth == "band":
        return rho ** (q + 1) * math.exp(rho) / math.factorial(q + 1)
    if growth == "flat":
        return rho**q
    first = math.sqrt(math.factorial(j + q + 1) / math.factorial(j)) * rho ** (q + 1) / math.factorial(q + 1)
    return first / (1.0 - math.sqrt(j + q + 2) * rho / (q + 2))


@pytest.mark.parametrize("growth, top", [("band", 2.0), ("gaussian", 0.5), ("flat", 0.5)])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_table_counts_meet_their_tail_bound_and_one_less_does_not(growth, j, top):
    table = divided._reaches(growth, j)
    for rho in RHO[RHO <= top]:
        q = int(np.searchsorted(table, rho))
        if np.min(np.abs(table - rho)) <= 1e-12 * rho:
            continue
        assert _tail(growth, j, q, rho) <= EPS, (rho, q)
        assert q == 0 or _tail(growth, j, q - 1, rho) > EPS, (rho, q)


def test_band_counts_equal_the_loop():
    # the loop the band rule took before its table
    rho = np.concatenate([RHO, np.geomspace(1e-17, 1e-4, 200)])
    q, tail = np.zeros(rho.shape, dtype=np.intp), rho * np.exp(rho)
    while (more := tail > EPS).any():
        q[more] += 1
        tail[more] *= rho[more] / (q[more] + 1)
    table = divided._reaches("band", 1)
    near = np.min(np.abs(table[None, :] - rho[:, None]), axis=1) <= 1e-12 * rho
    np.testing.assert_array_equal(np.searchsorted(table, rho)[~near], q[~near])


def test_gaussian_growth_statement_holds():
    # |He_k(c)| <= K e^(1/4) max(1, |c|)^k sqrt(k!), in mpmath
    with mp.workdps(40):
        for c in (0.0, 0.5, 1.0, 1.7, 3.0, 6.0, 12.0, 35.0):
            for k in range(0, 60, 3):
                he = abs(mp.hermite(k, c / mp.sqrt(2)) / mp.mpf(2) ** (mp.mpf(k) / 2))
                bound = 1.086435 * mp.e ** 0.25 * max(1.0, c) ** k * mp.sqrt(mp.factorial(k))
                assert he <= bound, (c, k)


@pytest.mark.parametrize(
    "c, tol", [(0.0, 1e-13), (0.7, 1e-13), (2.0, 1e-13), (3.0, 1e-13), (-6.0, 1e-13), (6.0, 1e-13),
               (15.0, 1e-12), (25.0, 1e-12), (-35.0, 5e-12), (35.0, 5e-12)]
)
def test_gaussian_divided_differences_at_large_midpoints(c, tol):
    g, f = GaussianFunction(), lambda t: mp.exp(-t * t / 2)
    for m in range(1, 5):
        scale = math.exp(-c * c / 2) * max(1.0, abs(c)) ** m / math.factorial(m)
        for span in (1e-9, 1e-4, 0.3 / max(1, abs(c)), 1.1 / max(1, abs(c)), 0.5, 1.0):
            u = np.sort(np.random.default_rng(m).uniform(size=m + 1))
            # spread nodes, and a tight cluster with one node at the far end
            for t in (u - u[0]) / (u[-1] - u[0]), np.append(1e-2 * u[:-1], 1.0):
                t = c - span / 2 + span * t
                if not np.all(np.diff(t) > 0):
                    continue
                got = chain_dd(g, t[None, :])[0].real
                exact = mp_divided_difference(f, t).real
                # relative past the zeros of He_1..He_4 (the largest is 2.33)
                assert abs(got - exact) <= tol * (abs(exact) if abs(c) >= 3 else max(abs(exact), scale))


def test_cli_import_builds_no_table_and_loads_no_scipy():
    code = (
        "import sys, hermcalc.cli, hermcalc.divided as d; "
        "assert d._reaches.cache_info().currsize == 0; "
        "assert not [m for m in sys.modules if m.startswith('scipy')]"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
