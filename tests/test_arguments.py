"""One rule for the arguments of every entry point: a count that is not an
integer, a bool, or below its least value, a radius or step that is not a
finite number above 0 (at or above 0 where zero is allowed), and a complex
scale that is not a finite number raise ParseError; the first value past a
cap raises CapExceededError before any work."""

import math
import tracemalloc

import numpy as np
import pytest

from hermcalc.bounds import bound_report, power_bound, probe_seminorm, sobolev_bound
from hermcalc.combinatorics import (
    COMPOSITION_MAX_COUNT,
    COMPOSITION_MAX_PARTS,
    PERMUTATION_MAX_N,
    composition_count,
    enum_compositions,
    enum_permutations,
)
from hermcalc.errors import CapExceededError, ParseError
from hermcalc.expderiv import (
    EXP_DERIV_MAX_DIM,
    EXP_DERIV_MAX_N,
    SIMPLEX_MAX_N,
    check_derivative_caps,
    exp_derivative_dd,
    exp_derivative_mc,
    mat_exp,
    simplex_volume_mc,
)
from hermcalc.functions import (
    POLY_MAX_DEGREE,
    GaussianFunction,
    MonomialFunction,
    PolynomialFunction,
)
from hermcalc.linalg import matrix_from_dict
from hermcalc.oracle import (
    FD_MAX_N,
    WORD_ENUM_BUDGET,
    FDConfig,
    exp_chain_quadrature,
    fd_derivative,
    symbolic_power_expand,
)
from hermcalc.powers import POWER_MAX_K, POWER_MAX_N, power_derivative
from hermcalc.spectral import (
    FOURIER_MAX_N,
    FOURIER_MAX_RADIUS,
    check_fourier_ball,
    fourier_table,
    function_derivative_fourier,
)

G = GaussianFunction()
X = np.eye(2, dtype=complex)


def probe(n=1, r=1.0, d=2, budget=0, climb_steps=0, seed=0):
    return probe_seminorm(G, n, r, d, budget=budget, seed=seed, climb_steps=climb_steps)


def report(n=1, r=1.0, d=2):
    return bound_report(G, n, r, d, budget=0, seed=0)


# entry point and parameter -> (a call with that parameter set to the
# value, its least value, or None for an integer of any sign)
COUNTS = {
    "check_derivative_caps-n": (lambda v: check_derivative_caps(v, 2), 0),
    "check_derivative_caps-d": (lambda v: check_derivative_caps(1, v), 1),
    "exp_derivative_mc-samples": (lambda v: exp_derivative_mc(X, [X], samples=v, seed=0), 2),
    "simplex_volume_mc-n": (lambda v: simplex_volume_mc(v, samples=2, seed=0), 0),
    "simplex_volume_mc-samples": (lambda v: simplex_volume_mc(1, samples=v, seed=0), 2),
    "simplex_volume_mc-seed": (lambda v: simplex_volume_mc(0, samples=2, seed=v), 0),
    "fourier_table-n_max": (lambda v: fourier_table(G, 1.0, n_max=v), 0),
    "sobolev_bound-n": (lambda v: sobolev_bound(G, v, 1.0), 0),
    "power_bound-k": (lambda v: power_bound(v, 0, 1.0), 0),
    "power_bound-n": (lambda v: power_bound(2, v, 1.0), 0),
    "probe_seminorm-n": (lambda v: probe(n=v), 0),
    "probe_seminorm-d": (lambda v: probe(d=v), 1),
    "probe_seminorm-budget": (lambda v: probe(budget=v), 0),
    "probe_seminorm-climb_steps": (lambda v: probe(climb_steps=v), 0),
    "probe_seminorm-seed": (lambda v: probe(seed=v), 0),
    "bound_report-n": (lambda v: report(n=v), 0),
    "bound_report-d": (lambda v: report(d=v), 1),
    "power_derivative-k": (lambda v: power_derivative(v, 0, X, []), 0),
    "power_derivative-n": (lambda v: power_derivative(2, v, X, []), 0),
    "composition_count-n": (lambda v: composition_count(v, 1), 0),
    "composition_count-k": (lambda v: composition_count(1, v), None),
    "enum_compositions-n": (lambda v: enum_compositions(v, 1), 0),
    "enum_compositions-k": (lambda v: enum_compositions(1, v), None),
    "enum_permutations-n": (lambda v: enum_permutations(v), 0),
    "exp_chain_quadrature-nodes": (lambda v: exp_chain_quadrature(X, X, nodes=v), 3),
    "symbolic_power_expand-k": (lambda v: symbolic_power_expand(v, X, []), 0),
    "matrix_from_dict-dim": (lambda v: matrix_from_dict({"dim": v, "entries": [[1, 0]]}), 1),
}

# entry point and parameter -> (a call with that parameter set to the
# value, whether 0 is allowed)
REALS = {
    "check_fourier_ball-r": (lambda v: check_fourier_ball(v), False),
    "fourier_table-r": (lambda v: fourier_table(G, v, n_max=1), False),
    "sobolev_bound-r": (lambda v: sobolev_bound(G, 1, v), False),
    "power_bound-r": (lambda v: power_bound(2, 1, v), True),
    "probe_seminorm-r": (lambda v: probe(r=v), False),
    "bound_report-r": (lambda v: report(r=v), False),
    "fd_derivative-step": (lambda v: fd_derivative(mat_exp, X, [X], FDConfig(step=v)), False),
}

# entry point and complex parameter -> a call with that parameter set to the value
COMPLEXES = {
    "mat_exp-t": lambda v: mat_exp(X, v),
    "exp_derivative_dd-scale": lambda v: exp_derivative_dd(X, [X], scale=v),
    "exp_derivative_mc-scale": lambda v: exp_derivative_mc(X, [X], samples=2, seed=0, scale=v),
}
NOT_FINITE_NUMBERS = ["abc", "2", None, True, np.nan, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]


def _cases(table, bad, below):
    """(call, value) per entry of table and each of its refused values: bad,
    then the one below its least accepted value, if it has one."""
    for name, (call, least) in table.items():
        yield from (pytest.param(call, v, id=f"{name}-{v!r}") for v in bad + below(least))


MALFORMED = [
    *_cases(COUNTS, [1.5, True, "2", None], lambda least: [] if least is None else [least - 1]),
    *_cases(REALS, [np.nan, np.inf, -1, True, "1"], lambda zero: [] if zero else [0]),
    *(pytest.param(call, v, id=f"{k}-{v!r}") for k, call in COMPLEXES.items() for v in NOT_FINITE_NUMBERS),
]
LEAST = [
    *(pytest.param(call, 3 if low is None else low, id=k) for k, (call, low) in COUNTS.items()),
    *(pytest.param(call, 0 if zero else 0.5, id=k) for k, (call, zero) in REALS.items()),
    # 0, an int, a numpy float and a complex off the real axis all run
    *(pytest.param(call, v, id=f"{k}-{v!r}") for k, call in COMPLEXES.items()
      for v in (0, np.float64(-0.5), 0.3 - 1.2j)),
]


@pytest.mark.parametrize("call, value", MALFORMED)
def test_malformed_arguments_raise_parse_error(call, value):
    with pytest.raises(ParseError):
        call(value)


@pytest.mark.parametrize("call, value", LEAST)
def test_the_least_accepted_value_runs(call, value):
    # the other arguments of each call are valid, so a refusal above comes
    # from the parameter under test
    call(value)


def _first_past_the_tuple_cap():
    k = 0
    while composition_count(COMPOSITION_MAX_PARTS, k) <= COMPOSITION_MAX_COUNT:
        k += 1
    return k


FIRST_PAST_CAPS = {
    "derivative-order": lambda: check_derivative_caps(EXP_DERIV_MAX_N + 1, 2),
    "derivative-dimension": lambda: check_derivative_caps(1, EXP_DERIV_MAX_DIM + 1),
    "exp_derivative_mc-order": lambda: exp_derivative_mc(X, [X] * (EXP_DERIV_MAX_N + 1), 2, 0),
    "simplex_volume_mc-n": lambda: simplex_volume_mc(SIMPLEX_MAX_N + 1, samples=2, seed=0),
    "check_fourier_ball-r": lambda: check_fourier_ball(np.nextafter(FOURIER_MAX_RADIUS, np.inf)),
    "fourier_table-r": lambda: fourier_table(G, np.nextafter(FOURIER_MAX_RADIUS, np.inf)),
    "fourier_table-n_max": lambda: fourier_table(G, 1.0, n_max=FOURIER_MAX_N + 1),
    "probe_seminorm-n": lambda: probe(n=EXP_DERIV_MAX_N + 1),
    "probe_seminorm-d": lambda: probe(d=EXP_DERIV_MAX_DIM + 1),
    "bound_report-n": lambda: report(n=EXP_DERIV_MAX_N + 1),
    "bound_report-d": lambda: report(d=EXP_DERIV_MAX_DIM + 1),
    "poly-degree": lambda: PolynomialFunction([1.0] * (POLY_MAX_DEGREE + 2)),
    "monomial-power": lambda: MonomialFunction(POLY_MAX_DEGREE + 1),
    "power_derivative-k": lambda: power_derivative(POWER_MAX_K + 1, 0, X, []),
    "power_derivative-n": lambda: power_derivative(2, POWER_MAX_N + 1, X, [X] * (POWER_MAX_N + 1)),
    "enum_compositions-n": lambda: enum_compositions(COMPOSITION_MAX_PARTS + 1, 1),
    "enum_compositions-tuples": lambda: enum_compositions(
        COMPOSITION_MAX_PARTS, _first_past_the_tuple_cap()
    ),
    "enum_permutations-n": lambda: enum_permutations(PERMUTATION_MAX_N + 1),
    "fd_derivative-order": lambda: fd_derivative(mat_exp, X, [X] * (FD_MAX_N + 1)),
    # three directions: k = 10 is the first power whose 4^k words pass the
    # budget, within the power cap
    "symbolic_power_expand-words": lambda: symbolic_power_expand(
        math.ceil(math.log(WORD_ENUM_BUDGET + 1, 4)), X, [X] * 3
    ),
    "symbolic_power_expand-k": lambda: symbolic_power_expand(POWER_MAX_K + 1, X, []),
}


@pytest.mark.parametrize("call", FIRST_PAST_CAPS.values(), ids=FIRST_PAST_CAPS.keys())
def test_the_first_value_past_each_cap_is_refused_before_any_work(call):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_first_order_past_a_fourier_table_is_refused_before_any_work():
    table = fourier_table(G, 1.0, n_max=1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="order 2 exceeds cap 1"):
            function_derivative_fourier(table, 0.5 * X, [X, X])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
