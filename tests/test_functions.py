"""The scalar-function layer: derivatives(t, j, q) stacks every order in
one call, and eval_derivative is its one-order slice."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hermcalc.errors import OverflowRangeError, ParseError
from hermcalc.functions import (
    CosFunction,
    ExpFunction,
    GaussianFunction,
    MonomialFunction,
    PolynomialFunction,
    SinFunction,
    TabulatedFunction,
    function_from_dict,
    parse_function,
)
from hermcalc.spectral import fourier_table

SRC = Path(__file__).resolve().parent.parent / "src"

T_REAL = np.array([[-2.5, -0.3, 0.0], [0.7, 1.9, 3.2]])
T_TAB = np.array([-1.5, -0.2, 0.4, 1.1])


def _cases():
    ts = np.linspace(-4.0, 4.0, 41)
    return [
        ("exp", ExpFunction(), T_REAL, 6),
        ("exp-complex", ExpFunction(), (0.3 - 1.1j) * T_REAL, 6),
        ("sin", SinFunction(), T_REAL, 7),
        ("cos", CosFunction(), T_REAL, 7),
        ("gaussian", GaussianFunction(), T_REAL, 9),
        ("monomial", MonomialFunction(4), T_REAL, 6),
        ("poly", PolynomialFunction([1.0, -2.0 + 0.5j, 0.0, 3.0]), T_REAL, 5),
        ("tabulated", TabulatedFunction(ts, np.cos(ts)), T_TAB, 1),
    ]


@pytest.mark.parametrize("name,g,t,top", _cases(), ids=[c[0] for c in _cases()])
def test_derivatives_stack_the_single_orders(name, g, t, top):
    for j in range(top + 1):
        for q in range(top - j + 1):
            got = g.derivatives(t, j, q)
            assert got.shape == t.shape + (q + 1,)
            want = np.stack([g.eval_derivative(t, j + s) for s in range(q + 1)], axis=-1)
            np.testing.assert_array_equal(got, want)


def test_trigonometric_sum_stacks_the_single_orders():
    g = fourier_table(GaussianFunction(), 1.0, n_max=1)
    t = np.array([[-0.8, 0.1, 0.1], [0.5, 0.9, -0.8]])
    got = g.derivatives(t, 1, 4)
    assert got.shape == (2, 3, 5)
    for s in range(5):
        want = g.eval_derivative(t, 1 + s)
        # the sum's rounding scale: sum_k |w_k ghat_k| |s_k|^order
        scale = np.sum(np.abs(g.coeffs) * np.abs(g.s) ** (1 + s))
        np.testing.assert_allclose(got[..., s], want, rtol=0, atol=1e-14 * scale)
    # g~ is the table's copy of the gaussian on [-r, r]
    np.testing.assert_allclose(
        got[..., 0], GaussianFunction().eval_derivative(t, 1), rtol=0, atol=1e-7
    )


def test_eval_derivative_keeps_scalars_scalar():
    for g in (ExpFunction(), SinFunction(), GaussianFunction(), MonomialFunction(3)):
        assert np.ndim(g.eval_derivative(0.5, 1)) == 0
        assert isinstance(float(g(0.5)), float)
    assert MonomialFunction(3).eval_derivative(2.0, 1) == 12.0
    assert MonomialFunction(3).eval_derivative(2.0, 4) == 0.0


def test_monomial_is_a_polynomial():
    g = parse_function("monomial:3")
    assert isinstance(g, PolynomialFunction) and isinstance(g, MonomialFunction)
    assert (g.kind, g.label(), g.k, g.degree) == ("monomial", "monomial:3", 3, 3)
    assert PolynomialFunction([1.0, 2.0]).label() == "poly:1"
    bad = ("monomial:x", "monomial:-1", '{"kind": "monomial"}', '{"kind": "monomial", "k": "x"}')
    for spec in bad:
        with pytest.raises(ParseError):
            parse_function(spec)


def test_sin_and_cos_derivatives_vanish_exactly():
    assert SinFunction().eval_derivative(0.0, 2) == 0.0
    assert CosFunction().eval_derivative(0.0, 1) == 0.0
    assert SinFunction().eval_derivative(1e-20, 2) + 1e-20 == 0.0
    np.testing.assert_array_equal(SinFunction().derivatives(0.0, 0, 7), [0, 1, 0, -1] * 2)
    np.testing.assert_array_equal(CosFunction().derivatives(0.0, 0, 7), [1, 0, -1, 0] * 2)


def test_gaussian_derivatives_match_mpmath():
    # g^(m)(t) = (-1)^m He_m(t) e^(-t^2/2), He_m(t) = 2^(-m/2) H_m(t / sqrt 2).
    # Errors are measured against e^(-t^2/2) times the Hermite polynomial with
    # absolute coefficients at |t|, the size of the terms that are summed, so
    # values at the roots of He_m do not divide by zero.
    mp.mp.dps = 60
    ts = np.concatenate([np.linspace(-15.0, 15.0, 61), [-3.3333, 0.1234, 7.77, 14.9]])
    got = GaussianFunction().derivatives(ts, 0, 56)
    worst = 0.0
    for a, t in enumerate(ts):
        tm = mp.mpf(float(t))
        e = mp.exp(-tm * tm / 2)
        scale_prev, scale = 0.0, float(e)
        for m in range(57):
            ref = (-1) ** m * mp.hermite(m, tm / mp.sqrt(2)) * mp.mpf(2) ** (-mp.mpf(m) / 2) * e
            err = abs(got[a, m] - float(ref))
            assert err <= 1e-13 * scale, (t, m, err, scale)
            worst = max(worst, err / scale if scale else 0.0)
            scale_prev, scale = scale, abs(float(t)) * scale + m * scale_prev
    assert worst > 0.0


def test_import_loads_no_scipy():
    code = (
        "import sys; import hermcalc.cli; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == ""


def _coeffs(g):
    return None if not isinstance(g, PolynomialFunction) else g.coeffs.tolist()


@pytest.mark.parametrize(
    "text, spec",
    [
        ("exp", {"kind": "exp"}),
        ("sin", {"kind": "sin"}),
        ("cos", {"kind": "cos"}),
        ("gaussian", {"kind": "gaussian"}),
        ("monomial:3", {"kind": "monomial", "k": 3}),
        ("poly:1,0,-2.5", {"kind": "poly", "coeffs": [1, 0, -2.5]}),
        ('{"kind": "poly", "coeffs": [[1, 2], 3]}', {"kind": "poly", "coeffs": [[1, 2], 3]}),
        ({"kind": "monomial", "k": 2}, {"kind": "monomial", "k": 2}),
    ],
)
def test_each_string_form_is_its_spec_object(text, spec):
    g, h = parse_function(text), function_from_dict(spec)
    assert (type(g), g.label(), _coeffs(g)) == (type(h), h.label(), _coeffs(h))


def test_spec_file_is_its_spec_object(tmp_path):
    spec = {"kind": "tabulated", "ts": [0, 1, 2, 3], "vs": [0, 1, 4, 9]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    g = parse_function(str(path))
    assert g.label() == "tabulated"
    np.testing.assert_array_equal(g.vs, function_from_dict(spec).vs)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "monomial", "params": {"k": 3}},
        {"kind": "polynomial", "coeffs": [1]},
        {"kind": "exp", "k": 3},
        {"kind": ["exp"]},
        {"kind": "poly", "coeffs": [10**400]},
        {"kind": "poly", "coeffs": [float("nan")]},
        {"kind": "tabulated", "ts": ["a", 1, 2, 3], "vs": [0, 1, 2, 3]},
        {"kind": "tabulated", "ts": [0, 1, 2, 3], "vs": [float("inf"), 1, 2, 3]},
        {"kind": "tabulated", "ts": [0, 1, 2, 10**400], "vs": [0, 1, 2, 3]},
        {"kind": "poly", "coeffs": []},
        {"kind": "poly", "coeffs": 1.5},
        {"kind": "tabulated", "ts": [0, 1, 2], "vs": [0, 1, 2]},
        {"kind": "tabulated", "ts": [0, 2, 1, 3], "vs": [0, 1, 2, 3]},
    ],
)
def test_undocumented_or_malformed_specs_are_parse_errors(spec):
    with pytest.raises(ParseError):
        function_from_dict(spec)
    with pytest.raises(ParseError):
        parse_function(json.dumps(spec))


def test_values_raise_on_overflow_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(ExpFunction().values(np.array([0.0])), [1.0])
        with pytest.raises(OverflowRangeError, match="overflows"):
            ExpFunction().values(np.array([800.0, 1.0]))
        with pytest.raises(OverflowRangeError, match="overflows"):
            MonomialFunction(3).values(np.array([1e200]))
