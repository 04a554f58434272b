"""Scalar functions g: R -> C with derivatives of arbitrary order.

These feed three consumers: spectral application g(x), divided-difference
derivative tensors (which need g's derivatives at clustered eigenvalues),
and the seminorm bounds (which integrate |g^(n+1)|^2). Evaluation is
numpy-vectorized over the argument.
"""

import json
from math import factorial

import numpy as np
from scipy import special

from .errors import OrderSupportError, ParseError


class ScalarFunction:
    """Base: subclasses define eval_derivative(t, order), max_order (None:
    every order), degree (a polynomial's) and bandwidth (|g^(k)| <= A B^k)."""

    kind = "abstract"
    max_order = None
    degree = None
    bandwidth = None

    def eval_derivative(self, t, order):
        raise NotImplementedError

    def __call__(self, t):
        return self.eval_derivative(t, 0)

    def label(self):
        return self.kind

    def check_order(self, order, context):
        if self.max_order is not None and order > self.max_order:
            raise OrderSupportError(
                f"{context}: {self.label()} supports derivatives up to order "
                f"{self.max_order}, requested {order}"
            )


class ExpFunction(ScalarFunction):
    """exp, also at complex arguments (the exp route uses z t)."""

    kind = "exp"

    def eval_derivative(self, t, order):
        return np.exp(np.asarray(t, dtype=complex if np.iscomplexobj(t) else float))


class SinFunction(ScalarFunction):
    kind = "sin"

    def eval_derivative(self, t, order):
        return np.sin(np.asarray(t, dtype=float) + 0.5 * np.pi * (order % 4))


class CosFunction(ScalarFunction):
    kind = "cos"

    def eval_derivative(self, t, order):
        return np.cos(np.asarray(t, dtype=float) + 0.5 * np.pi * (order % 4))


class GaussianFunction(ScalarFunction):
    """g(t) = exp(-t^2 / 2); derivatives through Hermite polynomials."""

    kind = "gaussian"

    def eval_derivative(self, t, order):
        # d^m/dt^m exp(-t^2/2) = (-1)^m He_m(t) exp(-t^2/2) with the
        # probabilists' Hermite polynomials He_m.
        t = np.asarray(t, dtype=float)
        return ((-1) ** order) * special.eval_hermitenorm(order, t) * np.exp(-0.5 * t * t)


class MonomialFunction(ScalarFunction):
    kind = "monomial"

    def __init__(self, k):
        k = int(k)
        if k < 0:
            raise ParseError(f"monomial: power must be >= 0, got {k}")
        self.k = k
        self.degree = k

    def label(self):
        return f"monomial:{self.k}"

    def eval_derivative(self, t, order):
        t = np.asarray(t, dtype=float)
        if order > self.k:
            return np.zeros_like(t)
        coef = factorial(self.k) / factorial(self.k - order)
        return coef * t ** (self.k - order)


class PolynomialFunction(ScalarFunction):
    """sum_j coeffs[j] t^j, ascending coefficients, possibly complex."""

    kind = "poly"

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ParseError("poly: coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ParseError("poly: coeffs must be finite")
        self.coeffs = arr
        self.degree = len(arr) - 1
        self._deriv_cache = {0: arr}

    def label(self):
        return f"poly:{len(self.coeffs) - 1}"

    def _deriv_coeffs(self, order):
        if order not in self._deriv_cache:
            prev = self._deriv_coeffs(order - 1)
            self._deriv_cache[order] = prev[1:] * np.arange(1, len(prev))
        return self._deriv_cache[order]

    def eval_derivative(self, t, order):
        t = np.asarray(t, dtype=float)
        c = self._deriv_coeffs(order)
        acc = np.zeros(t.shape, dtype=np.complex128)
        for a in c[::-1]:
            acc = acc * t + a
        if np.all(np.abs(self.coeffs.imag) == 0):
            return acc.real
        return acc


class TabulatedFunction(ScalarFunction):
    """Cubic-spline interpolant of sampled values; derivatives up to order 1."""

    kind = "tabulated"
    max_order = 1

    def __init__(self, ts, vs):
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if ts.ndim != 1 or ts.size < 4 or ts.shape != vs.shape:
            raise ParseError("tabulated: need matching 1-d ts/vs with >= 4 points")
        if not np.all(np.diff(ts) > 0):
            raise ParseError("tabulated: ts must be strictly increasing")
        from scipy.interpolate import CubicSpline

        self.ts = ts
        self.vs = vs
        self._spline = CubicSpline(ts, vs, bc_type="natural")

    def eval_derivative(self, t, order):
        self.check_order(order, "tabulated evaluation")
        t = np.asarray(t, dtype=float)
        if np.any(t < self.ts[0]) or np.any(t > self.ts[-1]):
            raise ParseError(
                f"tabulated: argument outside table range "
                f"[{self.ts[0]:g}, {self.ts[-1]:g}]"
            )
        return self._spline(t, nu=order)


_SIMPLE_KINDS = {
    "exp": ExpFunction,
    "sin": SinFunction,
    "cos": CosFunction,
    "gaussian": GaussianFunction,
}


def _coeff_list(raw):
    out = []
    for v in raw:
        if isinstance(v, (list, tuple)) and len(v) == 2:
            out.append(complex(float(v[0]), float(v[1])))
        else:
            out.append(complex(float(v)))
    return out


def function_from_dict(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("function spec: expected an object with a 'kind' field")
    kind = doc["kind"]
    params = doc.get("params") or {}
    if kind in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[kind]()
    if kind == "monomial":
        k = doc.get("k", params.get("k"))
        if k is None:
            raise ParseError("function spec: monomial needs a 'k' field")
        return MonomialFunction(k)
    if kind in ("poly", "polynomial"):
        coeffs = doc.get("coeffs", params.get("coeffs"))
        if coeffs is None:
            raise ParseError("function spec: poly needs a 'coeffs' field")
        return PolynomialFunction(_coeff_list(coeffs))
    if kind == "tabulated":
        ts = doc.get("ts", params.get("ts"))
        vs = doc.get("vs", params.get("vs"))
        if ts is None or vs is None:
            raise ParseError("function spec: tabulated needs 'ts' and 'vs' fields")
        return TabulatedFunction(ts, vs)
    raise ParseError(f"function spec: unknown kind {kind!r}")


def parse_function(source):
    """Function from a JSON string, a dict, or a path to a JSON file."""
    if isinstance(source, dict):
        return function_from_dict(source)
    text = str(source).strip()
    if text.startswith("{"):
        try:
            return function_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParseError(f"function spec: invalid JSON: {exc}") from None
    if text in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[text]()
    if text.startswith("monomial:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"function spec: bad monomial degree in {text!r}") from None
        return MonomialFunction(k)
    if text.startswith("poly:"):
        try:
            coeffs = [float(c) for c in text.split(":", 1)[1].split(",")]
        except ValueError:
            raise ParseError(f"function spec: bad poly coefficients in {text!r}") from None
        return PolynomialFunction(coeffs)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read function spec {text}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {text}: {exc}") from None
    return function_from_dict(doc)
