"""Scalar functions g: R -> C with derivatives of arbitrary order.

These feed three consumers: spectral application g(x), divided-difference
derivative tensors (one derivatives(t, j, q) call gives the orders j..j+q
of g at clustered eigenvalues), and the seminorm bounds (which integrate
|g^(n+1)|^2). Evaluation is numpy-vectorized over the argument.
"""

import json
from math import perm

import numpy as np

from .errors import OrderSupportError, ParseError


class ScalarFunction:
    """Base: subclasses define derivatives(t, j, q), the orders j..j+q of g
    at t stacked on a new last axis, max_order (None: every order), degree
    (a polynomial's) and bandwidth (|g^(k)| <= A B^k)."""

    kind = "abstract"
    max_order = None
    degree = None
    bandwidth = None

    def derivatives(self, t, j, q):
        raise NotImplementedError

    def eval_derivative(self, t, order):
        # [()] gives a scalar for a scalar t and the array itself otherwise
        return self.derivatives(t, order, 0)[..., 0][()]

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

    def derivatives(self, t, j, q):
        return np.repeat(np.exp(np.asarray(t))[..., None], q + 1, axis=-1)


class SinFunction(ScalarFunction):
    """sin, whose orders cycle (sin, cos, -sin, -cos); cos starts one order on."""

    kind = "sin"
    shift = 0

    def derivatives(self, t, j, q):
        s, c = np.sin(t), np.cos(t)
        cycle = np.stack([s, c, -s, -c], axis=-1)
        return cycle[..., (self.shift + j + np.arange(q + 1)) % 4]


class CosFunction(SinFunction):
    kind = "cos"
    shift = 1


class GaussianFunction(ScalarFunction):
    """g(t) = exp(-t^2 / 2); g^(m+1) = -t g^(m) - m g^(m-1), as
    g^(m) = (-1)^m He_m(t) g with the probabilists' Hermite polynomials."""

    kind = "gaussian"

    def derivatives(self, t, j, q):
        t = np.asarray(t, dtype=float)
        ders = [np.zeros_like(t), np.exp(-0.5 * t * t)]
        for m in range(j + q):
            ders.append(-t * ders[-1] - m * ders[-2])
        return np.stack(ders[j + 1 :], axis=-1)


class PolynomialFunction(ScalarFunction):
    """sum_j coeffs[j] t^j, ascending coefficients, possibly complex."""

    kind = "poly"

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ParseError("poly: coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ParseError("poly: coeffs must be finite")
        self.coeffs = arr if np.any(arr.imag) else arr.real
        self.degree = len(arr) - 1
        self._columns = {}

    def label(self):
        return f"{self.kind}:{self.degree}"

    def derivatives(self, t, j, q):
        if (columns := self._columns.get((j, q))) is None:
            c = self.coeffs
            # rows[s, i] = c_(i+k) (i+k)! / i!, the coefficient of t^i in g^(k), k = j + s
            rows = np.zeros((q + 1, len(c)), dtype=c.dtype)
            for s, k in enumerate(range(j, min(j + q, self.degree) + 1)):
                rows[s, : len(c) - k] = [c[i + k] * perm(i + k, k) for i in range(len(c) - k)]
            # Horner's columns, highest power first; built once per (j, q)
            columns = self._columns[j, q] = rows.T[::-1].copy()
        t, acc = np.asarray(t, dtype=float)[..., None], 0.0
        for a in columns:
            acc = acc * t + a
        return acc


class MonomialFunction(PolynomialFunction):
    """t^k, the polynomial with coefficients e_k."""

    kind = "monomial"

    def __init__(self, k):
        if not str(k).strip().isdecimal():
            raise ParseError(f"monomial: power must be an integer >= 0, got {k!r}")
        k = int(k)
        super().__init__([0.0] * k + [1.0])
        self.k = k


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

    def derivatives(self, t, j, q):
        self.check_order(j + q, "tabulated evaluation")
        t = np.asarray(t, dtype=float)
        if np.any(t < self.ts[0]) or np.any(t > self.ts[-1]):
            raise ParseError(
                f"tabulated: argument outside table range "
                f"[{self.ts[0]:g}, {self.ts[-1]:g}]"
            )
        return np.stack([self._spline(t, nu=k) for k in range(j, j + q + 1)], axis=-1)


_SIMPLE_KINDS = {
    "exp": ExpFunction,
    "sin": SinFunction,
    "cos": CosFunction,
    "gaussian": GaussianFunction,
}


def _coeff_list(raw):
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"poly: coeffs must be a list, got {type(raw).__name__}")
    out = []
    for k, v in enumerate(raw):
        try:
            if isinstance(v, (list, tuple)) and len(v) == 2:
                out.append(complex(float(v[0]), float(v[1])))
            else:
                out.append(complex(float(v)))
        except (TypeError, ValueError):
            raise ParseError(f"poly: coefficient {k} is {v!r}, not a number or [re, im]") from None
    return out


def function_from_dict(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("function spec: expected an object with a 'kind' field")
    kind = doc["kind"]
    params = doc.get("params") or {}
    if kind in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[kind]()
    if kind == "monomial":
        return MonomialFunction(doc.get("k", params.get("k")))
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
        return MonomialFunction(text.split(":", 1)[1])
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
