"""Scalar functions g: R -> C with derivatives of arbitrary order.

These feed three consumers: spectral application g(x), divided-difference
derivative tensors (one derivatives(t, j, q) call gives the orders j..j+q
of g at clustered eigenvalues), and the seminorm bounds (which integrate
|g^(n+1)|^2). Evaluation is numpy-vectorized over the argument.
"""

import json
from math import perm

import numpy as np

from .errors import CapExceededError, OrderSupportError, OverflowRangeError, ParseError
from .linalg import read_json

# the largest degree whose factorials fit in a float: 171! overflows
POLY_MAX_DEGREE = 170


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

    def values(self, t):
        """g at t, where an overflow raises OverflowRangeError instead of a
        numpy warning: the check ahead of any work on a spectrum."""
        with np.errstate(over="ignore"):
            vals = np.asarray(self.eval_derivative(t, 0))
        if not np.all(np.isfinite(vals)):
            raise OverflowRangeError(f"{self.label()} overflows at the nodes")
        return vals

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
        # past the float range the orders turn inf or nan, which callers check
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(j + q):
                ders.append(-t * ders[-1] - m * ders[-2])
                del ders[: m < j]  # below order j only the last two orders are kept
        return np.stack(ders[1:], axis=-1)


class PolynomialFunction(ScalarFunction):
    """sum_j coeffs[j] t^j, ascending coefficients, possibly complex."""

    kind = "poly"

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ParseError("poly: coeffs must be a nonempty 1-d sequence")
        if arr.size - 1 > POLY_MAX_DEGREE:
            raise CapExceededError(f"poly: degree {arr.size - 1} exceeds cap {POLY_MAX_DEGREE}")
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
        text = str(k).strip()
        if not text.isdecimal():
            raise ParseError(f"monomial: power must be an integer >= 0, got {k!r}")
        # compared by its digits first: int() refuses a string past 4300 of them
        digits = text.lstrip("0") or "0"
        if len(digits) > 3 or int(digits) > POLY_MAX_DEGREE:
            shown = digits if len(digits) <= 3 else f"{digits[:3]}... ({len(digits)} digits)"
            raise CapExceededError(f"monomial: power {shown} exceeds cap {POLY_MAX_DEGREE}")
        k = int(digits)
        super().__init__([0.0] * k + [1.0])
        self.k = k


class TabulatedFunction(ScalarFunction):
    """Cubic-spline interpolant of sampled values; derivatives up to order 1."""

    kind = "tabulated"
    max_order = 1

    def __init__(self, ts, vs):
        try:
            ts, vs = np.asarray(ts, dtype=float), np.asarray(vs, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ParseError("tabulated: ts and vs must be lists of numbers") from None
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise ParseError("tabulated: ts and vs must be finite")
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
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"poly: coefficient {k} is {v!r}, not a number or [re, im]") from None
    return out


# kind: (constructor, the spec fields it takes, in order)
_KINDS = {
    "exp": (ExpFunction, ()),
    "sin": (SinFunction, ()),
    "cos": (CosFunction, ()),
    "gaussian": (GaussianFunction, ()),
    "monomial": (MonomialFunction, ("k",)),
    "poly": (lambda coeffs: PolynomialFunction(_coeff_list(coeffs)), ("coeffs",)),
    "tabulated": (TabulatedFunction, ("ts", "vs")),
}


def function_from_dict(doc):
    """The one constructor from a spec object: "kind" and exactly the
    fields that kind takes."""
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ParseError("function spec: expected an object with a string 'kind' field")
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ParseError(f"function spec: unknown kind {kind!r}")
    make, fields = _KINDS[kind]
    if doc.keys() != {"kind", *fields}:
        names = " and ".join(repr(f) for f in fields) or "no other field"
        raise ParseError(f"function spec: {kind} takes {names}, got {sorted(doc)}")
    return make(*(doc[f] for f in fields))


def parse_function(source):
    """Function from a spec object, or from a string that becomes one: a
    bare kind, monomial:K, poly:c0,c1,..., inline JSON or the path of a
    JSON file."""
    if isinstance(source, dict):
        return function_from_dict(source)
    text = str(source).strip()
    kind, _, rest = text.partition(":")
    if text.startswith("{"):
        try:
            spec = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise ParseError(f"function spec: invalid JSON: {exc}") from None
    elif text in _KINDS:
        spec = {"kind": text}
    elif kind == "monomial":
        spec = {"kind": kind, "k": rest}
    elif kind == "poly":
        spec = {"kind": kind, "coeffs": rest.split(",")}
    else:
        spec = read_json(text, "function spec")
    return function_from_dict(spec)
