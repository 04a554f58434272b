"""Exception taxonomy shared across the package.

Each class carries the process exit code the CLI returns for it:
HermcalcError -> 1 (an invariant failure), ParseError -> 2,
NumericError -> 3, DomainError -> 4; subclasses inherit their parent's.
Any other exception is a bug.

Every entry point checks its orders, dimensions, sample counts, radii and
complex scales through check_count, check_real and check_complex, with one
rule: a non-integer, a bool, a count below its least value, a radius or
step that is not a finite number above 0 (at or above 0 where zero is
allowed), or a scale that is not a finite number is a ParseError (exit 2);
a value past a cap is a CapExceededError (exit 4).
"""

import cmath
import numbers
import operator
import sys

import numpy as np


class HermcalcError(Exception):
    """Base class for all errors raised deliberately by this package."""

    exit_code = 1


class ParseError(HermcalcError):
    """Malformed input: bad JSON, wrong entry count, unknown function kind."""

    exit_code = 2


class NumericError(HermcalcError):
    """A computation failed numerically (non-convergence, overflow)."""

    exit_code = 3


class ConvergenceError(NumericError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class OverflowRangeError(NumericError):
    """Magnitudes too large for the floating-point range (exp overflow)."""


class DomainError(HermcalcError):
    """Input outside the supported domain (caps, radii, derivative orders)."""

    exit_code = 4


class CapExceededError(DomainError):
    """An enumeration or derivative-order cap was exceeded."""


class RadiusError(DomainError):
    """A matrix lies outside the ball a table or bound was built for."""


class OrderSupportError(DomainError):
    """A scalar function cannot supply a derivative of the requested order."""


class GridError(NumericError):
    """A quadrature grid could not meet its tail or residual tolerance."""


def check_finite(name, value):
    """value unchanged if every entry is finite; an overflowed result is a
    numeric failure, never a result."""
    if not np.all(np.isfinite(value)):
        raise OverflowRangeError(f"{name} overflows")
    return value


def check_int(name, value):
    """value as an int; ParseError unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_count(name, value, least=0, cap=None):
    """value as an int: ParseError unless it is an integer (a bool is not)
    of at least least, CapExceededError past cap."""
    value = check_int(name, value)
    if value < least:
        raise ParseError(f"{name} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise CapExceededError(f"{name} {value} exceeds cap {cap}")
    return value


def check_real(name, value, cap=None, zero=False):
    """value unchanged: ParseError unless it is a real number (a bool or a
    string is not) above 0, or at 0 with zero, and finite as a float;
    CapExceededError past cap."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        (value >= 0 if zero else value > 0) and value <= sys.float_info.max
    ):
        raise ParseError(f"{name} must be a finite number {'>=' if zero else '>'} 0, got {value!r}")
    if cap is not None and value > cap:
        raise CapExceededError(f"{name} {value} exceeds cap {cap}")
    return value


def check_complex(name, value):
    """value as a complex: ParseError unless it is a number (a bool or a
    string is not) whose real and imaginary parts are finite."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Complex) and cmath.isfinite(value)
    ):
        raise ParseError(f"{name} must be a finite number, got {value!r}")
    return complex(value)
