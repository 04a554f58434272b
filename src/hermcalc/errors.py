"""Exception taxonomy shared across the package.

Each class carries the process exit code the CLI returns for it:
HermcalcError -> 1 (an invariant failure), ParseError -> 2,
NumericError -> 3, DomainError -> 4; subclasses inherit their parent's.
Any other exception is a bug.
"""

import operator

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
