"""Exponent compositions and permutations used by the derivative formulas."""

import itertools
import math
import operator

from .errors import CapExceededError

COMPOSITION_MAX_PARTS = 8
COMPOSITION_MAX_COUNT = 10**7
PERMUTATION_MAX_N = 10


def composition_count(n, k):
    """Number of (n+1)-tuples of nonnegative integers summing to k."""
    if k < 0:
        return 0
    return math.comb(n + k, n)


def enum_compositions(n, k):
    """All (n+1)-tuples of nonnegative integers summing to k, ascending lex.

    Empty for k < 0. The n = 0 case is the single tuple (k,).
    """
    if n < 0:
        raise CapExceededError(f"enum_compositions: n must be >= 0, got {n}")
    if k < 0:
        return []
    if n > COMPOSITION_MAX_PARTS:
        raise CapExceededError(
            f"enum_compositions: n = {n} exceeds cap {COMPOSITION_MAX_PARTS}"
        )
    total = composition_count(n, k)
    if total > COMPOSITION_MAX_COUNT:
        raise CapExceededError(
            f"enum_compositions: {total} tuples exceeds cap {COMPOSITION_MAX_COUNT}"
        )
    # stars and bars: n cut points 0 <= c_1 <= ... <= c_n <= k split k into
    # the gaps between them, and ascending cut points give ascending gaps
    cuts = itertools.combinations_with_replacement(range(k + 1), n)
    return [tuple(map(operator.sub, c + (k,), (0,) + c)) for c in cuts]


def enum_permutations(n):
    """S_n as 1-based mapping tuples in lex order; n = 0 gives the empty map."""
    if n < 0:
        raise CapExceededError(f"enum_permutations: n must be >= 0, got {n}")
    if n > PERMUTATION_MAX_N:
        raise CapExceededError(
            f"enum_permutations: n = {n} exceeds cap {PERMUTATION_MAX_N} "
            f"({math.factorial(n)} elements)"
        )
    return list(itertools.permutations(range(1, n + 1)))
