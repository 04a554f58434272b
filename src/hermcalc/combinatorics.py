"""Exponent compositions and permutations used by the derivative formulas."""

import itertools
import math
import operator

from .errors import check_count, check_int

COMPOSITION_MAX_PARTS = 8
COMPOSITION_MAX_COUNT = 10**7
PERMUTATION_MAX_N = 10


def composition_count(n, k):
    """Number of (n+1)-tuples of nonnegative integers summing to k."""
    n, k = check_count("composition_count: n", n), check_int("composition_count: k", k)
    if k < 0:
        return 0
    return math.comb(n + k, n)


def enum_compositions(n, k):
    """All (n+1)-tuples of nonnegative integers summing to k, ascending lex.

    Empty for k < 0. The n = 0 case is the single tuple (k,).
    """
    n = check_count("enum_compositions: n", n, 0, COMPOSITION_MAX_PARTS)
    k = check_int("enum_compositions: k", k)
    if k < 0:
        return []
    check_count("enum_compositions: tuples", composition_count(n, k), 0, COMPOSITION_MAX_COUNT)
    # stars and bars: n cut points 0 <= c_1 <= ... <= c_n <= k split k into
    # the gaps between them, and ascending cut points give ascending gaps
    cuts = itertools.combinations_with_replacement(range(k + 1), n)
    return [tuple(map(operator.sub, c + (k,), (0,) + c)) for c in cuts]


def enum_permutations(n):
    """S_n as 1-based mapping tuples in lex order; n = 0 gives the empty map."""
    n = check_count("enum_permutations: n", n, 0, PERMUTATION_MAX_N)
    return list(itertools.permutations(range(1, n + 1)))
