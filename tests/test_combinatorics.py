"""Composition and permutation enumeration used by the word expansions."""

from itertools import product
from math import comb, factorial

import pytest

from hermcalc.combinatorics import (
    COMPOSITION_MAX_COUNT,
    composition_count,
    enum_compositions,
    enum_permutations,
)
from hermcalc.errors import CapExceededError, ParseError


def test_composition_counts_match_binomial():
    for n in range(0, 9):
        for k in range(0, 9):
            comps = enum_compositions(n, k)
            assert len(comps) == comb(n + k, n)
            assert composition_count(n, k) == comb(n + k, n)


def test_compositions_are_lexicographic_and_complete():
    comps = enum_compositions(2, 3)
    assert comps[0] == (0, 0, 3)
    assert comps[-1] == (3, 0, 0)
    assert sorted(comps) == comps
    assert len(set(comps)) == len(comps)
    for alpha in comps:
        assert len(alpha) == 3 and sum(alpha) == 3 and min(alpha) >= 0


def test_compositions_equal_the_filtered_lex_product():
    # product over range(k + 1) is in lex order, so the filter keeps it
    for n in range(0, 5):
        for k in range(0, 7):
            want = [c for c in product(range(k + 1), repeat=n + 1) if sum(c) == k]
            assert enum_compositions(n, k) == want


def test_composition_edge_cases():
    assert enum_compositions(2, -1) == []
    assert enum_compositions(0, 4) == [(4,)]
    assert enum_compositions(3, 0) == [(0, 0, 0, 0)]


def test_permutations_lexicographic():
    perms = enum_permutations(3)
    assert len(perms) == 6
    assert perms[0] == (1, 2, 3)
    assert perms[-1] == (3, 2, 1)
    assert sorted(perms) == perms
    for n in range(0, 6):
        assert len(enum_permutations(n)) == factorial(n)


def test_enumeration_caps():
    with pytest.raises(CapExceededError):
        enum_compositions(9, 1)
    with pytest.raises(CapExceededError):
        enum_permutations(11)


def test_composition_count_of_a_negative_total_is_zero():
    assert composition_count(3, -1) == 0 == len(enum_compositions(3, -1))


@pytest.mark.parametrize(
    "enum, args, error, match",
    [
        (enum_compositions, (-1, 2), ParseError, "n must be >= 0"),
        (enum_compositions, (8, 40), CapExceededError, f"exceeds cap {COMPOSITION_MAX_COUNT}"),
        (enum_permutations, (-1,), ParseError, "n must be >= 0"),
    ],
    ids=["negative-parts", "count-cap", "negative-permutation-size"],
)
def test_enumerations_refuse_negative_sizes_and_oversized_counts(enum, args, error, match):
    with pytest.raises(error, match=match):
        enum(*args)
