"""Slot permutation tests: cycle notation, closure orders, involutions."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymaps._kernels import closure_table
from cayleymaps.perms import (
    all_involutions,
    cycle_string,
    cycles,
    reflection_fixing_last,
)


def perm_of(m: int, *point_cycles: tuple[int, ...]) -> tuple[int, ...]:
    """The 0-based image tuple of disjoint cycles of 1-based points on 1..m."""
    images = list(range(m))
    for cycle in point_cycles:
        for pos, point in enumerate(cycle):
            images[point - 1] = cycle[(pos + 1) % len(cycle)] - 1
    return tuple(images)


def full_cycle(k: int) -> tuple[int, ...]:
    """The rotation (1 2 ... k)."""
    return perm_of(k, tuple(range(1, k + 1)))


def test_cycles_examples():
    lemma_kappa = perm_of(5, (1, 4), (2, 3))
    assert lemma_kappa == (3, 2, 1, 0, 4)
    assert cycles(lemma_kappa) == [(1, 4), (2, 3)]
    assert cycles((0, 1, 2)) == []
    assert full_cycle(5) == (1, 2, 3, 4, 0)
    assert cycles(full_cycle(5)) == [(1, 2, 3, 4, 5)]


@given(st.integers(min_value=1, max_value=9), st.randoms())
@settings(max_examples=100, deadline=None)
def test_cycles_round_trip(m, rng):
    images = list(range(m))
    rng.shuffle(images)
    p = tuple(images)
    assert perm_of(m, *cycles(p)) == p


def order_with_cutoff(gens, cutoff):
    order, exceeded, _ = closure_table([list(g) for g in gens], cutoff)
    return order, exceeded


def test_closure_examples():
    dihedral10 = [full_cycle(5), perm_of(5, (1, 4), (2, 3))]
    assert order_with_cutoff(dihedral10, 20) == (10, False)
    assert order_with_cutoff([perm_of(3, (1, 2, 3))], 10) == (3, False)
    sym5 = [perm_of(5, (1, 2)), full_cycle(5)]
    assert order_with_cutoff(sym5, 10) == (11, True)
    assert order_with_cutoff(sym5, 500) == (120, False)


def test_closure_exactness_against_hand_counts():
    cases = [
        ([full_cycle(6)], 6),
        ([full_cycle(4), perm_of(4, (1, 3))], 8),
        ([perm_of(3, (1, 2)), perm_of(3, (2, 3))], 6),
        ([perm_of(4, (1, 2)), full_cycle(4)], 24),
    ]
    for gens, expected in cases:
        assert order_with_cutoff(gens, expected + 10) == (expected, False)


def test_cycle_string_examples():
    assert cycle_string(perm_of(5, (1, 4), (2, 3))) == "(1 4)(2 3)"
    assert cycle_string(perm_of(4, (1, 3), (2, 4))) == "(1 3)(2 4)"
    assert cycle_string(full_cycle(3)) == "(1 2 3)"
    assert cycle_string((0, 1, 2)) == "id"


def test_reflection_fixing_last():
    assert reflection_fixing_last(3) == perm_of(3, (1, 2))
    assert reflection_fixing_last(5) == perm_of(5, (1, 4), (2, 3))
    assert reflection_fixing_last(7) == perm_of(7, (1, 6), (2, 5), (3, 4))
    for k in range(1, 8):
        refl = reflection_fixing_last(k)
        assert refl[k - 1] == k - 1
        assert all(refl[refl[i]] == i for i in range(k))


def involution_count(m: int) -> int:
    # sum over number of transpositions: m! / (k! 2^k (m-2k)!)
    total = 0
    for k in range(m // 2 + 1):
        total += math.factorial(m) // (
            math.factorial(k) * 2**k * math.factorial(m - 2 * k)
        )
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_all_involutions_complete_and_distinct(m):
    found = list(all_involutions(m))
    assert len(found) == involution_count(m)
    assert len(set(found)) == len(found)
    for p in found:
        assert all(p[p[i]] == i for i in range(m))
    brute = [
        images
        for images in itertools.permutations(range(m))
        if all(images[images[i]] == i for i in range(m))
    ]
    assert set(found) == set(brute)
