"""Permutation layer tests: cycles, closure orders, involutions."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymaps._kernels import closure_table
from cayleymaps.perms import Permutation, all_involutions, reflection_fixing_last


def perm_of(m: int, *cycles: tuple[int, ...]) -> Permutation:
    return Permutation.from_cycles(m, cycles)


def full_cycle(k: int) -> Permutation:
    """The rotation (1 2 ... k)."""
    return Permutation.from_cycles(k, [range(1, k + 1)])


def test_from_cycles_examples():
    lemma_kappa = perm_of(5, (1, 4), (2, 3))
    assert lemma_kappa.images == (4, 3, 2, 1, 5)
    assert Permutation.from_cycles(3, []).is_identity()
    assert full_cycle(5).images == (2, 3, 4, 5, 1)
    assert full_cycle(5).to_cycles() == [(1, 2, 3, 4, 5)]


def test_from_cycles_rejects_repeats_and_range():
    with pytest.raises(ValueError):
        Permutation.from_cycles(5, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])


def test_bijection_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation(())


@given(st.integers(min_value=1, max_value=9), st.randoms())
@settings(max_examples=100, deadline=None)
def test_cycles_round_trip(m, rng):
    images = list(range(1, m + 1))
    rng.shuffle(images)
    p = Permutation(tuple(images))
    assert Permutation.from_cycles(m, p.to_cycles()) == p


def order_with_cutoff(gens, cutoff):
    order, exceeded, _ = closure_table([[i - 1 for i in g.images] for g in gens], cutoff)
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


def test_repr_shows_cycles():
    assert repr(perm_of(5, (1, 4), (2, 3))) == "Permutation((1 4)(2 3), degree=5)"
    assert perm_of(5, (1, 4), (2, 3)).cycle_string() == "(1 4)(2 3)"
    assert repr(Permutation.identity(3)) == "Permutation(id, degree=3)"


def test_reflection_fixing_last():
    assert reflection_fixing_last(3) == perm_of(3, (1, 2))
    assert reflection_fixing_last(5) == perm_of(5, (1, 4), (2, 3))
    assert reflection_fixing_last(7) == perm_of(7, (1, 6), (2, 5), (3, 4))
    for k in range(1, 8):
        refl = reflection_fixing_last(k)
        assert refl(k) == k
        assert all(refl(refl(i)) == i for i in range(1, k + 1))


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
        assert all(p(p(i)) == i for i in range(1, m + 1))
    brute = [
        Permutation(images)
        for images in map(tuple, itertools.permutations(range(1, m + 1)))
        if all(images[images[i - 1] - 1] == i for i in range(1, m + 1))
    ]
    assert set(found) == set(brute)
