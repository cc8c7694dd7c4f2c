"""Correctness of the reference closure kernel (`_kernels.closure_table`)
and of the arc-bijection search (`maps.arc_bijection_exists`).

The closure's oracle is `reference.naive_closure`, a from-scratch
breadth-first closure over image tuples; it shares no code with the kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from cayleymaps._kernels import closure_table
from cayleymaps.maps import arc_bijection_exists
from reference import naive_closure


GEN_SETS = {
    "trivial1": [[0]],
    "cyclic3": [[1, 2, 0]],
    "dihedral5": [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]],
    "sym3": [[1, 0, 2], [1, 2, 0]],
    "sym4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "agl15_half": [[1, 2, 3, 4, 0], [3, 2, 1, 0, 4]],
}


@pytest.mark.parametrize("name", sorted(GEN_SETS))
def test_closure_matches_naive_oracle(name):
    rows = GEN_SETS[name]
    expected = naive_closure(rows)
    size, exceeded, table = closure_table(
        np.array(rows, dtype=np.int64), cutoff=len(expected) + 5
    )
    assert not exceeded
    assert size == len(expected)
    assert {tuple(int(x) for x in row) for row in table} == expected


def test_closure_exceeded_reports_cutoff_plus_one():
    # (1 2) and (1 2 3 4 5) generate all 120 permutations
    rows = np.array([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]], dtype=np.int64)
    size, exceeded, table = closure_table(rows, cutoff=10)
    assert exceeded
    assert size == 11
    assert len(table) == 0
    size, exceeded, _ = closure_table(rows, cutoff=120)
    assert (size, exceeded) == (120, False)


def test_arc_bijection_identity_and_relabel():
    rng = np.random.default_rng(3)
    r1 = np.array([1, 2, 3, 4, 5, 0], dtype=np.int64)
    l1 = np.array([3, 4, 5, 0, 1, 2], dtype=np.int64)
    assert arc_bijection_exists(r1, l1, r1, l1)
    # conjugating both permutations by a relabeling keeps them equivalent
    sigma = rng.permutation(6).astype(np.int64)
    inv = np.empty(6, dtype=np.int64)
    inv[sigma] = np.arange(6)
    r2 = sigma[r1[inv]]
    l2 = sigma[l1[inv]]
    assert arc_bijection_exists(r1, l1, r2, l2)


def test_arc_bijection_detects_mismatch():
    r1 = np.array([1, 2, 3, 4, 5, 0], dtype=np.int64)
    l1 = np.array([3, 4, 5, 0, 1, 2], dtype=np.int64)
    l2 = np.array([1, 0, 3, 2, 5, 4], dtype=np.int64)
    assert not arc_bijection_exists(r1, l1, r1, l2)


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        closure_table(np.zeros((0, 3), dtype=np.int64), 5)
    with pytest.raises(ValueError):
        closure_table(np.array([[1, 0]], dtype=np.int64), 0)
    for rows in ([[]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            closure_table(rows, 5)


def test_arc_bijection_rejects_rows_of_unequal_length():
    r1 = [1, 2, 0]
    l1 = [0, 2, 1]
    for rows in ((r1, l1, r1, [0, 1]), (r1, l1[:2], r1, l1), (r1, l1, r1 + [3], l1)):
        with pytest.raises(ValueError):
            arc_bijection_exists(*rows)
