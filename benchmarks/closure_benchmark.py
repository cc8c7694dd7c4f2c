"""Time the census's stages per case and the counting scans, and check both.

For each (group, valence) case the script times the three stages that
`exhaustive_regular_maps` runs:

- generation: `inverse_closed_sets`, one generating set per orbit of the
  group's listed automorphisms (`automorphism_ranks`);
- regularity: `_survivors_for_sets`, the arc propagation
  (`rotates_base_star`) over every ordering of those sets, first element
  pinned, with each survivor keyed by its arc code;
- dedup: grouping the survivors' rows by `arc_code` alone.

It checks that grouping, and the classes `_survivors_for_sets` returns,
against a pairwise grouping of the same survivors by `arc_bijection_exists`
over every image of arc 0, and exits non-zero if they differ.

It also lists every generating set of the full search, not only one per
orbit, and checks two things against that list, exiting non-zero if either
fails:

- the orbits of the generated representatives under the listed
  automorphisms partition the list, with one representative per orbit, each
  its orbit's least member;
- every candidate of the full search (each set in every ordering) gets the
  same regularity verdict from the monodromy closure (regular when the group
  has exactly |D| elements), which only the tests use, and from the
  propagation the census uses.

A counting case then times the two scans that `triples` and
`verify --theorem 3.4` run for every n, separately: `triples_for` (the
Horner scan of every l) and `crt_lift_solutions` (the CRT lift of each prime
power's roots), over n = 1..3000 at p = 3, with the root memo emptied
before each timed sweep. For n <= 500 it checks `triples_for` against the
per-l scalar loop and `crt_lift_solutions` against its roots found by
Python's `pow`, and exits non-zero on any mismatch.

Run with:

    PYTHONPATH=src python3 benchmarks/closure_benchmark.py [--repeat N]
"""

from __future__ import annotations

import argparse
import math
import time
from itertools import combinations

import numpy as np

from cayleymaps import _kernels, classify
from cayleymaps.classify import (
    _factorize,
    _survivors_for_sets,
    crt_lift_solutions,
    cyclic_orderings,
    inverse_closed_sets,
    triples_for,
)
from cayleymaps.groups import DicyclicGroup, DihedralGroup, ElemAbelian2Group
from cayleymaps.maps import arc_code, reversal_row, rotates_base_star, rotation_row

CASES = [
    ("D12 valence 3", DihedralGroup(12), 3),
    ("D21 valence 3", DihedralGroup(21), 3),
    ("D11 valence 5", DihedralGroup(11), 5),
    ("Dic6 valence 5", DicyclicGroup(6), 5),
    ("E4 valence 5", ElemAbelian2Group(4), 5),
]


def full_generating_sets(group, valence) -> list[tuple[int, ...]]:
    """Every unit-free, inverse-closed, generating subset as a sorted rank
    tuple, rank-lexicographic."""
    _, inv = group.rank_table()
    identity = group.identity_rank
    out = []
    for xset in combinations([r for r in range(group.order) if r != identity], valence):
        if {inv[r] for r in xset} != set(xset):
            continue
        if group.generates_ranks(xset):
            out.append(xset)
    return out


def orbits_partition(group, reps, full_sets) -> bool:
    """Do the automorphism orbits of the representatives partition full_sets,
    each representative the least member of its orbit?"""
    auts = group.automorphism_ranks()
    covered: set[tuple[int, ...]] = set()
    for rep in reps:
        orbit = set(map(tuple, np.sort(auts[:, list(rep)], axis=1).tolist()))
        if min(orbit) != rep or orbit & covered:
            return False
        covered |= orbit
    return covered == set(full_sets)


def ordering_rows(group, valence, orderings) -> list[tuple[np.ndarray, np.ndarray]]:
    """(R, L) rows of each rank ordering."""
    table, inv = group.rank_table()
    mul = np.array(table, dtype=np.int64)
    row_R = rotation_row(group.order * valence, valence)
    out = []
    for xs in orderings:
        kappa0 = [xs.index(inv[r]) for r in xs]
        out.append((row_R, reversal_row(mul[:, list(xs)], kappa0)))
    return out


def candidate_rows(group, valence, sets) -> list[tuple[np.ndarray, np.ndarray]]:
    """(R, L) rows of every ordering, least rank first, of the rank sets."""
    orderings = [xs for xset in sets for xs in cyclic_orderings(xset)]
    return ordering_rows(group, valence, orderings)


def classes_by_code(rows) -> list[list[int]]:
    """Indices of the rows grouped by arc code."""
    classes: dict[bytes, list[int]] = {}
    for i, (rot, rev) in enumerate(rows):
        classes.setdefault(arc_code(rot, rev), []).append(i)
    return list(classes.values())


def classes_by_sweep(rows) -> list[list[int]]:
    """Indices of the rows grouped pairwise, each against the first row of
    each class, by a bijection search over every image of arc 0."""
    classes: list[list[int]] = []
    for i, (rot, rev) in enumerate(rows):
        for cls in classes:
            if _kernels.arc_bijection_exists(*rows[cls[0]], rot, rev):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def partition(classes) -> set[frozenset[int]]:
    return {frozenset(cls) for cls in classes}


def closure_route(rot: np.ndarray, rev: np.ndarray) -> bool:
    n_arcs = rot.shape[0]
    size, exceeded, _ = _kernels.closure_table(np.stack([rot, rev]), cutoff=n_arcs)
    return not exceeded and size == n_arcs


COUNT_P = 3
COUNT_N_MAX = 3000
COUNT_CHECK_N_MAX = 500


def scalar_triples(n: int, p: int) -> list[int]:
    """The l in [1, n) whose first vanishing partial sum 1 + l + ... mod n
    is the p-th, by a per-l loop in Python integers."""
    out = []
    for l in range(1, n):
        s, power = 0, 1
        for k in range(1, p + 1):
            s = (s + power) % n
            if s == 0:
                break
            power = power * l % n
        if s == 0 and k == p:
            out.append(l)
    return out


def pow_lift(n: int, p: int) -> list[int]:
    """The x in [1, n) that the CRT lift builds, by their definition: 1 mod
    p when p divides n once, and x^p = 1, x != 1 mod q modulo every other
    prime power q^e of n; none when n is 1 or even or p^2 divides n."""
    if n == 1 or n % 2 == 0 or n % (p * p) == 0:
        return []
    powers = [(q, q**e) for q, e in _factorize(n)]
    return [
        x
        for x in range(1, n)
        if all(
            x % q == 1 if q == p else pow(x, p, qe) == 1 and x % q != 1
            for q, qe in powers
        )
    ]


def count_sweep(scan) -> list[list[int]]:
    classify._prime_power_roots.cache_clear()
    return [scan(n, COUNT_P) for n in range(1, COUNT_N_MAX + 1)]


def best_of(repeat: int, fn):
    """(fastest time, result) over repeat calls of fn()."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats")
    args = parser.parse_args()

    print(
        f"{'case':<16} {'sets':>5} {'orders':>7} {'generation':>11} "
        f"{'regularity':>11} {'dedup':>8} {'classes':>8}   "
        f"{'full search':>12} {'closure':>9} {'propagation':>12}"
    )
    for label, group, valence in CASES:
        t_gen, sets = best_of(args.repeat, lambda: inverse_closed_sets(group, valence))
        t_reg, by_census = best_of(
            args.repeat, lambda: _survivors_for_sets(group, valence, sets)
        )
        survivors = [xs for cls in by_census.values() for xs in cls]
        survivor_rows = ordering_rows(group, valence, survivors)
        t_dedup, classes = best_of(
            args.repeat, lambda: classes_by_code(survivor_rows)
        )
        starts = np.cumsum([0] + [len(cls) for cls in by_census.values()])
        census_classes = [range(a, b) for a, b in zip(starts[:-1], starts[1:])]
        by_sweep = partition(classes_by_sweep(survivor_rows))
        if partition(classes) != by_sweep or partition(census_classes) != by_sweep:
            raise SystemExit(f"{label}: the arc codes disagree with the sweep")
        orderings = len(sets) * math.factorial(valence - 1)

        full_sets = full_generating_sets(group, valence)
        reps = [tuple(group.rank(x) for x in xset) for xset in sets]
        if not orbits_partition(group, reps, full_sets):
            raise SystemExit(f"{label}: the representatives miss or repeat an orbit")
        rows = candidate_rows(group, valence, full_sets)
        t_closure, by_closure = best_of(
            args.repeat, lambda: [closure_route(rot, rev) for rot, rev in rows]
        )
        t_prop, by_prop = best_of(
            args.repeat, lambda: [rotates_base_star(rot, rev) for rot, rev in rows]
        )
        if by_closure != by_prop:
            raise SystemExit(f"{label}: the two regularity routes disagree")
        print(
            f"{label:<16} {len(sets):>5} {orderings:>7} {t_gen:>10.4f}s "
            f"{t_reg:>10.4f}s {t_dedup:>7.4f}s {len(classes):>8}   "
            f"{len(rows):>6} maps {t_closure:>8.3f}s {t_prop:>11.3f}s"
        )

    t_triples, by_horner = best_of(args.repeat, lambda: count_sweep(triples_for))
    t_lift, by_crt = best_of(args.repeat, lambda: count_sweep(crt_lift_solutions))
    for n in range(1, COUNT_CHECK_N_MAX + 1):
        if by_horner[n - 1] != scalar_triples(n, COUNT_P):
            raise SystemExit(f"n={n}: triples_for disagrees with the scalar loop")
        if by_crt[n - 1] != pow_lift(n, COUNT_P):
            raise SystemExit(f"n={n}: crt_lift_solutions disagrees with pow")
    print(
        f"\ncounting n=1..{COUNT_N_MAX} at p={COUNT_P}: triples_for "
        f"{t_triples:.4f}s, crt_lift_solutions {t_lift:.4f}s "
        f"(both checked for n <= {COUNT_CHECK_N_MAX})"
    )


if __name__ == "__main__":
    main()
