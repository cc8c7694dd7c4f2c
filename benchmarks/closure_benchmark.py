"""Time the census's stages per case and the counting scans, and check both.

For each (group, valence) case the script times the three stages that
`exhaustive_regular_maps` runs:

- generation: `inverse_closed_sets`, one generating set per orbit of the
  automorphisms that `automorphism_ranks` lists, by arithmetic and no rows
  in D_n and Dic_n, and by the rows in E_r;
- regularity: `_survivors_for_sets`, the skew-morphism walk
  (`maps.skew_morphism`) over every ordering of those sets, first element
  pinned, with each survivor's rows built and keyed by its arc code;
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
  has exactly |D| elements) and from the skew-morphism walk the census uses.

Two counting cases then time the two scans that `triples` and
`verify --theorem 3.4` run for every n, separately: `triples_for` (the
roots of 1 + x + ... + x^(p-1) over F_n, the values c^((n-1)/p) != 1 of
the units c, for a prime n, the lifts of its largest proper divisor's
answers for a composite n, each confirmed by one modular power) and
`crt_lift_solutions` (the CRT lift of each prime power's roots of unity),
over n = 1..3000 at p = 3 and at p = 211, with the triples and root memos
emptied before each timed sweep. A prime n = 1 mod p costs the scan about
p ln p powers for its roots and one power per root, so the large valence
shows a scan whose cost grows faster in p. Each case checks `triples_for`
against the per-l scalar loop and `crt_lift_solutions` against its roots
found by Python's `pow`, for every n up to a bound and at every prime
n = 1 mod p, where S_p has all p - 1 roots, and exits non-zero on any
mismatch. A last row times `triples_for(30011, 3001)` from empty memos,
a prime n = 1 mod p at a valence where the scalar loop would take
p n steps, and checks its 3000 answers against `pow` instead.

Run from the checkout, which imports the package from its `src` and these
slow routes from `tests/reference.py`, where the tests keep them:

    python3 benchmarks/closure_benchmark.py [--repeat N]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from itertools import accumulate
from pathlib import Path

# the checkout's own package, ahead of any installed copy, and its tests
sys.path[:0] = [str(Path(__file__).resolve().parents[1] / d) for d in ("src", "tests")]

from cayleymaps import counting
from cayleymaps.classify import (
    _survivors_for_sets,
    cyclic_orderings,
    inverse_closed_sets,
)
from cayleymaps.counting import crt_lift_solutions, triples_for
from cayleymaps.groups import DicyclicGroup, DihedralGroup, ElemAbelian2Group
from cayleymaps.maps import arc_code, reversal_row, rotation_row, skew_morphism
from reference import (
    classes_by_sweep,
    closure_regular,
    full_inverse_closed_sets,
    least_orbit_members,
    pow_roots,
    reference_factorize,
    reference_lift,
    scalar_triples_for,
)

CASES = [
    ("D12 valence 3", DihedralGroup(12), 3),
    ("D21 valence 3", DihedralGroup(21), 3),
    ("D11 valence 5", DihedralGroup(11), 5),
    ("Dic6 valence 5", DicyclicGroup(6), 5),
    ("E4 valence 5", ElemAbelian2Group(4), 5),
]


def kappa0_of(group, xs) -> list[int]:
    """The 0-based slot of each x_i^-1 in the rank ordering xs."""
    elems = group.elements()
    return [xs.index(group.rank(group.inv(elems[r]))) for r in xs]


def ordering_rows(group, valence, orderings) -> list[tuple[list[int], list[int]]]:
    """(R, L) rows of each rank ordering."""
    table = group.products(range(group.order))
    row_R = rotation_row(group.order * valence, valence)
    return [
        (row_R, reversal_row(table, xs, kappa0_of(group, xs))) for xs in orderings
    ]


def classes_by_code(rows) -> list[list[int]]:
    """Indices of the rows grouped by arc code."""
    classes: dict[bytes, list[int]] = {}
    for i, (rot, rev) in enumerate(rows):
        classes.setdefault(arc_code(rot, rev), []).append(i)
    return list(classes.values())


def partition(classes) -> set[frozenset[int]]:
    return {frozenset(cls) for cls in classes}


COUNT_N_MAX = 3000
# (p, the bound up to which every n is checked): p = 3 is perfbench's
# `triples_p3` workload; the scalar loop takes p steps per l, so p = 211
# checks a shorter range
COUNT_CASES = ((3, 500), (211, 300))
# a prime n = 1 mod p, where S_p has all p - 1 roots
LARGE_VALENCE = (30011, 3001)


def empty_count_memos() -> None:
    counting._triples.cache_clear()
    counting._prime_power_roots.cache_clear()


def count_sweep(scan, p: int) -> list[list[int]]:
    empty_count_memos()
    return [scan(n, p) for n in range(1, COUNT_N_MAX + 1)]


def best_of(repeat: int, fn):
    """(fastest time, result) over repeat calls of fn()."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def check_case(label: str, group, valence: int, repeat: int) -> str:
    """Time one case's stages and the two regularity routes over the full
    search, check each against its slow route, and return the table row;
    SystemExit names the first check that fails."""
    t_gen, sets = best_of(repeat, lambda: inverse_closed_sets(group, valence))
    t_reg, by_census = best_of(repeat, lambda: _survivors_for_sets(group, valence, sets))
    survivors = [xs for cls in by_census.values() for xs in cls]
    survivor_rows = ordering_rows(group, valence, survivors)
    t_dedup, classes = best_of(repeat, lambda: classes_by_code(survivor_rows))
    starts = list(accumulate((len(cls) for cls in by_census.values()), initial=0))
    census_classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    by_sweep = partition(classes_by_sweep(survivor_rows))
    if partition(classes) != by_sweep or partition(census_classes) != by_sweep:
        raise SystemExit(f"{label}: the arc codes disagree with the sweep")
    orderings = len(sets) * math.factorial(valence - 1)

    full_sets = full_inverse_closed_sets(group, valence)
    reps = [tuple(group.rank(x) for x in xset) for xset in sets]
    if reps != least_orbit_members(group, full_sets):
        raise SystemExit(f"{label}: the representatives miss or repeat an orbit")
    candidates = [xs for xset in full_sets for xs in cyclic_orderings(xset)]
    rows = ordering_rows(group, valence, candidates)
    t_closure, by_closure = best_of(
        repeat, lambda: [closure_regular(rot, rev) for rot, rev in rows]
    )
    walks = [(xs, kappa0_of(group, xs)) for xs in candidates]
    table, e = group.products(range(group.order)), group.identity_rank
    t_walk, by_walk = best_of(
        repeat,
        lambda: [skew_morphism(table, xs, k0, e) is not None for xs, k0 in walks],
    )
    if by_closure != by_walk:
        raise SystemExit(f"{label}: the two regularity routes disagree")
    return (
        f"{label:<16} {len(sets):>5} {orderings:>7} {t_gen:>10.4f}s "
        f"{t_reg:>10.4f}s {t_dedup:>7.4f}s {len(classes):>8}   "
        f"{len(rows):>6} maps {t_closure:>8.3f}s {t_walk:>11.3f}s"
    )


def check_counting(repeat: int, p: int, check_n_max: int) -> str:
    """Time the two counting sweeps at p, check them for n <= check_n_max
    and at the primes n = 1 mod p against their slow routes, and return the
    summary line; SystemExit names the first n that disagrees."""
    t_triples, by_horner = best_of(repeat, lambda: count_sweep(triples_for, p))
    t_lift, by_crt = best_of(repeat, lambda: count_sweep(crt_lift_solutions, p))
    primes = [
        n
        for n in range(check_n_max + 1, COUNT_N_MAX + 1)
        if n % p == 1 and reference_factorize(n) == [(n, 1)]
    ]
    for n in [*range(1, check_n_max + 1), *primes]:
        if by_horner[n - 1] != scalar_triples_for(n, p):
            raise SystemExit(
                f"n={n} p={p}: triples_for disagrees with the scalar loop"
            )
        if by_crt[n - 1] != reference_lift(n, p):
            raise SystemExit(f"n={n} p={p}: crt_lift_solutions disagrees with pow")
    return (
        f"\ncounting n=1..{COUNT_N_MAX} at p={p}: triples_for "
        f"{t_triples:.4f}s, crt_lift_solutions {t_lift:.4f}s (both checked "
        f"for n <= {check_n_max} and at the primes n = 1 mod p above it, "
        f"{len(primes)})"
    )


def check_large_valence(repeat: int) -> str:
    """Time triples_for at LARGE_VALENCE from empty memos, check it against
    the roots of x^p = 1 other than 1 found by `pow`, and return the summary
    line; SystemExit if they differ."""
    n, p = LARGE_VALENCE

    def scan() -> list[int]:
        empty_count_memos()
        return triples_for(n, p)

    t_triples, found = best_of(repeat, scan)
    if found != pow_roots(n, 1, p):
        raise SystemExit(f"n={n} p={p}: triples_for disagrees with pow")
    return (
        f"\ncounting n={n} at p={p}: triples_for {t_triples:.4f}s "
        f"({len(found)} answers, checked against pow)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats")
    args = parser.parse_args()

    print(
        f"{'case':<16} {'sets':>5} {'orders':>7} {'generation':>11} "
        f"{'regularity':>11} {'dedup':>8} {'classes':>8}   "
        f"{'full search':>12} {'closure':>9} {'skew walk':>12}"
    )
    for label, group, valence in CASES:
        print(check_case(label, group, valence, args.repeat))
    for p, check_n_max in COUNT_CASES:
        print(check_counting(args.repeat, p, check_n_max))
    print(check_large_valence(args.repeat))


if __name__ == "__main__":
    main()
