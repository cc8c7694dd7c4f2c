"""Time the census's stages per case, and the counting scans.

Per (group, valence) case it times the three stages that
`exhaustive_regular_maps` runs: generation (`inverse_closed_sets`, one
generating set per automorphism orbit), regularity (`_survivors_for_sets`,
the skew-morphism walk over every ordering, first element pinned, each
survivor keyed by its arc code) and dedup (the survivors' rows grouped by
`arc_code` alone). Then it times `triples_for` and `crt_lift_solutions`,
the two scans behind `triples` and `verify --theorem 3.4`, over
n = 1..3000 at p = 3 and 211, and `triples_for(30011, 3001)`, a prime
n = 1 mod p where S_p has all p - 1 roots, each from emptied memos. It
checks nothing: the tests compare each stage and scan with its slow route.

Run from the checkout, which imports the package from its `src`:

    python3 benchmarks/closure_benchmark.py [--repeat N]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

# the checkout's own package, ahead of any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cayleymaps import counting
from cayleymaps.classify import _survivors_for_sets, inverse_closed_sets
from cayleymaps.counting import crt_lift_solutions, triples_for
from cayleymaps.groups import DicyclicGroup, DihedralGroup, ElemAbelian2Group
from cayleymaps.maps import arc_code, reversal_row, rotation_row

CASES = [
    ("D12 valence 3", DihedralGroup(12), 3),
    ("D21 valence 3", DihedralGroup(21), 3),
    ("D11 valence 5", DihedralGroup(11), 5),
    ("Dic6 valence 5", DicyclicGroup(6), 5),
    ("E4 valence 5", ElemAbelian2Group(4), 5),
]
COUNT_N_MAX = 3000
COUNT_VALENCES = (3, 211)
LARGE_VALENCE = (30011, 3001)


def best_of(repeat: int, fn):
    """(fastest time, result) over repeat >= 1 calls of fn()."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def survivor_rows(group, valence, by_code) -> list[tuple[list[int], list[int]]]:
    """(R, L) rows of every surviving rank ordering in by_code."""
    table = group.products(range(group.order))
    inverse = [group.rank(group.inv(x)) for x in group.elements()]
    row_R = rotation_row(group.order * valence, valence)
    return [
        (row_R, reversal_row(table, xs, [xs.index(inverse[r]) for r in xs]))
        for orderings in by_code.values()
        for xs in orderings
    ]


def stage_row(label: str, group, valence: int, repeat: int) -> str:
    """One case's row: its set and ordering counts, stage times and classes."""
    t_gen, sets = best_of(repeat, lambda: inverse_closed_sets(group, valence))
    t_reg, by_code = best_of(repeat, lambda: _survivors_for_sets(group, valence, sets))
    rows = survivor_rows(group, valence, by_code)
    t_dedup, codes = best_of(repeat, lambda: {arc_code(rot, rev) for rot, rev in rows})
    orderings = len(sets) * math.factorial(valence - 1)
    return (
        f"{label:<16} {len(sets):>5} {orderings:>7} {t_gen:>10.4f}s "
        f"{t_reg:>10.4f}s {t_dedup:>7.4f}s {len(codes):>8}"
    )


def best_from_empty_memos(repeat: int, scan):
    """best_of(repeat, scan), each call from emptied triples and root memos."""

    def call():
        counting._triples.cache_clear()
        counting._prime_power_roots.cache_clear()
        return scan()

    return best_of(repeat, call)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats, at least 1")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    print(
        f"{'case':<16} {'sets':>5} {'orders':>7} {'generation':>11} "
        f"{'regularity':>11} {'dedup':>8} {'classes':>8}"
    )
    for label, group, valence in CASES:
        print(stage_row(label, group, valence, args.repeat))
    ns = range(1, COUNT_N_MAX + 1)
    for p in COUNT_VALENCES:
        t_triples, _ = best_from_empty_memos(
            args.repeat, lambda: [triples_for(n, p) for n in ns]
        )
        t_lift, _ = best_from_empty_memos(
            args.repeat, lambda: [crt_lift_solutions(n, p) for n in ns]
        )
        print(
            f"\ncounting n=1..{COUNT_N_MAX} at p={p}: triples_for {t_triples:.4f}s, "
            f"crt_lift_solutions {t_lift:.4f}s"
        )
    n, p = LARGE_VALENCE
    t_triples, found = best_from_empty_memos(args.repeat, lambda: triples_for(n, p))
    print(f"\ncounting n={n} at p={p}: triples_for {t_triples:.4f}s ({len(found)} answers)")


if __name__ == "__main__":
    main()
