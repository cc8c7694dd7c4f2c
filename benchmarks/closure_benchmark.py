"""Time the two regularity routes on the same candidate maps.

For each (group, valence) pair the rotation and reversal rows of every
candidate map the exhaustive search considers are built once. The closure
route computes the monodromy group with cutoff |D| and calls a map regular
when it has exactly |D| elements; the propagation route, which the census
uses, asks whether one automorphism sends arc 0 to arc 1. The script fails
if the two routes disagree on any candidate. Maps and the census use only
the propagation route; the closure route remains as the tests' reference.
Run with:

    PYTHONPATH=src python3 benchmarks/closure_benchmark.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from cayleymaps import _kernels
from cayleymaps.classify import iter_candidate_maps
from cayleymaps.groups import DicyclicGroup, DihedralGroup, ElemAbelian2Group

ARC_ONE = np.array([1], dtype=np.int64)


def workloads() -> list[tuple[str, list[tuple[np.ndarray, np.ndarray]]]]:
    cases = [
        ("D12 valence 3", DihedralGroup(12), 3),
        ("D11 valence 5", DihedralGroup(11), 5),
        ("Dic6 valence 5", DicyclicGroup(6), 5),
        ("E4 valence 5", ElemAbelian2Group(4), 5),
    ]
    out = []
    for label, group, valence in cases:
        rows = [
            (m._rotation_row, m._reversal_row)
            for m in iter_candidate_maps(group, valence)
        ]
        out.append((f"{label} ({len(rows)} maps)", rows))
    return out


def closure_route(rot: np.ndarray, rev: np.ndarray) -> bool:
    n_arcs = rot.shape[0]
    size, exceeded, _ = _kernels.closure_table(np.stack([rot, rev]), cutoff=n_arcs)
    return not exceeded and size == n_arcs


def propagation_route(rot: np.ndarray, rev: np.ndarray) -> bool:
    return _kernels.arc_bijection_exists(rot, rev, rot, rev, candidates=ARC_ONE)


def time_route(route, rows, repeat: int) -> tuple[float, list[bool]]:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        verdicts = [route(rot, rev) for rot, rev in rows]
        best = min(best, time.perf_counter() - start)
    return best, verdicts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats")
    args = parser.parse_args()

    print(f"{'workload':<30} {'closure':>10} {'propagation':>12} {'regular':>8}")
    for label, rows in workloads():
        t_closure, by_closure = time_route(closure_route, rows, args.repeat)
        t_prop, by_prop = time_route(propagation_route, rows, args.repeat)
        if by_closure != by_prop:
            raise SystemExit(f"{label}: the two regularity routes disagree")
        print(
            f"{label:<30} {t_closure:>9.3f}s {t_prop:>11.3f}s "
            f"{sum(by_prop):>8}   propagation is {t_closure / t_prop:.1f}x faster"
        )


if __name__ == "__main__":
    main()
