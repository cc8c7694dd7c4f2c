"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Criterion 2 is scoped: the exhaustive census provably contains one regular
map outside the balanced construction family — the genus-0 sphere map on the
order-8 dihedral group (verified independently by a naive closure oracle and
by the classical rotation group of the spherical cube). The test asserts
census = constructions everywhere else and pins that one exception exactly;
see the claim-verifier tests for the honest failing report it produces.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import deque
from typing import Callable, Optional

import pytest

from cayleymaps.claims import (
    affine_compatible_involutions,
    antibalanced_cyclic_map,
    balanced_dihedral_map,
    elem_abelian_map,
    elem_abelian_seeds,
    verify_claim,
)
from cayleymaps.classify import (
    entry_for_map,
    exhaustive_regular_maps,
    family_groups,
)
from cayleymaps.counting import (
    count_regular_dihedral_maps,
    crt_lift_solutions,
    triples_for,
)
from cayleymaps.groups import DicyclicGroup, DihedralGroup, ElemAbelian2Group
from cayleymaps.maps import CayleyMap, maps_isomorphic
from cayleymaps.perms import reflection_fixing_last
from reference import (
    base_rotations,
    checkout_env,
    closure_regular,
    is_normal_cayley,
    is_one_regular,
    rotation_automorphism,
    slow_candidates,
)


def run_criterion(
    capsys,
    num: int,
    desc: str,
    body: Callable[[], None],
    budget: Optional[float] = None,
) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget"
            )
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num}: FAIL — {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num}: pass — {desc} [{elapsed:.2f}s]", flush=True)


def matched_one_to_one(found, expected) -> bool:
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for m in found:
        for idx, e in enumerate(remaining):
            if maps_isomorphic(m, e):
                del remaining[idx]
                break
        else:
            return False
    return not remaining


def search_spaces():
    """The (group, valence) pairs swept by criteria 2-4."""
    spaces = [(DihedralGroup(n), 3) for n in range(3, 13)]
    spaces.append((DihedralGroup(11), 5))
    for n in range(2, 7):
        for p in (3, 5):
            spaces.append((DicyclicGroup(n), p))
    spaces.extend((g, 3) for g, _ in family_groups("abelian", 16))
    return spaces


@pytest.fixture(scope="module")
def census_pool() -> list[CayleyMap]:
    pool: list[CayleyMap] = []
    for group, valence in search_spaces():
        pool.extend(exhaustive_regular_maps(group, valence))
    return pool


# -- graph helpers for the structural spot checks ----------------------------------


def neighbor_lists(m: CayleyMap) -> list[list[int]]:
    adj = m.underlying_adjacency()
    n = m.group.order
    return [[v for v in range(n) if (adj[u] >> v) & 1] for u in range(n)]


def is_bipartite(neigh: list[list[int]]) -> bool:
    color = [-1] * len(neigh)
    for start in range(len(neigh)):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in neigh[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def girth(neigh: list[list[int]]) -> int:
    best = len(neigh) + 1
    for start in range(len(neigh)):
        dist = {start: 0}
        parent = {start: -1}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in neigh[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    best = min(best, dist[u] + dist[v] + 1)
        # cycles through `start` cannot get shorter than twice its eccentricity
    return best


# -- the ten criteria ---------------------------------------------------------------


def test_criterion_1_count_agreement(capsys):
    def body():
        for p in (3, 5, 7):
            for n in range(1, 201):
                enumerated = triples_for(n, p)
                lifted = crt_lift_solutions(n, p)
                assert lifted == enumerated
                assert count_regular_dihedral_maps(n, p) == len(enumerated)
        assert count_regular_dihedral_maps(7, 3) == 2
        assert count_regular_dihedral_maps(9, 3) == 0
        assert count_regular_dihedral_maps(21, 3) == 2
        assert count_regular_dihedral_maps(15, 3) == 0
        assert count_regular_dihedral_maps(11, 5) == 4

    run_criterion(
        capsys, 1,
        "closed-form class counts match enumeration and CRT lifting "
        "(n <= 200, p in {3,5,7})",
        body, budget=5.0,
    )


def test_criterion_2_dihedral_census_equivalence(capsys):
    def body():
        for n in range(3, 13):
            found = exhaustive_regular_maps(DihedralGroup(n), 3)
            expected = [balanced_dihedral_map(n, l, 3) for l in triples_for(n, 3)]
            if n == 4:
                # the documented exception: constructions predict nothing,
                # the census finds exactly the genus-0 sphere map
                assert expected == []
                assert len(found) == 1
                sphere = found[0]
                assert sphere.xs_ranks() == (1, 3, 4)  # (a, a^3, b)
                assert sphere.is_regular()
                assert sphere.balance_type().is_anti_balanced
                assert sphere.faces_and_genus() == (6, 0)
            else:
                assert matched_one_to_one(found, expected), f"n={n}"
        found5 = exhaustive_regular_maps(DihedralGroup(11), 5)
        expected5 = [balanced_dihedral_map(11, l, 5) for l in triples_for(11, 5)]
        assert len(found5) == 4
        assert matched_one_to_one(found5, expected5)

    run_criterion(
        capsys, 2,
        "dihedral censuses equal the balanced construction family "
        "(p=3 n<=12, p=5 n=11; one documented genus-0 exception at n=4)",
        body, budget=60.0,
    )


def test_criterion_3_dicyclic_censuses_empty(capsys):
    def body():
        for n in range(2, 7):
            for p in (3, 5):
                assert exhaustive_regular_maps(DicyclicGroup(n), p) == []

    run_criterion(
        capsys, 3,
        "dicyclic censuses are empty (n in [2,6], p in {3,5})",
        body, budget=60.0,
    )


def test_criterion_4_abelian_dichotomy(capsys):
    def body():
        report = verify_claim("1.1", p=3, n_max=16)
        assert report.passed, report.counterexamples
        assert report.checked == 3
        # pin the three classes: the rank-2 seed t^2 + t + 1 gives the
        # complete-graph map, the rank-3 seed t^3 + 1 the balanced order-8
        # map, and the order-6 cyclic group carries the anti-balanced
        # reference map
        k4_census = exhaustive_regular_maps(ElemAbelian2Group(2), 3)
        assert len(k4_census) == 1
        assert elem_abelian_seeds(2, 3) == [0b111]
        assert maps_isomorphic(k4_census[0], elem_abelian_map(0b111, 3))
        e3_census = exhaustive_regular_maps(ElemAbelian2Group(3), 3)
        assert len(e3_census) == 1
        assert elem_abelian_seeds(3, 3) == [0b1001]
        assert maps_isomorphic(e3_census[0], elem_abelian_map(0b1001, 3))
        from cayleymaps.groups import CyclicGroup

        z6_census = exhaustive_regular_maps(CyclicGroup(6), 3)
        assert len(z6_census) == 1
        assert maps_isomorphic(z6_census[0], antibalanced_cyclic_map(3))

    run_criterion(
        capsys, 4,
        "abelian censuses (order <= 16, p=3) split into linear-seed balanced "
        "maps and the anti-balanced reference map",
        body, budget=60.0,
    )


def test_criterion_5_isomorphism_law(capsys):
    def body():
        m2 = balanced_dihedral_map(7, 2, 3)
        m4 = balanced_dihedral_map(7, 4, 3)
        assert maps_isomorphic(m2, m2)
        assert maps_isomorphic(m4, m4)
        assert not maps_isomorphic(m2, m4)

    run_criterion(
        capsys, 5,
        "the two n=7 valence-3 classes are self-isomorphic and distinct",
        body,
    )


def test_criterion_6_balanced_regularity_equivalence(capsys):
    def body():
        positives = negatives = 0
        for group, valence in search_spaces():
            for m in slow_candidates(group, valence):
                if not m.balance_type().is_balanced:
                    continue
                via_closure = closure_regular(m._rotation_row, m._reversal_row)
                via_aut = rotation_automorphism(m) is not None
                assert via_closure == via_aut, (group.name, m.xs_ranks())
                if via_closure:
                    positives += 1
                else:
                    negatives += 1
        assert positives > 0 and negatives > 0

    run_criterion(
        capsys, 6,
        "balanced candidates are regular exactly when the rotation extends "
        "to a group automorphism",
        body,
    )


def test_criterion_7_involution_dichotomy(capsys, census_pool):
    def body():
        for p in (3, 5, 7):
            expected = {tuple(range(p)), reflection_fixing_last(p)}
            assert set(affine_compatible_involutions(p)) == expected
        for m in census_pool:
            # every rotation putting a self-inverse generator last
            rotations = base_rotations(m.kappa)
            allowed = {tuple(range(m.k)), reflection_fixing_last(m.k)}
            assert rotations and set(rotations) <= allowed, m.xs_ranks()

    run_criterion(
        capsys, 7,
        "rotation-compatible involutions are exactly the identity and the "
        "reflection; every census map uses one of the two",
        body,
    )


def test_criterion_8_structural_spot_checks(capsys):
    def body():
        heawood = balanced_dihedral_map(7, 2, 3)
        assert heawood.n_arcs == 42
        assert entry_for_map(heawood, 7, "heawood").mon_order == 42
        faces, genus = heawood.faces_and_genus()
        assert (faces, genus) == (7, 1)
        neigh = neighbor_lists(heawood)
        assert is_bipartite(neigh)
        assert girth(neigh) == 6
        assert heawood.graph_aut_order() == 336
        assert not is_one_regular(heawood)

        anti = antibalanced_cyclic_map(3)
        faces, genus = anti.faces_and_genus()
        assert (faces, genus) == (3, 1)
        adj = anti.underlying_adjacency()
        for u in range(6):
            for v in range(6):
                assert ((adj[u] >> v) & 1) == (1 if (u - v) % 2 else 0)

    run_criterion(
        capsys, 8,
        "frozen structural invariants of the two reference maps hold",
        body, budget=10.0,
    )


def test_criterion_9_one_regular_implies_normal(capsys, census_pool):
    def body():
        sweep = list(census_pool)
        # the criteria 2-4 censuses contain no one-regular graphs, so the
        # sweep also includes the n=13 valence-3 census, whose two classes
        # give genuine one-regular positives
        one_regular_seen = 0
        sweep.extend(exhaustive_regular_maps(DihedralGroup(13), 3))
        for m in sweep:
            if m.group.order > 64:
                continue
            if is_one_regular(m):
                one_regular_seen += 1
                assert is_normal_cayley(m), m.xs_ranks()
        assert one_regular_seen >= 2
        heawood = balanced_dihedral_map(7, 2, 3)
        assert not is_one_regular(heawood)
        assert not is_normal_cayley(heawood)

    run_criterion(
        capsys, 9,
        "one-regular census graphs come from normal generating sets; the "
        "girth-6 reference graph is the documented non-normal exception",
        body,
    )


def test_criterion_10_byte_determinism(capsys):
    def run(args: list[str]) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "cayleymaps.cli", *args],
            capture_output=True,
            env=checkout_env(),
        )
        return proc.returncode, proc.stdout

    def body():
        groups = [
            # (expected exit code, list of equivalent invocations)
            (0, [
                ["census", "--group", "dihedral", "--p", "3", "--n-max", "12"],
                ["census", "--group", "dihedral", "--p", "3", "--n-max", "12"],
                ["census", "--group", "dihedral", "--p", "3", "--n-max", "12",
                 "--jobs", "2"],
            ]),
            (0, [
                ["census", "--group", "abelian", "--p", "3", "--n-max", "16",
                 "--format", "csv"],
                ["census", "--group", "abelian", "--p", "3", "--n-max", "16",
                 "--format", "csv", "--jobs", "2"],
            ]),
            (0, [
                ["verify", "--theorem", "L3.2", "--p", "3", "--n-max", "8"],
                ["verify", "--theorem", "L3.2", "--p", "3", "--n-max", "8",
                 "--jobs", "2"],
            ]),
            (1, [
                ["verify", "--theorem", "1.2", "--p", "3", "--n-max", "6"],
                ["verify", "--theorem", "1.2", "--p", "3", "--n-max", "6",
                 "--jobs", "2"],
            ]),
        ]
        for expected_code, invocations in groups:
            outputs = []
            for argv in invocations:
                code, out = run(argv)
                assert code == expected_code, argv
                outputs.append(out)
            assert all(out == outputs[0] for out in outputs), invocations[0]
            assert outputs[0], invocations[0]
        parsed = json.loads(
            run(["census", "--group", "dihedral", "--p", "3", "--n-max", "12"])[1]
        )
        assert parsed["schema_version"] == 1

    run_criterion(
        capsys, 10,
        "census and verify output is byte-identical across runs and worker "
        "counts",
        body,
    )
