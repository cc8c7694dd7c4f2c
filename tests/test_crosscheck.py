"""The census's fast paths against the slow routes they replace.

Maps and the census decide regularity with one arc propagation (is there an
automorphism that fixes the base vertex and sends arc 0 to arc 1?), decide
isomorphism between regular maps by comparing arc codes (the breadth-first
relabelling of R and L from arc 0, `maps.arc_code`), check generation
(FiniteGroup.generates) on the rank multiplication table, and search one
generating set per orbit of group.automorphism_ranks().
Here each is compared with its slow route on small groups of every family:
the monodromy closure (`monodromy_closure`, which lives only here), the sweep
over every image of arc 0, the element-level breadth-first closure in the
group (FiniteGroup.closure), and the full search over every generating set
(`reference_regular_maps`, which lives only here).
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleymaps import classify
from cayleymaps._kernels import arc_bijection_exists, closure_table
from cayleymaps.classify import (
    _survivors_for_sets,
    exhaustive_regular_maps,
    inverse_closed_sets,
)
from cayleymaps.groups import (
    AbelianProductGroup,
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
)
from cayleymaps.maps import CayleyMap, arc_code, build_map, maps_isomorphic

CASES = (
    [(DihedralGroup(n), 3) for n in range(3, 11)]
    + [(DihedralGroup(5), 5), (DihedralGroup(6), 5)]
    + [(DicyclicGroup(n), 3) for n in (2, 3, 4)]
    + [(DicyclicGroup(3), 5), (DicyclicGroup(4), 5)]
    + [(CyclicGroup(n), 3) for n in (6, 8, 10, 12, 14)]
    + [(CyclicGroup(10), 5)]
    + [(ElemAbelian2Group(r), 3) for r in (2, 3)]
    + [(ElemAbelian2Group(3), 5)]
    + [(AbelianProductGroup(mods), 3) for mods in ([2, 4], [2, 6], [2, 8])]
    + [(AbelianProductGroup([2, 4]), 5), (AbelianProductGroup([2, 6]), 5)]
)


def slow_candidates(group, valence):
    """Every candidate map, enumerated without the census's helpers: each
    unit-free inverse-closed subset whose element-level closure is the whole
    group, in every ordering with its minimal-rank element first."""
    elems = [g for g in group.elements() if g != group.identity]
    out = []
    for xset in combinations(elems, valence):
        if {group.inv(x) for x in xset} != set(xset):
            continue
        if len(group.closure(xset)) != group.order:
            continue
        first, *rest = xset
        out.extend(build_map(group, (first,) + tail) for tail in permutations(rest))
    return out


def monodromy_closure(m):
    """(order, exceeded) of the monodromy group <R, L> on the map's arcs,
    by breadth-first closure with cutoff |D| + 1."""
    rows = np.stack([m._rotation_row, m._reversal_row])
    size, exceeded, _ = closure_table(rows, m.n_arcs + 1)
    return size, exceeded


def full_sweep_isomorphic(m1, m2):
    return m1.n_arcs == m2.n_arcs and arc_bijection_exists(
        m1._rotation_row, m1._reversal_row, m2._rotation_row, m2._reversal_row
    )


def full_inverse_closed_sets(group, valence):
    """Every unit-free, inverse-closed, generating subset of the given size
    as a sorted rank tuple, rank-lexicographic: the census's enumeration
    before it kept one set per automorphism orbit."""
    _, inv = group.rank_table()
    identity = group.rank(group.identity)
    involutions = [r for r in range(group.order) if r != identity and inv[r] == r]
    pairs = [(r, inv[r]) for r in range(group.order) if r < inv[r]]
    elems = group.elements()
    out = []
    for n_inv in range(valence % 2, min(valence, len(involutions)) + 1, 2):
        n_pair = (valence - n_inv) // 2
        for invs in combinations(involutions, n_inv):
            for prs in combinations(pairs, n_pair):
                xset = tuple(sorted(invs + tuple(x for pr in prs for x in pr)))
                if group.generates([elems[r] for r in xset]):
                    out.append(xset)
    return sorted(out)


def reference_regular_maps(group, valence):
    """The census without orbit pruning: every generating set in every
    ordering through the census's regularity filter, the regular maps
    deduplicated pairwise by the sweep over every image of arc 0, each class
    shown by its rank-lexicographic least member; the class rank tuples,
    sorted."""
    elems = group.elements()
    sets = [
        tuple(elems[r] for r in xset)
        for xset in full_inverse_closed_sets(group, valence)
    ]
    survivors = _survivors_for_sets(group, valence, sets).values()
    classes: list[list[CayleyMap]] = []
    for ranks in (ranks for orderings in survivors for ranks in orderings):
        m = build_map(group, [elems[r] for r in ranks])
        for cls in classes:
            if full_sweep_isomorphic(cls[0], m):
                cls.append(m)
                break
        else:
            classes.append([m])
    return sorted(min(m.xs_ranks() for m in cls) for cls in classes)


@pytest.fixture(
    scope="module", params=CASES, ids=[f"{g.name}-p{p}" for g, p in CASES]
)
def case(request):
    group, valence = request.param
    return group, valence, slow_candidates(group, valence)


@pytest.mark.parametrize(
    "group", list({g.name: g for g, _ in CASES}.values()), ids=lambda g: g.name
)
def test_rank_table_matches_group_arithmetic(group):
    mul, inv = group.rank_table()
    elems = group.elements()
    assert len(mul) == len(inv) == group.order
    for i, g in enumerate(elems):
        assert elems[inv[i]] == group.inv(g)
        assert len(mul[i]) == group.order
        for j, h in enumerate(elems):
            assert elems[mul[i][j]] == group.mul(g, h)


AUT_GROUPS = list({g.name: g for g, _ in CASES}.values()) + [
    ElemAbelian2Group(5),
    ElemAbelian2Group(7),
]


def generating_ranks(group):
    """Ranks of a generating set, grown greedily by element-level closure."""
    elems = group.elements()
    gens: list[int] = []
    span = group.closure([])
    while len(span) < group.order:
        gens.append(next(r for r, g in enumerate(elems) if g not in span))
        span = group.closure([elems[r] for r in gens])
    return gens


@pytest.mark.parametrize("group", AUT_GROUPS, ids=lambda g: g.name)
def test_automorphism_ranks_form_a_group_of_automorphisms(group):
    auts = group.automorphism_ranks()
    mul = np.array(group.rank_table()[0])
    n = group.order
    e = group.rank(group.identity)
    assert auts.dtype == np.int64 and auts.shape[1] == n
    assert (auts[:, e] == e).all()
    assert (np.sort(auts, axis=1) == np.arange(n)).all()
    # psi(g * s) == psi(g) * psi(s) for every g and every s of a generating
    # set gives psi(g * h) == psi(g) * psi(h) for all h, word by word
    gens = generating_ranks(group)
    assert (auts[:, mul[:, gens]] == mul[auts[:, :, None], auts[:, None, gens]]).all()
    # closed under composition: grow the subgroup generated by rows of auts,
    # adding a row as a generator whenever it is not reached yet; every
    # product reached must be a row, and every row must be reached
    rows = set(map(tuple, auts.tolist()))
    reached = {tuple(range(n))}
    generators: list[tuple[int, ...]] = []
    for row in sorted(rows):
        if row in reached:
            continue
        generators.append(row)
        frontier = list(reached)
        while frontier:
            fresh = []
            for f in frontier:
                for g in generators:
                    h = tuple(f[x] for x in g)
                    if h not in reached:
                        assert h in rows
                        reached.add(h)
                        fresh.append(h)
            frontier = fresh
    assert reached == rows


@pytest.mark.parametrize(
    "group, size",
    [
        (DihedralGroup(3), 6),
        (DihedralGroup(8), 32),
        (DihedralGroup(20), 160),
        (DicyclicGroup(2), 8),
        (DicyclicGroup(3), 12),
        (DicyclicGroup(33), 1320),
        (CyclicGroup(2), 1),
        (CyclicGroup(12), 4),
        (CyclicGroup(13), 12),
        (ElemAbelian2Group(1), 1),
        (ElemAbelian2Group(3), 6),
        (ElemAbelian2Group(7), 5040),
        (AbelianProductGroup([2, 6]), 2),
        (AbelianProductGroup([3, 15]), 8),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_automorphism_ranks_sizes(group, size):
    # D_n: n * phi(n); Dic_n: 2n * phi(2n); Z_n and products: phi(exponent);
    # E_r: r! coordinate permutations
    auts = group.automorphism_ranks()
    assert auts.shape == (size, group.order)
    assert len(set(map(tuple, auts.tolist()))) == size


def test_generation_check_matches_group_closure(case):
    # the automorphism orbits of the representatives partition the generating
    # sets found by element-level closure, and each representative is the
    # rank-lexicographic least member of its orbit
    group, valence, candidates = case
    expected = {tuple(sorted(m.xs_ranks())) for m in candidates}
    auts = group.automorphism_ranks()
    reps = [
        tuple(group.rank(x) for x in xset)
        for xset in inverse_closed_sets(group, valence)
    ]
    assert reps == sorted(set(reps))
    covered: set[tuple[int, ...]] = set()
    for rep in reps:
        orbit = set(map(tuple, np.sort(auts[:, list(rep)], axis=1).tolist()))
        assert min(orbit) == rep
        assert not orbit & covered
        covered |= orbit
    assert covered == expected


BLOCK_CASES = [
    (DihedralGroup(10), 3),
    (DihedralGroup(6), 5),
    (DicyclicGroup(4), 5),
    (CyclicGroup(12), 3),
    (ElemAbelian2Group(3), 5),
    (AbelianProductGroup([2, 6]), 5),
]


def full_orbit_representatives(group, valence):
    """The least member of each automorphism orbit among every generating
    set, by imaging each set under all of group.automorphism_ranks()."""
    auts = group.automorphism_ranks()
    return sorted(
        {
            min(map(tuple, np.sort(auts[:, list(xset)], axis=1).tolist()))
            for xset in full_inverse_closed_sets(group, valence)
        }
    )


@pytest.mark.parametrize("block", [1, 2, 7, 1000])
def test_orbit_block_size_does_not_change_the_representatives(block, monkeypatch):
    # 1, 2 and 7 are below one set's image entries, so each block holds one
    # set; 1000 gives blocks of several sets, the last one short
    monkeypatch.setattr(classify, "ORBIT_BLOCK", block)
    for group, valence in BLOCK_CASES:
        reps = [
            tuple(group.rank(x) for x in xset)
            for xset in inverse_closed_sets(group, valence)
        ]
        assert reps == full_orbit_representatives(group, valence), group


def test_propagation_regularity_matches_closure(case):
    # the closure has two outcomes only, which is what the mon_order column
    # relies on: order |D| for a regular map, past the cutoff otherwise
    _, _, candidates = case
    for m in candidates:
        size, exceeded = monodromy_closure(m)
        assert m.is_regular() == (size == m.n_arcs and not exceeded), m
        assert m.is_regular() or exceeded, m


SMALL_GROUPS = st.one_of(
    st.integers(3, 40).map(DihedralGroup),
    st.integers(2, 10).map(DicyclicGroup),
    st.integers(2, 20).map(lambda h: CyclicGroup(2 * h)),
    st.integers(2, 4).map(ElemAbelian2Group),
    st.sampled_from([(2, 4), (2, 6), (2, 10), (4, 4), (2, 2, 4)]).map(
        AbelianProductGroup
    ),
)


@given(group=SMALL_GROUPS, valence=st.sampled_from([3, 5]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_regularity_verdict_agrees_across_routes(group, valence, data):
    # a random unit-free inverse-closed generating set in a random order:
    # take {x, x^-1} blocks in a drawn order while they fit in the valence
    blocks = {frozenset({g, group.inv(g)}) for g in group.elements()}
    blocks.discard(frozenset({group.identity}))
    xset = []
    for block in data.draw(st.permutations(sorted(blocks, key=sorted))):
        if len(xset) + len(block) <= valence:
            xset.extend(block)
    assume(len(xset) == valence)
    assume(len(group.closure(xset)) == group.order)
    m = build_map(group, data.draw(st.permutations(xset)))
    size, exceeded = monodromy_closure(m)
    assert m.is_regular() == (size == m.n_arcs and not exceeded), m
    if m.balance_type().is_balanced:
        assert m.balanced_regular_via_aut() == m.is_regular(), m


def test_candidate_zero_isomorphism_matches_full_sweep(case):
    _, _, candidates = case
    regular = [m for m in candidates if m.is_regular()]
    for m1 in regular:
        code = arc_code(m1._rotation_row, m1._reversal_row)
        for m2 in regular:
            isomorphic = maps_isomorphic(m1, m2)
            assert isomorphic == full_sweep_isomorphic(m1, m2), (m1, m2)
            same_code = code == arc_code(m2._rotation_row, m2._reversal_row)
            assert same_code == isomorphic, (m1, m2)
            if isomorphic:
                # isomorphism invariants
                assert m1.faces_and_genus() == m2.faces_and_genus(), (m1, m2)
                assert m1.balance_type() == m2.balance_type(), (m1, m2)


def test_census_matches_slow_reference(case):
    group, valence, candidates = case
    classes: list[list] = []
    for m in candidates:
        if not m.is_regular():
            continue
        for cls in classes:
            if full_sweep_isomorphic(cls[0], m):
                cls.append(m)
                break
        else:
            classes.append([m])
    expected = sorted(
        min(cls, key=lambda mm: (mm.faces_and_genus()[1], mm.xs_ranks())).xs_ranks()
        for cls in classes
    )
    found = [m.xs_ranks() for m in exhaustive_regular_maps(group, valence)]
    assert found == expected


def test_orbit_search_matches_full_search(case):
    group, valence, _ = case
    found = [m.xs_ranks() for m in exhaustive_regular_maps(group, valence)]
    assert found == reference_regular_maps(group, valence)


@given(group=SMALL_GROUPS, valence=st.sampled_from([3, 5]))
@settings(max_examples=40, deadline=None)
def test_orbit_search_matches_full_search_on_random_groups(group, valence):
    assume(group.order * valence <= 120)
    found = [m.xs_ranks() for m in exhaustive_regular_maps(group, valence)]
    assert found == reference_regular_maps(group, valence)


def test_isomorphism_out_of_irregular_maps_sweeps_every_image(case):
    # rotating the generator list redraws the same map with arc 0 moved to
    # the last slot; out of an irregular map no isomorphism sends arc 0 to
    # arc 0, and out of a regular one the arc codes must still agree
    group, _, candidates = case
    for m in candidates:
        rotated = build_map(group, m.xs[1:] + m.xs[:1])
        assert maps_isomorphic(m, rotated), m
