"""The census's fast paths against the slow routes they replace.

Maps and the census decide regularity with one walk over a product table
(`maps.skew_morphism`: does x_i -> x_(i+1) extend to a skew-morphism of the
group?), a map over its own N x k table `FiniteGroup.products(xs)` and the
census over its group's whole table, and the two walks are compared here.
They decide isomorphism between regular maps by comparing arc codes (the
breadth-first relabelling of R and L from arc 0, `maps.arc_code`), check
generation (FiniteGroup.generates) by a breadth-first search on a product
table, and search one generating set per orbit of group.automorphism_ranks().
Here each is compared with its slow route on small groups of every family:
the monodromy closure (`reference.monodromy_closure`) and the arc
permutation the walk's skew-morphism and power function define, which must
commute with R and L; the sweep over every
image of arc 0 (`reference.classes_by_sweep`); the element-level
breadth-first closure in the group (`reference.closure`); and the full
search over every generating set (`reference_regular_maps`, which lives only
here). Each class's printed representative, the least image
under the rows for its least orbit minimum (`classify._least_image`), is
compared with the least image over every row of group.automorphism_ranks()
(`reference_least_image`, which lives only here). In Z_n, D_n and Dic_n the
census needs no rows: their set representatives, built by orderly
generation, are compared with the least member of every orbit of the full
list (`reference.least_orbit_members`); their closed-form generation tests
with the breadth-first search (`FiniteGroup.generates_ranks`); their least
images by arithmetic with the rows; and their orbit sizes, summed over the
representatives, with the number of generating sets that the subgroup
lattice gives (`reference.generating_count`); E_r's, listed by the row
route, with the count over its subspace lattice
(`reference.elem2_generating_count`). Claim 1.1's seed maps,
built from the divisors of t^p - 1 over GF(2), are compared with the sweep
over GL(r, 2) that they replace (`gl_seed_codes`, which lives only here). A
map's rotation automorphism (CayleyMap.rotation_automorphism, the walk with
power function 1) is compared with a propagation of
phi(g * x_i) = phi(g) * x_(i+1) alone (`reference_rotation_automorphism`,
which lives only here) in every family,
and with the rows of Aut(G) that send each x_i to x_(i+1) where a reference
lists all of Aut(G): the automorphism_ranks() of Z_n and of D_n with n >= 3,
and GL(r, 2) for E_r (`Gf2Matrix`, which lives only here).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleymaps import classify
from cayleymaps.claims import elem_abelian_map, elem_abelian_seeds
from cayleymaps.classify import (
    _least_image,
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
    FiniteGroup,
    is_generating,
)
from cayleymaps.cli import main
from cayleymaps.maps import (
    arc_bijection_exists,
    arc_code,
    build_map,
    maps_isomorphic,
    reversal_row,
    skew_morphism,
)
from reference import (
    affine_orbit_size,
    classes_by_sweep,
    closure,
    closure_regular,
    elem2_generating_count,
    elem2_orbit_size,
    full_inverse_closed_sets,
    generating_count,
    least_orbit_members,
    monodromy_closure,
    slow_candidates,
)

CASES = (
    [(DihedralGroup(n), 3) for n in (*range(3, 11), 12)]
    + [(DihedralGroup(5), 5), (DihedralGroup(6), 5)]
    + [(DicyclicGroup(n), 3) for n in (2, 3, 4)]
    + [(DicyclicGroup(n), 5) for n in (3, 4, 6)]
    + [(CyclicGroup(n), 3) for n in (6, 8, 10, 12, 14)]
    + [(CyclicGroup(10), 5)]
    + [(ElemAbelian2Group(r), 3) for r in (2, 3)]
    + [(ElemAbelian2Group(3), 5)]
    + [(AbelianProductGroup(mods), 3) for mods in ([2, 4], [2, 6], [2, 8])]
    + [(AbelianProductGroup([2, 4]), 5), (AbelianProductGroup([2, 6]), 5)]
)


def map_rows(m):
    """The map's R and L rows, as the reference routes take them."""
    return m._rotation_row, m._reversal_row


@dataclass(frozen=True)
class Gf2Matrix:
    """Square bit matrix over GF(2); rows[i] holds row i as a bit mask."""

    rows: tuple[int, ...]

    def apply(self, vec: int) -> int:
        """Left action on a bit-mask column vector."""
        out = 0
        for i, row in enumerate(self.rows):
            if (row & vec).bit_count() & 1:
                out |= 1 << i
        return out

    @classmethod
    def enumerate_invertible(cls, r: int):
        """Yield all invertible r x r bit matrices, rows in ascending mask order."""

        def rec(rows, span):
            if len(rows) == r:
                yield cls(rows)
                return
            for cand in range(1, 1 << r):
                if cand in span:
                    continue
                yield from rec(rows + (cand,), span | {cand ^ s for s in span})

        return rec((), frozenset([0]))


def test_gl2_count_formula():
    for r in range(1, 5):
        expected = 1
        for k in range(r):
            expected *= (1 << r) - (1 << k)
        assert sum(1 for _ in Gf2Matrix.enumerate_invertible(r)) == expected


@lru_cache(maxsize=None)
def gl_rows(r):
    """GL(r, 2) as rank rows: E_r lists its elements as ascending bit masks,
    so an element's rank is its mask."""
    return np.array(
        [[A.apply(v) for v in range(1 << r)] for A in Gf2Matrix.enumerate_invertible(r)],
        dtype=np.int64,
    )


def full_automorphism_rows(group):
    """All of Aut(G) as rank rows, or None for a group no reference lists."""
    if isinstance(group, CyclicGroup) or isinstance(group, DihedralGroup) and group.n >= 3:
        return np.asarray(group.automorphism_ranks())
    if isinstance(group, ElemAbelian2Group) and group.r <= 4:
        return gl_rows(group.r)
    return None


def reference_rotation_automorphism(m):
    """The automorphism phi with phi(x_i) = x_(i+1), as a rank tuple, or
    None: one breadth-first propagation over X's products from phi(e) = e
    setting phi(g * x_i) = phi(g) * x_(i+1), None at the first clash. The
    generators reach every element; with every edge consistent,
    phi(g * h) = phi(g) * phi(h) follows word by word in h, and phi is onto
    since its image holds every x_(i+1). Conversely an automorphism psi with
    psi(x_i) = x_(i+1) satisfies every equation, so the propagation never
    clashes."""
    k = m.k
    mul = m.group.products(m.xs_ranks())
    identity = m.group.identity_rank
    phi = [-1] * m.group.order
    phi[identity] = identity
    reached = [identity]
    for g in reached:  # the list grows while it is read: a queue
        row, image_row = mul[g], mul[phi[g]]
        for i in range(k):
            h, image = row[i], image_row[(i + 1) % k]
            if phi[h] < 0:
                phi[h] = image
                reached.append(h)
            elif phi[h] != image:
                return None
    return tuple(phi)


def check_rotation_automorphism(m):
    """A non-None rotation automorphism is a bijective homomorphism on the
    full product table sending each x_i to x_(i+1); it is the reference
    propagation's answer in every family, and where Aut(G) is listed, it is
    the row that does so, and None exactly when no row does."""
    phi = m.rotation_automorphism()
    xs = np.array(m.xs_ranks())
    if phi is not None:
        mul = np.array(m.group.products(range(m.group.order)))
        row = np.array(phi)
        assert (np.sort(row) == np.arange(m.group.order)).all(), m
        assert (row[mul] == mul[row[:, None], row]).all(), m
        assert (row[xs] == np.roll(xs, -1)).all(), m
    assert phi == reference_rotation_automorphism(m), m
    auts = full_automorphism_rows(m.group)
    if auts is not None:
        extending = auts[(auts[:, xs] == np.roll(xs, -1)).all(axis=1)]
        assert phi == (tuple(extending[0].tolist()) if len(extending) else None), m
    return phi


def reference_regular_maps(group, valence):
    """The census without orbit pruning: every generating set in every
    ordering through the census's regularity filter, the regular maps
    deduplicated pairwise by the sweep over every image of arc 0, each class
    shown by its rank-lexicographic least member; the class rank tuples,
    sorted."""
    elems = group.elements()
    sets = full_inverse_closed_sets(group, valence)
    survivors = _survivors_for_sets(group, valence, sets).values()
    found = [
        build_map(group, [elems[r] for r in ranks])
        for orderings in survivors
        for ranks in orderings
    ]
    classes = classes_by_sweep([map_rows(m) for m in found])
    return sorted(min(found[i].xs_ranks() for i in cls) for cls in classes)


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
    # products(xs), the table of the ranks of g * x over the slots of xs: the
    # whole table for xs = every rank, then random rank lists, repeats and
    # the empty list included
    elems = group.elements()
    rng = random.Random(group.name)
    rank_lists = [range(group.order)] + [
        rng.choices(range(group.order), k=k) for k in (0, 1, 3, 5, 8)
    ]
    for xs in rank_lists:
        table = group.products(xs)
        assert len(table) == group.order
        for i, g in enumerate(elems):
            assert table[i] == [group.rank(group._mul(g, elems[x])) for x in xs]
            assert [elems[r] for r in table[i]] == [group.mul(g, elems[x]) for x in xs]


AUT_GROUPS = list({g.name: g for g, _ in CASES}.values()) + [
    ElemAbelian2Group(5),
    ElemAbelian2Group(7),
]


def generating_ranks(group):
    """Ranks of a generating set, grown greedily by element-level closure."""
    elems = group.elements()
    gens: list[int] = []
    span = closure(group, [])
    while len(span) < group.order:
        gens.append(next(r for r, g in enumerate(elems) if g not in span))
        span = closure(group, [elems[r] for r in gens])
    return gens


@pytest.mark.parametrize("group", AUT_GROUPS, ids=lambda g: g.name)
def test_automorphism_ranks_form_a_group_of_automorphisms(group):
    auts = np.asarray(group.automorphism_ranks())
    mul = np.array(group.products(range(group.order)))
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
    auts = np.asarray(group.automorphism_ranks())
    assert auts.shape == (size, group.order)
    assert len(set(map(tuple, auts.tolist()))) == size


def test_generation_check_matches_group_closure(case):
    # the automorphism orbits of the representatives partition the generating
    # sets found by element-level closure, and each representative is the
    # rank-lexicographic least member of its orbit
    group, valence, candidates = case
    expected = {tuple(sorted(m.xs_ranks())) for m in candidates}
    auts = np.asarray(group.automorphism_ranks())
    reps = inverse_closed_sets(group, valence)
    assert reps == sorted(set(reps))
    covered: set[tuple[int, ...]] = set()
    for rep in reps:
        orbit = set(map(tuple, np.sort(auts[:, list(rep)], axis=1).tolist()))
        assert min(orbit) == rep
        assert not orbit & covered
        covered |= orbit
    assert covered == expected


# groups whose H is affine on exponents; the census lists their sets and
# images them by arithmetic, with no automorphism rows
AFFINE = (CyclicGroup, DihedralGroup, DicyclicGroup)

AFFINE_CASES = {
    f"{g.name}-p{p}": (g, p)
    for g, p in [case for case in CASES if isinstance(case[0], AFFINE)]
    + [(DihedralGroup(n), 3) for n in range(3, 41)]
    + [(DihedralGroup(11), 5)]
    + [(DicyclicGroup(n), p) for n in range(2, 13) for p in (3, 5)]
    + [(CyclicGroup(n), 3) for n in range(2, 41)]
}


@pytest.mark.parametrize("case_id", list(AFFINE_CASES))
def test_affine_search_lists_the_least_member_of_every_orbit(case_id):
    group, valence = AFFINE_CASES[case_id]
    full_sets = full_inverse_closed_sets(group, valence)
    assert inverse_closed_sets(group, valence) == least_orbit_members(group, full_sets)


ORBIT_CASES = [
    (ElemAbelian2Group(3), 5),
    (AbelianProductGroup([2, 6]), 5),
]


@pytest.mark.parametrize("block", [1, 2, 7, 1000])
def test_orbit_block_size_does_not_change_the_representatives(block, monkeypatch):
    # the row route tests each set only under the rows sending one of its
    # ranks to its least rank, and stops at the first smaller image; so the
    # rows of group.automorphism_ranks() are reversed in blocks of this size,
    # which changes the row that stops each test but not the representatives.
    # Block 1 keeps the order, 1000 reverses every group's rows whole
    for group, valence in ORBIT_CASES:
        rows = group.automorphism_ranks()
        reordered = [
            row for i in range(0, len(rows), block) for row in rows[i : i + block][::-1]
        ]
        monkeypatch.setattr(
            group, "automorphism_ranks", lambda reordered=reordered: reordered
        )
        full_sets = full_inverse_closed_sets(group, valence)
        found = inverse_closed_sets(group, valence)
        assert found == least_orbit_members(group, full_sets), group


# a set of the row route generates what one element per inverse pair does,
# so below the rank d(G) none is tested: E4 and Z2xZ2xZ2xZ4 list nothing at
# valence 3, E3 at 3 and E4 at 5 sit at the bound, and Z2xZ3xZ5 is cyclic,
# of rank 1 on three moduli
RANK_CASES = [
    (ElemAbelian2Group(4), 3),
    (AbelianProductGroup([2, 2, 2, 4]), 3),
    (AbelianProductGroup([2, 3, 5]), 3),
    (ElemAbelian2Group(3), 3),
    (ElemAbelian2Group(4), 5),
]


@pytest.mark.parametrize(
    "group, valence", RANK_CASES, ids=[f"{g.name}-p{p}" for g, p in RANK_CASES]
)
def test_row_search_lists_the_least_member_of_every_orbit(group, valence):
    full_sets = full_inverse_closed_sets(group, valence)
    assert inverse_closed_sets(group, valence) == least_orbit_members(group, full_sets)


def test_no_set_below_the_rank_is_tested_for_generation(monkeypatch):
    calls = []
    monkeypatch.setattr(classify, "is_generating", lambda *args: calls.append(args))
    assert inverse_closed_sets(ElemAbelian2Group(6), 5) == []
    assert calls == []


def test_a_replaced_automorphism_ranks_takes_effect_on_the_next_search(monkeypatch):
    # the census keeps the tables of the group it searched last, keyed on
    # the group's bound automorphism_ranks: a method replaced on the group
    # object is called afresh by its next search, and once
    for group, valence in ORBIT_CASES:
        rows = group.automorphism_ranks()
        expected = inverse_closed_sets(group, valence)
        calls = []
        monkeypatch.setattr(
            group, "automorphism_ranks", lambda rows=rows: calls.append(1) or rows
        )
        for _ in range(2):
            assert inverse_closed_sets(group, valence) == expected
        assert calls == [1], group
        monkeypatch.undo()


@pytest.mark.parametrize(
    "group",
    [DihedralGroup(n) for n in range(1, 7)]
    + [DicyclicGroup(n) for n in (2, 3)]
    + [CyclicGroup(n) for n in range(1, 13)],
    ids=lambda g: g.name,
)
def test_closed_form_generation_matches_the_search_on_every_subset(group):
    # the breadth-first search on one whole table, as the full enumeration
    # in tests/reference.py runs it
    table, e = group.products(range(group.order)), group.identity_rank
    for size in range(group.order + 1):
        for xs in combinations(range(group.order), size):
            assert group.generates_ranks(xs) == is_generating(table, xs, e), xs


AFFINE_GROUPS = st.one_of(
    st.integers(1, 60).map(DihedralGroup),
    st.integers(2, 30).map(DicyclicGroup),
    st.integers(1, 120).map(CyclicGroup),
)


@given(group=AFFINE_GROUPS, data=st.data())
@settings(max_examples=50, deadline=None)
def test_closed_form_generation_matches_the_search_on_random_sets(group, data):
    # ranks drawn at random, then often pressed into a coset pattern
    # i -> d * i + c * e mod m, so that many sets miss a generator
    xs = data.draw(st.lists(st.integers(0, group.order - 1), max_size=6))
    m = group.n if isinstance(group, CyclicGroup) else group.m
    d, c = data.draw(st.integers(1, m)), data.draw(st.integers(0, m - 1))
    if data.draw(st.booleans()):
        xs = [x // m * m + (d * (x % m) + c * (x // m)) % m for x in xs]
    assert group.generates_ranks(xs) == FiniteGroup.generates_ranks(group, xs), xs


@pytest.mark.parametrize(
    "family, group, valence",
    [("dihedral", DihedralGroup(40), 5), ("dihedral", DihedralGroup(105), 3)]
    + [("dicyclic", DicyclicGroup(40), 7), ("dicyclic", DicyclicGroup(105), 5)]
    + [("cyclic", CyclicGroup(n), p) for n, p in ((48, 5), (60, 7), (126, 3))],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_orbit_sizes_add_up_to_the_generating_sets(family, group, valence):
    # orbit-stabilizer over the listed sets against the subgroup recursion:
    # a set missed or listed twice changes the left side (D40 at p = 5 has
    # 890,800 generating sets in 1,604 orbits, Dic40 at p = 7 51,840 in 101
    # and Dic105 at p = 5 7,560 in 3)
    sets = inverse_closed_sets(group, valence)
    found = sum(affine_orbit_size(group, x) for x in sets)
    assert found == generating_count(family, group.n, valence)


@pytest.mark.parametrize(
    "r, valence",
    [(r, k) for r in (2, 3, 4) for k in (3, 5, 7)] + [(5, 3), (5, 5)],
)
def test_elem2_orbit_sizes_add_up_to_the_generating_sets(r, valence):
    # the same identity on E_r, whose sets the row route lists: E4 at p = 7
    # has 6,420 generating sets in 361 orbits, E5 at p = 5 83,328 in 885
    found = sum(
        elem2_orbit_size(r, xset)
        for xset in inverse_closed_sets(ElemAbelian2Group(r), valence)
    )
    assert found == elem2_generating_count(r, valence)


@pytest.mark.parametrize(
    "group, valence",
    [(DihedralGroup(n), p) for n in (4, 6, 9) for p in (3, 5)]
    + [(DicyclicGroup(n), p) for n in (2, 3, 6) for p in (3, 5)]
    + [(CyclicGroup(n), p) for n in (12, 15, 16) for p in (3, 5)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_counts_and_orbit_sizes_match_the_full_search(group, valence):
    # the two sides of the identity above, each against the full list
    full_sets = full_inverse_closed_sets(group, valence)
    sets = inverse_closed_sets(group, valence)
    assert sum(affine_orbit_size(group, x) for x in sets) == len(full_sets)
    family = {CyclicGroup: "cyclic", DihedralGroup: "dihedral", DicyclicGroup: "dicyclic"}
    assert generating_count(family[type(group)], group.n, valence) == len(full_sets)


def no_rows(*args):
    raise AssertionError("an affine group's census built automorphism rows or ran the BFS")


@pytest.mark.parametrize(
    "args",
    [
        ("census", "--group", "dihedral", "--p", "3", "--n-max", "16"),
        ("census", "--group", "dihedral", "--p", "5", "--n-max", "10", "--format", "csv"),
        ("census", "--group", "dicyclic", "--p", "3", "--n-max", "10"),
        ("verify", "--theorem", "1.2", "--p", "3", "--n-max", "12"),
        ("verify", "--theorem", "2.7-consequence", "--n-max", "8"),
    ],
    ids=" ".join,
)
def test_affine_census_needs_no_rows_and_no_bfs(args, monkeypatch, capsys):
    # the row route as the reference, then the affine route with the rows
    # and the breadth-first generation test replaced by stubs that raise
    monkeypatch.setattr(classify, "_is_affine", lambda group: False)
    expected = (main(list(args)), capsys.readouterr())
    monkeypatch.undo()
    monkeypatch.setattr(FiniteGroup, "generates_ranks", no_rows)
    monkeypatch.setattr(classify, "is_generating", no_rows)
    for family in AFFINE:
        monkeypatch.setattr(family, "automorphism_ranks", no_rows)
    assert (main(list(args)), capsys.readouterr()) == expected


def test_cyclic_census_needs_no_rows_and_no_bfs(monkeypatch):
    groups = [(CyclicGroup(n), p) for n in range(2, 31) for p in (3, 5)]
    monkeypatch.setattr(classify, "_is_affine", lambda group: False)
    expected = [[m.xs_ranks() for m in exhaustive_regular_maps(g, p)] for g, p in groups]
    monkeypatch.undo()
    monkeypatch.setattr(FiniteGroup, "generates_ranks", no_rows)
    monkeypatch.setattr(classify, "is_generating", no_rows)
    monkeypatch.setattr(CyclicGroup, "automorphism_ranks", no_rows)
    found = [[m.xs_ranks() for m in exhaustive_regular_maps(g, p)] for g, p in groups]
    assert found == expected


def test_propagation_regularity_matches_closure(case):
    # the closure has two outcomes only, which is what the mon_order column
    # relies on: order |D| for a regular map, past the cutoff otherwise
    _, _, candidates = case
    for m in candidates:
        size, exceeded = monodromy_closure(*map_rows(m))
        assert m.is_regular() == (size == m.n_arcs and not exceeded), m
        assert m.is_regular() or exceeded, m


def test_skew_morphism_defines_a_map_automorphism(case):
    # a walk without a clash gives the arc permutation
    # Phi(g, i) = (phi(g), i + delta(g)), which commutes with R and L and
    # sends the base arc (e, 0) to (e, 1); a clash means the monodromy
    # closure passes |D|
    group, _, candidates = case
    e = group.identity_rank
    for m in candidates:
        walk = skew_morphism(group.products(m.xs_ranks()), range(m.k), m.kappa, e)
        size, exceeded = monodromy_closure(*map_rows(m))
        if walk is None:
            assert exceeded, m
            continue
        assert size == m.n_arcs and not exceeded, m
        phi, delta = np.array(walk[0]), np.array(walk[1])
        arcs = np.arange(m.n_arcs)
        g, i = arcs // m.k, arcs % m.k
        Phi = phi[g] * m.k + (i + delta[g]) % m.k
        R, L = np.asarray(m._rotation_row), np.asarray(m._reversal_row)
        assert (np.sort(Phi) == arcs).all(), m
        assert (Phi[R] == R[Phi]).all() and (Phi[L] == L[Phi]).all(), m
        assert Phi[e * m.k] == e * m.k + 1, m


def test_walk_on_the_map_table_matches_the_walk_on_the_census_table(case):
    # a map walks its own N x k table with slots 0..k-1, the census its
    # group's whole table with the ranks as slots: the same verdict, the
    # same (phi, delta) and the same reversal row on every candidate
    group, _, candidates = case
    whole = classify._tables_of(group).table
    assert whole == group.products(range(group.order))
    elems, e = group.elements(), group.identity_rank
    for m in candidates:
        xs = m.xs_ranks()
        kappa0 = [xs.index(group.rank(group.inv(elems[r]))) for r in xs]
        assert tuple(kappa0) == m.kappa, m
        own = m._table
        assert own == [[row[x] for x in xs] for row in whole], m
        walk = skew_morphism(own, range(m.k), kappa0, e)
        assert walk == skew_morphism(whole, xs, kappa0, e), m
        assert (walk is not None) == m.is_regular(), m
        assert m._reversal_row == reversal_row(whole, xs, kappa0), m


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
    assume(len(closure(group, xset)) == group.order)
    m = build_map(group, data.draw(st.permutations(xset)))
    regular = closure_regular(*map_rows(m))
    assert m.is_regular() == regular, m
    if m.balance_type().is_balanced:
        assert m.balanced_regular_via_aut() == regular, m
    # and a balanced map x_(i+h) = x_i^-1 on h drawn inverse pairs: a
    # balanced map of odd valence has only involutions, so Z_n, Dic_n and the
    # products have balanced maps of even valence only
    pairs = [sorted(b, key=group.rank) for b in sorted(blocks, key=sorted) if len(b) == 2]
    ys = [b[0] for b in data.draw(st.permutations(pairs))[: (valence + 1) // 2]]
    balanced = ys + [group.inv(y) for y in ys]
    if len(balanced) >= 4 and len(closure(group, balanced)) == group.order:
        m = build_map(group, balanced)
        assert m.balance_type().is_balanced
        assert m.balanced_regular_via_aut() == closure_regular(*map_rows(m)), m


def test_rotation_automorphism_matches_references(case):
    _, _, candidates = case
    for m in candidates:
        check_rotation_automorphism(m)


def test_rotation_automorphism_on_more_maps():
    # Z5 with unit 3 and K4 on E2 with 01 -> 10 -> 11, and E4 beyond the
    # cases: the seed maps at p = 5 and 7, and each p = 7 seed with its
    # last three slots in every order
    assert check_rotation_automorphism(build_map(CyclicGroup(5), [1, 3, 4, 2])) == (
        0, 3, 1, 4, 2
    )
    assert check_rotation_automorphism(build_map(ElemAbelian2Group(2), [1, 2, 3])) == (
        0, 2, 3, 1
    )
    e4 = [elem_abelian_map(f, 5) for f in elem_abelian_seeds(4, 5)]
    for f in elem_abelian_seeds(4, 7):
        seed = elem_abelian_map(f, 7)
        e4 += [build_map(seed.group, seed.xs[:4] + t) for t in permutations(seed.xs[4:])]
    found = [check_rotation_automorphism(m) is not None for m in e4]
    assert any(found) and not all(found)


def test_candidate_zero_isomorphism_matches_full_sweep(case):
    _, _, candidates = case
    regular = [m for m in candidates if m.is_regular()]
    for m1 in regular:
        code = arc_code(m1._rotation_row, m1._reversal_row)
        for m2 in regular:
            isomorphic = maps_isomorphic(m1, m2)
            assert isomorphic == arc_bijection_exists(*map_rows(m1), *map_rows(m2)), (m1, m2)
            same_code = code == arc_code(m2._rotation_row, m2._reversal_row)
            assert same_code == isomorphic, (m1, m2)
            if isomorphic:
                # isomorphism invariants
                assert m1.faces_and_genus() == m2.faces_and_genus(), (m1, m2)
                assert m1.balance_type() == m2.balance_type(), (m1, m2)


def test_census_matches_slow_reference(case):
    group, valence, candidates = case
    regular = [m for m in candidates if closure_regular(*map_rows(m))]
    by_sweep = classes_by_sweep([map_rows(m) for m in regular])
    classes = [[regular[i] for i in cls] for cls in by_sweep]
    expected = sorted(
        min(cls, key=lambda mm: (mm.faces_and_genus()[1], mm.xs_ranks())).xs_ranks()
        for cls in classes
    )
    found = [m.xs_ranks() for m in exhaustive_regular_maps(group, valence)]
    assert found == expected


def reference_least_image(auts, orderings):
    """The least image of the orderings over every row of auts, each image
    rotated to start at its least rank."""
    images = []
    for s in orderings:
        for row in auts:
            image = [row[x] for x in s]
            i = image.index(min(image))
            images.append(tuple(image[i:] + image[:i]))
    return min(images)


def reference_rows(group, monkeypatch):
    """group.automorphism_ranks(), after which an affine group's rows are
    replaced by a stub that raises: its census images by arithmetic."""
    rows = group.automorphism_ranks()
    if isinstance(group, AFFINE):
        monkeypatch.setattr(group, "automorphism_ranks", no_rows)
    return rows


def test_least_image_matches_every_row(case, monkeypatch):
    # each class's representative, without the least-image shortcut
    group, valence, _ = case
    auts = reference_rows(group, monkeypatch)
    sets = inverse_closed_sets(group, valence)
    classes = _survivors_for_sets(group, valence, sets).values()
    expected = sorted(reference_least_image(auts, cls) for cls in classes)
    found = [m.xs_ranks() for m in exhaustive_regular_maps(group, valence)]
    assert found == expected


def test_least_image_of_any_rotation_matches_every_row(case, monkeypatch):
    # the census's orderings start at their set's least rank, and on CASES
    # their least images all come from rows fixing it; a rotated ordering,
    # regular or not, needs the rows sending a later slot to that rank
    group, valence, candidates = case
    auts = reference_rows(group, monkeypatch)
    for m in candidates[:: max(1, len(candidates) // 40)]:
        s = m.xs_ranks()
        for i in range(valence):
            rotated = s[i:] + s[:i]
            expected = reference_least_image(auts, [rotated])
            assert _least_image(group, [rotated]) == expected, (m, i)


@given(group=AFFINE_GROUPS, valence=st.sampled_from([3, 4, 5, 7]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_least_affine_image_of_any_ordering_matches_every_row(group, valence, data):
    # any ordering of any identity-free set, mostly inverse-closed, on
    # groups past CASES: powers of a in any slots, and none at all
    assume(group.order > 3)
    inv = [group.rank(group.inv(g)) for g in group.elements()]
    drawn = data.draw(
        st.lists(st.integers(1, group.order - 1), min_size=3, max_size=valence, unique=True)
    )
    xs = list(dict.fromkeys(y for x in drawn for y in (x, inv[x])))[:valence]
    s = tuple(data.draw(st.permutations(xs)))
    expected = reference_least_image(group.automorphism_ranks(), [s])
    assert _least_image(group, [s]) == expected, s


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


def gf2_rank(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


@lru_cache(maxsize=None)
def gl_seed_codes(r, p):
    """The arc codes of claim 1.1's seed maps by the sweep over GL(r, 2):
    every invertible A and nonzero x whose orbit x, Ax, ... first returns to
    x at step p and spans rank r, one x per orbit (a rotated generator list
    draws the same map), one code per kept orbit."""
    group = ElemAbelian2Group(r)
    codes = []
    for A in Gf2Matrix.enumerate_invertible(r):
        seen = set()
        for x in range(1, 1 << r):
            if x in seen:
                continue
            orbit = [x]
            while (y := A.apply(orbit[-1])) != x and len(orbit) <= p:
                orbit.append(y)
            seen.update(orbit)
            if len(orbit) == p and gf2_rank(orbit) == r:
                codes.append(build_map(group, orbit).arc_code())
    return tuple(codes)


def test_gl_seed_sweep_counts():
    # the sweep kept 6, 0, 168 and 336 pairs (A, x); one x per orbit of p
    assert len(gl_seed_codes(2, 3)) == 2
    assert len(gl_seed_codes(4, 3)) == 0  # 3-orbits span at most rank 3
    assert len(gl_seed_codes(3, 3)) == 56
    assert len(gl_seed_codes(3, 7)) == 48


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_divisor_seeds_match_gl_sweep(r, p):
    divisors = {elem_abelian_map(f, p).arc_code() for f in elem_abelian_seeds(r, p)}
    assert divisors == set(gl_seed_codes(r, p))
