"""The census's fast paths against the slow routes they replace.

Maps and the census decide regularity with one walk over the rank table
(`maps.skew_morphism`: does x_i -> x_(i+1) extend to a skew-morphism of the
group?), decide isomorphism between regular maps by comparing arc codes (the
breadth-first relabelling of R and L from arc 0, `maps.arc_code`), check
generation (FiniteGroup.generates) on the rank multiplication table, and
search one generating set per orbit of group.automorphism_ranks().
Here each is compared with its slow route on small groups of every family:
the monodromy closure (`monodromy_closure`, which lives only here) and the
arc permutation the walk's skew-morphism and power function define, which
must commute with R and L; the sweep over every image of arc 0; the
element-level breadth-first closure in the group (FiniteGroup.closure); and
the full search over every generating set (`reference_regular_maps`, which
lives only here). Each class's printed representative, the least image
under the rows for its least orbit minimum (`classify._least_image`), is
compared with the least image over every row of group.automorphism_ranks()
(`reference_least_image`, which lives only here). Claim 1.1's seed maps,
built from the divisors of t^p - 1 over GF(2), are compared with the sweep
over GL(r, 2) that they replace (`gl_seed_codes`, which lives only here). A map's rotation automorphism
(CayleyMap.rotation_automorphism, the walk with power function 1) is
compared with a propagation of phi(g * x_i) = phi(g) * x_(i+1) alone
(`reference_rotation_automorphism`, which lives only here) in every family,
and with the rows of Aut(G) that send each x_i to x_(i+1) where a reference
lists all of Aut(G): the automorphism_ranks() of Z_n and of D_n with n >= 3,
and GL(r, 2) for E_r (`Gf2Matrix`, which lives only here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleymaps._kernels import arc_bijection_exists, closure_table
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
)
from cayleymaps.maps import (
    CayleyMap,
    arc_code,
    build_map,
    maps_isomorphic,
    skew_morphism,
)

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


def closure_regular(m):
    """Regularity by the monodromy closure: <R, L> has exactly |D| elements."""
    size, exceeded = monodromy_closure(m)
    return size == m.n_arcs and not exceeded


def full_sweep_isomorphic(m1, m2):
    return m1.n_arcs == m2.n_arcs and arc_bijection_exists(
        m1._rotation_row, m1._reversal_row, m2._rotation_row, m2._reversal_row
    )


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
    None: one breadth-first propagation over the rank table from phi(e) = e
    setting phi(g * x_i) = phi(g) * x_(i+1), None at the first clash. The
    generators reach every element; with every edge consistent,
    phi(g * h) = phi(g) * phi(h) follows word by word in h, and phi is onto
    since its image holds every x_(i+1). Conversely an automorphism psi with
    psi(x_i) = x_(i+1) satisfies every equation, so the propagation never
    clashes."""
    mul = m.group.rank_table()[0]
    xs = m.xs_ranks()
    next_xs = xs[1:] + xs[:1]
    identity = m.group.identity_rank
    phi = [-1] * m.group.order
    phi[identity] = identity
    reached = [identity]
    for g in reached:  # the list grows while it is read: a queue
        row, image_row = mul[g], mul[phi[g]]
        for x, y in zip(xs, next_xs):
            h, image = row[x], image_row[y]
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
        mul = np.array(m.group.rank_table()[0])
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
    auts = np.asarray(group.automorphism_ranks())
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


ORBIT_CASES = [
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
    auts = np.asarray(group.automorphism_ranks())
    return sorted(
        {
            min(map(tuple, np.sort(auts[:, list(xset)], axis=1).tolist()))
            for xset in full_inverse_closed_sets(group, valence)
        }
    )


@pytest.mark.parametrize("block", [1, 2, 7, 1000])
def test_orbit_block_size_does_not_change_the_representatives(block, monkeypatch):
    # the census tests each set only under the rows sending one of its ranks
    # to its least rank, and stops at the first smaller image; so the rows of
    # group.automorphism_ranks() are reversed in blocks of this size, which
    # changes the row that stops each test but not the representatives.
    # Block 1 keeps the order, 1000 reverses every group's rows whole
    for group, valence in ORBIT_CASES:
        rows = group.automorphism_ranks()
        reordered = [row for i in range(0, len(rows), block) for row in rows[i : i + block][::-1]]
        monkeypatch.setattr(group, "automorphism_ranks", lambda reordered=reordered: reordered)
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


def test_skew_morphism_defines_a_map_automorphism(case):
    # a walk without a clash gives the arc permutation
    # Phi(g, i) = (phi(g), i + delta(g)), which commutes with R and L and
    # sends the base arc (e, 0) to (e, 1); a clash means the monodromy
    # closure passes |D|
    group, _, candidates = case
    e = group.identity_rank
    for m in candidates:
        kappa0 = [m.kappa(i) - 1 for i in range(1, m.k + 1)]
        walk = skew_morphism(group, m.xs_ranks(), kappa0)
        size, exceeded = monodromy_closure(m)
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
    regular = closure_regular(m)
    assert m.is_regular() == regular, m
    if m.balance_type().is_balanced:
        assert m.balanced_regular_via_aut() == regular, m
    # and a balanced map x_(i+h) = x_i^-1 on h drawn inverse pairs: a
    # balanced map of odd valence has only involutions, so Z_n, Dic_n and the
    # products have balanced maps of even valence only
    pairs = [sorted(b, key=group.rank) for b in sorted(blocks, key=sorted) if len(b) == 2]
    ys = [b[0] for b in data.draw(st.permutations(pairs))[: (valence + 1) // 2]]
    balanced = ys + [group.inv(y) for y in ys]
    if len(balanced) >= 4 and len(group.closure(balanced)) == group.order:
        m = build_map(group, balanced)
        assert m.balance_type().is_balanced
        assert m.balanced_regular_via_aut() == closure_regular(m), m


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
        if not closure_regular(m):
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


def test_least_image_matches_every_row(case):
    # each class's representative, without the least-image shortcut
    group, valence, _ = case
    auts = group.automorphism_ranks()
    sets = inverse_closed_sets(group, valence)
    classes = _survivors_for_sets(group, valence, sets).values()
    expected = sorted(reference_least_image(auts, cls) for cls in classes)
    found = [m.xs_ranks() for m in exhaustive_regular_maps(group, valence)]
    assert found == expected


def test_least_image_of_any_rotation_matches_every_row(case):
    # the census's orderings start at their set's least rank, and on CASES
    # their least images all come from rows fixing it; a rotated ordering,
    # regular or not, needs the rows sending a later slot to that rank
    group, valence, candidates = case
    auts = group.automorphism_ranks()
    for m in candidates[:: max(1, len(candidates) // 40)]:
        s = m.xs_ranks()
        for i in range(valence):
            rotated = s[i:] + s[:i]
            expected = reference_least_image(auts, [rotated])
            assert _least_image(group, [rotated]) == expected, (m, i)


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
