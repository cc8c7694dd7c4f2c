"""Cayley map structure tests: rotation, reversal, balance, genus, symmetry.

Frozen counts (face counts, monodromy orders, graph automorphism orders) were
derived with a from-scratch census/automorphism oracle kept outside the
package; textbook values (Aut(K4) = 24, Aut(K33) = 72, Heawood = 336) agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymaps import maps
from cayleymaps.classify import entry_for_map
from cayleymaps.groups import (
    CyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
)
from cayleymaps.maps import (
    BalanceType,
    SizeGuardError,
    build_map,
    maps_isomorphic,
)
from cayleymaps.perms import cycle_string
from reference import closure_regular


def heawood_map():
    return build_map(DihedralGroup(7), [(0, 1), (1, 1), (3, 1)])


def heawood_mirror():
    return build_map(DihedralGroup(7), [(0, 1), (1, 1), (5, 1)])


def k33_map():
    return build_map(CyclicGroup(6), [1, 3, 5])


def k4_map():
    return build_map(ElemAbelian2Group(2), [1, 2, 3])


def cube_map():
    return build_map(ElemAbelian2Group(3), [1, 2, 4])


# -- validation ---------------------------------------------------------------


def test_build_map_accepts_reference_examples():
    assert k33_map().k == 3
    assert heawood_map().n_arcs == 42


def test_build_map_rejects_non_inverse_closed():
    with pytest.raises(ValueError, match="inverse-closed"):
        build_map(CyclicGroup(6), [1, 2, 3])


def test_build_map_rejects_identity_duplicates_small_k():
    with pytest.raises(ValueError, match="unit-free"):
        build_map(CyclicGroup(6), [0, 1, 5])
    with pytest.raises(ValueError, match="duplicates"):
        build_map(CyclicGroup(6), [1, 1, 5])
    with pytest.raises(ValueError, match="at least 3"):
        build_map(CyclicGroup(6), [1, 5])


def test_build_map_rejects_non_generating_set():
    with pytest.raises(ValueError, match="generate"):
        build_map(DihedralGroup(6), [(2, 0), (4, 0), (3, 0)])


# -- arc permutations -----------------------------------------------------------


# arcs are numbered (vertex rank) * k + (slot - 1)


def test_step_r_wraps_the_star():
    rot = k33_map()._rotation_row
    assert rot[2] == 0  # (0, slot 3) -> (0, slot 1)
    assert rot[12] == 13  # (4, slot 1) -> (4, slot 2)


def test_step_l_example():
    # (0, slot 1) -> (0 + 1, slot of 1^-1 = 5, which is 3)
    assert k33_map()._reversal_row[0] == 5


def test_reversal_is_fixed_point_free_involution():
    for m in (k33_map(), heawood_map(), k4_map()):
        rev = np.asarray(m._reversal_row)
        assert np.array_equal(rev[rev], np.arange(m.n_arcs))
        assert (rev != np.arange(m.n_arcs)).all()


def test_rotation_orbits_are_vertex_stars():
    for m in (k33_map(), heawood_map()):
        rot = m._rotation_row
        seen = set()
        orbits = 0
        for start in range(m.n_arcs):
            if start in seen:
                continue
            orbits += 1
            size = 0
            a = start
            while a not in seen:
                seen.add(a)
                size += 1
                a = int(rot[a])
            assert size == m.k
        assert orbits == m.group.order


# -- distribution of inverses ----------------------------------------------------


def test_kappa_examples():
    assert k33_map().kappa == (2, 1, 0)
    assert cycle_string(k33_map().kappa) == "(1 3)"

    odd10 = build_map(CyclicGroup(10), [1, 3, 5, 7, 9])
    assert odd10.kappa == (4, 3, 2, 1, 0)

    assert heawood_map().kappa == (0, 1, 2)
    assert cycle_string(heawood_map().kappa) == "id"


def test_canonical_base_rotation_moves_self_inverse_last():
    rotated = k33_map().canonical_base_rotation()
    assert rotated.xs == (5, 1, 3)
    assert rotated.kappa == (1, 0, 2)

    odd10 = build_map(CyclicGroup(10), [1, 3, 5, 7, 9])
    assert odd10.canonical_base_rotation().xs == (7, 9, 1, 3, 5)


def test_canonical_base_rotation_identity_kappa_picks_lex_smallest():
    m = build_map(DihedralGroup(7), [(1, 1), (3, 1), (0, 1)])
    assert m.canonical_base_rotation().xs == ((0, 1), (1, 1), (3, 1))


def test_canonical_base_rotation_requires_fixed_point():
    m = build_map(CyclicGroup(5), [1, 4, 2, 3])
    assert all(m.kappa[i] != i for i in range(m.k))
    with pytest.raises(ValueError, match="self-inverse"):
        m.canonical_base_rotation()


# -- regularity -------------------------------------------------------------------


def test_monodromy_and_regularity_frozen_values():
    m = heawood_map()
    assert entry_for_map(m, 7, "x").mon_order == 42
    assert m.is_regular()

    assert entry_for_map(k33_map(), 6, "x").mon_order == 18
    assert k33_map().is_regular()

    irregular = build_map(DihedralGroup(4), [(0, 1), (1, 1), (2, 1)])
    assert entry_for_map(irregular, 4, "x").mon_order == ">25"
    assert not irregular.is_regular()


def test_both_regularity_routes_agree():
    candidates = [
        heawood_map(),
        heawood_mirror(),
        k33_map(),
        k4_map(),
        cube_map(),
        build_map(DihedralGroup(4), [(0, 1), (1, 1), (2, 1)]),
        build_map(DihedralGroup(5), [(0, 1), (1, 1), (2, 1)]),
        build_map(CyclicGroup(10), [1, 3, 5, 7, 9]),
        build_map(CyclicGroup(8), [1, 4, 7]),
    ]
    for m in candidates:
        assert m.is_regular() == closure_regular(m._rotation_row, m._reversal_row), m


def test_a_map_computes_only_its_own_products(monkeypatch):
    # its rows, its walk, its faces and its arc code read the N x k products
    # of X alone: 202 x 3 on D101, and no whole-group table
    products = []
    real = DihedralGroup._mul
    monkeypatch.setattr(
        DihedralGroup, "_mul", lambda self, g, h: products.append(h) or real(self, g, h)
    )
    m = build_map(DihedralGroup(101), [(0, 1), (1, 1), (3, 1)])
    m.is_regular()
    m.rotation_automorphism()
    m.faces_and_genus()
    m.arc_code()
    assert len(products) == 202 * 3
    assert set(products) == set(m.xs)


# -- balance ----------------------------------------------------------------------


def test_balance_examples():
    assert heawood_map().balance_type() == BalanceType("balanced", 1)
    assert k33_map().balance_type() == BalanceType("anti-balanced", 2)
    assert k4_map().balance_type() == BalanceType("balanced", 1)
    odd10 = build_map(CyclicGroup(10), [1, 3, 5, 7, 9])
    assert odd10.balance_type() == BalanceType("anti-balanced", 4)
    assert str(odd10.balance_type()) == "anti-balanced"


def test_balance_none_when_no_power_works():
    m = build_map(DihedralGroup(6), [(1, 0), (5, 0), (0, 1), (1, 1), (2, 1)])
    assert m.kappa == (1, 0, 2, 3, 4)
    assert m.balance_type() == BalanceType("none")


def test_all_involution_sets_are_balanced():
    m = build_map(DihedralGroup(5), [(0, 1), (2, 1), (1, 1)])
    assert m.kappa == tuple(range(m.k))
    assert m.balance_type().is_balanced


def test_balanced_regular_via_aut():
    m = heawood_map()
    assert m.balanced_regular_via_aut()
    # a -> a^2, b -> a * b: rank e * 7 + i goes to e * 7 + (2 * i + e) % 7
    assert m.rotation_automorphism() == tuple(
        e * 7 + (2 * i + e) % 7 for e in (0, 1) for i in range(7)
    )

    irregular = build_map(DihedralGroup(4), [(0, 1), (1, 1), (2, 1)])
    assert not irregular.balanced_regular_via_aut()

    seeded_k4 = k4_map()
    assert seeded_k4.balanced_regular_via_aut()


# -- isomorphism --------------------------------------------------------------------


def test_map_isomorphism_spec_examples():
    assert not maps_isomorphic(heawood_map(), heawood_mirror())
    assert maps_isomorphic(heawood_map(), heawood_map())
    assert not maps_isomorphic(heawood_map(), k33_map())


def test_k33_map_is_isomorphic_to_its_mirror():
    # derived with the scratch census oracle: both orderings survive and fuse
    mirror = build_map(CyclicGroup(6), [1, 5, 3])
    assert maps_isomorphic(k33_map(), mirror)


def test_isomorphism_is_equivalence_on_small_pool():
    pool = [heawood_map(), heawood_mirror(), k33_map(), k4_map(), cube_map()]
    for m in pool:
        assert maps_isomorphic(m, m)
    for m1 in pool:
        for m2 in pool:
            assert maps_isomorphic(m1, m2) == maps_isomorphic(m2, m1)


# -- faces and genus -----------------------------------------------------------------


def test_faces_and_genus_frozen_values():
    assert k4_map().faces_and_genus() == (4, 0)
    assert heawood_map().faces_and_genus() == (7, 1)
    assert k33_map().faces_and_genus() == (3, 1)
    assert cube_map().faces_and_genus() == (4, 1)


def test_face_sizes_partition_arcs_and_equal_for_regular():
    for m in (k4_map(), heawood_map(), k33_map(), cube_map()):
        sizes = m.face_sizes()
        assert sum(sizes) == m.n_arcs
        assert len(set(sizes)) == 1


def test_face_sizes_partition_for_irregular_map_too():
    m = build_map(DihedralGroup(5), [(0, 1), (1, 1), (2, 1)])
    assert sum(m.face_sizes()) == m.n_arcs


# -- translations are map automorphisms ------------------------------------------------


@pytest.mark.parametrize("factory", [k4_map, k33_map, heawood_map, cube_map])
def test_left_translations_commute_with_rotation_and_reversal(factory):
    m = factory()
    if m.n_arcs > 200:
        pytest.skip("translation sweep capped at 200 arcs")
    group = m.group
    rot, rev = np.asarray(m._rotation_row), np.asarray(m._reversal_row)
    for g in group.elements():
        images = np.empty(m.n_arcs, dtype=np.int64)
        for v_rank, v in enumerate(group.elements()):
            gv = group.rank(group.mul(g, v))
            for slot in range(m.k):
                images[v_rank * m.k + slot] = gv * m.k + slot
        assert np.array_equal(images[rot], rot[images])
        assert np.array_equal(images[rev], rev[images])


# -- underlying graph probes -------------------------------------------------------------


def test_underlying_adjacency_of_k33():
    adj = k33_map().underlying_adjacency()
    odd_mask = sum(1 << v for v in (1, 3, 5))
    even_mask = sum(1 << v for v in (0, 2, 4))
    for v in range(6):
        assert adj[v] == (odd_mask if v % 2 == 0 else even_mask)


def test_graph_aut_orders_known_graphs():
    assert k4_map().graph_aut_order() == 24
    assert k33_map().graph_aut_order() == 72
    assert cube_map().graph_aut_order() == 48
    assert heawood_map().graph_aut_order() == 336


def test_heawood_is_not_one_regular():
    assert not heawood_map().is_one_regular()
    assert not heawood_map().is_normal_cayley()


def test_k4_and_cube_are_normal():
    assert k4_map().is_normal_cayley()
    assert cube_map().is_normal_cayley()


def test_k33_translations_are_not_normal():
    # frozen via scratch conjugation oracle: Aut(K33) has order 72 but the
    # cyclic translation subgroup is not normal inside it
    assert not k33_map().is_normal_cayley()


def test_one_regular_positive_case():
    # frozen via scratch oracle: graph-aut order 78 equals the arc count
    m = build_map(DihedralGroup(13), [(0, 1), (1, 1), (4, 1)])
    assert m.graph_aut_order() == 78
    assert m.is_one_regular()
    assert m.is_normal_cayley()


def test_circulant_with_diameter_is_normal_but_not_one_regular():
    # frozen via scratch oracle: aut order 20 < 30 arcs
    m = build_map(CyclicGroup(10), [1, 9, 5])
    assert m.graph_aut_order() == 20
    assert not m.is_one_regular()
    assert m.is_normal_cayley()


def test_graph_automorphisms_are_automorphisms():
    m = k33_map()
    adj = m.underlying_adjacency()
    for alpha in m.graph_automorphisms():
        for u in range(6):
            image_nbrs = 0
            nbrs = adj[u]
            while nbrs:
                v = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                image_nbrs |= 1 << alpha[v]
            assert image_nbrs == adj[alpha[u]]


def test_graph_aut_size_guard():
    m = build_map(CyclicGroup(66), [1, 65, 33])
    with pytest.raises(SizeGuardError):
        m.graph_aut_order()


def test_graph_aut_count_guard(monkeypatch):
    # K4 has 24 automorphisms: a bound of 24 lists them all, 23 refuses
    monkeypatch.setattr(maps, "GRAPH_AUT_MAX_COUNT", 24)
    assert k4_map().graph_aut_order() == 24
    monkeypatch.setattr(maps, "GRAPH_AUT_MAX_COUNT", 23)
    with pytest.raises(SizeGuardError, match="over 23 graph automorphisms"):
        k4_map().graph_aut_order()


# -- property sweeps -------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_reflection_maps_are_wellformed(data):
    n = data.draw(st.integers(min_value=3, max_value=9))
    k = data.draw(st.integers(min_value=3, max_value=min(n, 5)))
    exps = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    G = DihedralGroup(n)
    xs = [(e, 1) for e in exps]
    if not G.generates(xs):
        return
    m = build_map(G, xs)
    assert m.kappa == tuple(range(m.k))
    assert m.balance_type().is_balanced
    faces, genus = m.faces_and_genus()
    assert genus >= 0
    assert sum(m.face_sizes()) == m.n_arcs
    assert m.balanced_regular_via_aut() == closure_regular(m._rotation_row, m._reversal_row)
    assert m.is_regular() == m.balanced_regular_via_aut()
