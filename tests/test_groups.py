"""Group arithmetic tests against independent oracle representations.

The dihedral oracle realizes a^i * b^eps as the affine map x -> i + (-1)^eps x
on residues mod n; the dicyclic oracle realizes a and b as 2x2 matrices over a
prime field F_q with 2n | q - 1.  Both are built from scratch here so they
share no code with the library.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymaps.groups import (
    AbelianProductGroup,
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
)
from reference import closure

SMALL_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(6),
    CyclicGroup(12),
    ElemAbelian2Group(1),
    ElemAbelian2Group(3),
    DihedralGroup(1),
    DihedralGroup(5),
    DihedralGroup(8),
    DicyclicGroup(2),
    DicyclicGroup(5),
]


# -- independent oracles -----------------------------------------------------


def dihedral_affine(n: int, g: tuple[int, int]) -> tuple[int, ...]:
    """a^i * b^eps as the affine map x -> i + (-1)^eps x on Z_n."""
    i, e = g
    sign = -1 if e else 1
    return tuple((i + sign * x) % n for x in range(n))


def compose_maps(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[x]] for x in range(len(p)))


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))


def dicyclic_matrices(n: int):
    """Map each (i, eps) to Z^i * B^eps over F_q, picking q with 2n | q - 1."""
    q = next(q for q in itertools.count(3) if is_prime(q) and (q - 1) % (2 * n) == 0)
    zeta = next(
        z
        for z in range(2, q)
        if pow(z, 2 * n, q) == 1 and all(pow(z, d, q) != 1 for d in range(1, 2 * n))
    )

    def mat_mul(A, B):
        return (
            (
                (A[0][0] * B[0][0] + A[0][1] * B[1][0]) % q,
                (A[0][0] * B[0][1] + A[0][1] * B[1][1]) % q,
            ),
            (
                (A[1][0] * B[0][0] + A[1][1] * B[1][0]) % q,
                (A[1][0] * B[0][1] + A[1][1] * B[1][1]) % q,
            ),
        )

    a_mat = ((zeta, 0), (0, pow(zeta, q - 2, q)))
    b_mat = ((0, q - 1), (1, 0))
    table = {}
    for i in range(2 * n):
        acc = ((1, 0), (0, 1))
        for _ in range(i):
            acc = mat_mul(acc, a_mat)
        table[(i, 0)] = acc
        table[(i, 1)] = mat_mul(acc, b_mat)
    return table, mat_mul


# -- representation cross-checks ---------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_dihedral_mul_matches_affine_representation(n):
    G = DihedralGroup(n)
    rep = {g: dihedral_affine(n, g) for g in G.elements()}
    assert len(set(rep.values())) == G.order
    one = tuple(range(n))
    for g in G.elements():
        assert compose_maps(rep[g], rep[G.inv(g)]) == one
        for h in G.elements():
            assert rep[G.mul(g, h)] == compose_maps(rep[g], rep[h])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_dicyclic_mul_matches_matrix_representation(n):
    G = DicyclicGroup(n)
    rep, mat_mul = dicyclic_matrices(n)
    assert len(set(rep.values())) == G.order
    one = ((1, 0), (0, 1))
    for g in G.elements():
        assert mat_mul(rep[g], rep[G.inv(g)]) == one
        for h in G.elements():
            assert rep[G.mul(g, h)] == mat_mul(rep[g], rep[h])


# -- group axioms -------------------------------------------------------------


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda G: G.name)
def test_identity_and_inverse_laws(G):
    e = G.identity
    for g in G.elements():
        assert G.mul(e, g) == g
        assert G.mul(g, e) == g
        assert G.mul(g, G.inv(g)) == e
        assert G.mul(G.inv(g), g) == e


@pytest.mark.parametrize("G", [G for G in SMALL_GROUPS if G.order <= 48], ids=lambda G: G.name)
def test_associativity_exhaustive(G):
    els = G.elements()
    for g in els:
        for h in els:
            gh = G.mul(g, h)
            for k in els:
                assert G.mul(gh, k) == G.mul(g, G.mul(h, k))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_associativity_sampled(data):
    G = data.draw(st.sampled_from(SMALL_GROUPS))
    idx = st.integers(min_value=0, max_value=G.order - 1)
    g, h, k = (G.elements()[data.draw(idx)] for _ in range(3))
    assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))


# -- family-specific facts -----------------------------------------------------


def test_dihedral_reflection_rules():
    G = DihedralGroup(5)
    ab = G.mul((1, 0), (0, 1))
    assert ab == (1, 1)
    assert G.mul(ab, ab) == G.identity
    assert G.mul((2, 1), (3, 0)) == (4, 1)


def test_dicyclic_b_squared_is_a_to_the_n():
    G = DicyclicGroup(2)
    assert G.mul((0, 1), (0, 1)) == (2, 0)
    assert G.inv((0, 1)) == (2, 1)
    assert G.mul((0, 1), (2, 1)) == G.identity


def test_dicyclic_conjugation_inverts_a():
    G = DicyclicGroup(3)
    b_inv = G.inv((0, 1))
    conj = G.mul(b_inv, G.mul((1, 0), (0, 1)))
    assert conj == G.inv((1, 0))


def test_inverse_examples_against_scan():
    cases = [
        (DihedralGroup(7), (3, 1)),
        (CyclicGroup(6), 1),
        (DicyclicGroup(3), (0, 1)),
    ]
    for G, g in cases:
        scan = [h for h in G.elements() if G.mul(g, h) == G.identity]
        assert scan == [G.inv(g)]
    assert DihedralGroup(7).inv((3, 1)) == (3, 1)
    assert CyclicGroup(6).inv(1) == 5
    assert DicyclicGroup(3).inv((0, 1)) == (3, 1)


def involutions(G):
    """The elements of order 2, in rank order."""
    e = G.identity
    return [g for g in G.elements() if g != e and G.mul(g, g) == e]


def test_dihedral_involution_structure():
    assert set(involutions(DihedralGroup(4))) == {(2, 0), (0, 1), (1, 1), (2, 1), (3, 1)}
    for n in range(1, 13):
        G = DihedralGroup(n)
        expected = {(i, 1) for i in range(n)}
        if n % 2 == 0:
            expected.add((n // 2, 0))
        assert set(involutions(G)) == expected


def test_dicyclic_unique_involution():
    for n in range(2, 13):
        G = DicyclicGroup(n)
        assert involutions(G) == [(n, 0)]


def test_elem_abelian_involutions_are_all_nonzero_vectors():
    assert involutions(ElemAbelian2Group(2)) == [1, 2, 3]


# -- closure and generation -----------------------------------------------------


def test_closure_examples():
    G = DihedralGroup(6)
    assert G.generates({(0, 1), (1, 1)})
    assert not G.generates({(2, 0), (0, 1)})
    assert len(closure(G, {(2, 0), (0, 1)})) == 6
    assert CyclicGroup(6).generates({1, 3, 5})
    assert closure(G, []) == {G.identity}


def test_closure_matches_naive_product_saturation():
    G = DicyclicGroup(3)
    seed = [(1, 0), (0, 1)]
    got = closure(G, seed)
    full = set(seed) | {G.identity}
    changed = True
    while changed:
        changed = False
        for g, h in list(itertools.product(full, repeat=2)):
            gh = G.mul(g, h)
            if gh not in full:
                full.add(gh)
                changed = True
    assert got == full == set(G.elements())


# subgroups of index 2, by a generating seed: the rotations <a> of D_n and
# Dic_n, the even residues of Z_2n, and a coordinate hyperplane of E_r
INDEX_TWO = (
    [(DihedralGroup(n), [(1, 0)]) for n in (2, 3, 4, 7, 12)]
    + [(DicyclicGroup(n), [(1, 0)]) for n in (2, 3, 5)]
    + [(CyclicGroup(2 * n), [2]) for n in (2, 3, 8)]
    + [(ElemAbelian2Group(r), [1 << i for i in range(r - 1)]) for r in (1, 2, 3, 4)]
)


@pytest.mark.parametrize(
    "G, seed", INDEX_TWO, ids=[f"{G.name}-{seed}" for G, seed in INDEX_TWO]
)
def test_generates_rejects_index_two_subgroups(G, seed):
    # generates stops once it has found more than half the group; a subgroup
    # of exactly half is proper and must still be rejected
    sub = closure(G, seed)
    assert 2 * len(sub) == G.order
    assert not G.generates(seed)
    # one more element outside it takes the search just past half: all of G
    for g in G.elements():
        if g not in sub:
            assert G.generates(seed + [g])
            assert len(closure(G, seed + [g])) == G.order


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda G: G.name)
def test_generates_matches_closure_on_every_pair(G):
    elems = G.elements()
    assert elems[G.identity_rank] == G.identity
    for (i, g), (j, h) in itertools.combinations_with_replacement(enumerate(elems), 2):
        expected = len(closure(G, [g, h])) == G.order
        assert G.generates([g, h]) == G.generates_ranks([i, j]) == expected, (g, h)


# -- element encoding --------------------------------------------------------------


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda G: G.name)
def test_format_parse_round_trip(G):
    for g in G.elements():
        assert G.parse_element(G.format_element(g)) == g


def test_parse_dihedral_syntax():
    G = DihedralGroup(7)
    assert G.parse_element("a^3*b") == (3, 1)
    assert G.parse_element("b") == (0, 1)
    assert G.parse_element("a") == (1, 0)
    assert G.parse_element("e") == (0, 0)
    assert G.parse_element("a^-1") == (6, 0)
    with pytest.raises(ValueError):
        G.parse_element("c")
    with pytest.raises(ValueError):
        G.parse_element("b*a")
    # more digits than Python converts: refused as unparsed, not by int()
    with pytest.raises(ValueError, match="cannot parse"):
        G.parse_element("a^" + "4" * 4_400)


def test_parse_bit_strings():
    G = ElemAbelian2Group(4)
    assert G.parse_element("1010") == 0b0101
    assert G.format_element(0b0101) == "1010"
    with pytest.raises(ValueError):
        G.parse_element("10")
    with pytest.raises(ValueError):
        G.parse_element("102 ")


def test_rank_is_position_in_canonical_order():
    for G in SMALL_GROUPS:
        for idx, g in enumerate(G.elements()):
            assert G.rank(g) == idx


def test_membership_errors():
    for G, good, bad in (
        (CyclicGroup(4), 1, 4),
        (ElemAbelian2Group(2), 1, 4),
        (DihedralGroup(5), (1, 1), (5, 0)),
        (DicyclicGroup(3), (1, 1), (6, 0)),
        (AbelianProductGroup([2, 4]), (1, 3), (2, 0)),
    ):
        assert G.contains(good) and not G.contains(bad)
        with pytest.raises(ValueError):
            G.mul(bad, good)
        with pytest.raises(ValueError):
            G.mul(good, bad)
    with pytest.raises(ValueError):
        DihedralGroup(5).rank((0, 2))
    with pytest.raises(ValueError):
        CyclicGroup(4).inv(4)


def test_constructor_guards():
    with pytest.raises(ValueError):
        DicyclicGroup(1)
    with pytest.raises(ValueError):
        CyclicGroup(0)
    with pytest.raises(ValueError):
        ElemAbelian2Group(0)
    with pytest.raises(ValueError):
        DihedralGroup(0)
