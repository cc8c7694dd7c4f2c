"""Closed-form constructions, the counting formula, the exhaustive search
oracle, and the named claim verifiers, cross-checked against naive
reimplementations wherever a value is derived rather than hand-checkable."""

from __future__ import annotations

import ast
import concurrent.futures
import math
import os
from itertools import combinations
from pathlib import Path

import pytest

from cayleymaps import claims, classify, counting, maps
from cayleymaps.claims import (
    affine_compatible_involutions,
    antibalanced_cyclic_map,
    balanced_dihedral_map,
    elem_abelian_map,
    elem_abelian_seeds,
    verify_claim,
)
from cayleymaps.classify import (
    CSV_COLUMNS,
    CensusEntry,
    census_entries,
    cyclic_orderings,
    entry_for_map,
    exhaustive_regular_maps,
    family_groups,
    guarded_targets,
    inverse_closed_sets,
)
from cayleymaps.counting import (
    CLAIM_IDS,
    UsageError,
    count_agreement,
    count_regular_dihedral_maps,
    crt_lift_solutions,
    geosum_order,
    triples_for,
)
from cayleymaps.groups import (
    AbelianProductGroup,
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
)
from cayleymaps.maps import SizeGuardError, build_map, maps_isomorphic
from cayleymaps.perms import Permutation, all_involutions, reflection_fixing_last


# -- geometric-sum orders and admissible parameters ----------------------------


def naive_geosum_order(n: int, l: int, k_max: int):
    """Direct scan: smallest k with 1 + l + ... + l^(k-1) divisible by n,
    on the exact unreduced integer sum, extended by one term per k."""
    total = 0
    term = 1
    for k in range(1, k_max + 1):
        total += term
        if total % n == 0:
            return k
        term *= l
    return None


def scalar_triples_for(n: int, p: int) -> list[int]:
    """Reference route for triples_for: the per-l scalar loop over the first
    p partial sums mod n, in Python integers."""
    out = []
    for l in range(1, n):
        s = 0
        power = 1
        hit = None
        for k in range(1, p + 1):
            s = (s + power) % n
            if s == 0:
                hit = k
                break
            power = (power * l) % n
        if hit == p:
            out.append(l)
    return out


def pow_roots(q: int, e: int, p: int) -> list[int]:
    """Reference route for the roots crt_lift_solutions scans for: the x in
    [1, q^e) with x^p = 1 mod q^e and x != 1 mod q, by Python's pow."""
    qe = q**e
    return [x for x in range(1, qe) if pow(x, p, qe) == 1 and x % q != 1]


def reference_factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs by trial division by every integer from 2."""
    out, q = [], 2
    while n > 1:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += 1
    return out


def empty_count_memos() -> None:
    counting._triples.cache_clear()
    counting._prime_power_roots.cache_clear()


@pytest.fixture
def fresh_root_memo():
    """Empty the triples and prime-power root memos, so every scan in the
    test runs."""
    empty_count_memos()
    yield
    empty_count_memos()


@pytest.fixture
def scan_blocks(monkeypatch):
    """The block sizes the residue scans run with, so that a test patching
    COUNT_BLOCK can check that the scans saw the patch."""
    seen = set()
    residue_blocks = counting._residue_blocks

    def recorded(m, block):
        seen.add(block)
        return residue_blocks(m, block)

    monkeypatch.setattr(counting, "_residue_blocks", recorded)
    return seen


class TestGeosumOrder:
    def test_spot_values(self):
        # 1 + 2 + 4 = 7 and 1 + 4 + 16 = 21 = 3 * 7
        assert geosum_order(7, 2) == 3
        assert geosum_order(7, 4) == 3
        # 1 + 3 = 4, 1 + 3 + 9 = 13, ... first hit at k = 6
        assert geosum_order(7, 3) == 6
        # 1 + 1 + 1 = 3
        assert geosum_order(3, 1) == 3
        assert geosum_order(13, 3) == 3

    def test_matches_naive_scan(self):
        for n in range(2, 26):
            for l in range(1, n):
                assert geosum_order(n, l) == naive_geosum_order(n, l, n * n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            geosum_order(7, 0)
        with pytest.raises(ValueError):
            geosum_order(7, 7)


class TestTriples:
    def test_spot_values(self):
        assert triples_for(7, 3) == [2, 4]
        assert triples_for(13, 3) == [3, 9]
        assert triples_for(21, 3) == [4, 16]
        assert triples_for(3, 3) == [1]
        assert triples_for(9, 3) == []
        assert triples_for(15, 3) == []
        assert triples_for(11, 5) == [3, 4, 5, 9]
        assert triples_for(1, 3) == []

    def test_matches_geosum_filter(self):
        for p in (3, 5, 7):
            for n in range(2, 41):
                expected = [l for l in range(1, n) if geosum_order(n, l) == p]
                assert triples_for(n, p) == expected
        # every n < p, which triples_for answers without a scan, and n = p,
        # where l = 1 has order p
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            for n in range(1, p + 1):
                expected = [l for l in range(1, n) if geosum_order(n, l) == p]
                assert triples_for(n, p) == expected, (n, p)

    def test_all_parameters_coprime(self):
        for p in (3, 5, 7):
            for n in range(2, 61):
                for l in triples_for(n, p):
                    assert math.gcd(l, n) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_scalar_loop_at_block_boundaries(self, p):
        # one block short, exactly one, one into the second, one into the
        # third; above 65536 the products l * l exceed 2^32
        chunk = counting.COUNT_BLOCK
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            assert triples_for(n, p) == scalar_triples_for(n, p), n

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    def test_horner_scan_matches_scalar_loop(
        self, p, block, monkeypatch, fresh_root_memo, scan_blocks
    ):
        # tiny blocks put l = n - 1 (where S_2 = n) and admissible l on
        # block edges; at 1 and 2 every l is on one, so n <= 100 suffices;
        # n = p and p^2 are where p divides n
        if block is not None:
            monkeypatch.setattr(counting, "COUNT_BLOCK", block)
        n_top = 100 if block in (1, 2) else 300
        for n in sorted({1, 2, 3, p, p * p, *range(1, n_top + 1)}):
            assert triples_for(n, p) == scalar_triples_for(n, p), (n, p)
        assert scan_blocks == {counting.COUNT_BLOCK}

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_block_size_does_not_change_the_scans(
        self, block, monkeypatch, fresh_root_memo, scan_blocks
    ):
        # tiny blocks put many admissible l and roots on a block boundary
        monkeypatch.setattr(counting, "COUNT_BLOCK", block)
        for p in (3, 5, 7):
            for n in range(1, 100):
                assert triples_for(n, p) == scalar_triples_for(n, p), (n, p)
            for q, e in ((7, 2), (13, 1), (29, 1), (31, 1)):
                if q != p:
                    assert crt_lift_solutions(q**e, p) == pow_roots(q, e, p)
        assert scan_blocks == {block}

    def test_another_block_size_scans_the_roots_again(
        self, monkeypatch, fresh_root_memo
    ):
        # the root memo must not answer a scan under a patched COUNT_BLOCK
        # with roots found under the default one
        q, e, p = 7, 2, 3
        assert crt_lift_solutions(q**e, p) == pow_roots(q, e, p)
        calls = []
        pow_mod = counting._pow_mod

        def counted(*args):
            calls.append(args)
            return pow_mod(*args)

        monkeypatch.setattr(counting, "_pow_mod", counted)
        assert crt_lift_solutions(q**e, p) == pow_roots(q, e, p)
        assert calls == []  # same block size: the memo answers
        monkeypatch.setattr(counting, "COUNT_BLOCK", 5)
        assert crt_lift_solutions(q**e, p) == pow_roots(q, e, p)
        assert len(calls) == -(-(q**e - 1) // 5)  # one call per block

    @pytest.mark.parametrize(
        "p, ns",
        [
            # non-empty chains, e.g. 1729 = 7 * 13 * 19 lifts 247 = 13 * 19
            # lifts 19
            (3, (21, 63, 91, 1729)),
            (5, (121, 341)),
            (7, (1247,)),
            # 33 = 3 * 11: the factor 3 is below p, so 33 lifts from 11
            (5, (33,)),
            # n above COUNT_MEMO_SIZE; 8197 = 7 * 1171 lifts a prime base
            (3, (*range(4097, 4121), 8197)),
        ],
    )
    def test_lifted_scan_matches_scalar_loop(self, p, ns, fresh_root_memo):
        # descending, from an empty memo: every divisor's answer is built by
        # the recursion, not by an earlier top-level call
        for n in sorted(ns, reverse=True):
            assert triples_for(n, p) == scalar_triples_for(n, p), (n, p)

    def test_a_sweep_scans_each_modulus_once(self, monkeypatch, fresh_root_memo):
        # an ascending sweep needs the answer for d = n / q <= n / 2 when it
        # reaches n; a memo that has evicted d scans it again, a prime d in
        # full, so each n is scanned once only if none is evicted
        n_max, p = 20000, 3
        scanned = []  # (modulus, residues scanned) per scan
        residue_blocks, lift_blocks = counting._residue_blocks, counting._lift_blocks

        def residues(m, block):
            scanned.append((m, m - 1))
            return residue_blocks(m, block)

        def lifts(base, d, count, block):
            scanned.append((d * count, len(base) * count))
            return lift_blocks(base, d, count, block)

        monkeypatch.setattr(counting, "_residue_blocks", residues)
        monkeypatch.setattr(counting, "_lift_blocks", lifts)
        answers = {n: triples_for(n, p) for n in range(1, n_max + 1)}
        moduli = [m for m, _ in scanned]
        assert len(moduli) == len(set(moduli))
        # the residues an unbounded memo scans: every prime n >= p in full,
        # and a composite n's lifts of the answers for n / (least prime q)
        spf = list(range(n_max + 1))
        for q in range(2, math.isqrt(n_max) + 1):
            if spf[q] == q:
                for m in range(q * q, n_max + 1, q):
                    spf[m] = min(spf[m], q)
        expected = sum(
            n - 1 if spf[n] == n else len(answers[n // spf[n]]) * spf[n]
            for n in range(p, n_max + 1)
        )
        assert sum(count for _, count in scanned) == expected

    def test_fresh_root_memo_empties_both_memos(self, fresh_root_memo):
        triples_for(91, 3)
        crt_lift_solutions(91, 3)
        empty_count_memos()
        assert counting._triples.cache_info().currsize == 0
        assert counting._prime_power_roots.cache_info().currsize == 0

    def test_another_block_size_scans_the_triples_again(
        self, monkeypatch, fresh_root_memo
    ):
        # the triples memo must not answer a scan under a patched
        # COUNT_BLOCK with l found under the default one
        n, p = 91, 3  # 91 = 7 * 13 lifts the answers for 13
        assert triples_for(n, p) == [9, 16, 74, 81]
        calls = []
        residue_blocks, lift_blocks = counting._residue_blocks, counting._lift_blocks

        def counted(route):
            def run(*args):
                calls.append(args)
                return route(*args)

            return run

        monkeypatch.setattr(counting, "_residue_blocks", counted(residue_blocks))
        monkeypatch.setattr(counting, "_lift_blocks", counted(lift_blocks))
        assert triples_for(n, p) == [9, 16, 74, 81]
        assert calls == []  # same block size: the memo answers
        monkeypatch.setattr(counting, "COUNT_BLOCK", 5)
        assert triples_for(n, p) == [9, 16, 74, 81]
        # 13 is scanned in full, then its 2 answers lifted 7 ways
        assert calls == [(13, 5), ((3, 9), 13, 7, 5)]

    def test_divisors_are_not_answered_through_the_public_name(
        self, monkeypatch, fresh_root_memo
    ):
        # one triples_for call per n asked for, however deep the lift
        calls = []
        public = counting.triples_for

        def counted(n, p):
            calls.append(n)
            return public(n, p)

        monkeypatch.setattr(counting, "triples_for", counted)
        assert counting.triples_for(1729, 3) == scalar_triples_for(1729, 3)
        assert calls == [1729]

    def test_mutating_an_answer_leaves_the_memo_intact(self):
        first = triples_for(91, 3)
        first.append(0)
        first[0] = -1
        assert triples_for(91, 3) == [9, 16, 74, 81]

    def test_returns_python_ints(self):
        assert all(type(l) is int for l in triples_for(13, 3))
        assert all(type(l) is int for l in triples_for(7 * 13, 3))
        assert all(type(x) is int for x in crt_lift_solutions(7 * 13, 3))

    def test_rejects_non_prime_valence(self):
        with pytest.raises(ValueError):
            triples_for(7, 4)
        with pytest.raises(ValueError):
            triples_for(7, 9)

    def test_memoised_validation_still_rejects(self):
        # a memoised valid prime must not let an invalid one through
        assert triples_for(7, 3) == [2, 4]
        for bad in (1, 2, 4, 9, 15):
            with pytest.raises(UsageError):
                triples_for(7, bad)
            with pytest.raises(UsageError):
                crt_lift_solutions(7, bad)

    def test_triple_validation(self):
        balanced_dihedral_map(7, 2, 3)  # fine
        with pytest.raises(ValueError):
            balanced_dihedral_map(7, 3, 3)  # order is 6, not 3
        with pytest.raises(ValueError):
            balanced_dihedral_map(4, 2, 3)  # not coprime
        with pytest.raises(ValueError):
            balanced_dihedral_map(7, 9, 3)  # out of range


# -- closed-form constructions -------------------------------------------------


class TestBalancedDihedralFamily:
    def test_generator_spot_values(self):
        m = balanced_dihedral_map(7, 2, 3)
        assert [m.group.format_element(x) for x in m.xs] == ["b", "a*b", "a^3*b"]
        m = balanced_dihedral_map(3, 1, 3)
        assert [m.group.format_element(x) for x in m.xs] == ["b", "a*b", "a^2*b"]

    def test_rejects_inadmissible_parameters(self):
        with pytest.raises(ValueError):
            balanced_dihedral_map(9, 2, 3)
        with pytest.raises(ValueError):
            balanced_dihedral_map(7, 3, 3)
        with pytest.raises(ValueError):
            balanced_dihedral_map(7, 2, 4)

    def test_family_is_regular_balanced_with_power_witness(self):
        for p in (3, 5):
            for n in range(2, 16):
                for l in triples_for(n, p):
                    m = balanced_dihedral_map(n, l, p)
                    assert m.is_regular()
                    assert m.balance_type().is_balanced
                    assert entry_for_map(m, n, "x").mon_order == 2 * n * p
                    # a -> a^l, b -> a * b: a^i * b^e -> a^(l*i + e) * b^e
                    assert m.rotation_automorphism() == tuple(
                        e * n + (l * i + e) % n for e in (0, 1) for i in range(n)
                    )

    def test_distinct_parameters_give_distinct_classes(self):
        for n, p in ((7, 3), (13, 3), (21, 3), (11, 5)):
            maps = [balanced_dihedral_map(n, l, p) for l in triples_for(n, p)]
            for m1, m2 in combinations(maps, 2):
                assert not maps_isomorphic(m1, m2)
            for m in maps:
                assert maps_isomorphic(m, m)


class TestAntibalancedCyclicFamily:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_regular_anti_balanced_complete_bipartite(self, p):
        m = antibalanced_cyclic_map(p)
        assert m.group.order == 2 * p
        assert m.is_regular()
        bt = m.balance_type()
        assert bt.is_anti_balanced and not bt.is_balanced
        # odd generators connect exactly the two parity classes: K_{p,p}
        adj = m.underlying_adjacency()
        for u in range(2 * p):
            for v in range(2 * p):
                assert ((adj[u] >> v) & 1) == (1 if (u - v) % 2 == 1 else 0)

    def test_matches_small_cyclic_census(self):
        reps = exhaustive_regular_maps(CyclicGroup(6), 3)
        assert len(reps) == 1
        assert maps_isomorphic(reps[0], antibalanced_cyclic_map(3))

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            antibalanced_cyclic_map(4)


class TestElemAbelianSeeds:
    # the degree-r divisors of t^p - 1 over GF(2), counted by degree
    @pytest.mark.parametrize(
        "p, by_degree",
        [
            (3, {2: 1, 3: 1}),
            (5, {4: 1, 5: 1}),
            (7, {3: 2, 4: 2, 6: 1, 7: 1}),
            (11, {10: 1, 11: 1}),
            (13, {12: 1, 13: 1}),
        ],
    )
    def test_divisor_counts_by_degree(self, p, by_degree):
        counts = {r: len(elem_abelian_seeds(r, p)) for r in range(1, p + 3)}
        assert {r: c for r, c in counts.items() if c} == by_degree

    def test_seeds_divide_t_to_the_p_minus_one(self):
        assert elem_abelian_seeds(3, 7) == [0b1011, 0b1101]  # t^3+t+1, t^3+t^2+1
        assert elem_abelian_seeds(2, 3) == [0b111]  # t^2+t+1
        assert elem_abelian_seeds(3, 3) == [0b1001]  # t^3+1 itself

    def test_no_seed_at_rank_one_or_above_p(self):
        assert elem_abelian_seeds(1, 3) == []
        assert elem_abelian_seeds(1, 7) == []
        assert elem_abelian_seeds(4, 3) == []  # 3-orbits span at most rank 3
        assert elem_abelian_seeds(6, 5) == []

    def test_rejects_bad_rank_or_valence(self):
        with pytest.raises(ValueError):
            elem_abelian_seeds(0, 3)
        with pytest.raises(ValueError):
            elem_abelian_seeds(2, 4)

    def test_rank2_seed_maps_are_regular_balanced(self):
        k4 = build_map(ElemAbelian2Group(2), [1, 2, 3])
        (f,) = elem_abelian_seeds(2, 3)
        m = elem_abelian_map(f, 3)
        assert m.is_regular()
        assert m.balance_type().is_balanced
        assert m.balanced_regular_via_aut()
        assert maps_isomorphic(m, k4)

    def test_seed_maps_are_regular_balanced(self):
        # ranks above 4 too: E6 and E7 at p = 7, and E5 at p = 31 (6 divisors)
        cases = [(p, r) for p in (3, 5, 7) for r in range(2, 5)]
        for p, r in cases + [(7, 6), (7, 7), (31, 5)]:
            for f in elem_abelian_seeds(r, p):
                m = elem_abelian_map(f, p)
                assert m.group.order == 1 << r and m.k == p
                assert m.is_regular()
                assert m.balance_type().is_balanced
                assert m.balanced_regular_via_aut()


# -- counting formula ------------------------------------------------------------


class TestCountingFormula:
    def test_spot_values(self):
        assert count_regular_dihedral_maps(7, 3) == 2
        assert count_regular_dihedral_maps(9, 3) == 0
        assert count_regular_dihedral_maps(21, 3) == 2
        assert count_regular_dihedral_maps(15, 3) == 0
        assert count_regular_dihedral_maps(11, 5) == 4
        assert count_regular_dihedral_maps(1, 3) == 0
        assert count_regular_dihedral_maps(6, 3) == 0
        assert count_regular_dihedral_maps(49, 7) == 0  # divisible by 7 twice
        assert count_regular_dihedral_maps(29, 7) == 6

    def test_three_way_agreement(self):
        for p in (3, 5, 7):
            for n in range(1, 121):
                enumerated = triples_for(n, p)
                lifted = crt_lift_solutions(n, p)
                assert lifted == enumerated
                assert count_regular_dihedral_maps(n, p) == len(enumerated)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_root_scan_matches_pow_above_one_block(self, p):
        # 7^6 = 117649 spans two blocks, and 7 = 1 mod 3 gives it roots at p=3
        q, e = 7, 6
        assert q**e > counting.COUNT_BLOCK
        roots = pow_roots(q, e, p)
        assert bool(roots) == (p == 3)
        assert crt_lift_solutions(q**e, p) == roots

    def test_factorize_matches_trial_division_by_every_integer(self):
        for m in range(1, 3000):
            assert counting._factorize(m) == reference_factorize(m), m

    def test_factorize_resumes_at_the_last_prime_found(self, monkeypatch):
        starts = []
        smallest = counting._smallest_prime_factor

        def recorded(n, start=2):
            starts.append(start)
            return smallest(n, start)

        monkeypatch.setattr(counting, "_smallest_prime_factor", recorded)
        m = 2**3 * 3 * 7**2 * 10007
        assert counting._factorize(m) == [(2, 3), (3, 1), (7, 2), (10007, 1)]
        assert starts == [2, 2, 3, 7]

    def test_classify_and_maps_reexport_the_counting_names(self):
        # the size-guard error classify raises, and the three names the
        # benchmark's tracer wraps on classify
        kept = [
            "SizeGuardError", "count_regular_dihedral_maps",
            "crt_lift_solutions", "triples_for",
        ]
        for name in kept:
            assert getattr(classify, name) is getattr(counting, name), name
        assert maps.SizeGuardError is counting.SizeGuardError
        assert SizeGuardError is counting.SizeGuardError
        assert UsageError is claims.UsageError is counting.UsageError

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_regular_dihedral_maps(0, 3)
        with pytest.raises(ValueError):
            count_regular_dihedral_maps(7, 6)
        with pytest.raises(ValueError):
            crt_lift_solutions(0, 3)

    def test_scans_refuse_n_beyond_int64_exactness(self):
        # the guard raises before any block is allocated
        n = counting.MAX_COUNT_N + 1
        assert counting.MAX_COUNT_N**2 < 2**63
        with pytest.raises(SizeGuardError):
            triples_for(n, 3)
        with pytest.raises(SizeGuardError):
            crt_lift_solutions(n, 3)


# -- abelian catalogue -----------------------------------------------------------


class TestAbelianCatalogue:
    def test_one_group_per_class_up_to_16(self):
        groups = [g for g, _ in family_groups("abelian", 16)]
        assert len(groups) == 24
        per_order = {}
        for g in groups:
            per_order[g.order] = per_order.get(g.order, 0) + 1
        assert per_order == {
            2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 3, 9: 2, 10: 1,
            11: 1, 12: 2, 13: 1, 14: 1, 15: 1, 16: 5,
        }

    def test_order_16_shapes(self):
        names = {g.name for g, n in family_groups("abelian", 16) if n == 16}
        assert names == {"Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "E4"}

    def test_product_group_axioms(self):
        g = AbelianProductGroup([2, 4])
        assert g.order == 8 and g.name == "Z2xZ4"
        elems = g.elements()
        assert len(set(elems)) == 8
        ident = g.identity
        for x in elems:
            assert g.mul(x, ident) == x
            assert g.mul(x, g.inv(x)) == ident
            for y in elems:
                for z in elems:
                    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))

    def test_product_group_parse_and_format(self):
        g = AbelianProductGroup([2, 4])
        assert g.format_element((1, 3)) == "1:3"
        assert g.parse_element("1:3") == (1, 3)
        assert g.parse_element("3:7") == (1, 3)  # residues reduce
        with pytest.raises(ValueError):
            g.parse_element("1")
        with pytest.raises(ValueError):
            g.parse_element("1:x")

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            AbelianProductGroup([])
        with pytest.raises(ValueError):
            AbelianProductGroup([2, 1])


class TestFamilyGroups:
    def test_ranges_and_report_parameters(self):
        def names(kind, n_max):
            return [(g.name, n) for g, n in family_groups(kind, n_max)]

        assert names("dihedral", 5) == [("D3", 3), ("D4", 4), ("D5", 5)]
        assert names("dicyclic", 4) == [("Dic2", 2), ("Dic3", 3), ("Dic4", 4)]
        assert names("elem2", 3) == [("E1", 1), ("E2", 2), ("E3", 3)]
        abelian = names("abelian", 16)
        assert len(abelian) == 24 and abelian[:3] == [("Z2", 2), ("Z3", 3), ("Z4", 4)]
        assert all(g.order == n for g, n in family_groups("abelian", 16))
        assert names("dihedral", 2) == names("dicyclic", 1) == names("elem2", 0) == []

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_groups("quaternion", 5)

    def test_guard_refuses_the_whole_list_before_reading_it_all(self):
        # a lazy family far past the guard: refused at its first large group
        targets = ((g, n, 3) for g, n in family_groups("dihedral", 10**9))
        with pytest.raises(SizeGuardError, match="D67 at valence 3 needs 402 arcs"):
            guarded_targets(targets)
        below = [(g, n, 3) for g, n in family_groups("dihedral", 66)]
        assert guarded_targets(iter(below)) == below


# -- exhaustive search -----------------------------------------------------------


class TestOracleIndependence:
    def test_the_search_half_reads_no_claim_side_name(self):
        # the oracle may use only standard facts about Cayley maps, never the
        # claims it checks: classify imports nothing from claims, and none of
        # its functions or classes reads a name imported from counting but
        # the size-guard error (the others are there for the benchmark's
        # tracer alone)
        tree = ast.parse(Path(classify.__file__).read_text())
        from_counting = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
                from_counting |= {
                    alias.asname or alias.name
                    for alias, module in zip(node.names, modules)
                    if "counting" in module.split(".")
                }
            else:
                continue
            shown = ast.unparse(node)
            assert all("claims" not in m.split(".") for m in modules), shown
        assert "SizeGuardError" in from_counting
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                used = sorted(reads & from_counting - {"SizeGuardError"})
                assert not used, f"{node.name} reads {used} from counting"


class TestExhaustiveSearch:
    def test_inverse_closed_sets_on_z6(self):
        g = CyclicGroup(6)
        assert inverse_closed_sets(g, 3) == [(1, 3, 5), (2, 3, 4)]
        with pytest.raises(ValueError):
            inverse_closed_sets(g, 2)

    def test_cyclic_orderings_pin_first(self):
        assert list(cyclic_orderings((1, 3, 5))) == [(1, 3, 5), (1, 5, 3)]

    def test_dihedral_7_census_rows(self):
        rows = census_entries(DihedralGroup(7), 7, 3)
        assert [e.to_dict() for e in rows] == [
            {
                "group": "D7", "n": 7, "p": 3,
                "xs": ["b", "a*b", "a^3*b"],
                "regular": True, "balance": "balanced", "kappa": "id",
                "mon_order": 42, "genus": 1, "graph_aut_order": None,
                "class_id": "D7-p3-0",
            },
            {
                "group": "D7", "n": 7, "p": 3,
                "xs": ["b", "a*b", "a^5*b"],
                "regular": True, "balance": "balanced", "kappa": "id",
                "mon_order": 42, "genus": 1, "graph_aut_order": None,
                "class_id": "D7-p3-1",
            },
        ]

    def test_census_matches_construction_on_d13(self):
        found = exhaustive_regular_maps(DihedralGroup(13), 3)
        expected = [balanced_dihedral_map(13, l, 3) for l in triples_for(13, 3)]
        assert len(found) == len(expected) == 2
        for m in found:
            assert any(maps_isomorphic(m, e) for e in expected)

    def test_dicyclic_censuses_empty_at_odd_prime_valence(self):
        assert exhaustive_regular_maps(DicyclicGroup(2), 3) == []
        assert exhaustive_regular_maps(DicyclicGroup(3), 3) == []
        assert exhaustive_regular_maps(DicyclicGroup(2), 5) == []

    def test_dicyclic_2_valence_4_class(self):
        reps = exhaustive_regular_maps(DicyclicGroup(2), 4)
        assert len(reps) == 1
        m = reps[0]
        assert m.xs_ranks() == (1, 4, 3, 6)
        assert m.balance_type().is_balanced
        assert m.kappa.cycle_string() == "(1 3)(2 4)"
        assert m.faces_and_genus() == (4, 3)

    def test_parallel_search_matches_serial(self):
        # the pool workers receive the group object itself, pickled
        for group, valence in (
            (DihedralGroup(7), 3),
            (CyclicGroup(6), 3),
            (DicyclicGroup(2), 4),
            (ElemAbelian2Group(3), 3),
            (AbelianProductGroup([2, 4]), 4),
        ):
            serial = exhaustive_regular_maps(group, valence, jobs=1)
            parallel = exhaustive_regular_maps(group, valence, jobs=2)
            assert [m.xs_ranks() for m in serial] == [
                m.xs_ranks() for m in parallel
            ]

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            exhaustive_regular_maps(DihedralGroup(67), 3)

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError):
                exhaustive_regular_maps(DihedralGroup(7), 3, jobs=jobs)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Runs the chunks in this process, so no worker is started."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # exhaustive_regular_maps imports the pool class when it forks one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        serial = [m.xs_ranks() for m in exhaustive_regular_maps(DihedralGroup(7), 3)]
        for cpus, expected in ((3, [3]), (None, [])):
            sizes.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            capped = exhaustive_regular_maps(DihedralGroup(7), 3, jobs=64)
            assert sizes == expected
            assert [m.xs_ranks() for m in capped] == serial


class TestSphereMapException:
    """The one regular 3-valent dihedral map outside the balanced family:
    the genus-0 sphere map on the order-8 dihedral group (cube skeleton).
    The closure kernel, the propagation route and a naive breadth-first
    reimplementation agree that it is regular, so the claim verifiers report it honestly."""

    def test_census_pins_the_exception(self):
        rows = census_entries(DihedralGroup(4), 4, 3)
        assert len(rows) == 1
        row = rows[0].to_dict()
        assert row["xs"] == ["a", "a^3", "b"]
        assert row["regular"] is True
        assert row["balance"] == "anti-balanced"
        assert row["kappa"] == "(1 2)"
        assert row["mon_order"] == 24
        assert row["genus"] == 0

    def test_exception_graph_is_the_cube(self):
        g = DihedralGroup(4)
        m = build_map(g, [(1, 0), (3, 0), (0, 1)])
        faces, genus = m.faces_and_genus()
        assert (faces, genus) == (6, 0)
        assert m.face_sizes() == [4] * 6
        assert m.graph_aut_order() == 48
        assert not m.balanced_regular_via_aut()

    def test_no_analogue_on_larger_dihedral_groups(self):
        for n in (6, 8):
            g = DihedralGroup(n)
            m = build_map(g, [(1, 0), (n - 1, 0), (0, 1)])
            assert not m.is_regular()


# -- rotation-power involutions ----------------------------------------------------


def naive_closure_order(perms, bound):
    """Breadth-first closure over permutation tuples, independent of the
    packed-table kernels."""
    frontier = list(perms)
    seen = set(frontier)
    while frontier:
        nxt = []
        for f in frontier:
            for g in perms:
                h = tuple(f[g[i] - 1] for i in range(len(g)))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    if len(seen) > bound:
                        return None
        frontier = nxt
    return len(seen)


class TestAffineCompatibleInvolutions:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_exactly_identity_and_reflection(self, k):
        expected = {Permutation.identity(k), reflection_fixing_last(k)}
        assert set(affine_compatible_involutions(k)) == expected

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_matches_naive_closure(self, k):
        cycle = tuple(list(range(2, k + 1)) + [1])
        bound = k * (k - 1)
        qualifying = []
        for kappa in all_involutions(k):
            if kappa(k) != k:
                continue
            order = naive_closure_order([cycle, kappa.images], bound)
            if order is not None and bound % order == 0:
                qualifying.append(kappa)
        assert set(qualifying) == set(affine_compatible_involutions(k))

    def test_rejects_degenerate_degree(self):
        with pytest.raises(ValueError):
            affine_compatible_involutions(1)


# -- report rows -----------------------------------------------------------------


class TestCensusEntrySerialization:
    def test_csv_columns(self):
        assert CSV_COLUMNS == (
            "group", "n", "p", "xs", "regular", "balance", "kappa",
            "mon_order", "genus", "class_id",
        )

    def test_round_trip_shapes(self):
        entry = CensusEntry(
            group="D7", n=7, p=3, xs=("b", "a*b", "a^3*b"), regular=True,
            balance="balanced", kappa="id", mon_order=42, genus=1,
            graph_aut_order=None, class_id="D7-p3-0",
        )
        assert entry.csv_row() == [
            "D7", "7", "3", "b a*b a^3*b", "true", "balanced", "id",
            "42", "1", "D7-p3-0",
        ]
        assert entry.to_dict()["xs"] == ["b", "a*b", "a^3*b"]

    def test_exceeded_monodromy_serializes_as_bound(self):
        g = DihedralGroup(4)
        m = build_map(g, [(0, 1), (1, 1), (2, 1)])
        entry = entry_for_map(m, 4, "probe")
        assert entry.regular is False
        assert entry.mon_order == ">25"
        assert entry.csv_row()[4] == "false"

    def test_graph_aut_column_is_opt_in(self):
        k4 = build_map(ElemAbelian2Group(2), [1, 2, 3])
        assert entry_for_map(k4, 2, "x").graph_aut_order is None
        assert entry_for_map(k4, 2, "x", with_graph_aut=True).graph_aut_order == 24


# -- claim verification ------------------------------------------------------------


class TestVerifyClaims:
    def test_claim_ids_are_fixed(self):
        assert CLAIM_IDS == (
            "1.1", "1.2", "1.3", "2.6", "2.7-consequence", "3.4", "L3.2",
        )

    def test_unknown_or_incomplete_requests_raise(self):
        with pytest.raises(UsageError):
            verify_claim("9.9", p=3, n_max=5)
        with pytest.raises(UsageError):
            verify_claim("1.2", p=3)
        with pytest.raises(UsageError):
            verify_claim("1.2", n_max=5)
        with pytest.raises(UsageError):
            verify_claim("1.2", p=4, n_max=5)
        # the order bound of claim 1.1 is a size refusal
        with pytest.raises(SizeGuardError, match="bounded at order 16"):
            verify_claim("1.1", p=3, n_max=32)

    @pytest.mark.parametrize(
        "claim_id, p, n_max, text",
        [
            ("1.1", 3, 16,
             "claim 1.1: PASS\nchecked: 3\nnote: abelian groups searched: 24\n"),
            ("1.2", 3, 12,
             "claim 1.2: FAIL\nchecked: 7\ncounterexample: "
             "D4,4,3,a a^3 b,true,anti-balanced,(1 2),24,0,counterexample\n"),
            ("1.3", 3, 8, "claim 1.3: PASS\nchecked: 7\n"),
            ("2.6", 3, 15,
             "claim 2.6: FAIL\nchecked: 6\ncounterexample: "
             "D4,4,3,a a^3 b,true,anti-balanced,(1 2),24,0,counterexample\n"),
            ("2.7-consequence", None, 8,
             "claim 2.7-consequence: PASS\nchecked: 4\n"
             "note: balanced regular dicyclic maps seen: 4\n"),
            ("L3.2", 3, 14, "claim L3.2: PASS\nchecked: 7\n"),
        ],
    )
    def test_search_backed_report_texts(self, claim_id, p, n_max, text):
        # whole reports: verdict, checked count and its rule, notes, rows
        assert verify_claim(claim_id, p=p, n_max=n_max).as_text() == text

    def test_dicyclic_balance_parity_skips_valences_over_the_guard(self, monkeypatch):
        searched = []

        def record(group, valence, jobs=1):
            searched.append((group.order, valence))
            return []

        monkeypatch.setattr(classify, "exhaustive_regular_maps", record)
        report = verify_claim("2.7-consequence", n_max=67)
        assert report.passed and report.checked == 0
        assert (132, 3) in searched and (132, 4) not in searched
        assert (80, 5) in searched and (82, 5) not in searched
        assert max(order * valence for order, valence in searched) <= 400

    def test_dihedral_classification_fails_on_a_class_listed_twice(self, monkeypatch):
        # every map has an isomorphic partner, but the counts differ
        real = claims.triples_for
        monkeypatch.setattr(
            claims, "triples_for", lambda n, p: [l for l in real(n, p) for _ in "ab"]
        )
        report = verify_claim("1.2", p=3, n_max=3)
        assert not report.passed
        assert report.checked == 3
        assert report.counterexamples == ["D3: 1 census classes, 2 closed-form maps"]

    def test_claim_checks_report_maps_without_a_partner(self, monkeypatch):
        # 1.1: with no seed maps and a reference of another size, neither
        # census map has a partner
        k4 = elem_abelian_map(elem_abelian_seeds(2, 3)[0], 3)
        monkeypatch.setattr(claims, "antibalanced_cyclic_map", lambda p: k4)
        monkeypatch.setattr(claims, "elem_abelian_seeds", lambda r, p: [])
        assert verify_claim("1.1", p=3, n_max=6).counterexamples == [
            "E2,4,3,10 01 11,true,balanced,id,12,0,counterexample",
            "Z6,6,3,1 3 5,true,anti-balanced,(1 3),18,1,counterexample",
        ]
        monkeypatch.undo()
        # 1.2: with an empty census, every closed-form map is missing
        monkeypatch.setattr(
            classify, "exhaustive_regular_maps", lambda group, valence, jobs=1: []
        )
        assert verify_claim("1.2", p=3, n_max=7).counterexamples == [
            "missing D3,3,3,b a*b a^2*b,true,balanced,id,18,1,counterexample",
            "missing D7,7,3,b a*b a^3*b,true,balanced,id,42,1,counterexample",
            "missing D7,7,3,b a*b a^5*b,true,balanced,id,42,1,counterexample",
        ]

    def test_abelian_dichotomy_passes(self):
        report = verify_claim("1.1", p=3, n_max=16)
        assert report.passed
        assert report.checked == 3
        assert report.counterexamples == []
        assert report.notes == ["abelian groups searched: 24"]

    def test_abelian_dichotomy_passes_at_p5_and_p7(self):
        # p = 5: the seed classes on E4 (t^4 + ... + 1) and the anti-balanced
        # map on Z10; p = 7: the two classes on E3, one per degree-3 divisor
        report = verify_claim("1.1", p=5, n_max=16)
        assert (report.passed, report.checked) == (True, 2)
        assert report.covered == "abelian Z2..E4 valence 5 (24 groups)"
        report = verify_claim("1.1", p=7, n_max=8)
        assert (report.passed, report.checked) == (True, 2)
        assert report.notes == ["abelian groups searched: 10"]

    def test_dihedral_classification_catches_the_sphere_map(self):
        report = verify_claim("1.2", p=3, n_max=12)
        assert not report.passed
        assert report.counterexamples == [
            "D4,4,3,a a^3 b,true,anti-balanced,(1 2),24,0,counterexample"
        ]

    def test_dihedral_classification_passes_away_from_the_exception(self):
        report = verify_claim("1.2", p=3, n_max=3)
        assert report.passed and report.checked == 2

    def test_dihedral_classification_passes_at_valence_5(self):
        report = verify_claim("1.2", p=5, n_max=11)
        assert report.passed
        assert report.checked == 10

    def test_dicyclic_emptiness_passes(self):
        report = verify_claim("1.3", p=3, n_max=6)
        assert report.passed and report.checked == 5
        report = verify_claim("1.3", p=5, n_max=6)
        assert report.passed

    def test_no_antibalanced_dihedral_catches_the_sphere_map(self):
        report = verify_claim("2.6", p=3, n_max=12)
        assert not report.passed
        assert report.counterexamples == [
            "D4,4,3,a a^3 b,true,anti-balanced,(1 2),24,0,counterexample"
        ]

    def test_dicyclic_balance_parity_passes(self):
        report = verify_claim("2.7-consequence", n_max=6)
        assert report.passed
        assert report.notes == ["balanced regular dicyclic maps seen: 3"]

    def test_count_agreement_passes(self):
        for p in (3, 5, 7):
            report = verify_claim("3.4", p=p, n_max=200)
            assert report.passed and report.checked == 200

    def test_count_agreement_values(self):
        assert count_agreement(21, 3) == (2, [4, 16], [4, 16], True)
        assert count_agreement(9, 3) == (0, [], [], True)

    def test_count_agreement_reports_a_disagreement(self, monkeypatch):
        monkeypatch.setattr(counting, "crt_lift_solutions", lambda n, p: [])
        assert count_agreement(7, 3) == (2, [2, 4], [], False)
        report = verify_claim("3.4", p=3, n_max=7)
        assert not report.passed and report.checked == 7
        assert report.counterexamples == [
            "n=3 p=3: formula=1 enumerated=[1] crt=[]",
            "n=7 p=3: formula=2 enumerated=[2, 4] crt=[]",
        ]

    def test_kappa_dichotomy_passes(self):
        report = verify_claim("L3.2", p=3, n_max=12)
        assert report.passed

    def test_report_text_format(self):
        report = verify_claim("1.2", p=3, n_max=4)
        text = report.as_text()
        assert text.startswith("claim 1.2: FAIL\n")
        assert "counterexample: D4,4,3,a a^3 b" in text
        passing = verify_claim("3.4", p=3, n_max=10)
        assert passing.as_text().startswith("claim 3.4: PASS\n")
