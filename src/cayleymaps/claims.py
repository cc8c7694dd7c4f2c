"""The paper's claims: the closed-form constructions (the dihedral map from
a triple (n, l, k), the anti-balanced cyclic map, and the seed maps from the
divisors of t^p - 1 over GF(2)), and `verify_claim`, which checks one named
claim against the census oracle; claim ids are fixed by the command line.

This module imports `classify`, never the other way round, so the oracle
cannot use the claims it checks. It calls the oracle through the module, so
a wrapper installed on `classify` sees every search a verification runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import classify
from .counting import (
    CLAIM_IDS,
    SizeGuardError,
    UsageError,
    _require_odd_prime,
    count_agreement,
    geosum_order,
    guard_count_n,
    triples_for,
)
from .groups import CyclicGroup, DihedralGroup, ElemAbelian2Group
from .maps import CayleyMap, build_map
from .perms import (
    Permutation,
    all_involutions,
    cycle_and_involution_group,
    reflection_fixing_last,
)

# Claim 1.1 sweeps the abelian catalogue up to this order. Its seeds are
# cheap at any rank; what the bound limits is the search, mostly on groups
# with many involutions: at p = 7, n <= 16 takes about 9 s on a 2-CPU Xeon,
# 3.9 s of it on E4 and 2.9 s on Z2xZ2xZ4, and p = 13 does not finish in
# 5 minutes.
MAX_ABELIAN_VERIFY_ORDER = 16


# -- closed-form constructions --------------------------------------------------


def balanced_dihedral_map(n: int, l: int, p: int) -> CayleyMap:
    """The balanced p-valent map on the dihedral group of order 2n whose
    reflection exponents are the partial geometric sums of l."""
    _require_odd_prime(p)
    if not 0 < l < n:
        raise ValueError(f"need 0 < l < n, got l={l}, n={n}")
    # a common factor d keeps every partial sum at 1 mod d, so the
    # geometric-sum scan below would run n^2 steps to find no order
    if math.gcd(l, n) != 1:
        raise ValueError(f"l={l} and n={n} are not coprime")
    actual = geosum_order(n, l)
    if actual != p:
        raise ValueError(
            f"geometric-sum order of l={l} mod n={n} is {actual}, not {p}"
        )
    exps = []
    s = 0
    power = 1
    for _ in range(p):
        exps.append(s)
        s = (s + power) % n
        power = (power * l) % n
    return build_map(DihedralGroup(n), [(e, 1) for e in exps])


def antibalanced_cyclic_map(p: int) -> CayleyMap:
    """The anti-balanced p-valent map on the cyclic group of order 2p, with
    the odd residues in ascending rotation order (underlying graph K_{p,p})."""
    _require_odd_prime(p)
    return build_map(CyclicGroup(2 * p), list(range(1, 2 * p, 2)))


def elem_abelian_seeds(r: int, p: int) -> list[int]:
    """The seeds of rank r: the degree-r divisors f of t^p - 1 over GF(2),
    as ascending bit masks (bit j holds the coefficient of t^j); [] when
    r < 2 or r > p.

    A seed is an invertible A on F_2^r of order p and a vector x whose orbit
    x, Ax, ..., A^(p-1)x has p distinct vectors spanning F_2^r. Then x is a
    cyclic vector, so F_2^r is F_2[t]/(f) with A acting as multiplication by
    t and x as 1, where f, the A-annihilator of x, has degree r and divides
    t^p - 1. Conjugating by a matrix of GL(r, 2) is a group automorphism, so
    it gives an isomorphic map, and every seed map is isomorphic to the map
    with generators t^0, ..., t^(p-1) mod f. Conversely every degree-r
    divisor f with r >= 2 is a seed: if t^i = t^j mod f with i < j < p,
    then f divides t^(j-i) - 1 and so t^gcd(j-i, p) - 1 = t - 1, of degree
    1 < r; so the p powers are distinct, t has order exactly p mod f, and
    1, t, ..., t^(r-1) span. The only divisor of degree 1 is t + 1, whose
    orbit is a single vector, so rank 1 has no seed."""
    if r < 1:
        raise ValueError(f"seed rank must be >= 1, got {r}")
    _require_odd_prime(p)
    if not 2 <= r <= p:
        return []
    cycle = 1 << p | 1  # t^p - 1 over GF(2)
    # a divisor of t^p - 1 has constant term 1, since t does not divide it
    return [f for f in range(1 << r | 1, 1 << (r + 1), 2) if not _gf2_mod(cycle, f)]


def _gf2_mod(a: int, f: int) -> int:
    """The remainder of a modulo f as GF(2) polynomial bit masks (f != 0)."""
    deg = f.bit_length() - 1
    while a.bit_length() > deg:
        a ^= f << (a.bit_length() - 1 - deg)
    return a


def _seed_orbit(f: int, p: int) -> list[int]:
    """t^0, t^1, ..., t^(p-1) mod f, as bit masks."""
    orbit = [1]
    for _ in range(p - 1):
        orbit.append(_gf2_mod(orbit[-1] << 1, f))
    return orbit


def elem_abelian_map(f: int, p: int) -> CayleyMap:
    """The balanced map of a seed f of elem_abelian_seeds(r, p): generators
    t^0, ..., t^(p-1) mod f inside the elementary abelian 2-group of rank
    deg f."""
    return build_map(ElemAbelian2Group(f.bit_length() - 1), _seed_orbit(f, p))


def affine_compatible_involutions(k: int) -> list[Permutation]:
    """Involutions fixing the last point whose joint group with the full
    k-cycle is no bigger than the affine bound k(k-1) (and divides it)."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    bound = k * (k - 1)
    out = []
    for kappa in all_involutions(k):
        if kappa(k) != k:
            continue
        order, exceeded = cycle_and_involution_group(k, kappa, bound + 1)
        if not exceeded and bound % order == 0:
            out.append(kappa)
    return out


# -- claim verification -----------------------------------------------------------


@dataclass
class VerifyReport:
    """Outcome of one verification run; counterexamples are report rows."""

    claim_id: str
    passed: bool
    checked: int
    counterexamples: list[str]
    notes: list[str]
    covered: str = ""  # what was searched or counted, for standard error

    def as_text(self) -> str:
        lines = [f"claim {self.claim_id}: {'PASS' if self.passed else 'FAIL'}"]
        lines.append(f"checked: {self.checked}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for bad in self.counterexamples:
            lines.append(f"counterexample: {bad}")
        return "\n".join(lines) + "\n"


def verify_claim(
    claim_id: str,
    p: Optional[int] = None,
    n_max: Optional[int] = None,
    jobs: int = 1,
) -> VerifyReport:
    """Run one named cross-check between the closed-form constructions and
    the exhaustive search oracle; ids are fixed by the CLI contract. The
    search-backed claims sweep a group family, refused as a whole up front
    by the census guard, and test the maps found on each group: 1.2 against
    the closed form, the others map by map. Claim 1.3 counts groups, the
    others count maps."""
    if claim_id not in CLAIM_IDS:
        raise UsageError(
            f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}"
        )
    if claim_id == "2.7-consequence":
        n_max = 6 if n_max is None else n_max
    elif p is None or n_max is None:
        raise UsageError(f"claim {claim_id} needs both p and n_max")
    else:
        _require_odd_prime(p)
    if claim_id == "3.4":
        guard_count_n(n_max)
        rows = []
        for n in range(1, n_max + 1):
            formula, enumerated, lifted, agree = count_agreement(n, p)
            if not agree:
                rows.append(
                    f"n={n} p={p}: formula={formula} "
                    f"enumerated={enumerated} crt={lifted}"
                )
        covered = f"counting n=1..{n_max} at p={p} ({max(n_max, 0)} values)"
        return VerifyReport("3.4", not rows, n_max, rows, [], covered)
    if claim_id == "1.1" and n_max > MAX_ABELIAN_VERIFY_ORDER:
        raise SizeGuardError(
            f"abelian verification is bounded at order "
            f"{MAX_ABELIAN_VERIFY_ORDER}, got n_max={n_max}"
        )
    if claim_id == "2.7-consequence":
        # valences 3, 4 and 5 each where they fit the guard
        targets = classify.guarded_targets(
            (group, n, valence)
            for group, n in classify.family_groups("dicyclic", n_max)
            for valence in (3, 4, 5)
            if group.order * valence <= classify.MAX_CENSUS_ARCS
        )
        family = "dicyclic"
    else:
        family = {"1.1": "abelian", "1.3": "dicyclic"}.get(claim_id, "dihedral")
        targets = classify.guarded_targets(
            (g, n, p) for g, n in classify.family_groups(family, n_max)
        )
    covered = _coverage(family, targets)
    checked, rows = 0, []
    if claim_id == "L3.2":
        checked, rows = _affine_involution_check(p)
        covered += f"; affine involutions of degree {p}"
    breaks_claim = _COUNTEREXAMPLE.get(claim_id)
    balanced = 0
    for group, n, valence in targets:
        maps = classify.exhaustive_regular_maps(group, valence, jobs=jobs)
        if claim_id == "1.2":
            count, bad = _dihedral_classification(group, n, valence, maps)
        else:
            count = 1 if claim_id == "1.3" else len(maps)
            bad = [_entry_str(m, n) for m in maps if breaks_claim(m, valence)]
        checked += count
        rows += bad
        if claim_id == "2.7-consequence":
            balanced += sum(m.balance_type().is_balanced for m in maps)
    notes = {
        "1.1": [f"abelian groups searched: {len(targets)}"],
        "2.7-consequence": [f"balanced regular dicyclic maps seen: {balanced}"],
    }.get(claim_id, [])
    return VerifyReport(claim_id, not rows, checked, rows, notes, covered)


def _coverage(family: str, targets: list[classify.Target]) -> str:
    """The groups a sweep searched, by valence, as "dihedral D3..D11
    valence 5 (9 groups)"."""
    parts = []
    for valence in sorted({v for _, _, v in targets}):
        names = [g.name for g, _, v in targets if v == valence]
        span = names[0] if len(names) == 1 else f"{names[0]}..{names[-1]}"
        groups = f"{len(names)} group" + ("s" if len(names) != 1 else "")
        parts.append(f"{family} {span} valence {valence} ({groups})")
    return "; ".join(parts) or f"{family} none (0 groups)"


def _entry_str(m: CayleyMap, n_param: int) -> str:
    return ",".join(classify.entry_for_map(m, n_param, "counterexample").csv_row())


def _breaks_abelian_dichotomy(m: CayleyMap, valence: int) -> bool:
    """1.1: a regular abelian map is balanced on an elementary abelian
    2-group and isomorphic to a seed map, or it is the anti-balanced map on
    Z_2p. The found map is regular, so equal arc codes decide isomorphism."""
    bt = m.balance_type()
    if bt.is_balanced:
        r = m.group.order.bit_length() - 1
        return m.group.order != 1 << r or m.arc_code() not in {
            elem_abelian_map(f, valence).arc_code()
            for f in elem_abelian_seeds(r, valence)
        }
    return (
        not bt.is_anti_balanced
        or m.arc_code() != antibalanced_cyclic_map(valence).arc_code()
    )


def _anti_balanced(m: CayleyMap, valence: int) -> bool:
    """2.6: no regular dihedral map is anti-balanced."""
    return m.balance_type().is_anti_balanced


def _balanced_at_odd_valence(m: CayleyMap, valence: int) -> bool:
    """2.7-consequence: a balanced regular dicyclic map has even valence."""
    return valence % 2 == 1 and m.balance_type().is_balanced


def _affine_kappas(k: int) -> set[Permutation]:
    """The identity and the reflection fixing the last of k points."""
    return {Permutation.identity(k), reflection_fixing_last(k)}


def _kappa_not_affine(m: CayleyMap, valence: int) -> bool:
    """L3.2: a regular dihedral map, rotated so that a self-inverse
    generator is last, has the identity or the reflection fixing the last
    slot as kappa."""
    return m.canonical_base_rotation().kappa not in _affine_kappas(valence)


# the claims checked map by map: is a map found regular at this valence a
# counterexample?
_COUNTEREXAMPLE = {
    "1.1": _breaks_abelian_dichotomy,
    # 1.3: no regular dicyclic map has odd prime valence
    "1.3": lambda m, valence: True,
    "2.6": _anti_balanced,
    "2.7-consequence": _balanced_at_odd_valence,
    "L3.2": _kappa_not_affine,
}


def _dihedral_classification(group, n, valence, found):
    """1.2: the regular dihedral maps are the balanced closed-form maps, one
    isomorphism class per l."""
    expected = [balanced_dihedral_map(n, l, valence) for l in triples_for(n, valence)]
    # the found maps are regular, so equal arc codes decide isomorphism
    found_codes = {m.arc_code() for m in found}
    expected_codes = {e.arc_code() for e in expected}
    rows = [_entry_str(m, n) for m in found if m.arc_code() not in expected_codes]
    rows += [
        "missing " + _entry_str(e, n)
        for e in expected
        if e.arc_code() not in found_codes
    ]
    if not rows and len(found) != len(expected):
        # every map has a partner, so the closed form lists a class twice
        rows.append(
            f"{group.name}: {len(found)} census classes, "
            f"{len(expected)} closed-form maps"
        )
    return len(found) + len(expected), rows


def _affine_involution_check(p: int) -> tuple[int, list[str]]:
    """L3.2, first part: the involutions compatible with the affine bound are
    exactly the identity and the reflection fixing the last point."""
    qualifying = affine_compatible_involutions(p)
    if set(qualifying) == _affine_kappas(p):
        return 1, []
    return 1, [
        f"p={p}: affine-compatible involutions are "
        f"{[q.to_cycles() for q in qualifying]}"
    ]
