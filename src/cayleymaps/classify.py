"""Constructions, the exhaustive census oracle, and the claim verifiers.

This module has two independent halves that check each other:

* closed-form machinery — the dihedral construction from a triple
  (n, l, k), the anti-balanced cyclic construction, and seed maps from the
  divisors of t^p - 1 over GF(2), next to the counting formula and its CRT
  enumeration in `counting`;
* an exhaustive search (`exhaustive_regular_maps`) that enumerates one
  inverse-closed generating subset per orbit of a group of automorphisms,
  in every cyclic ordering, at desk scale, keeps the regular maps, and
  groups them into isomorphism classes by their arc codes (`maps.arc_code`).

`verify_claim` runs the named cross-checks between the two halves; claim ids
are short opaque strings fixed by the command-line contract.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .counting import (
    CLAIM_IDS,
    SizeGuardError,
    UsageError,
    _require_odd_prime,
    count_agreement,
    # not called here: the benchmark's tracer wraps these two, and
    # triples_for, by their names on classify
    count_regular_dihedral_maps,
    crt_lift_solutions,
    geosum_order,
    guard_count_n,
    triples_for,
)
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
    FiniteGroup,
)
from .maps import (
    GRAPH_AUT_MAX_VERTICES,
    CayleyMap,
    arc_code,
    build_map,
    maps_isomorphic,  # unused here; the benchmark's tracer wraps it by this name
    reversal_row,
    rotation_row,
    skew_morphism,
)
from .perms import (
    Permutation,
    all_involutions,
    cycle_and_involution_group,
    reflection_fixing_last,
)

MAX_CENSUS_ARCS = 400
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



# -- the abelian catalogue ------------------------------------------------------------


def family_groups(kind: str, n_max: int) -> Iterator[tuple[FiniteGroup, int]]:
    """(group, n) over one family up to its bound, lazily and in report order:
    dihedral and dicyclic n from 3 and 2, abelian n = order (the catalogue,
    one group per isomorphism class), elem2 n = rank from 1."""
    if kind == "dihedral":
        return ((DihedralGroup(n), n) for n in range(3, n_max + 1))
    if kind == "dicyclic":
        return ((DicyclicGroup(n), n) for n in range(2, n_max + 1))
    if kind == "elem2":
        return ((ElemAbelian2Group(r), r) for r in range(1, n_max + 1))
    if kind != "abelian":
        raise ValueError(f"unknown group family {kind!r}")
    return (
        (_abelian_group(chain), order)
        for order in range(2, n_max + 1)
        for chain in _invariant_factor_chains(order)
    )


def _abelian_group(chain: tuple[int, ...]) -> FiniteGroup:
    if len(chain) == 1:
        return CyclicGroup(chain[0])
    if all(d == 2 for d in chain):
        return ElemAbelian2Group(len(chain))
    return AbelianProductGroup(chain)


def _invariant_factor_chains(order: int) -> list[tuple[int, ...]]:
    """All tuples (d1, ..., dm) with d1 | d2 | ... | dm, product = order,
    every di >= 2, listed by increasing length then lexicographically."""

    def rec(remaining: int, min_d: int) -> list[tuple[int, ...]]:
        chains = [(remaining,)] if remaining >= min_d else []
        for d in range(min_d, remaining):
            if remaining % d == 0:
                for tail in rec(remaining // d, d):
                    if tail[0] % d == 0:
                        chains.append((d,) + tail)
        return chains

    chains = rec(order, 2)
    chains.sort(key=lambda c: (len(c), c))
    return chains


# -- exhaustive search -------------------------------------------------------------


def inverse_closed_sets(group: FiniteGroup, valence: int) -> list[tuple]:
    """The unit-free, inverse-closed, generating subsets of the given size,
    one per orbit of H = group.automorphism_ranks(): each orbit's
    rank-lexicographic least member, sorted by element rank; the list itself
    is rank-lexicographic. An automorphism carries CM(G, X, rho) to the
    isomorphic map CM(G, psi X, psi rho psi^-1), so the search needs no more.

    The least member X of an orbit starts with an orbit minimum m (the least
    rank of its H-orbit), and every x in X has an orbit minimum >= m. So for
    each m, ascending, the sets holding m are drawn from those ranks only
    (the pool of m), and every one of them is listed. Generation is tested
    first, set by set: a set that fails it closes up in a small subgroup at
    once, and almost no set of a large elementary abelian pool generates.
    Each generating set is then tested for being least in its orbit
    (`_least_in_orbit`) as soon as it is found."""
    if valence < 3:
        raise ValueError(f"valence must be >= 3, got {valence}")
    auts = _automorphisms(group)
    orbit_min = auts.orbit_min
    elems = group.elements()
    inv = [group.rank(group.inv(g)) for g in elems]
    identity = group.identity_rank
    out: list[list[int]] = []
    for m in range(group.order):
        if m == identity or orbit_min[m] != m:
            continue
        allowed = {r for r in range(m, group.order) if orbit_min[r] >= m}
        allowed.discard(identity)
        if inv[m] not in allowed:
            continue
        base = (m,) if inv[m] == m else (m, inv[m])
        rest = [r for r in range(m + 1, group.order) if r in allowed and r != inv[m]]
        involutions = [r for r in rest if inv[r] == r]
        pairs = [(r, inv[r]) for r in rest if r < inv[r] and inv[r] in allowed]
        free = valence - len(base)
        for n_inv in range(free % 2, min(free, len(involutions)) + 1, 2):
            n_pair = (free - n_inv) // 2
            if n_pair > len(pairs):
                continue
            for invs in combinations(involutions, n_inv):
                for prs in combinations(pairs, n_pair):
                    xset = sorted(base + invs + tuple(x for pr in prs for x in pr))
                    if not group.generates_ranks(xset):
                        continue
                    # the rows are grouped at the pool's first generating set
                    if _least_in_orbit(auts.sending_to(m), xset):
                        out.append(xset)
    out.sort()
    return [tuple(elems[r] for r in xset) for xset in out]


class _Automorphisms:
    """The rows of one group's automorphism_ranks(), their orbit minima, and
    the rows sending ranks to each orbit minimum asked for."""

    def __init__(self, rows: list[list[int]]) -> None:
        self.rows = rows
        # the least rank in each rank's orbit
        self.orbit_min = list(map(min, zip(*rows)))
        self._sending_to: dict[int, dict[int, list[list[int]]]] = {}

    def sending_to(self, m: int) -> dict[int, list[list[int]]]:
        """The rows keyed by the rank each one sends to m: the keys are the
        orbit of m, and each key holds one coset of the stabilizer of m."""
        if m not in self._sending_to:
            to_m: dict[int, list[list[int]]] = {}
            for row in self.rows:
                to_m.setdefault(row.index(m), []).append(row)
            self._sending_to[m] = to_m
        return self._sending_to[m]


# The last group's automorphisms, so a census builds them once per group and
# holds one group's rows at a time, like the product table's one-slot cache.
# The key is the group's bound automorphism_ranks, so a group whose method is
# replaced gets its new rows.
_last_automorphisms: list[tuple[Callable[[], list[list[int]]], _Automorphisms]] = []


def _automorphisms(group: FiniteGroup) -> _Automorphisms:
    rows_of = group.automorphism_ranks
    if not _last_automorphisms or _last_automorphisms[0][0] != rows_of:
        _last_automorphisms.clear()  # before the new rows are built
        _last_automorphisms.append((rows_of, _Automorphisms(rows_of())))
    return _last_automorphisms[0][1]


def _least_in_orbit(to_m: dict[int, list[list[int]]], xset: list[int]) -> bool:
    """Is the sorted rank list xset, whose least rank m is an orbit minimum,
    the least of its sorted images? An image below xset must start with m,
    so it comes from a row sending some x of xset to m, and those rows are
    to_m[x] (`_Automorphisms.sending_to`). Stops at the first smaller
    image."""
    for x in xset:
        for row in to_m.get(x, ()):
            if sorted(map(row.__getitem__, xset)) < xset:
                return False
    return True


def cyclic_orderings(xset: Sequence) -> Iterator[tuple]:
    """All orderings of the set with the first (minimal) element pinned,
    one representative per cyclic rotation class."""
    first = xset[0]
    for rest in permutations(xset[1:]):
        yield (first,) + rest


def _survivors_for_sets(
    group: FiniteGroup, valence: int, sets: Sequence[tuple]
) -> dict[bytes, list[tuple[int, ...]]]:
    """Rank tuples of every ordering (first element pinned) of the given
    inverse-closed sets whose map is regular, grouped by arc code: one
    group per isomorphism class."""
    classes: dict[bytes, list[tuple[int, ...]]] = {}
    if not sets:
        return classes  # spares the product table of a group with no sets
    table, inv = group.rank_table()
    row_R = rotation_row(group.order * valence, valence)
    for xset in sets:
        set_ranks = tuple(group.rank(x) for x in xset)
        for xs_ranks in cyclic_orderings(set_ranks):
            kappa0 = [xs_ranks.index(inv[r]) for r in xs_ranks]
            if skew_morphism(group, xs_ranks, kappa0) is not None:
                row_L = reversal_row(table, xs_ranks, kappa0)
                classes.setdefault(arc_code(row_R, row_L), []).append(xs_ranks)
    return classes


def _survivor_worker(args: tuple) -> dict[bytes, list[tuple[int, ...]]]:
    group, valence, sets = args
    return _survivors_for_sets(group, valence, sets)


def exhaustive_regular_maps(
    group: FiniteGroup, valence: int, jobs: int = 1
) -> list[CayleyMap]:
    """Independent search oracle: one inverse-closed generating subset of
    the given size per automorphism orbit, every cyclic ordering (first
    element pinned), kept when regular, grouped by arc code into isomorphism
    classes. Representatives are the rank-lexicographic minima of their
    classes over every generating set, sorted by ranks.
    At most min(jobs, CPU count) worker processes share the orderings."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _guard_census(group, valence)
    sets = inverse_closed_sets(group, valence)
    workers = min(jobs, os.cpu_count() or 1, len(sets))
    if workers > 1:
        # imported here, so a process that never forks a pool (every serial
        # run, and every CLI start) skips loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        bounds = [i * len(sets) // workers for i in range(workers + 1)]
        chunks = [
            (group, valence, sets[bounds[i] : bounds[i + 1]]) for i in range(workers)
        ]
        classes: dict[bytes, list[tuple[int, ...]]] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_survivor_worker, chunks):
                for code, orderings in part.items():
                    classes.setdefault(code, []).extend(orderings)
    else:
        classes = _survivors_for_sets(group, valence, sets)
    if not classes:
        return []
    elems = group.elements()
    reps = [
        build_map(group, [elems[r] for r in _least_image(group, cls)])
        for cls in classes.values()
    ]
    reps.sort(key=CayleyMap.xs_ranks)
    return reps


def _least_image(
    group: FiniteGroup, orderings: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """The rank-lexicographic least psi(s), rotated to start at its least
    rank, over the rows psi of group.automorphism_ranks() and the orderings
    s of one class. Regularity and the isomorphism class are invariant under
    automorphisms, so these are exactly the class's regular orderings over
    every generating set. The least rank of any image of s is m, the least
    orbit minimum among its ranks, and only an image holding m can win: one
    under a row sending some s_i to m, which the image is then rotated to
    start at."""
    auts = _automorphisms(group)
    best = None
    for s in orderings:
        to_m = auts.sending_to(min(auts.orbit_min[x] for x in s))
        for i, x in enumerate(s):
            for row in to_m.get(x, ()):
                image = [row[y] for y in s]
                rotated = tuple(image[i:] + image[:i])
                if best is None or rotated < best:
                    best = rotated
    return best


# -- census entries ------------------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    """One row of a census or diagnostic report."""

    group: str
    n: int
    p: int
    xs: tuple[str, ...]
    regular: bool
    balance: str
    kappa: str
    mon_order: Union[int, str]  # monodromy order: |D|, or ">|D|+1" if irregular
    genus: int
    graph_aut_order: Optional[int]
    class_id: str

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "n": self.n,
            "p": self.p,
            "xs": list(self.xs),
            "regular": self.regular,
            "balance": self.balance,
            "kappa": self.kappa,
            "mon_order": self.mon_order,
            "genus": self.genus,
            "graph_aut_order": self.graph_aut_order,
            "class_id": self.class_id,
        }

    def csv_row(self) -> list[str]:
        return [
            self.group,
            str(self.n),
            str(self.p),
            " ".join(self.xs),
            "true" if self.regular else "false",
            self.balance,
            self.kappa,
            str(self.mon_order),
            str(self.genus),
            self.class_id,
        ]


CSV_COLUMNS = (
    "group",
    "n",
    "p",
    "xs",
    "regular",
    "balance",
    "kappa",
    "mon_order",
    "genus",
    "class_id",
)


def entry_for_map(
    m: CayleyMap,
    n_param: int,
    class_id: str,
    with_graph_aut: bool = False,
) -> CensusEntry:
    """Diagnostic row for one map; mon_order is |D| for a regular map and
    ">|D|+1" otherwise."""
    regular = m.is_regular()
    # <R, L> is transitive on the |D| arcs: order |D| if regular, else >= 2|D|
    mon: Union[int, str] = m.n_arcs if regular else f">{m.n_arcs + 1}"
    faces, genus = m.faces_and_genus()
    aut_order = None
    if with_graph_aut and m.group.order <= GRAPH_AUT_MAX_VERTICES:
        aut_order = m.graph_aut_order()
    return CensusEntry(
        group=m.group.name,
        n=n_param,
        p=m.k,
        xs=tuple(m.group.format_element(x) for x in m.xs),
        regular=regular,
        balance=str(m.balance_type()),
        kappa=m.kappa.cycle_string(),
        mon_order=mon,
        genus=genus,
        graph_aut_order=aut_order,
        class_id=class_id,
    )


def census_entries(
    group: FiniteGroup, n_param: int, valence: int, jobs: int = 1
) -> list[CensusEntry]:
    """Census rows for one group: isomorphism-class representatives of the
    regular maps of the given valence, in deterministic order."""
    reps = exhaustive_regular_maps(group, valence, jobs=jobs)
    return [
        entry_for_map(m, n_param, f"{group.name}-p{valence}-{idx}")
        for idx, m in enumerate(reps)
    ]


Target = tuple[FiniteGroup, int, int]  # (group, n, valence)


def guarded_targets(targets: Iterable[Target]) -> list[Target]:
    """The targets as a list, or SizeGuardError before any search when one
    of them needs more than MAX_CENSUS_ARCS arcs: a request is refused as a
    whole, never reported in part. Reading stops at the first refusal."""
    out = []
    for group, n, valence in targets:
        _guard_census(group, valence)
        out.append((group, n, valence))
    return out


def _guard_census(group: FiniteGroup, valence: int) -> None:
    """SizeGuardError when a census of the group needs more than
    MAX_CENSUS_ARCS arcs."""
    if group.order * valence > MAX_CENSUS_ARCS:
        raise SizeGuardError(
            f"census guard: {group.name} at valence {valence} needs "
            f"{group.order * valence} arcs, above {MAX_CENSUS_ARCS}"
        )


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


def _entry_str(m: CayleyMap, n_param: int) -> str:
    return ",".join(entry_for_map(m, n_param, "counterexample").csv_row())



def verify_claim(
    claim_id: str,
    p: Optional[int] = None,
    n_max: Optional[int] = None,
    jobs: int = 1,
) -> VerifyReport:
    """Run one named cross-check between the closed-form constructions and
    the exhaustive search oracle; ids are fixed by the CLI contract. The
    search-backed claims sweep a group family, refused as a whole up front
    by the census guard, and test the maps found on each group."""
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
        raise UsageError(
            f"abelian verification is bounded at order "
            f"{MAX_ABELIAN_VERIFY_ORDER}, got n_max={n_max}"
        )
    if claim_id == "2.7-consequence":
        # valences 3, 4 and 5 each where they fit the guard
        targets = guarded_targets(
            (group, n, valence)
            for group, n in family_groups("dicyclic", n_max)
            for valence in (3, 4, 5)
            if group.order * valence <= MAX_CENSUS_ARCS
        )
        family = "dicyclic"
    else:
        family = {"1.1": "abelian", "1.3": "dicyclic"}.get(claim_id, "dihedral")
        targets = guarded_targets((g, n, p) for g, n in family_groups(family, n_max))
    covered = _coverage(family, targets)
    checked, rows = 0, []
    if claim_id == "L3.2":
        checked, rows = _affine_involution_check(p)
        covered += f"; affine involutions of degree {p}"
    check, notes = _claim_check(claim_id, p)
    for group, n, valence in targets:
        maps = exhaustive_regular_maps(group, valence, jobs=jobs)
        count, bad = check(group, n, valence, maps)
        checked += count
        rows += bad
    return VerifyReport(claim_id, not rows, checked, rows, notes(), covered)


def _coverage(family: str, targets: list[Target]) -> str:
    """The groups a sweep searched, by valence, as "dihedral D3..D11
    valence 5 (9 groups)"."""
    parts = []
    for valence in sorted({v for _, _, v in targets}):
        names = [g.name for g, _, v in targets if v == valence]
        span = names[0] if len(names) == 1 else f"{names[0]}..{names[-1]}"
        groups = f"{len(names)} group" + ("s" if len(names) != 1 else "")
        parts.append(f"{family} {span} valence {valence} ({groups})")
    return "; ".join(parts) or f"{family} none (0 groups)"


# A claim's test of the regular maps found on one group:
# check(group, n, valence, maps) -> (objects counted, counterexample rows)
MapCheck = Callable[[FiniteGroup, int, int, list[CayleyMap]], tuple[int, list[str]]]


def _claim_check(
    claim_id: str, p: Optional[int]
) -> tuple[MapCheck, Callable[[], list[str]]]:
    """A fresh check for one run of a search-backed claim, and a function
    giving the report notes once the sweep is done."""
    seen = {"groups": 0, "balanced": 0}
    if claim_id == "1.1":
        # a regular abelian map is balanced on an elementary abelian 2-group
        # and isomorphic to a seed map, or it is the anti-balanced map on Z_2p
        anti_reference = antibalanced_cyclic_map(p)

        @lru_cache(maxsize=None)
        def seed_classes(r: int) -> set[bytes]:
            return {elem_abelian_map(f, p).arc_code() for f in elem_abelian_seeds(r, p)}

        # every census map is regular, so equal arc codes decide isomorphism
        def expected(m: CayleyMap) -> bool:
            bt = m.balance_type()
            if bt.is_balanced:
                r = m.group.order.bit_length() - 1
                return m.group.order == 1 << r and m.arc_code() in seed_classes(r)
            return bt.is_anti_balanced and m.arc_code() == anti_reference.arc_code()

        def check(group, n, valence, maps):
            seen["groups"] += 1
            return len(maps), [_entry_str(m, n) for m in maps if not expected(m)]

        return check, lambda: [f"abelian groups searched: {seen['groups']}"]
    if claim_id == "1.2":
        return _dihedral_classification, list
    if claim_id == "1.3":
        # no regular dicyclic map has odd prime valence; the claim counts groups
        def check(group, n, valence, maps):
            return 1, [_entry_str(m, n) for m in maps]

        return check, list
    if claim_id == "2.6":
        # no regular dihedral map is anti-balanced
        def check(group, n, valence, maps):
            anti = [m for m in maps if m.balance_type().is_anti_balanced]
            return len(maps), [_entry_str(m, n) for m in anti]

        return check, list
    if claim_id == "2.7-consequence":
        # a balanced regular dicyclic map has even valence
        def check(group, n, valence, maps):
            balanced = [m for m in maps if m.balance_type().is_balanced]
            seen["balanced"] += len(balanced)
            return len(maps), [_entry_str(m, n) for m in balanced if valence % 2]

        return check, lambda: [
            f"balanced regular dicyclic maps seen: {seen['balanced']}"
        ]
    # L3.2: a regular dihedral map, rotated so that a self-inverse generator
    # is last, has the identity or the reflection fixing the last slot as kappa
    allowed = {Permutation.identity(p), reflection_fixing_last(p)}

    def check(group, n, valence, maps):
        return len(maps), [
            _entry_str(m, n)
            for m in maps
            if m.canonical_base_rotation().kappa not in allowed
        ]

    return check, list


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
    if set(qualifying) == {Permutation.identity(p), reflection_fixing_last(p)}:
        return 1, []
    return 1, [
        f"p={p}: affine-compatible involutions are "
        f"{[q.to_cycles() for q in qualifying]}"
    ]
