"""The exhaustive census oracle and its report rows.

`exhaustive_regular_maps` enumerates one inverse-closed generating subset
per orbit of a group of automorphisms, in every cyclic ordering, at desk
scale, keeps the regular maps, and groups them into isomorphism classes by
their arc codes (`maps.arc_code`). The group families it sweeps, the census
guard and the census rows live here too.

The oracle may use only standard facts about Cayley maps, never the claims
it checks: this module never imports `claims`, which holds the closed-form
constructions and the verifiers, and reads nothing of `counting` but its
size-guard error.
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from itertools import combinations, permutations
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .counting import (
    SizeGuardError,
    # not called here: the benchmark's tracer wraps these three by their
    # names on classify
    count_regular_dihedral_maps,
    crt_lift_solutions,
    triples_for,
)
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
    FiniteGroup,
    is_generating,
    units,
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
from .perms import cycle_string

MAX_CENSUS_ARCS = 400


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


def inverse_closed_sets(group: FiniteGroup, valence: int) -> list[tuple[int, ...]]:
    """The unit-free, inverse-closed, generating subsets of the given size,
    one per orbit of H = group.automorphism_ranks(): each orbit's
    rank-lexicographic least member, as the sorted tuple of its element
    ranks; the list itself is rank-lexicographic. An automorphism carries
    CM(G, X, rho) to the isomorphic map CM(G, psi X, psi rho psi^-1), so the
    search needs no more. Z_n, D_n and Dic_n list them by arithmetic
    (`_affine_sets`), every other family by testing candidates against H's
    rows (`_row_sets`)."""
    if valence < 3:
        raise ValueError(f"valence must be >= 3, got {valence}")
    find = _affine_sets if _is_affine(group) else _row_sets
    return sorted(map(tuple, find(group, valence)))


def _is_affine(group: FiniteGroup) -> bool:
    """Is H affine on exponents: (i, e) -> (u * i + v * e, e) over the units
    u and all v mod m in D_n and Dic_n, i -> u * i in Z_n?"""
    return isinstance(group, (CyclicGroup, DihedralGroup, DicyclicGroup))


def _affine_sets(group: FiniteGroup, valence: int) -> list[list[int]]:
    """The least members of `inverse_closed_sets`, built by orderly
    generation (Read, "Every one a winner", Ann. Discrete Math. 2, 1978)
    with no other set listed. A set X is its powers a^r, exponents R, and
    its elements a^f * b, exponents F (none in Z_n). H keeps the two parts
    apart, and X's sorted ranks are R's (below m) and then F's (m + f), so
    X is least exactly when R is least under the units (`_least_rotations`)
    and F is least under f -> u * f + v, for any v and the units u with
    u * R = R (`_least_shifted_sets`). In Dic_n the inverse of a^f * b is
    a^(f + n) * b, so F is its residues mod n twice over, and orders and
    moves as they do mod n. Both parts grow in ascending order, and each
    prefix that is not least is pruned: a prefix P of a least sorted set is
    least, since under any map the |P| least images of the whole set lie at
    or below the sorted images of P, one by one. A least set is kept when
    it generates G by the family's `generates_ranks`, a gcd test."""
    if isinstance(group, CyclicGroup):
        n = group.n
        sets = (_rotation_ranks(half, n) for half, _ in _least_rotations(n, valence))
        return [xset for xset in sets if group.generates_ranks(xset)]
    m, n = group.m, group.n
    width = m // n  # elements a^f * b per residue f mod n: 1 in D_n, 2 in Dic_n
    # rotation parts with one stabilizer mod n share their least F
    least_shifted: dict[tuple, list[list[int]]] = {}
    out = []
    # no a^f * b: X lies in <a>, which is not all of G
    for n_flips in range(1, valence // width + 1):
        for half, stabilizer in _least_rotations(m, valence - width * n_flips):
            rotations = _rotation_ranks(half, m)
            key = (n_flips, tuple(sorted({u % n for u in stabilizer})))
            if key not in least_shifted:
                least_shifted[key] = _least_shifted_sets(n, *key)
            for flips in least_shifted[key]:
                xset = rotations + [m + j * n + f for j in range(width) for f in flips]
                if group.generates_ranks(xset):
                    out.append(xset)
    return out


def _least_rotations(m: int, size: int) -> list[tuple[list[int], list[int]]]:
    """(half, S) for every inverse-closed R of the given size in Z_m minus
    0 that is least under the units mod m: its half, the r <= m/2 of R
    ascending, and S, the units u with u * R = R. Sorted R is its half
    below m/2, then m/2 if R holds it (every unit fixes it), then the rest,
    so R compares as its half does, and a unit maps halves by
    h -> min(u * h, -u * h)."""
    us = units(m)

    def image(u: int, half: list[int]) -> list[int]:
        return sorted([min(u * h % m, -u * h % m) for h in half])

    found = []

    def grow(half: list[int], left: int) -> None:
        if not left:
            found.append(half)
            return
        for h in range(half[-1] + 1 if half else 1, m // 2 + 1):
            width = 1 if 2 * h == m else 2  # a^(m/2) is its own inverse
            longer = half + [h]
            if width <= left and all(image(u, longer) >= longer for u in us):
                grow(longer, left - width)

    grow([], size)
    return [(half, [u for u in us if image(u, half) == half]) for half in found]


def _least_shifted_sets(n: int, size: int, stabilizer: tuple[int, ...]) -> list[list[int]]:
    """The sorted F of the given size in Z_n that are least under
    f -> u * f + v mod n, for u in stabilizer and any v. Some v sends a
    member of F to 0, so F starts at 0, and only such a v can give a
    smaller image."""

    def least(flips: list[int]) -> bool:
        for u in stabilizer:
            for x in flips:
                if sorted([u * (f - x) % n for f in flips]) < flips:
                    return False
        return True

    found = []

    def grow(flips: list[int], left: int) -> None:
        if not left:
            found.append(flips)
            return
        for f in range(flips[-1] + 1, n - left + 1):
            longer = flips + [f]
            if least(longer):
                grow(longer, left - 1)

    grow([0], size - 1)
    return found


def _rotation_ranks(half: list[int], m: int) -> list[int]:
    """The sorted exponents of the inverse-closed set with this half: the
    rank of a^r is r."""
    return sorted({r for h in half for r in (h, m - h)})


def _row_sets(group: FiniteGroup, valence: int) -> list[list[int]]:
    """The least members of `inverse_closed_sets` by testing candidates.
    The least member X of an orbit starts with an orbit minimum m (the least
    rank of its H-orbit), and every x in X has an orbit minimum >= m. So for
    each m, ascending, the sets holding m are drawn from those ranks only
    (the pool of m), and every one of them is listed. Generation is tested
    first, set by set: a set that fails it closes up in a small subgroup at
    once, and almost no set of a large elementary abelian pool generates.
    A set is its base (m, and m^-1 if it differs), n_inv involutions and
    n_pair inverse pairs, so it generates what 1 + n_inv + n_pair elements
    do, and a split with fewer than `_min_generators` is skipped untested.
    Each generating set is then tested for being least in its orbit as soon
    as it is found: an image below it must start with m, so it is one of
    `_row_images`, and the test stops at the first smaller one."""
    tables = _tables_of(group)
    orbit_min, inv = tables.orbit_min, tables.inv
    identity = group.identity_rank
    min_generators = _min_generators(group)
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
            if n_pair > len(pairs) or 1 + n_inv + n_pair < min_generators:
                continue
            for invs in combinations(involutions, n_inv):
                for prs in combinations(pairs, n_pair):
                    xset = sorted(base + invs + tuple(x for pr in prs for x in pr))
                    if not is_generating(tables.table, xset, identity):
                        continue
                    # the rows are grouped at the pool's first generating set
                    images = _row_images(tables, xset)
                    if all(sorted(image) >= xset for _, image in images):
                        out.append(xset)
    return out


def _min_generators(group: FiniteGroup) -> int:
    """A lower bound on the size of a generating set: the rank d(G) of E_r
    and of a product of cyclic groups, 1 for any other group. The rank of
    Z_d1 x ... x Z_dj is the most moduli that one prime q divides: G/qG is
    a vector space of that dimension over F_q, and a generating set of G
    spans it. A composite q counts no more moduli than its prime factors,
    so every q from 2 up is tried."""
    if isinstance(group, ElemAbelian2Group):
        return group.r
    if isinstance(group, AbelianProductGroup):
        mods = group.mods
        return max(sum(d % q == 0 for d in mods) for q in range(2, max(mods) + 1))
    return 1


class _Tables:
    """One group's whole product table, the rank of each rank's inverse
    and, built on first use, the rows of H = automorphism_ranks(), their
    orbit minima, and the rows sending ranks to each orbit minimum asked
    for."""

    def __init__(self, group: FiniteGroup) -> None:
        self.table = group.products(range(group.order))
        self.inv = [group.rank(group.inv(g)) for g in group.elements()]
        self.rows_of = group.automorphism_ranks  # the key of `_tables_of`
        self._sending_to: dict[int, dict[int, list[list[int]]]] = {}

    @cached_property
    def rows(self) -> list[list[int]]:
        return self.rows_of()

    @cached_property
    def orbit_min(self) -> list[int]:
        """The least rank in each rank's orbit."""
        return list(map(min, zip(*self.rows)))

    def sending_to(self, m: int) -> dict[int, list[list[int]]]:
        """The rows keyed by the rank each one sends to m: the keys are the
        orbit of m, and each key holds one coset of the stabilizer of m."""
        if m not in self._sending_to:
            to_m: dict[int, list[list[int]]] = {}
            for row in self.rows:
                to_m.setdefault(row.index(m), []).append(row)
            self._sending_to[m] = to_m
        return self._sending_to[m]


# The tables of the group searched last, so a census builds each group's
# tables once and holds one group's at a time. The key is the group's bound
# automorphism_ranks, so a group whose method is replaced gets its new rows.
_last_tables: Optional[_Tables] = None


def _tables_of(group: FiniteGroup) -> _Tables:
    global _last_tables
    if _last_tables is None or _last_tables.rows_of != group.automorphism_ranks:
        _last_tables = _Tables(group)
    return _last_tables


def _row_images(tables: _Tables, s: Sequence[int]) -> Iterator[tuple[int, tuple]]:
    """(i, image) for each row of H that sends s[i] to m, the least orbit
    minimum among s's ranks, where image is the tuple of the row's images
    of s in s's order (s holds at least 3 ranks). Every image of s has
    least rank m, and these are the images holding m at a known slot i:
    the rows are `_Tables.sending_to(m)`[s[i]]. Lazy, so a caller can stop
    at the first image it rejects."""
    to_m = tables.sending_to(min(map(tables.orbit_min.__getitem__, s)))
    image = itemgetter(*s)
    for i, x in enumerate(s):
        for row in to_m.get(x, ()):
            yield i, image(row)


def cyclic_orderings(xset: Sequence) -> Iterator[tuple]:
    """All orderings of the set with the first (minimal) element pinned,
    one representative per cyclic rotation class."""
    first = xset[0]
    for rest in permutations(xset[1:]):
        yield (first,) + rest


def _survivors_for_sets(
    group: FiniteGroup, valence: int, sets: Sequence[tuple[int, ...]]
) -> dict[bytes, list[tuple[int, ...]]]:
    """Rank tuples of every ordering (first element pinned) of the given
    inverse-closed sets, sorted rank tuples as `inverse_closed_sets` lists
    them, whose map is regular, grouped by arc code: one group per
    isomorphism class."""
    classes: dict[bytes, list[tuple[int, ...]]] = {}
    if not sets:
        return classes  # spares the product table of a group with no sets
    tables = _tables_of(group)
    table, inv = tables.table, tables.inv
    row_R = rotation_row(group.order * valence, valence)
    for xset in sets:
        for xs_ranks in cyclic_orderings(xset):
            kappa0 = [xs_ranks.index(inv[r]) for r in xs_ranks]
            if skew_morphism(table, xs_ranks, kappa0, group.identity_rank) is not None:
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
    rank, over the automorphisms psi in H = group.automorphism_ranks() and
    the orderings s of one class. Regularity and the isomorphism class are
    invariant under automorphisms, so these are exactly the class's regular
    orderings over every generating set. The least rank of any image of s
    is the least orbit minimum among its ranks, and only an image holding it
    can win, rotated to start there: by arithmetic in Z_n, D_n and Dic_n
    (`_least_affine_image`), and under the rows sending a rank of s to it
    otherwise."""
    if _is_affine(group):
        return min(_least_affine_image(group, s) for s in orderings)
    tables = _tables_of(group)
    return min(
        image[i:] + image[:i]
        for s in orderings
        for i, image in _row_images(tables, s)
    )


def _least_affine_image(group: FiniteGroup, s: tuple[int, ...]) -> tuple[int, ...]:
    """`_least_image` of one ordering s under (i, e) -> (u * i + v * e, e),
    over the units u and all v mod m (Z_n: m = n, and no element has
    e = 1). The orbit minimum of a^r is gcd(r, m), and that of every
    a^f * b is m, reached by v = -u * f. So the least image starts at the
    least gcd d over the powers of a in s, at a slot a^r with u * r = d, or,
    when s holds no power of a, at any slot and under any u. Starting
    there, the slots before the first a^f * b do not depend on v, and the
    least value at that slot is m, which fixes v = -u * f."""
    m = group.n if isinstance(group, CyclicGroup) else group.m
    us = units(m)
    gcds = [math.gcd(x, m) for x in s if x < m]
    if gcds:
        d = min(gcds)
        starts = [(i, u) for i, x in enumerate(s) if x < m for u in us if u * x % m == d]
    else:
        starts = [(i, u) for i in range(len(s)) for u in us]
    best = None
    for i, u in starts:
        rotated = s[i:] + s[:i]
        first = next((x - m for x in rotated if x >= m), 0)
        v = -u * first
        image = tuple(u * x % m if x < m else m + (u * x + v) % m for x in rotated)
        if best is None or image < best:
            best = image
    return best


# -- census entries ------------------------------------------------------------------


class CensusEntry(NamedTuple):
    """One row of a census or diagnostic report. The fields, in order, are
    its JSON keys and, but for graph_aut_order, its CSV columns."""

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
        doc = self._asdict()
        doc["xs"] = list(self.xs)
        return doc

    def csv_row(self) -> list[str]:
        return [_csv_cell(getattr(self, name)) for name in CSV_COLUMNS]


# every field but graph_aut_order, which only the JSON report carries
CSV_COLUMNS = tuple(name for name in CensusEntry._fields if name != "graph_aut_order")


def _csv_cell(value: Union[str, int, bool, tuple[str, ...]]) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(value)
    return str(value)


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
        kappa=cycle_string(m.kappa),
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
    of them fails the census guard (`fits_census`): a request is refused as
    a whole, never reported in part. Reading stops at the first refusal."""
    out = []
    for group, n, valence in targets:
        _guard_census(group, valence)
        out.append((group, n, valence))
    return out


def fits_census(group: FiniteGroup, valence: int) -> bool:
    """Does a census of the group at this valence fit the census guard,
    at most MAX_CENSUS_ARCS arcs?"""
    return group.order * valence <= MAX_CENSUS_ARCS


def _guard_census(group: FiniteGroup, valence: int) -> None:
    """SizeGuardError when a census of the group does not fit the guard."""
    if not fits_census(group, valence):
        raise SizeGuardError(
            f"census guard: {group.name} at valence {valence} needs "
            f"{group.order * valence} arcs, above {MAX_CENSUS_ARCS}"
        )
