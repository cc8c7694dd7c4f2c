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

import os
from dataclasses import dataclass, fields
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["xs"] = list(self.xs)
        return doc

    def csv_row(self) -> list[str]:
        return [_csv_cell(getattr(self, name)) for name in CSV_COLUMNS]


# every field but graph_aut_order, which only the JSON report carries
CSV_COLUMNS = tuple(f.name for f in fields(CensusEntry) if f.name != "graph_aut_order")


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
