"""The slow routes that the fast paths are checked against, each written
once: every route more than one test uses. Each docstring names the fast
path it checks.

Pytest does not collect it: its name does not start with `test_`.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import cayleymaps
from cayleymaps._kernels import closure_table
from cayleymaps.groups import CyclicGroup, is_generating
from cayleymaps.maps import arc_bijection_exists, build_map

SRC = str(Path(cayleymaps.__file__).resolve().parents[1])


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH, so
    a fresh interpreter imports it even when it is not installed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# -- groups and permutations ---------------------------------------------------


def closure(group, seed) -> set:
    """The subgroup seed generates, grown by breadth-first multiplication on
    elements; checks `FiniteGroup.generates` and `generates_ranks`, and
    the breadth-first search on a product table (`groups.is_generating`)."""
    gens = [group.check(g) for g in seed]
    found = {group.identity}
    frontier = [group.identity]
    while frontier:
        fresh = []
        for g in frontier:
            for s in gens:
                h = group.mul(g, s)
                if h not in found:
                    found.add(h)
                    fresh.append(h)
        frontier = fresh
    return found


def naive_closure(rows, bound: float = math.inf):
    """Every product of the 0-based permutation rows, composing t with g as
    t[g[x]], grown breadth-first from the identity over image tuples; None
    once more than bound are found. Checks `_kernels.closure_table` and
    claim L3.2's normaliser test (`claims.affine_compatible_involutions`),
    with which it shares no code."""
    m = len(rows[0])
    ident = tuple(range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for t in frontier:
            for g in rows:
                u = tuple(t[g[x]] for x in range(m))
                if u not in seen:
                    seen.add(u)
                    fresh.append(u)
                    if len(seen) > bound:
                        return None
        frontier = fresh
    return seen


# -- the census search -----------------------------------------------------------


def slow_candidates(group, valence) -> list:
    """Every candidate map, enumerated without the census's helpers: each
    unit-free inverse-closed subset whose element-level closure is the whole
    group, in every ordering with its minimal-rank element first. The census
    (`classify.exhaustive_regular_maps`) tries one subset per automorphism
    orbit, tested by `generates_ranks`."""
    elems = [g for g in group.elements() if g != group.identity]
    out = []
    for xset in combinations(elems, valence):
        if {group.inv(x) for x in xset} != set(xset):
            continue
        if len(closure(group, xset)) != group.order:
            continue
        first, *rest = xset
        out.extend(build_map(group, (first,) + tail) for tail in permutations(rest))
    return out


def full_inverse_closed_sets(group, valence) -> list[tuple[int, ...]]:
    """Every unit-free, inverse-closed, generating subset of the given size
    as a sorted rank tuple, rank-lexicographic: the census's enumeration
    (`classify.inverse_closed_sets`) before it kept one set per automorphism
    orbit. Generation is the breadth-first search `groups.is_generating` on
    the group's one whole product table, never a family's closed form."""
    table = group.products(range(group.order))
    inv = [group.rank(group.inv(g)) for g in group.elements()]
    identity = group.identity_rank
    involutions = [r for r in range(group.order) if r != identity and inv[r] == r]
    pairs = [(r, inv[r]) for r in range(group.order) if r < inv[r]]
    out = []
    for n_inv in range(valence % 2, min(valence, len(involutions)) + 1, 2):
        n_pair = (valence - n_inv) // 2
        for invs in combinations(involutions, n_inv):
            for prs in combinations(pairs, n_pair):
                xset = tuple(sorted(invs + tuple(x for pr in prs for x in pr)))
                if is_generating(table, xset, identity):
                    out.append(xset)
    return sorted(out)


def least_orbit_members(group, sets) -> list[tuple[int, ...]]:
    """The least member of each automorphism orbit among the sorted rank
    tuples, by imaging each set not met in an earlier orbit under every row
    of group.automorphism_ranks(); ascending. Checks the search of
    `classify.inverse_closed_sets`: the per-set early-exit orbit test of its
    row route, and the orderly generation of its affine route."""
    rows = group.automorphism_ranks()
    seen: set[tuple[int, ...]] = set()
    least = set()
    for xset in sets:
        if xset not in seen:
            orbit = {tuple(sorted([row[x] for x in xset])) for row in rows}
            seen |= orbit
            least.add(min(orbit))
    return sorted(least)


def affine_orbit_size(group, xset) -> int:
    """|H| / |Stab_H(X)|, the orbit size of the sorted rank tuple X of Z_n,
    D_n or Dic_n under the maps (i, e) -> (u * i + v * e, e) that
    group.automorphism_ranks() lists (Z_n: v = 0), by arithmetic and no
    row: X is fixed by the units u that fix its exponents R of powers of a,
    each with the v that fix its exponents F of the elements a^f * b. Such
    a v sends u * F[0] into F."""
    if isinstance(group, CyclicGroup):
        m, shifts = group.n, 1
    else:
        m, shifts = group.m, group.m
    rotations = [x for x in xset if x < m]
    flips = [x - m for x in xset if x >= m]
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    fixing = 0
    for u in units:
        if sorted(u * r % m for r in rotations) != rotations:
            continue
        if not flips:
            fixing += shifts
            continue
        fixing += sum(
            sorted((u * (f - flips[0]) + h) % m for f in flips) == flips for h in flips
        )
    return len(units) * shifts // fixing


def _inverse_closed_count(involutions: int, pairs: int, k: int) -> int:
    """The unit-free, inverse-closed k-subsets of a group with this many
    involutions and inverse pairs: j involutions and (k - j) / 2 pairs."""
    return sum(
        math.comb(involutions, j) * math.comb(pairs, (k - j) // 2)
        for j in range(k % 2, k + 1, 2)
    )


@lru_cache(maxsize=None)
def generating_count(family: str, n: int, k: int) -> int:
    """N_gen(G, k), the unit-free, inverse-closed, generating k-subsets of
    G = Z_n ("cyclic"), D_n ("dihedral") or Dic_n ("dicyclic"), by no
    search: every inverse-closed set generates exactly one subgroup K, so
    N_gen(G) = N_ic(G) - sum of N_gen(K) over the proper subgroups K. Those
    of Z_n are <d> = Z_(n/d) for d | n, d > 1; those of D_n are <a^d> =
    Z_(n/d) for every d | n, and <a^d, a^i * b> = D_(n/d) for d | n, d > 1
    and 0 <= i < d (D_1 being {e, b}); those of Dic_n are <a^d> = Z_(2n/d)
    for every d | 2n, and <a^d, a^i * b> = Dic_(n/d) for d | n, d > 1 and
    0 <= i < d (Dic_1 being Z_4 = <a^i * b>). Z_n has one involution when n
    is even, and D_n its n reflections besides. Dic_n has one involution,
    a^n, and 2n - 1 inverse pairs: each a^i * b has order 4 and inverse
    a^(i + n) * b. Checks the census's set search by orbit-stabilizer:
    summing |H| / |Stab_H(X)| over the listed X gives N_gen, and a set
    missed or listed twice changes the sum."""
    even = 1 - n % 2
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    if family == "cyclic":
        total = _inverse_closed_count(even, (n - 1 - even) // 2, k)
        return total - sum(generating_count("cyclic", n // d, k) for d in divisors[1:])
    if family == "dicyclic":
        total = _inverse_closed_count(1, 2 * n - 1, k)
        divisors_2n = [d for d in range(1, 2 * n + 1) if 2 * n % d == 0]
        return (
            total
            - sum(generating_count("cyclic", 2 * n // d, k) for d in divisors_2n)
            - sum(d * generating_count("dicyclic", n // d, k) for d in divisors[1:])
        )
    total = _inverse_closed_count(n + even, (n - 1 - even) // 2, k)
    return (
        total
        - sum(generating_count("cyclic", n // d, k) for d in divisors)
        - sum(d * generating_count("dihedral", n // d, k) for d in divisors[1:])
    )


def elem2_orbit_size(r: int, xset) -> int:
    """r! / |Stab(X)|, the orbit size of the set X of bit masks of E_r
    under the r! coordinate permutations that
    ElemAbelian2Group(r).automorphism_ranks() lists, by moving bits and no
    row."""
    target = set(xset)
    fixing = sum(
        {sum(1 << sigma[j] for j in range(r) if x >> j & 1) for x in xset} == target
        for sigma in permutations(range(r))
    )
    return math.factorial(r) // fixing


def elem2_generating_count(r: int, k: int) -> int:
    """N_gen(E_r, k), the unit-free generating k-subsets of E_r, by no
    search: every non-identity element is its own inverse, a d-dimensional
    subspace holds C(2^d - 1, k) k-subsets, and Mobius inversion over the
    subspace lattice, with mu = (-1)^c * 2^(c(c - 1)/2) at codimension c
    and [r d]_2 subspaces of dimension d, counts those lying in no proper
    one. Checks the row route of `classify.inverse_closed_sets` by
    orbit-stabilizer, as `generating_count` checks the affine one."""
    total = 0
    for d in range(r + 1):
        subspaces = 1  # the Gaussian binomial [r d]_2
        for i in range(d):
            subspaces = subspaces * (2 ** (r - i) - 1) // (2 ** (i + 1) - 1)
        c = r - d
        total += subspaces * (-1) ** c * 2 ** (c * (c - 1) // 2) * math.comb(2**d - 1, k)
    return total


# -- regularity and isomorphism ------------------------------------------------------


def monodromy_closure(rot, rev) -> tuple[int, bool]:
    """(order, exceeded) of the monodromy group <R, L> on the arcs, by the
    breadth-first closure `_kernels.closure_table` with cutoff |D| + 1."""
    size, exceeded, _ = closure_table([rot, rev], len(rot) + 1)
    return size, exceeded


def closure_regular(rot, rev) -> bool:
    """Regularity by the monodromy closure: <R, L> has exactly |D|
    elements. Checks the skew-morphism walk (`maps.skew_morphism`) that
    `CayleyMap.is_regular` and the census decide regularity by."""
    size, exceeded = monodromy_closure(rot, rev)
    return size == len(rot) and not exceeded


def classes_by_sweep(rows) -> list[list[int]]:
    """Indices of the (R, L) row pairs grouped pairwise, each against the
    first member of each class, by `arc_bijection_exists` over every image
    of arc 0. Checks the grouping by `maps.arc_code` that the census
    deduplicates by."""
    classes: list[list[int]] = []
    for i, (rot, rev) in enumerate(rows):
        for cls in classes:
            if arc_bijection_exists(*rows[cls[0]], rot, rev):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


# -- counting ---------------------------------------------------------------------


def scalar_triples_for(n: int, p: int) -> list[int]:
    """The l in [1, n) whose first vanishing partial sum 1 + l + ... mod n
    is the p-th, by a per-l loop over the first p partial sums in Python
    integers. Checks the scan `counting.triples_for` and its order test."""
    out = []
    for l in range(1, n):
        s, power = 0, 1
        for k in range(1, p + 1):
            s = (s + power) % n
            if s == 0:
                break
            power = power * l % n
        if s == 0 and k == p:
            out.append(l)
    return out


def pow_roots(q: int, e: int, p: int) -> list[int]:
    """The x in [1, q^e) with x^p = 1 mod q^e and x != 1 mod q, by Python's
    pow. Checks the blocked root scan behind `counting.crt_lift_solutions`."""
    qe = q**e
    return [x for x in range(1, qe) if pow(x, p, qe) == 1 and x % q != 1]


def reference_factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs by trial division by every integer from 2.
    Checks `counting._factorize`."""
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


def reference_lift(n: int, p: int) -> list[int]:
    """The x in [1, n) that `counting.crt_lift_solutions` lifts, by their
    definition: 1 mod p when p divides n once, and a root from pow_roots
    modulo every other prime power of n; none when n is 1 or even or p^2
    divides n."""
    if n == 1 or n % 2 == 0 or n % (p * p) == 0:
        return []
    allowed = {
        q**e: {1} if q == p else set(pow_roots(q, e, p))
        for q, e in reference_factorize(n)
    }
    return [x for x in range(1, n) if all(x % m in r for m, r in allowed.items())]
