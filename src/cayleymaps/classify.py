"""Constructions, counting formulas, and the exhaustive census oracle.

This module has two independent halves that check each other:

* closed-form machinery — geometric-sum orders, the dihedral construction
  from a triple (n, l, k), the anti-balanced cyclic construction, seed pairs
  over GF(2), a product formula for the number of isomorphism classes, and a
  CRT-based enumeration of the same classes;
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
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DicyclicGroup,
    DihedralGroup,
    ElemAbelian2Group,
    FiniteGroup,
    Gf2Matrix,
)
from .maps import (
    GRAPH_AUT_MAX_VERTICES,
    CayleyMap,
    SizeGuardError,
    arc_code,
    build_map,
    maps_isomorphic,  # unused here; the benchmark's tracer wraps it by this name
    reversal_row,
    rotates_base_star,
    rotation_row,
)
from .perms import (
    Permutation,
    all_involutions,
    cycle_and_involution_group,
    reflection_fixing_last,
)

MAX_CENSUS_ARCS = 400
MAX_SEED_RANK = 4
MAX_ABELIAN_VERIFY_ORDER = 16
# The counting scans (triples_for, crt_lift_solutions) run over int64 blocks
# of at most COUNT_BLOCK residues, so their memory stays flat in n. A product
# of two residues mod n is exact in int64 while n^2 < 2^63; MAX_COUNT_N keeps
# n^2 <= 2^62. It bounds exactness, not time: both scans are linear in n.
COUNT_BLOCK = 1 << 16
MAX_COUNT_N = 2**31
# A counting sweep meets the same primes and prime powers again and again;
# the validated primes and each prime power's root scan are memoised, the
# most recent COUNT_MEMO_SIZE of each (a prime power's roots number < p).
COUNT_MEMO_SIZE = 1 << 12

CLAIM_IDS = ("1.1", "1.2", "1.3", "2.6", "2.7-consequence", "3.4", "L3.2")


class UsageError(ValueError):
    """A caller's input is invalid: a bad claim id, prime or range, or a
    malformed group or map. Internal errors stay plain exceptions."""


@lru_cache(maxsize=COUNT_MEMO_SIZE)
def _require_odd_prime(p: int) -> int:
    if p < 3 or p % 2 == 0:
        raise UsageError(f"expected an odd prime, got {p}")
    # refused before the trial division, which takes about sqrt(p)/2 steps
    if p > MAX_COUNT_N:
        raise SizeGuardError(f"count guard: p={p} exceeds {MAX_COUNT_N}")
    if any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
        raise UsageError(f"expected an odd prime, got {p}")
    return p


def _factorize(m: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


# -- geometric-sum orders and triples -----------------------------------------


def geosum_order(n: int, l: int) -> Optional[int]:
    """Smallest k >= 1 with 1 + l + ... + l^(k-1) divisible by n, else None.

    The pair (partial sum, l^k) mod n takes at most n^2 values, so searching
    k <= n^2 is exhaustive: beyond that the sequence of pairs has cycled.
    """
    if not 0 < l < n:
        raise ValueError(f"need 0 < l < n, got l={l}, n={n}")
    s = 0
    power = 1
    for k in range(1, n * n + 1):
        s = (s + power) % n
        if s == 0:
            return k
        power = (power * l) % n
    return None


def guard_count_n(n: int) -> None:
    """SizeGuardError when the counting scans cannot run exactly for n."""
    if n > MAX_COUNT_N:
        raise SizeGuardError(f"count guard: n={n} exceeds {MAX_COUNT_N}")


def _residue_blocks(m: int, block: int) -> Iterator[np.ndarray]:
    """The residues 1..m-1 in ascending int64 blocks of at most block."""
    for start in range(1, m, block):
        yield np.arange(start, min(start + block, m), dtype=np.int64)


def triples_for(n: int, p: int) -> list[int]:
    """All l with geosum_order(n, l) == p, ascending.

    Only the first p partial sums S_k = 1 + l + ... + l^(k-1) are needed:
    the order equals p exactly when S_p vanishes mod n and no earlier one
    does (S_1 = 1 never does for n >= 2). They are stepped by Horner's rule,
    S_2 = l + 1 and S_(k+1) = l * S_k + 1, with one modulus per step: S_k is
    reduced below n and l < n, so l * S_k + 1 <= (n-1)^2 + 1 < 2^63 stays
    exact in int64 for n <= MAX_COUNT_N. Every l in [1, n) is scanned, a
    block at a time, unless p > n: S_1, ..., S_k are distinct mod n up to
    the first S_k = 0 (S_k is the k-th iterate of x -> l * x + 1 from 0), so
    geosum_order(n, l) <= n and no l qualifies.
    """
    _require_odd_prime(p)
    guard_count_n(n)
    out: list[int] = []
    if p > n:
        return out
    for l in _residue_blocks(n, COUNT_BLOCK):
        s = l + 1  # S_2, stepped in place
        s %= n
        unhit = s != 0
        for _ in range(p - 3):
            s *= l
            s += 1
            s %= n
            unhit &= s != 0
        s *= l
        s += 1
        s %= n
        out.extend(l[unhit & (s == 0)].tolist())
    return out


@dataclass(frozen=True)
class Triple:
    """A pair (n, l) together with its geometric-sum order k, validated."""

    n: int
    l: int
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.l < self.n:
            raise ValueError(f"need 0 < l < n, got l={self.l}, n={self.n}")
        if math.gcd(self.l, self.n) != 1:
            raise ValueError(f"l={self.l} and n={self.n} are not coprime")
        actual = geosum_order(self.n, self.l)
        if actual != self.k:
            raise ValueError(
                f"geometric-sum order of l={self.l} mod n={self.n} is "
                f"{actual}, not {self.k}"
            )


# -- closed-form constructions --------------------------------------------------


def balanced_dihedral_map(n: int, l: int, p: int) -> CayleyMap:
    """The balanced p-valent map on the dihedral group of order 2n whose
    reflection exponents are the partial geometric sums of l."""
    _require_odd_prime(p)
    Triple(n, l, p)
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


def elem_abelian_seeds(r: int, p: int) -> list[tuple[Gf2Matrix, int]]:
    """All (A, x) with A an invertible GF(2) matrix of exact order p and the
    orbit x, Ax, ..., A^(p-1)x consisting of p distinct vectors spanning the
    whole rank-r space. Pairs are listed in enumeration order of A then x."""
    if not 1 <= r <= MAX_SEED_RANK:
        raise ValueError(f"seed rank must be in 1..{MAX_SEED_RANK}, got {r}")
    _require_odd_prime(p)
    out = []
    for A in Gf2Matrix.enumerate_invertible(r):
        if A.order() != p:
            continue
        for x in range(1, 1 << r):
            orbit = _seed_orbit(A, x, p)
            if len(set(orbit)) != p:
                continue
            if _span_rank(orbit) == r:
                out.append((A, x))
    return out


def _span_rank(vectors: Sequence[int]) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def _seed_orbit(A: Gf2Matrix, x: int, p: int) -> list[int]:
    """x, Ax, ..., A^(p-1)x."""
    orbit = [x]
    for _ in range(p - 1):
        orbit.append(A.apply(orbit[-1]))
    return orbit


def elem_abelian_map(A: Gf2Matrix, x: int) -> CayleyMap:
    """The balanced map built from a seed pair: generators are the A-orbit of
    x inside the elementary abelian 2-group of rank A.size."""
    return build_map(ElemAbelian2Group(A.size), _seed_orbit(A, x, A.order()))


# -- counting formula and CRT enumeration ------------------------------------------


def count_regular_dihedral_maps(n: int, p: int) -> int:
    """Closed-form count of isomorphism classes of regular balanced p-valent
    maps on the dihedral group of order 2n: (p-1)^t when n is odd, divisible
    by p at most once, and every other prime factor is 1 mod p; else 0."""
    _require_odd_prime(p)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1 or n % 2 == 0:
        return 0
    m = n
    a0 = 0
    while m % p == 0:
        m //= p
        a0 += 1
    if a0 > 1:
        return 0
    t = 0
    for q, _ in _factorize(m):
        if (q - 1) % p != 0:
            return 0
        t += 1
    return (p - 1) ** t


def crt_lift_solutions(n: int, p: int) -> list[int]:
    """Enumerate the same classes as triples_for(n, p), but constructively:
    pick a p-th root of unity that is not 1 modulo each odd prime-power
    factor of n (and 1 modulo p itself when p divides n once), then combine
    the residues by the Chinese remainder theorem."""
    _require_odd_prime(p)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    guard_count_n(n)
    if n == 1 or n % 2 == 0:
        return []
    m = n
    a0 = 0
    while m % p == 0:
        m //= p
        a0 += 1
    if a0 > 1:
        return []
    moduli: list[int] = []
    residue_sets: list[tuple[int, ...]] = []
    if a0 == 1:
        moduli.append(p)
        residue_sets.append((1,))
    for q, e in _factorize(m):
        roots = _prime_power_roots(q, e, p, COUNT_BLOCK)
        if not roots:
            return []
        moduli.append(q**e)
        residue_sets.append(roots)
    out = []
    for combo in product(*residue_sets):
        out.append(_crt(moduli, combo))
    return sorted(out)


@lru_cache(maxsize=COUNT_MEMO_SIZE)
def _prime_power_roots(q: int, e: int, p: int, block: int) -> tuple[int, ...]:
    """The x in [1, q^e) with x^p = 1 mod q^e and x != 1 mod q, ascending,
    by an exhaustive scan in int64 blocks of at most block residues. The
    memo is keyed on the block size too, so a scan under another block size
    is a scan, never a lookup."""
    qe = q**e
    roots: list[int] = []
    for x in _residue_blocks(qe, block):
        keep = (_pow_mod(x, p, qe) == 1) & (x % q != 1)
        roots.extend(x[keep].tolist())
    return tuple(roots)


def _pow_mod(x: np.ndarray, e: int, m: int) -> np.ndarray:
    """x^e mod m elementwise by square-and-multiply (e >= 1), exact in int64
    while m^2 < 2^63."""
    result = np.ones_like(x)
    base = x % m
    while True:
        if e & 1:
            result = (result * base) % m
        e >>= 1
        if not e:
            return result
        base = (base * base) % m


def _crt(moduli: Sequence[int], residues: Sequence[int]) -> int:
    x, modulus = 0, 1
    for q, r in zip(moduli, residues):
        inc = ((r - x) * pow(modulus, -1, q)) % q
        x += modulus * inc
        modulus *= q
    return x % modulus


# -- the abelian catalogue ------------------------------------------------------------


def abelian_group_catalogue(max_order: int) -> list[FiniteGroup]:
    """One group per isomorphism class of abelian groups of order 2..max_order,
    as invariant-factor chains d1 | d2 | ... | dm; single factors come back as
    CyclicGroup and all-2 chains as ElemAbelian2Group."""
    return [group for group, _ in family_groups("abelian", max_order)]


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
    The pool's generating sets are then tested together for being least in
    their orbits (`_least_in_orbits`), in numpy passes over bounded blocks."""
    if valence < 3:
        raise ValueError(f"valence must be >= 3, got {valence}")
    auts = group.automorphism_ranks()
    orbit_min = auts.min(axis=0)  # the least rank in each orbit
    orbit_min_list = orbit_min.tolist()
    elems = group.elements()
    inv = [group.rank(group.inv(g)) for g in elems]
    identity = group.identity_rank
    out: list[tuple[int, ...]] = []
    for m in range(group.order):
        if m == identity or orbit_min_list[m] != m:
            continue
        allowed = {r for r in range(m, group.order) if orbit_min_list[r] >= m}
        allowed.discard(identity)
        if inv[m] not in allowed:
            continue
        base = (m,) if inv[m] == m else (m, inv[m])
        rest = [r for r in range(m + 1, group.order) if r in allowed and r != inv[m]]
        involutions = [r for r in rest if inv[r] == r]
        pairs = [(r, inv[r]) for r in rest if r < inv[r] and inv[r] in allowed]
        free = valence - len(base)
        pool = array("q")  # the generating sets, row after row
        for n_inv in range(free % 2, min(free, len(involutions)) + 1, 2):
            n_pair = (free - n_inv) // 2
            if n_pair > len(pairs):
                continue
            for invs in combinations(involutions, n_inv):
                for prs in combinations(pairs, n_pair):
                    xset = sorted(base + invs + tuple(x for pr in prs for x in pr))
                    if group.generates_ranks(xset):
                        pool.extend(xset)
        if pool:
            sets = np.frombuffer(pool, dtype=np.int64).reshape(-1, valence)
            least = _least_in_orbits(auts, orbit_min, sets)
            out.extend(map(tuple, sets[least].tolist()))
    out.sort()
    return [tuple(elems[r] for r in xset) for xset in out]


# The orbit test images a block of sets at a time, each set under the
# stabilizer of m composed with one psi per element in the orbit of m: at
# most ORBIT_BLOCK image entries per block (one set's when that is more), so
# its memory stays flat in the size of a pool.
ORBIT_BLOCK = 1 << 16


def _least_in_orbits(
    auts: np.ndarray, orbit_min: np.ndarray, sets: np.ndarray
) -> np.ndarray:
    """Which rows of sets, sorted rank rows that all start with the same
    orbit minimum m, are least among their sorted images under auts? Only a
    psi sending some x of a row to m can give a smaller image, and those are
    tau * sigma_x: one sigma_x with sigma_x(x) = m per x in the orbit of m,
    and tau in the stabilizer of m. Both are looked up once for all rows."""
    m = int(sets[0, 0])
    k = sets.shape[1]
    stabilizer = np.flatnonzero(auts[:, m] == m)
    orbit = np.flatnonzero(orbit_min == m)
    sigma = np.zeros(auts.shape[1], dtype=np.int64)
    sigma[orbit] = np.argmax(auts[:, orbit] == m, axis=0)
    # the first nonzero sign of image - row outweighs all later ones
    weights = 1 << np.arange(k - 1, -1, -1)
    step = max(1, ORBIT_BLOCK // (len(stabilizer) * k * k))
    least = np.ones(len(sets), dtype=bool)
    for start in range(0, len(sets), step):
        block = sets[start : start + step]
        rows, cols = np.nonzero(orbit_min[block] == m)  # the (row, x) pairs
        target = block[rows]
        moved = auts[sigma[block[rows, cols]][:, None], target]
        images = np.sort(auts[stabilizer[:, None], moved[:, None, :]], axis=2)
        below = (np.sign(images - target[:, None, :]) @ weights < 0).any(axis=1)
        least[start + rows[below]] = False
    return least


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
        return classes  # spares the product table of a group with no candidates
    table, inv = group.rank_table()
    mul = np.array(table, dtype=np.int64)
    row_R = rotation_row(group.order * valence, valence)
    for xset in sets:
        set_ranks = tuple(group.rank(x) for x in xset)
        for xs_ranks in cyclic_orderings(set_ranks):
            kappa0 = [xs_ranks.index(inv[r]) for r in xs_ranks]
            row_L = reversal_row(mul[:, list(xs_ranks)], kappa0)
            if rotates_base_star(row_R, row_L):
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

        bounds = np.linspace(0, len(sets), workers + 1).astype(int)
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
    auts = group.automorphism_ranks()
    elems = group.elements()
    reps = [
        build_map(group, [elems[r] for r in _least_image(auts, cls)])
        for cls in classes.values()
    ]
    reps.sort(key=CayleyMap.xs_ranks)
    return reps


def _least_image(
    auts: np.ndarray, orderings: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """The rank-lexicographic least psi(s), rotated to start at its least
    rank, over psi in auts and the orderings s of one class. Regularity and
    the isomorphism class are invariant under automorphisms, so these are
    exactly the class's regular orderings over every generating set. Only
    the images of s holding its least image rank can win, and one s is
    imaged at a time, so memory stays at |H| rows."""
    best = None
    for s in orderings:
        images = auts[:, s]
        lows = images.min(axis=1)
        for ranks in images[lows == lows.min()].tolist():
            i = ranks.index(min(ranks))
            rotated = tuple(ranks[i:] + ranks[:i])
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
        grp = cycle_and_involution_group(k, kappa, cutoff=bound + 1)
        if not grp.exceeded and bound % grp.order == 0:
            out.append(kappa)
    return out


def _entry_str(m: CayleyMap, n_param: int) -> str:
    return ",".join(entry_for_map(m, n_param, "counterexample").csv_row())


def count_agreement(n: int, p: int) -> tuple[int, list[int], list[int], bool]:
    """The closed-form class count for the dihedral parameter n, the l values
    found by enumeration and by CRT lifting, and whether all three agree."""
    formula = count_regular_dihedral_maps(n, p)
    enumerated = triples_for(n, p)
    lifted = crt_lift_solutions(n, p)
    agree = formula == len(enumerated) == len(lifted) and enumerated == lifted
    return formula, enumerated, lifted, agree


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
            # every seed map on one group object, so its product table is
            # built once (elem_abelian_map would build a group per seed)
            group = ElemAbelian2Group(r)
            return {
                build_map(group, _seed_orbit(A, x, p)).arc_code()
                for A, x in elem_abelian_seeds(r, p)
            }

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
            if m.canonical_base_rotation().kappa.perm not in allowed
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
