"""The number theory of the counting claim: geometric-sum orders, the
closed-form class count of regular balanced dihedral maps, and its two
cross-checks, the triples scan and the CRT lift.

The three answers are computed independently. The scan (`triples_for`)
finds, for a prime n, the roots of S_p = 1 + x + ... + x^(p-1) over F_n as
the values c^((n-1)/p) != 1 of the units c, and for a composite n lifts a
divisor's answers; one modular power of l confirms every answer l. The
CRT lift (`crt_lift_solutions`) builds the p-th roots of unity modulo each
prime power from the cyclic group of units. Neither calls the other or the
closed form.

This module imports only the standard library, so `count` and `triples`
start without the search stack. It also holds what every command
shares: the error types that the command line maps to its exit codes, and
the claim ids.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence

# The counting commands refuse an n or p above MAX_COUNT_N. Python integers
# keep every scan exact, so it no longer bounds exactness; it keeps its value,
# and the refusals their wording, until a bound on the work replaces it.
MAX_COUNT_N = 2**31

# fixed by the command-line contract; `verify --theorem` takes one of these
CLAIM_IDS = ("1.1", "1.2", "1.3", "2.6", "2.7-consequence", "3.4", "L3.2")


class UsageError(ValueError):
    """A caller's input is invalid: a bad claim id, prime or range, or a
    malformed group or map. Internal errors stay plain exceptions."""


class SizeGuardError(Exception):
    """A computation was refused because its input exceeds a desk-scale bound."""


# unbounded like the scans' memos: a process meets few distinct p
@lru_cache(maxsize=None)
def _require_odd_prime(p: int) -> int:
    if p < 3 or p % 2 == 0:
        raise UsageError(f"expected an odd prime, got {p}")
    # refused before the trial division, which takes about sqrt(p)/2 steps
    if p > MAX_COUNT_N:
        raise SizeGuardError(f"count guard: p={p} exceeds {MAX_COUNT_N}")
    if _smallest_prime_factor(p) != p:
        raise UsageError(f"expected an odd prime, got {p}")
    return p


def _factorize(m: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of m >= 1, ascending. What is left of m
    has no prime factor below the last one found, so each trial division
    resumes there."""
    out = []
    q = 2
    while m > 1:
        q = _smallest_prime_factor(m, q)
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        out.append((q, e))
    return out


def _smallest_prime_factor(n: int, start: int = 2) -> int:
    """The least prime factor of n >= 2, trial-dividing from start, which is
    2 or odd and no larger than that factor."""
    if start == 2:
        if n % 2 == 0:
            return 2
        start = 3
    d = start
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


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
    """SizeGuardError when n exceeds the counting commands' bound."""
    if n > MAX_COUNT_N:
        raise SizeGuardError(f"count guard: n={n} exceeds {MAX_COUNT_N}")


def triples_for(n: int, p: int) -> list[int]:
    """All l with geosum_order(n, l) == p, ascending.

    Of the partial sums S_k = 1 + l + ... + l^(k-1) only S_p is needed:
    the order is p exactly when S_p vanishes mod n (the lemma below, with
    d = n), and that one test confirms every answer (`_has_order_p`).

    No l qualifies when p > n: S_1, ..., S_k are distinct mod n up to the
    first S_k = 0 (S_k is the k-th iterate of x -> l * x + 1 from 0), so
    geosum_order(n, l) <= n. For a prime n the candidates are the roots of
    S_p(x) = 1 + x + ... + x^(p-1) over F_n (`_field_roots`).
    A composite n checks only the lifts r + j * d of the answers r for
    d = n / q, q its smallest prime factor, and none at all when q has no
    answer, because an l with S_p = 0 mod n has order p mod every divisor
    d >= 2 of n, n included: S_p = 0 mod d (so l is not 0 mod d, where
    every S_k = 1); if k is the order mod d, then l^k = 1 + (l - 1) S_k = 1
    mod d, so S_(j+k) = S_j mod d and the zeros of S mod d are exactly the
    multiples of k; hence k divides p, and k != 1 since S_1 = 1, so k = p.
    """
    _require_odd_prime(p)
    guard_count_n(n)
    return list(_triples(n, p))


# Unbounded: an ascending sweep needs the answer for d = n / q <= n / 2 once
# it reaches n, which any LRU smaller than the sweep would have evicted and
# recomputed. The memo holds one entry per n and divisor met.
@lru_cache(maxsize=None)
def _triples(n: int, p: int) -> tuple[int, ...]:
    """triples_for(n, p): the roots of S_p over F_n for a prime n, the lifts
    of a divisor's answers otherwise, each kept if S_p vanishes at it. A
    composite n whose least prime factor has no answer has none."""
    if p > n:
        return ()
    q = _smallest_prime_factor(n)
    if q == n:
        candidates: Iterable[int] = _field_roots(n, p)
    elif not _triples(q, p):
        return ()
    else:
        d = n // q
        base = _triples(d, p)
        candidates = (r + j * d for j in range(q) for r in base)
    return tuple(l for l in candidates if _has_order_p(l, n, p))


def _has_order_p(l: int, n: int, p: int) -> bool:
    """geosum_order(n, l) == p for n >= 2, by S_p(l) = 0 mod n alone: the
    zeros of S mod n are the multiples of l's order (`triples_for`), which
    is not 1 as S_1 = 1, so it is the prime p. S_p(l) = (l^p - 1) / (l - 1)
    is exact from l^p mod (l - 1) n, and S_p(1) = p."""
    if l == 1:
        return p % n == 0
    return (pow(l, p, (l - 1) * n) - 1) // (l - 1) % n == 0


# -- roots of S_p over F_n ---------------------------------------------------


def _field_roots(n: int, p: int) -> list[int]:
    """The roots of S_p over F_n for a prime n, ascending: [1] for n = p,
    none when p does not divide n - 1, and otherwise the p - 1 distinct
    values w = c^e != 1, e = (n - 1) / p, met first for c = 2, 3, ...

    As (x - 1) S_p = x^p - 1 and S_p(1) = p, the roots other than 1 are the
    l != 1 with l^p = 1, and 1 is one only for n = p. Such an l has order p
    among the units, so p divides n - 1 (Fermat). Then (c^e)^p = c^(n-1) = 1
    for every unit c. The units c with c^e = w are roots of x^e - w, at most
    e of them, so c -> c^e takes at least (n - 1) / e = p values on the
    units; they are roots of x^p - 1, which has at most p, so they are all
    p-th roots of unity, and the p - 1 other than 1 turn up before c = n.
    No generator of the units, and no power of a root found, is used."""
    if n == p:
        return [1]
    e, r = divmod(n - 1, p)
    if r:
        return []
    roots: set[int] = set()
    c = 2
    while len(roots) < p - 1:
        w = pow(c, e, n)
        if w != 1:
            roots.add(w)
        c += 1
    return sorted(roots)


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
        roots = _prime_power_roots(q, e, p)
        if not roots:
            return []
        moduli.append(q**e)
        residue_sets.append(roots)
    out = []
    for combo in product(*residue_sets):
        out.append(_crt(moduli, combo))
    return sorted(out)


# Unbounded for the reason given at _triples; an entry holds fewer than p roots.
@lru_cache(maxsize=None)
def _prime_power_roots(q: int, e: int, p: int) -> tuple[int, ...]:
    """The x in [1, q^e) with x^p = 1 mod q^e and x != 1 mod q, ascending,
    for an odd prime q. The units mod q^e form a cyclic group of order
    phi = (q - 1) q^(e-1): it has no element of order p unless p divides
    phi, and then y = a^(phi/p) for the least unit a >= 2 with y != 1
    generates its p-th roots of unity, y^i for i = 1..p-1. Each is kept only
    if it passes both tests; for q = p all are 1 mod q, so none is."""
    qe = q**e
    phi = qe - qe // q
    if phi % p:
        return ()
    for a in range(2, qe):
        y = pow(a, phi // p, qe)
        if a % q and y != 1:
            break
    roots = (pow(y, i, qe) for i in range(1, p))
    return tuple(sorted(x for x in roots if pow(x, p, qe) == 1 and x % q != 1))


def _crt(moduli: Sequence[int], residues: Sequence[int]) -> int:
    x, modulus = 0, 1
    for q, r in zip(moduli, residues):
        inc = ((r - x) * pow(modulus, -1, q)) % q
        x += modulus * inc
        modulus *= q
    return x % modulus


def count_agreement(n: int, p: int) -> tuple[int, list[int], list[int], bool]:
    """The closed-form class count for the dihedral parameter n, the l values
    found by enumeration and by CRT lifting, and whether all three agree."""
    formula = count_regular_dihedral_maps(n, p)
    enumerated = triples_for(n, p)
    lifted = crt_lift_solutions(n, p)
    agree = formula == len(enumerated) == len(lifted) and enumerated == lifted
    return formula, enumerated, lifted, agree
