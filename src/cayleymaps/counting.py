"""The number theory of the counting claim: geometric-sum orders, the
closed-form class count of regular balanced dihedral maps, and its two
cross-checks, the triples scan and the CRT lift.

This module imports only the standard library and numpy, so the `count`
and `triples` commands, which run nothing else, start without the search
stack. numpy is imported only by the three helpers that build int64 blocks
(`_residue_blocks`, `_lift_blocks` and `_pow_mod`), so loading the module,
as every command does, loads no numpy. The block helpers read the block size
`COUNT_BLOCK` at each call, and the scans' memos are keyed on n, p and the
prime power alone: the block size changes how a scan runs, never its
answer. It also holds what every command shares: the error types that the
command line maps to its exit codes, and the claim ids.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

# The counting scans (triples_for, crt_lift_solutions) run over int64 blocks
# of at most COUNT_BLOCK residues, so their memory stays flat in n. A product
# of two residues mod n is exact in int64 while n^2 < 2^63; MAX_COUNT_N keeps
# n^2 <= 2^62. It bounds exactness, not time: both scans are linear in a
# prime n, and a triples_for sweep over n <= N scans about the sum of the
# primes up to N (a composite n scans only the lifts of a divisor's answers).
COUNT_BLOCK = 1 << 16
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
    """SizeGuardError when the counting scans cannot run exactly for n."""
    if n > MAX_COUNT_N:
        raise SizeGuardError(f"count guard: n={n} exceeds {MAX_COUNT_N}")


def _residue_blocks(m: int) -> Iterator[np.ndarray]:
    """The residues 1..m-1 in ascending int64 blocks of at most COUNT_BLOCK."""
    import numpy as np

    for start in range(1, m, COUNT_BLOCK):
        yield np.arange(start, min(start + COUNT_BLOCK, m), dtype=np.int64)


def triples_for(n: int, p: int) -> list[int]:
    """All l with geosum_order(n, l) == p, ascending.

    Only the first p partial sums S_k = 1 + l + ... + l^(k-1) are needed:
    the order equals p exactly when S_p vanishes mod n and no earlier one
    does (S_1 = 1 never does for n >= 2). They are stepped by Horner's rule,
    S_2 = l + 1 and S_(k+1) = l * S_k + 1, with one modulus per step: S_k is
    reduced below n and l < n, so l * S_k + 1 <= (n-1)^2 + 1 < 2^63 stays
    exact in int64 for n <= MAX_COUNT_N.

    No l qualifies when p > n: S_1, ..., S_k are distinct mod n up to the
    first S_k = 0 (S_k is the k-th iterate of x -> l * x + 1 from 0), so
    geosum_order(n, l) <= n. A prime n has every l in [1, n) scanned, a
    block at a time. A composite n scans only the lifts r + j * d of the
    answers r for d = n / (its smallest prime factor), because an l of
    order p mod n has order p mod every divisor d >= 2 of n: S_p = 0 mod d
    (so l is not 0 mod d, where every S_k = 1); if k is the order mod d,
    then l^k = 1 + (l - 1) S_k = 1 mod d, so S_(j+k) = S_j mod d and the
    zeros of S mod d are exactly the multiples of k; hence k divides p, and
    k != 1 since S_1 = 1, so k = p.
    """
    _require_odd_prime(p)
    guard_count_n(n)
    return list(_triples(n, p))


# Unbounded: an ascending sweep needs the answer for d = n / q <= n / 2 once
# it reaches n, and any LRU smaller than the sweep would have evicted it and
# scan it again, a prime d in full. The memo holds one entry per n and
# divisor met, while a sweep to N scans about N^2 / (2 ln N) residues, so
# the scans bound a sweep long before its memo does.
@lru_cache(maxsize=None)
def _triples(n: int, p: int) -> tuple[int, ...]:
    """triples_for(n, p), scanning int64 blocks of at most COUNT_BLOCK residues."""
    if p > n:
        return ()
    q = _smallest_prime_factor(n)
    if q == n:
        blocks = _residue_blocks(n)
    else:
        d = n // q
        base = _triples(d, p)
        if not base:
            return ()
        blocks = _lift_blocks(base, d, q)
    out: list[int] = []
    for l in blocks:
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
    return tuple(out)


def _lift_blocks(base: Sequence[int], d: int, count: int) -> Iterator[np.ndarray]:
    """The residues r + j * d for r in base and 0 <= j < count, ascending
    when base is ascending below d, in int64 blocks of at most COUNT_BLOCK."""
    import numpy as np

    rs = np.array(base, dtype=np.int64)
    total = len(rs) * count
    for start in range(0, total, COUNT_BLOCK):
        i = np.arange(start, min(start + COUNT_BLOCK, total), dtype=np.int64)
        yield i // len(rs) * d + rs[i % len(rs)]


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
    by an exhaustive scan in int64 blocks of at most COUNT_BLOCK residues."""
    qe = q**e
    roots: list[int] = []
    for x in _residue_blocks(qe):
        keep = (_pow_mod(x, p, qe) == 1) & (x % q != 1)
        roots.extend(x[keep].tolist())
    return tuple(roots)


def _pow_mod(x: np.ndarray, e: int, m: int) -> np.ndarray:
    """x^e mod m elementwise by square-and-multiply (e >= 1), exact in int64
    while m^2 < 2^63."""
    import numpy as np

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


def count_agreement(n: int, p: int) -> tuple[int, list[int], list[int], bool]:
    """The closed-form class count for the dihedral parameter n, the l values
    found by enumeration and by CRT lifting, and whether all three agree."""
    formula = count_regular_dihedral_maps(n, p)
    enumerated = triples_for(n, p)
    lifted = crt_lift_solutions(n, p)
    agree = formula == len(enumerated) == len(lifted) and enumerated == lifted
    return formula, enumerated, lifted, agree
