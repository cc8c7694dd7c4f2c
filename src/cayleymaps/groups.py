"""Closed-form arithmetic for the finite group families used by the census.

Elements are plain hashable values in a canonical normal form: residues for
cyclic groups, bit masks for elementary abelian 2-groups, exponent pairs
(i, eps) meaning a^i * b^eps for the dihedral and dicyclic families, and
residue tuples for products of cyclic groups; each group holds its identity
as one such value.  D_n and Dic_n are one presentation,
<a, b | a^m = e, b^2 = a^t, b^-1 a b = a^-1>, differing only in (m, t), so
they share one product and one inverse.  Every product is computed on
exponents: `FiniteGroup.mul` checks both factors once and calls the family's
unchecked `_mul`; `FiniteGroup.products` tabulates `_mul` over element ranks
for the hot loops, uncached: each caller owns the table it asks for.
`FiniteGroup.automorphism_ranks` lists a subgroup of Aut(G), chosen per family
to be cheap to list, as permutations of element ranks (lists of ints): the
census searches E_r and the products by these rows, and Z_n, D_n and Dic_n by
arithmetic on the same subgroup, whose rows the tests keep as the reference.
`FiniteGroup.generates_ranks` is a breadth-first search (`is_generating`),
which those three families replace by a gcd.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import permutations, product
from typing import Iterable, Optional, Sequence, Union

GroupElement = Union[int, tuple]

__all__ = [
    "FiniteGroup",
    "AbelianProductGroup",
    "CyclicGroup",
    "ElemAbelian2Group",
    "DihedralGroup",
    "DicyclicGroup",
    "GroupElement",
    "is_generating",
]


class FiniteGroup:
    """A finite group whose elements are canonical hashable values."""

    def __init__(self, name: str, order: int, identity: GroupElement) -> None:
        if order < 1:
            raise ValueError(f"group order must be positive, got {order}")
        self.name = name
        self.order = order
        self.identity = identity
        self._elements: Optional[list[GroupElement]] = None

    # -- family-specific arithmetic ---------------------------------------

    def contains(self, g: GroupElement) -> bool:
        raise NotImplementedError

    def _mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """Product of two elements already known to be in the group."""
        raise NotImplementedError

    def inv(self, g: GroupElement) -> GroupElement:
        raise NotImplementedError

    def _build_elements(self) -> list[GroupElement]:
        raise NotImplementedError

    def format_element(self, g: GroupElement) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> GroupElement:
        raise NotImplementedError

    def automorphism_ranks(self) -> list[list[int]]:
        """A subgroup H of Aut(G) as |H| rows of length order: row h maps
        each element rank to the rank of its image under psi_h. Its size is
        bounded by the family, never by a search."""
        raise NotImplementedError

    # -- shared derived operations ----------------------------------------

    def check(self, g: GroupElement) -> GroupElement:
        if not self.contains(g):
            raise ValueError(f"{g!r} is not an element of {self.name}")
        return g

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self._mul(self.check(g), self.check(h))

    def elements(self) -> list[GroupElement]:
        """All elements in the canonical order used for ranks everywhere."""
        if self._elements is None:
            self._elements = self._build_elements()
        return self._elements

    @cached_property
    def _ranks(self) -> dict[GroupElement, int]:
        return {h: i for i, h in enumerate(self.elements())}

    def rank(self, g: GroupElement) -> int:
        try:
            return self._ranks[g]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of {self.name}") from None

    def products(self, xs: Sequence[int]) -> list[list[int]]:
        """The order x len(xs) table over element ranks: slot i of row r is
        the rank of g_r * g_(xs[i]). products(range(order)) is the whole
        table, whose row r is the left translation by g_r."""
        elems, ranks, mul = self.elements(), self._ranks, self._mul
        right = [elems[x] for x in xs]
        return [[ranks[mul(g, x)] for x in right] for g in elems]

    @cached_property
    def identity_rank(self) -> int:
        return self.rank(self.identity)

    def generates(self, seed: Iterable[GroupElement]) -> bool:
        """Does seed generate the group? See generates_ranks."""
        return self.generates_ranks([self.rank(g) for g in seed])

    def generates_ranks(self, xs: Sequence[int]) -> bool:
        """Do the elements of these ranks generate the group? The
        breadth-first search `is_generating` on their products."""
        return is_generating(self.products(xs), range(len(xs)), self.identity_rank)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class CyclicGroup(FiniteGroup):
    """Residues mod n under addition."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        super().__init__(f"Z{n}", n, 0)
        self.n = n

    def contains(self, g) -> bool:
        return isinstance(g, int) and 0 <= g < self.n

    def _mul(self, g, h):
        return (g + h) % self.n

    def inv(self, g):
        self.check(g)
        return (-g) % self.n

    def _build_elements(self):
        return list(range(self.n))

    def format_element(self, g) -> str:
        self.check(g)
        return str(g)

    def parse_element(self, text: str):
        try:
            value = int(text.strip(), 10)
        except ValueError:
            raise ValueError(f"cannot parse {text!r} as a residue mod {self.n}") from None
        return value % self.n

    def generates_ranks(self, xs: Sequence[int]) -> bool:
        """gcd(n, X) = 1: the residues of X generate the subgroup of the
        multiples of their gcd with n. A residue's rank is the residue."""
        return math.gcd(self.n, *xs) == 1

    def automorphism_ranks(self) -> list[list[int]]:
        """All of Aut(Z_n): g -> u * g for every unit u."""
        n = self.n
        return [[u * g % n for g in range(n)] for u in units(n)]


class ElemAbelian2Group(FiniteGroup):
    """Bit vectors of length r under XOR; every non-identity element squares to e."""

    def __init__(self, r: int) -> None:
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        super().__init__(f"E{r}", 1 << r, 0)
        self.r = r

    def contains(self, g) -> bool:
        return isinstance(g, int) and 0 <= g < self.order

    def _mul(self, g, h):
        return g ^ h

    def inv(self, g):
        self.check(g)
        return g

    def _build_elements(self):
        return list(range(self.order))

    def format_element(self, g) -> str:
        self.check(g)
        return "".join("1" if g >> j & 1 else "0" for j in range(self.r))

    def parse_element(self, text: str):
        s = text.strip()
        if len(s) != self.r or any(c not in "01" for c in s):
            raise ValueError(f"cannot parse {text!r} as a length-{self.r} bit string")
        return sum(1 << j for j, c in enumerate(s) if c == "1")

    def automorphism_ranks(self) -> list[list[int]]:
        """The r! coordinate permutations, a subgroup of GL(r, 2); bit j of
        g moves to bit sigma(j). GL(r, 2) itself is far too large to list.
        A row doubles once per bit j: the masks with bit j set follow those
        below 2^j, and their images add 2^sigma(j)."""
        out = []
        for sigma in permutations(range(self.r)):
            row = [0]
            for target in sigma:
                bit = 1 << target
                row += [image | bit for image in row]
            out.append(row)
        return out


class _ExponentPairGroup(FiniteGroup):
    """The groups <a, b | a^m = e, b^2 = a^t, b^-1 a b = a^-1> of order 2m,
    with normal form a^i * b^eps, 0 <= i < m: D_n is (m, t) = (n, 0) and
    Dic_n is (2n, n)."""

    def __init__(self, name: str, n: int, m: int, t: int) -> None:
        super().__init__(name, 2 * m, (0, 0))
        self.n = n
        self.m = m
        self.t = t

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and isinstance(g[0], int)
            and 0 <= g[0] < self.m
            and g[1] in (0, 1)
        )

    def _mul(self, g, h):
        # (a^i b^e)(a^k b^d) = a^(i + (-1)^e k + t e d) b^(e + d)
        (i, e), (k, d) = g, h
        if e:
            return ((i - k + self.t * d) % self.m, 1 - d)
        return ((i + k) % self.m, d)

    def inv(self, g):
        # (a^i b)^-1 = a^(i + t) b, as (a^i b)(a^(i + t) b) = a^(i - (i + t) + t)
        i, e = self.check(g)
        return ((i + self.t) % self.m, 1) if e else (-i % self.m, 0)

    def _build_elements(self):
        return [(i, e) for e in (0, 1) for i in range(self.m)]

    def format_element(self, g) -> str:
        self.check(g)
        i, e = g
        parts = []
        if i == 1:
            parts.append("a")
        elif i:
            parts.append(f"a^{i}")
        if e:
            parts.append("b")
        return "*".join(parts) if parts else "e"

    def parse_element(self, text: str):
        s = text.strip()
        if s == "e":
            return (0, 0)
        if s == "b":
            return (0, 1)
        match = re.fullmatch(r"a(?:\^(-?\d+))?(\*b)?", s)
        try:
            i = int(match.group(1) or 1) if match else None
        except ValueError:  # more digits than Python converts to an int
            i = None
        if i is None:
            raise ValueError(f"cannot parse {text!r} as an element of {self.name}")
        return (i % self.m, 1 if match.group(2) else 0)

    def generates_ranks(self, xs: Sequence[int]) -> bool:
        """X generates exactly when it holds some a^f * b and
        g = gcd(n, R, F - f) is 1, for R the exponents of its powers of a
        and F those of its elements a^h * b (ranks m + h). Without an
        a^h * b, X lies in <a>. Otherwise K = <a^g> is normal, like every
        subgroup of <a>, and lies in <X>, which holds a^r for r in R,
        a^(h - f) = a^h * b * (a^f * b)^-1 and a^n (e in D_n, (a^f * b)^2 in
        Dic_n). Every a^r in X lies in K, and every a^h * b in a^f * b * K.
        So <X> is K + a^f * b * K, a subgroup as (a^f * b)^2 lies in K, of
        order 2m / g: all of G exactly when g = 1."""
        m = self.m
        flips = [x - m for x in xs if x >= m]
        if not flips:
            return False
        f = flips[0]
        return math.gcd(self.n, *(x for x in xs if x < m), *(h - f for h in flips)) == 1

    def automorphism_ranks(self) -> list[list[int]]:
        """Every automorphism a -> a^u, b -> a^v * b (u a unit mod m), that
        is (i, e) -> (u * i + v * e, e), rows ordered by (v, u). For the
        dihedral groups with n >= 3 this is all of Aut(D_n)."""
        m = self.m
        rotations = [[u * i % m for i in range(m)] for u in units(m)]
        # element (i, e) has rank e * m + i, so a^(j + v) * b has rank
        # reflections[j + v] for 0 <= j, v < m
        reflections = list(range(m, 2 * m)) * 2
        return [
            rotation + [reflections[j + v] for j in rotation]
            for v in range(m)
            for rotation in rotations
        ]


class DihedralGroup(_ExponentPairGroup):
    """Symmetries of a regular n-gon: a rotates, b reflects, (ab)^2 = e."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"dihedral parameter must be >= 1, got {n}")
        super().__init__(f"D{n}", n, m=n, t=0)


class DicyclicGroup(_ExponentPairGroup):
    """Order-4n group where b^2 = a^n and b inverts a by conjugation."""

    def __init__(self, n: int) -> None:
        # n = 1 would collapse to Z4; the presentation is kept faithful.
        if n < 2:
            raise ValueError(f"dicyclic parameter must be >= 2, got {n}")
        super().__init__(f"Dic{n}", n, m=2 * n, t=n)


class AbelianProductGroup(FiniteGroup):
    """Direct product of cyclic groups; elements are residue tuples, written
    with colons ("1:3" in Z2xZ4)."""

    def __init__(self, mods: Sequence[int]) -> None:
        mods = tuple(int(d) for d in mods)
        if len(mods) < 1 or any(d < 2 for d in mods):
            raise ValueError(f"moduli must all be >= 2, got {mods}")
        name = "x".join(f"Z{d}" for d in mods)
        super().__init__(name, math.prod(mods), (0,) * len(mods))
        self.mods = mods

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == len(self.mods)
            and all(isinstance(c, int) and 0 <= c < d for c, d in zip(g, self.mods))
        )

    def _mul(self, g, h):
        return tuple((c + e) % d for c, e, d in zip(g, h, self.mods))

    def inv(self, g):
        self.check(g)
        return tuple((-c) % d for c, d in zip(g, self.mods))

    def _build_elements(self):
        return [tuple(c) for c in product(*(range(d) for d in self.mods))]

    def format_element(self, g) -> str:
        self.check(g)
        return ":".join(str(c) for c in g)

    def parse_element(self, text: str):
        parts = text.split(":")
        if len(parts) != len(self.mods):
            raise ValueError(
                f"{text!r} needs {len(self.mods)} colon-separated residues"
            )
        try:
            coords = [int(part) for part in parts]
        except ValueError:
            raise ValueError(f"{text!r} is not a residue tuple") from None
        return tuple(c % d for c, d in zip(coords, self.mods))

    def automorphism_ranks(self) -> list[list[int]]:
        """g -> u * g for every unit u modulo the exponent. Elements are
        listed in product order, the last coordinate fastest, so a row is
        grown one coordinate at a time, from the first: each partial image
        is replaced by its sums with (u * c mod d) * stride, c = 0..d-1, for
        that coordinate's modulus d and mixed-radix stride."""
        strides = [math.prod(self.mods[i + 1 :]) for i in range(len(self.mods))]
        out = []
        for u in units(math.lcm(*self.mods)):
            row = [0]
            for d, stride in zip(self.mods, strides):
                images = [u * c % d * stride for c in range(d)]
                row = [base + image for base in row for image in images]
            out.append(row)
        return out


def is_generating(table, slots: Sequence[int], identity: int) -> bool:
    """Do these slots of a product table generate the group? Slot s of row g
    is the rank of g * x_s, for a table from `FiniteGroup.products`, and
    identity is the identity's rank. Breadth-first search from the
    identity, stopped as soon as it has reached more than half the group: a
    proper subgroup has at most |G|/2 elements (Lagrange). One of index 2
    has exactly that many, so it is still searched to the end."""
    half = len(table) // 2
    found = [False] * len(table)
    found[identity] = True
    reached = [identity]
    for r in reached:  # the list grows while it is read: a queue
        row = table[r]
        for s in slots:
            h = row[s]
            if not found[h]:
                found[h] = True
                reached.append(h)
        if len(reached) > half:
            return True
    return False


def units(m: int) -> list[int]:
    """The units modulo m, ascending."""
    return [u for u in range(m) if math.gcd(u, m) == 1]
