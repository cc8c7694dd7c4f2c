"""Closed-form arithmetic for the finite group families used by the census.

Elements are plain hashable values in a canonical normal form: residues for
cyclic groups, bit masks for elementary abelian 2-groups, exponent pairs
(i, eps) meaning a^i * b^eps for the dihedral and dicyclic families, and
residue tuples for products of cyclic groups.  Every product is computed on
exponents: `FiniteGroup.mul` checks both factors once and calls the family's
unchecked `_mul`; `FiniteGroup.rank_table` tabulates `_mul` over element ranks
for the hot loops, and only the most recent group's table is kept.
`FiniteGroup.automorphism_ranks` lists a subgroup of Aut(G), chosen per family
to be cheap to list, as permutations of element ranks for the census search.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

GroupElement = Union[int, tuple]

__all__ = [
    "FiniteGroup",
    "AbelianProductGroup",
    "CyclicGroup",
    "ElemAbelian2Group",
    "DihedralGroup",
    "DicyclicGroup",
    "Gf2Matrix",
    "UnitAut",
    "MatrixAut",
    "PowerPairAut",
    "GeneratorImagesAut",
    "GroupElement",
]


@dataclass(frozen=True)
class Gf2Matrix:
    """Square bit matrix over GF(2); rows[i] holds row i as a bit mask."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.rows)
        if r == 0:
            raise ValueError("matrix must have at least one row")
        for row in self.rows:
            if not 0 <= row < (1 << r):
                raise ValueError(f"row mask {row} out of range for size {r}")

    @property
    def size(self) -> int:
        return len(self.rows)

    def apply(self, vec: int) -> int:
        """Left action on a bit-mask column vector."""
        out = 0
        for i, row in enumerate(self.rows):
            if (row & vec).bit_count() & 1:
                out |= 1 << i
        return out

    def is_invertible(self) -> bool:
        rows = list(self.rows)
        rank = 0
        for bit in range(self.size):
            pivot = next(
                (k for k in range(rank, self.size) if rows[k] >> bit & 1), None
            )
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for k in range(self.size):
                if k != rank and rows[k] >> bit & 1:
                    rows[k] ^= rows[rank]
            rank += 1
        return rank == self.size

    @classmethod
    def enumerate_invertible(cls, r: int) -> Iterator["Gf2Matrix"]:
        """Yield all invertible r x r bit matrices, rows in ascending mask order."""

        def rec(rows: tuple[int, ...], span: frozenset[int]) -> Iterator[Gf2Matrix]:
            if len(rows) == r:
                yield cls(rows)
                return
            for cand in range(1, 1 << r):
                if cand in span:
                    continue
                yield from rec(rows + (cand,), span | {cand ^ s for s in span})

        return rec((), frozenset([0]))


@dataclass(frozen=True)
class UnitAut:
    """Automorphism of a cyclic group: g -> unit * g."""

    unit: int


@dataclass(frozen=True)
class MatrixAut:
    """Automorphism of an elementary abelian 2-group: v -> M v."""

    matrix: Gf2Matrix


@dataclass(frozen=True)
class PowerPairAut:
    """Automorphism a -> a^i, b -> a^j * b of a dihedral or dicyclic group."""

    i: int
    j: int


@dataclass(frozen=True)
class GeneratorImagesAut:
    """Automorphism of an abelian product, recorded by where the canonical
    coordinate generators go."""

    images: tuple[tuple[int, ...], ...]


class FiniteGroup:
    """A finite group whose elements are canonical hashable values."""

    kind = "abstract"

    def __init__(self, name: str, order: int) -> None:
        if order < 1:
            raise ValueError(f"group order must be positive, got {order}")
        self.name = name
        self.order = order
        self._elements: Optional[list[GroupElement]] = None
        self._rank: Optional[dict[GroupElement, int]] = None

    # -- family-specific arithmetic ---------------------------------------

    @property
    def identity(self) -> GroupElement:
        raise NotImplementedError

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

    def apply_aut(self, phi, g: GroupElement) -> GroupElement:
        raise NotImplementedError

    def automorphism_extending(self, assignment):
        """First automorphism sending x to y for every (x, y) pair, or None."""
        raise NotImplementedError

    def automorphism_ranks(self) -> np.ndarray:
        """A subgroup H of Aut(G) as an int64 array of shape (|H|, order):
        row h maps each element rank to the rank of its image under psi_h.
        Its size is bounded by the family, never by a search."""
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

    def rank(self, g: GroupElement) -> int:
        if self._rank is None:
            self._rank = {h: i for i, h in enumerate(self.elements())}
        try:
            return self._rank[g]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of {self.name}") from None

    def order_of(self, g: GroupElement) -> int:
        self.check(g)
        power = g
        count = 1
        while power != self.identity:
            power = self.mul(power, g)
            count += 1
        return count

    @lru_cache(maxsize=1)
    def rank_table(self) -> tuple[list[list[int]], list[int]]:
        """(mul, inv) over element ranks: mul[i][j] is the rank of g_i * g_j
        and inv[i] the rank of g_i^-1. Only the most recent group's table is
        cached, so a sweep over many groups holds one N x N table at a time."""
        elems = self.elements()
        rank = self.rank
        mul = [[rank(self._mul(g, h)) for h in elems] for g in elems]
        return mul, [rank(self.inv(g)) for g in elems]

    def closure(self, seed: Iterable[GroupElement]) -> set:
        """Subgroup generated by seed, grown by breadth-first multiplication
        on elements; the reference route for generates."""
        gens = [self.check(g) for g in seed]
        found = {self.identity}
        frontier = [self.identity]
        while frontier:
            fresh = []
            for g in frontier:
                for s in gens:
                    h = self.mul(g, s)
                    if h not in found:
                        found.add(h)
                        fresh.append(h)
            frontier = fresh
        return found

    @cached_property
    def identity_rank(self) -> int:
        return self.rank(self.identity)

    def generates(self, seed: Iterable[GroupElement]) -> bool:
        """Does seed generate the group? See generates_ranks."""
        return self.generates_ranks([self.rank(g) for g in seed])

    def generates_ranks(self, xs: Sequence[int]) -> bool:
        """Do the elements of these ranks generate the group? Breadth-first
        search on rank_table, stopped as soon as it has reached more than
        half the group: a proper subgroup has at most |G|/2 elements
        (Lagrange). One of index 2 has exactly that many, so it is still
        searched to the end."""
        mul = self.rank_table()[0]
        identity = self.identity_rank
        half = self.order // 2
        found = [False] * self.order
        found[identity] = True
        reached = [identity]
        for r in reached:  # the list grows while it is read: a queue
            row = mul[r]
            for x in xs:
                h = row[x]
                if not found[h]:
                    found[h] = True
                    reached.append(h)
            if len(reached) > half:
                return True
        return False

    def involutions(self) -> list[GroupElement]:
        e = self.identity
        return [g for g in self.elements() if g != e and self.mul(g, g) == e]

    def _checked_assignment(self, assignment) -> list[tuple[GroupElement, GroupElement]]:
        pairs = [(self.check(x), self.check(y)) for x, y in assignment]
        sources = [x for x, _ in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError("assignment sources must be distinct")
        return pairs

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class CyclicGroup(FiniteGroup):
    """Residues mod n under addition."""

    kind = "cyclic"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        super().__init__(f"Z{n}", n)
        self.n = n

    @property
    def identity(self) -> int:
        return 0

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

    def apply_aut(self, phi, g):
        if not isinstance(phi, UnitAut):
            raise ValueError(f"{self.name} expects a UnitAut, got {phi!r}")
        if math.gcd(phi.unit % self.n, self.n) != 1:
            raise ValueError(f"{phi.unit} is not a unit mod {self.n}")
        self.check(g)
        return (phi.unit * g) % self.n

    def automorphism_extending(self, assignment) -> Optional[UnitAut]:
        pairs = self._checked_assignment(assignment)
        for u in range(self.n):
            if math.gcd(u, self.n) != 1:
                continue
            if all((u * x) % self.n == y for x, y in pairs):
                return UnitAut(u)
        return None

    def automorphism_ranks(self) -> np.ndarray:
        """All of Aut(Z_n): g -> u * g for every unit u."""
        g = np.arange(self.n, dtype=np.int64)
        units = g[np.gcd(g, self.n) == 1]
        return units[:, None] * g % self.n


class ElemAbelian2Group(FiniteGroup):
    """Bit vectors of length r under XOR; every non-identity element squares to e."""

    kind = "elem2"

    def __init__(self, r: int) -> None:
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        super().__init__(f"E{r}", 1 << r)
        self.r = r

    @property
    def identity(self) -> int:
        return 0

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

    def apply_aut(self, phi, g):
        if not isinstance(phi, MatrixAut):
            raise ValueError(f"{self.name} expects a MatrixAut, got {phi!r}")
        if phi.matrix.size != self.r:
            raise ValueError(f"matrix size {phi.matrix.size} does not match rank {self.r}")
        if not phi.matrix.is_invertible():
            raise ValueError("matrix automorphism must be invertible")
        self.check(g)
        return phi.matrix.apply(g)

    def automorphism_extending(self, assignment) -> Optional[MatrixAut]:
        if self.r > 4:
            raise ValueError(f"matrix search is limited to rank <= 4, got {self.r}")
        pairs = self._checked_assignment(assignment)
        for mat in Gf2Matrix.enumerate_invertible(self.r):
            if all(mat.apply(x) == y for x, y in pairs):
                return MatrixAut(mat)
        return None

    def automorphism_ranks(self) -> np.ndarray:
        """The r! coordinate permutations, a subgroup of GL(r, 2); bit j of
        g moves to bit sigma(j). GL(r, 2) itself is far too large to list."""
        sigmas = np.array(list(permutations(range(self.r))), dtype=np.int64)
        bits = np.arange(self.order, dtype=np.int64)[:, None] >> np.arange(self.r) & 1
        return (bits @ (1 << sigmas).T).T


class _ExponentPairGroup(FiniteGroup):
    """Shared plumbing for groups with normal form a^i * b^eps, 0 <= i < m."""

    m: int

    def __init__(self, name: str, order: int, m: int) -> None:
        super().__init__(name, order)
        self.m = m

    @property
    def identity(self) -> tuple[int, int]:
        return (0, 0)

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and isinstance(g[0], int)
            and 0 <= g[0] < self.m
            and g[1] in (0, 1)
        )

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
        if match is None:
            raise ValueError(f"cannot parse {text!r} as an element of {self.name}")
        i = int(match.group(1)) if match.group(1) else 1
        return (i % self.m, 1 if match.group(2) else 0)

    def apply_aut(self, phi, g):
        if not isinstance(phi, PowerPairAut):
            raise ValueError(f"{self.name} expects a PowerPairAut, got {phi!r}")
        if math.gcd(phi.i % self.m, self.m) != 1:
            raise ValueError(f"i={phi.i} must be a unit mod {self.m}")
        i, e = self.check(g)
        return ((phi.i * i + phi.j * e) % self.m, e)

    def automorphism_extending(self, assignment) -> Optional[PowerPairAut]:
        pairs = self._checked_assignment(assignment)
        if any(e != d for (_, e), (_, d) in pairs):
            return None
        flips = [(s, t) for (s, e), (t, _) in pairs if e == 1]
        for i in range(self.m):
            if math.gcd(i, self.m) != 1:
                continue
            j = (flips[0][1] - i * flips[0][0]) % self.m if flips else 0
            phi = PowerPairAut(i, j)
            if all(self.apply_aut(phi, x) == y for x, y in pairs):
                return phi
        return None

    def automorphism_ranks(self) -> np.ndarray:
        """Every PowerPairAut a -> a^u, b -> a^v * b (u a unit mod m), that
        is (i, e) -> (u * i + v * e, e), rows ordered by (v, u). For the
        dihedral groups with n >= 3 this is all of Aut(D_n)."""
        m = self.m
        i = np.arange(m, dtype=np.int64)
        units = i[np.gcd(i, m) == 1]
        rotations = units[:, None] * i % m
        # element (i, e) has rank e * m + i, so a^(j + v) * b has rank shift[v, j]
        shift = (i[:, None] + i) % m + m
        out = np.empty((m, len(units), 2 * m), dtype=np.int64)
        out[:, :, :m] = rotations
        out[:, :, m:] = shift[:, rotations]
        return out.reshape(m * len(units), 2 * m)


class DihedralGroup(_ExponentPairGroup):
    """Symmetries of a regular n-gon: a rotates, b reflects, (ab)^2 = e."""

    kind = "dihedral"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"dihedral parameter must be >= 1, got {n}")
        super().__init__(f"D{n}", 2 * n, n)
        self.n = n

    def _mul(self, g, h):
        (i, e), (k, d) = g, h
        return ((i + (k if e == 0 else -k)) % self.n, (e + d) % 2)

    def inv(self, g):
        i, e = self.check(g)
        return (i, 1) if e else ((-i) % self.n, 0)


class DicyclicGroup(_ExponentPairGroup):
    """Order-4n group where b^2 = a^n and b inverts a by conjugation."""

    kind = "dicyclic"

    def __init__(self, n: int) -> None:
        # n = 1 would collapse to Z4; the presentation is kept faithful.
        if n < 2:
            raise ValueError(f"dicyclic parameter must be >= 2, got {n}")
        super().__init__(f"Dic{n}", 4 * n, 2 * n)
        self.n = n

    def _mul(self, g, h):
        (i, e), (k, d) = g, h
        x = (i + (k if e == 0 else -k)) % self.m
        if e == 1 and d == 1:
            x = (x + self.n) % self.m
        return (x, (e + d) % 2)

    def inv(self, g):
        i, e = self.check(g)
        return ((i + self.n) % self.m, 1) if e else ((-i) % self.m, 0)


class AbelianProductGroup(FiniteGroup):
    """Direct product of cyclic groups; elements are residue tuples, written
    with colons ("1:3" in Z2xZ4)."""

    kind = "abelian"

    def __init__(self, mods: Sequence[int]) -> None:
        mods = tuple(int(d) for d in mods)
        if len(mods) < 1 or any(d < 2 for d in mods):
            raise ValueError(f"moduli must all be >= 2, got {mods}")
        order = math.prod(mods)
        super().__init__("x".join(f"Z{d}" for d in mods), order)
        self.mods = mods
        self._identity = (0,) * len(mods)

    @property
    def identity(self):
        return self._identity

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

    def apply_aut(self, phi: GeneratorImagesAut, g):
        self.check(g)
        out = self.identity
        for c, img in zip(g, phi.images):
            for _ in range(c):
                out = self.mul(out, img)
        return out

    def automorphism_extending(self, assignment) -> Optional[GeneratorImagesAut]:
        pairs = self._checked_assignment(assignment)
        # candidate images for coordinate generator j must have order dividing mods[j]
        candidates = [
            [g for g in self.elements() if d % self.order_of(g) == 0]
            for d in self.mods
        ]
        for images in product(*candidates):
            phi = GeneratorImagesAut(tuple(images))
            if any(self.apply_aut(phi, x) != y for x, y in pairs):
                continue
            seen = {self.apply_aut(phi, g) for g in self.elements()}
            if len(seen) == self.order:
                return phi
        return None

    def automorphism_ranks(self) -> np.ndarray:
        """g -> u * g for every unit u modulo the exponent."""
        exponent = math.lcm(*self.mods)
        u = np.arange(exponent, dtype=np.int64)
        units = u[np.gcd(u, exponent) == 1]
        mods = np.array(self.mods, dtype=np.int64)
        # elements are listed in product order, the last coordinate fastest
        coords = np.indices(self.mods, dtype=np.int64).reshape(len(mods), -1).T
        strides = np.append(np.cumprod(mods[:0:-1])[::-1], 1)
        return units[:, None, None] * coords % mods @ strides
