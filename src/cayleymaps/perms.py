"""Permutations on {1..m}, and the order of the group a k-cycle and an
involution generate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ._kernels import closure_table

__all__ = [
    "Permutation",
    "compose",
    "cycle_and_involution_group",
    "full_cycle",
    "reflection_fixing_last",
    "all_involutions",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..m}; images[i-1] is the image of point i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if m == 0:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"images {self.images} are not a bijection of 1..{m}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1]

    def __call__(self, point: int) -> int:
        return self.apply(point)

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, m + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for point in cycle:
                if not 1 <= point <= m:
                    raise ValueError(f"point {point} out of range 1..{m}")
                if point in seen:
                    raise ValueError(f"point {point} appears in more than one cycle")
                seen.add(point)
            for pos, point in enumerate(cycle):
                images[point - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    def to_cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles sorted by smallest member; fixed points omitted."""
        cycles = []
        done: set[int] = set()
        for start in range(1, self.degree + 1):
            if start in done or self.images[start - 1] == start:
                continue
            cycle = [start]
            done.add(start)
            point = self.images[start - 1]
            while point != start:
                cycle.append(point)
                done.add(point)
                point = self.images[point - 1]
            cycles.append(tuple(cycle))
        return cycles

    def cycle_string(self) -> str:
        """The cycles as "(1 3)(2 4)", or "id" for the identity."""
        cycles = self.to_cycles()
        if not cycles:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(tuple(p.images[q.images[i] - 1] for i in range(p.degree)))


def full_cycle(k: int) -> Permutation:
    """The rotation (1 2 ... k)."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    return Permutation(tuple(list(range(2, k + 1)) + [1]))


def reflection_fixing_last(k: int) -> Permutation:
    """The involution i -> k - i on {1..k-1} that fixes k."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    return Permutation(tuple((k - i) % k or k for i in range(1, k + 1)))


def cycle_and_involution_group(
    k: int, kappa: Permutation, cutoff: int
) -> tuple[int, bool]:
    """(order, exceeded) for the group generated by the rotation (1 2 ... k)
    and the involution kappa, closed up to cutoff elements: the order is
    exact when exceeded is False, and cutoff + 1 otherwise."""
    if kappa.degree != k:
        raise ValueError(f"involution degree {kappa.degree} does not match k={k}")
    if not compose(kappa, kappa).is_identity():
        raise ValueError(f"{kappa!r} is not an involution")
    rows = [[i - 1 for i in g.images] for g in (full_cycle(k), kappa)]
    order, exceeded, _ = closure_table(rows, cutoff)
    return order, exceeded


def all_involutions(m: int) -> Iterator[Permutation]:
    """Every involution of degree m (identity included), in a fixed order.

    Points are matched smallest-first, with the fixed-point branch emitted
    before the transposition branches.
    """

    def rec(remaining: tuple[int, ...], images: dict[int, int]) -> Iterator[Permutation]:
        if not remaining:
            yield Permutation(tuple(images[i] for i in range(1, m + 1)))
            return
        first, rest = remaining[0], remaining[1:]
        yield from rec(rest, {**images, first: first})
        for partner in rest:
            others = tuple(x for x in rest if x != partner)
            yield from rec(others, {**images, first: partner, partner: first})

    return rec(tuple(range(1, m + 1)), {})
