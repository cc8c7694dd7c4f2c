"""Permutations on {1..m}: cycles, the reflection fixing the last point,
and the involutions of a degree."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "Permutation",
    "reflection_fixing_last",
    "all_involutions",
]


class Permutation:
    """A bijection of {1..m}; images[i-1] is the image of point i. Equal
    permutations have equal images, and hash alike."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        m = len(images)
        if m == 0:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, m + 1)):
            raise ValueError(f"images {images} are not a bijection of 1..{m}")
        self.images = images

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1]

    def __call__(self, point: int) -> int:
        return self.apply(point)

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


def reflection_fixing_last(k: int) -> Permutation:
    """The involution i -> k - i on {1..k-1} that fixes k."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    return Permutation(tuple((k - i) % k or k for i in range(1, k + 1)))


def all_involutions(m: int) -> Iterator[Permutation]:
    """Every involution of degree m (identity included), in a fixed order.

    Points are matched smallest-first, with the fixed-point branch emitted
    before the transposition branches.
    """

    # images[i - 1] is the image of point i; each call sets every point of
    # remaining before it yields, so no entry needs undoing
    images = [0] * m

    def rec(remaining: tuple[int, ...]) -> Iterator[Permutation]:
        if not remaining:
            yield Permutation(tuple(images))
            return
        first, rest = remaining[0], remaining[1:]
        images[first - 1] = first
        yield from rec(rest)
        for partner in rest:
            images[first - 1], images[partner - 1] = partner, first
            yield from rec(tuple(x for x in rest if x != partner))

    return rec(tuple(range(1, m + 1)))
