"""Slot involutions as 0-based image tuples, kappa[i] being the image of slot
i: their 1-based cycle notation for reports, the reflection fixing the last
slot, and the involutions of a degree."""

from __future__ import annotations

from typing import Iterator, Sequence

__all__ = [
    "all_involutions",
    "cycle_string",
    "cycles",
    "reflection_fixing_last",
]


def cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """The disjoint cycles of a bijection of 0..m-1, as 1-based points,
    sorted by smallest member; fixed points omitted."""
    out = []
    done = [False] * len(images)
    for start, image in enumerate(images):
        if done[start] or image == start:
            continue
        cycle = [start + 1]
        done[start] = True
        while image != start:
            cycle.append(image + 1)
            done[image] = True
            image = images[image]
        out.append(tuple(cycle))
    return out


def cycle_string(images: Sequence[int]) -> str:
    """The cycles as "(1 3)(2 4)", or "id" for the identity."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles(images)) or "id"


def reflection_fixing_last(k: int) -> tuple[int, ...]:
    """The involution i -> k - 2 - i on 0..k-2 that fixes k - 1."""
    return (*range(k - 2, -1, -1), k - 1)


def all_involutions(m: int) -> Iterator[tuple[int, ...]]:
    """Every involution of 0..m-1 (identity included), in a fixed order.

    Points are matched smallest-first, with the fixed-point branch emitted
    before the transposition branches.
    """

    # each call sets every point of remaining before it yields, so no entry
    # needs undoing
    images = [0] * m

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(images)
            return
        first, rest = remaining[0], remaining[1:]
        images[first] = first
        yield from rec(rest)
        for partner in rest:
            images[first], images[partner] = partner, first
            yield from rec(tuple(x for x in rest if x != partner))

    return rec(tuple(range(m)))
