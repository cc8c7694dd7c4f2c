"""Reference kernels: permutation-closure BFS and arc-bijection search.

Both are plain Python, and neither runs in the census search. No module of
the package calls the closure: it is the tests' reference route, and the
benchmark's tracer wraps it. The bijection search decides isomorphism out
of an irregular map. Rows are permutations stored 0-based; composing row t
with generator g yields t[g], i.e. (t o g)(x) = t[g[x]].
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence


def default_backend() -> str:
    """The label the benchmark records with its results; the kernels have
    one plain-Python implementation."""
    return "numpy"


# -- closure ------------------------------------------------------------------


def closure_table(gens: Sequence[Sequence[int]], cutoff: int):
    """BFS closure of the permutation rows under composition.

    Returns (size, exceeded, rows), rows a list of tuples.  size is exact
    when exceeded is False; otherwise size = cutoff + 1 and rows is empty.
    """
    gens = [tuple(row) for row in gens]
    if not gens or not gens[0] or len({len(row) for row in gens}) != 1:
        raise ValueError("gens must be non-empty permutation rows of one length")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    ident = tuple(range(len(gens[0])))
    if len(ident) == 1:  # itemgetter of one index returns an int, not a tuple
        return 1, False, [ident]
    composers = [itemgetter(*gen) for gen in gens]
    seen = {ident}
    rows = [ident]
    for row in rows:  # rows grows behind the loop: a queue
        for compose in composers:
            image = compose(row)
            if image not in seen:
                if len(seen) >= cutoff:
                    return cutoff + 1, True, []
                seen.add(image)
                rows.append(image)
    return len(rows), False, rows


# -- arc-bijection propagation --------------------------------------------------


def arc_bijection_exists(
    r1: Sequence[int],
    l1: Sequence[int],
    r2: Sequence[int],
    l2: Sequence[int],
) -> bool:
    """True when some bijection phi of arcs maps (R1, L1) onto (R2, L2).

    phi is grown from phi(0) = f for each arc f, propagating along both
    permutations and rejecting on any clash; connectivity of the arc action
    makes a full propagation a complete proof.
    """
    m = len(r1)
    if any(len(row) != m for row in (l1, r2, l2)):
        raise ValueError("all four permutation rows must have one length")

    def extends(f: int) -> bool:
        phi = [-1] * m
        phi[0] = f
        used = {f}
        stack = [0]
        while stack:
            a = stack.pop()
            for p1, p2 in ((r1, r2), (l1, l2)):
                b, fb = p1[a], p2[phi[a]]
                if phi[b] == -1 and fb not in used:
                    phi[b] = fb
                    used.add(fb)
                    stack.append(b)
                elif phi[b] != fb:
                    return False
        return len(used) == m

    return any(extends(f) for f in range(m))
