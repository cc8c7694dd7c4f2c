"""Reference kernel: the permutation-closure BFS, in plain Python.

No module of the package imports this one, so no command loads it: the
closure is the tests' reference route, and the benchmark's tracer wraps it
and records `default_backend`. Rows are permutations stored 0-based;
composing row t with generator g yields t[g], i.e. (t o g)(x) = t[g[x]].
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
