"""Reference kernels: permutation-closure BFS and arc-bijection search.

Both are plain numpy/Python, and neither runs in the census search: the
closure gives `perms.cycle_and_involution_group` its order, and the
bijection search decides isomorphism out of an irregular map. Each imports
numpy when it is called, so loading this module loads no numpy. Rows are permutations stored 0-based
(as int64 arrays inside the kernels); composing row t with generator g
yields t[g], i.e. (t o g)(x) = t[g[x]].
"""

from __future__ import annotations

from typing import Sequence


def default_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


# -- closure ------------------------------------------------------------------


def closure_table(gens, cutoff: int):
    """BFS closure of the permutation rows under composition.

    Returns (size, exceeded, rows).  size is exact when exceeded is False;
    otherwise size = cutoff + 1 and rows is empty.
    """
    import numpy as np

    gens = np.ascontiguousarray(gens, dtype=np.int64)
    if gens.ndim != 2 or gens.shape[0] == 0:
        raise ValueError("gens must be a non-empty 2-d array of permutation rows")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    m = gens.shape[1]
    ident = np.arange(m, dtype=np.int64)
    seen = {ident.tobytes(): None}
    rows = [ident]
    frontier = ident.reshape(1, m)
    while frontier.shape[0]:
        fresh = []
        for gi in range(gens.shape[0]):
            for row in frontier[:, gens[gi]]:
                key = row.tobytes()
                if key not in seen:
                    if len(seen) >= cutoff:
                        return cutoff + 1, True, np.empty((0, m), dtype=np.int64)
                    seen[key] = None
                    fresh.append(row)
        rows.extend(fresh)
        frontier = (
            np.stack(fresh) if fresh else np.empty((0, m), dtype=np.int64)
        )
    return len(rows), False, np.stack(rows)


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
    import numpy as np

    rows = [np.asarray(row, dtype=np.int64) for row in (r1, l1, r2, l2)]
    if len({row.shape for row in rows}) != 1 or rows[0].ndim != 1:
        raise ValueError("all four permutation rows must share one 1-d shape")
    r1l, l1l, r2l, l2l = (row.tolist() for row in rows)
    m = len(r1l)

    def extends(f: int) -> bool:
        phi = [-1] * m
        phi[0] = f
        used = {f}
        stack = [0]
        while stack:
            a = stack.pop()
            for p1, p2 in ((r1l, r2l), (l1l, l2l)):
                b, fb = p1[a], p2[phi[a]]
                if phi[b] == -1 and fb not in used:
                    phi[b] = fb
                    used.add(fb)
                    stack.append(b)
                elif phi[b] != fb:
                    return False
        return len(used) == m

    return any(extends(f) for f in range(m))
