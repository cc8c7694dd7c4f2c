"""Hot numeric kernels: permutation-closure BFS and arc-bijection search.

Both kernels are plain numpy/Python. Rows are permutations stored 0-based as
int64 arrays; composing row t with generator g yields t[g], i.e.
(t o g)(x) = t[g[x]].
"""

from __future__ import annotations

import numpy as np


def default_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


# -- closure ------------------------------------------------------------------


def _closure_numpy(gens: np.ndarray, cutoff: int):
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


def closure_table(gens: np.ndarray, cutoff: int):
    """BFS closure of the permutation rows under composition.

    Returns (size, exceeded, rows).  size is exact when exceeded is False;
    otherwise size = cutoff + 1 and rows is empty.
    """
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    if gens.ndim != 2 or gens.shape[0] == 0:
        raise ValueError("gens must be a non-empty 2-d array of permutation rows")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return _closure_numpy(gens, cutoff)


# -- arc-bijection propagation --------------------------------------------------


def _iso_any_python(r1, l1, r2, l2, candidates):
    m = len(r1)
    r1l = r1.tolist()
    l1l = l1.tolist()
    r2l = r2.tolist()
    l2l = l2.tolist()
    for f in candidates.tolist():
        phi = [-1] * m
        used = [False] * m
        phi[0] = f
        used[f] = True
        stack = [0]
        visited = 1
        ok = True
        while stack and ok:
            a = stack.pop()
            fa = phi[a]
            for p1, p2 in ((r1l, r2l), (l1l, l2l)):
                b = p1[a]
                fb = p2[fa]
                if phi[b] == -1:
                    if used[fb]:
                        ok = False
                        break
                    phi[b] = fb
                    used[fb] = True
                    stack.append(b)
                    visited += 1
                elif phi[b] != fb:
                    ok = False
                    break
        if ok and visited == m:
            return True
    return False


def arc_bijection_exists(
    r1: np.ndarray,
    l1: np.ndarray,
    r2: np.ndarray,
    l2: np.ndarray,
    candidates: np.ndarray | None = None,
) -> bool:
    """True when some bijection phi of arcs maps (R1, L1) onto (R2, L2).

    phi is grown from phi(0) = f for each candidate f, propagating along both
    permutations and rejecting on any clash; connectivity of the arc action
    makes a full propagation a complete proof.
    """
    r1 = np.ascontiguousarray(r1, dtype=np.int64)
    l1 = np.ascontiguousarray(l1, dtype=np.int64)
    r2 = np.ascontiguousarray(r2, dtype=np.int64)
    l2 = np.ascontiguousarray(l2, dtype=np.int64)
    if not (r1.shape == l1.shape == r2.shape == l2.shape) or r1.ndim != 1:
        raise ValueError("all four permutation rows must share one 1-d shape")
    if candidates is None:
        candidates = np.arange(r1.shape[0], dtype=np.int64)
    else:
        candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    return _iso_any_python(r1, l1, r2, l2, candidates)
