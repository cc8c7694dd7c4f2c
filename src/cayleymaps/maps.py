"""Cayley maps as combinatorial objects.

A map is a group together with an ordered generating list (x_0, ..., x_(k-1));
the rotation R advances the generator slot at a vertex, and the reversal L
crosses to the other end of an edge. Slots are 0-based: arcs are numbered
(vertex rank) * k + slot, so every permutation here is a list of ints over
that numbering, and a map's distribution of inverses `kappa` is the tuple of
slots with x_i^-1 = x_kappa[i].
`skew_morphism` decides regularity by one walk over a product table (a map's
own N x k table, or the census's whole one), `rotation_row` and `reversal_row`
build R and L, and `arc_code` names a regular map's isomorphism class, for
maps and for the census alike; out of an irregular map, `maps_isomorphic`
searches for an arc bijection (`arc_bijection_exists`). `graph_aut_order`
lists the underlying graph's automorphisms for the report. The rotation
automorphism, one-regularity and normality, which no command reports, are
functions of a map in the tests' reference routes (`tests/reference.py`).
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .counting import SizeGuardError
from .groups import FiniteGroup, GroupElement, is_generating

__all__ = [
    "BalanceType",
    "CayleyMap",
    "SizeGuardError",
    "arc_code",
    "build_map",
    "maps_isomorphic",
    "reversal_row",
    "rotation_row",
    "skew_morphism",
]

GRAPH_AUT_MAX_VERTICES = 64
# K9 has 9! automorphisms and takes seconds to list; K12 has 12!
GRAPH_AUT_MAX_COUNT = 20_000


class BalanceType(NamedTuple):
    """Result of the power-of-rotation test q(x)^{-1} = q^t(x^{-1})."""

    label: str
    t: Optional[int] = None

    def __str__(self) -> str:
        if self.label == "t-balanced":
            return f"t-balanced({self.t})"
        return self.label

    @property
    def is_balanced(self) -> bool:
        return self.label == "balanced"

    @property
    def is_anti_balanced(self) -> bool:
        return self.label == "anti-balanced"


class CayleyMap:
    """A validated Cayley map on an ordered generator list. It builds X's
    N x k product table once, and decides generation on it."""

    def __init__(self, group: FiniteGroup, xs: Iterable[GroupElement]) -> None:
        xs = tuple(xs)
        k = len(xs)
        if k < 3:
            raise ValueError(f"a Cayley map needs at least 3 generators, got {k}")
        for x in xs:
            group.check(x)
        if len(set(xs)) != k:
            raise ValueError("generator list contains duplicates")
        if group.identity in xs:
            raise ValueError("generator list must be unit-free (identity found)")
        slot_of = {x: i for i, x in enumerate(xs)}
        kappa = []
        for x in xs:
            y = group.inv(x)
            if y not in slot_of:
                raise ValueError(
                    f"generator set is not inverse-closed: missing "
                    f"{group.format_element(y)}"
                )
            kappa.append(slot_of[y])
        ranks = tuple(group.rank(x) for x in xs)
        # X's N x k products, slot i of row g holding g * x_i: all that the
        # generation test, the reversal row and the walk read
        table = group.products(ranks)
        if not is_generating(table, range(k), group.identity_rank):
            raise ValueError("generator set does not generate the group")

        self.group = group
        self.xs = xs
        self.k = k
        self._ranks = ranks
        self._table = table
        self.n_arcs = group.order * k
        # distribution of inverses: the involution with x_i^-1 = x_kappa[i]
        self.kappa = tuple(kappa)
        self._rotation_row = rotation_row(self.n_arcs, k)

    @cached_property
    def _reversal_row(self) -> list[int]:
        return reversal_row(self._table, range(self.k), self.kappa)

    @cached_property
    def _walk(self) -> Optional[tuple[list[int], list[int]]]:
        return skew_morphism(
            self._table, range(self.k), self.kappa, self.group.identity_rank
        )

    # -- inverse distribution and balance ----------------------------------

    def balance_type(self) -> BalanceType:
        kappa, k = self.kappa, self.k
        for t in range(1, k):
            if all(kappa[(i + 1) % k] == (kappa[i] + t) % k for i in range(k)):
                if t == 1:
                    return BalanceType("balanced", 1)
                if t == k - 1:
                    return BalanceType("anti-balanced", k - 1)
                return BalanceType("t-balanced", t)
        return BalanceType("none")

    # -- regularity ---------------------------------------------------------

    def is_regular(self) -> bool:
        """Do the map's automorphisms act regularly on its arcs? Exactly when
        x_i -> x_(i+1) extends to a skew-morphism (skew_morphism)."""
        return self._walk is not None

    @cached_property
    def _code(self) -> bytes:
        return arc_code(self._rotation_row, self._reversal_row)

    def arc_code(self) -> bytes:
        """arc_code of this map's rows, cached."""
        return self._code

    # -- faces and genus -------------------------------------------------------

    def face_sizes(self) -> list[int]:
        """Orbit lengths of rotation-after-reversal, one per face."""
        rotation = self._rotation_row
        walk = [rotation[b] for b in self._reversal_row]
        seen = [False] * self.n_arcs
        sizes = []
        for start in range(self.n_arcs):
            if seen[start]:
                continue
            length = 0
            a = start
            while not seen[a]:
                seen[a] = True
                length += 1
                a = walk[a]
            sizes.append(length)
        return sizes

    def faces_and_genus(self) -> tuple[int, int]:
        faces = len(self.face_sizes())
        vertices = self.group.order
        edges = self.n_arcs // 2
        doubled = 2 - vertices + edges - faces
        if doubled % 2 or doubled < 0:
            raise RuntimeError(
                f"Euler computation gave an invalid genus: V={vertices} "
                f"E={edges} F={faces}"
            )
        return faces, doubled // 2

    # -- underlying simple graph ---------------------------------------------

    def underlying_adjacency(self) -> list[int]:
        """Neighbor bitsets by vertex rank (vertex u is adjacent to v iff
        bit v of entry u is set)."""
        k = self.k
        adj = [0] * self.group.order
        for arc, b in enumerate(self._reversal_row):
            adj[arc // k] |= 1 << (b // k)
        return adj

    def graph_automorphisms(self) -> list[tuple[int, ...]]:
        """Every automorphism of the underlying simple graph, as a vertex
        permutation tuple; refuses above 64 vertices."""
        n = self.group.order
        if n > GRAPH_AUT_MAX_VERTICES:
            raise SizeGuardError(
                f"graph automorphism search is limited to "
                f"{GRAPH_AUT_MAX_VERTICES} vertices, got {n}"
            )
        return _graph_automorphisms(self.underlying_adjacency())

    def graph_aut_order(self) -> int:
        return len(self.graph_automorphisms())

    def xs_ranks(self) -> tuple[int, ...]:
        return self._ranks

    def __repr__(self) -> str:
        shown = ", ".join(self.group.format_element(x) for x in self.xs)
        return f"CayleyMap({self.group.name}, [{shown}])"


# the name the callers and the benchmark's tracer use for the constructor
build_map = CayleyMap


def rotation_row(n_arcs: int, k: int) -> list[int]:
    """R: arc (v, i) -> (v, i + 1), the slot advancing mod k at each vertex."""
    star = list(range(1, k)) + [0]
    return [v + i for v in range(0, n_arcs, k) for i in star]


def reversal_row(table, slots: Sequence[int], kappa0: Sequence[int]) -> list[int]:
    """L: arc (v, i) -> (v * x_i, kappa(i)), where row v of the product
    table holds v * x_i in slot slots[i], and kappa0[i] is the 0-based slot
    of x_i^-1."""
    k = len(slots)
    return [row[s] * k + j for row in table for s, j in zip(slots, kappa0)]


def skew_morphism(
    table, slots: Sequence[int], kappa0: Sequence[int], identity: int
) -> Optional[tuple[list[int], list[int]]]:
    """(phi, delta) when x_i -> x_(i+1) extends to a skew-morphism phi of G
    with power function delta, else None: the map with 0-based inverse
    slots kappa0 is regular exactly when it is not None (Jajcay and Siran,
    Discrete Math. 244, 2002). Row g of the product table holds g * x_i in
    slot slots[i], and identity is the rank of e. A breadth-first walk over
    the table from phi(e) = e, delta(e) = 1 sets, on each edge,
    phi(g x_i) = phi(g) x_(i+delta(g)) and
    delta(g x_i) = kappa(i + delta(g)) - kappa(i) (mod k),
    and stops at the first clash. It is exact:
    - An arc map commuting with R is Phi(g, i) = (phi(g), i + delta(g)); it
      commutes with L exactly when these equations hold, and a walk without
      a clash defines it on every arc, as the generators reach every vertex.
    - Phi's image is closed under <R, L>, which is transitive on arcs, so
      Phi is an automorphism fixing e and sending arc 0 to arc 1: the map
      is regular. Conversely that automorphism of a regular map solves
      every equation, so the walk never clashes.
    - A rotation automorphism psi forces kappa(i+1) = kappa(i) + 1, and
      (psi, 1) is then the unique solution; delta = 1 everywhere makes phi
      a homomorphism word by word, so phi is psi."""
    k = len(slots)
    phi = [-1] * len(table)
    delta = [0] * len(table)
    phi[identity], delta[identity] = identity, 1
    reached = [identity]
    for g in reached:  # the list grows while it is read: a queue
        row, image_row, d = table[g], table[phi[g]], delta[g]
        for i, s in enumerate(slots):
            j = (i + d) % k
            h, image, power = row[s], image_row[slots[j]], (kappa0[j] - kappa0[i]) % k
            if phi[h] < 0:
                phi[h], delta[h] = image, power
                reached.append(h)
            elif phi[h] != image or delta[h] != power:
                return None
    return phi, delta


def arc_code(R: Sequence[int], L: Sequence[int]) -> bytes:
    """R and L relabelled in the order a breadth-first walk from arc 0,
    trying R before L at each arc, first reaches the arcs. Equal codes mean
    isomorphic maps; the automorphisms of a regular map are transitive on
    its arcs, so an isomorphism out of one can be made to fix arc 0, and the
    codes are equal too: the code names a regular map's isomorphism class.
    It holds the label of R(a) for each arc a in walk order, then that of
    L(a), as native int64 bytes."""
    label = [-1] * len(R)
    label[0] = 0
    order = [0]
    for a in order:  # order grows as the walk reaches new arcs
        for b in (R[a], L[a]):
            if label[b] < 0:
                label[b] = len(order)
                order.append(b)
    code = array("q", [label[R[a]] for a in order])
    code.extend([label[L[a]] for a in order])
    return code.tobytes()


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


def maps_isomorphic(m1: CayleyMap, m2: CayleyMap) -> bool:
    """True iff an arc bijection carries one rotation/reversal pair to the
    other. Out of a regular m1 this compares arc codes; out of an irregular
    one it propagates from every candidate image of arc 0."""
    if m1.n_arcs != m2.n_arcs:
        return False
    if m1.is_regular():
        return m1.arc_code() == m2.arc_code()
    return arc_bijection_exists(
        m1._rotation_row, m1._reversal_row, m2._rotation_row, m2._reversal_row
    )


def _graph_automorphisms(adj: list[int]) -> list[tuple[int, ...]]:
    """Count-and-collect graph automorphisms by backtracking over a BFS
    vertex order, with neighbor bitset consistency at every step."""
    n = len(adj)
    # BFS order so each vertex after the first touches an earlier one.
    order = [0]
    placed = 1 << 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        nbrs = adj[u] & ~placed
        while nbrs:
            v = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            placed |= 1 << v
            order.append(v)
            queue.append(v)
    if len(order) != n:
        raise ValueError("underlying graph is disconnected")

    full = (1 << n) - 1
    found: list[tuple[int, ...]] = []
    images = [0] * n

    def extend(pos: int, used: int) -> None:
        if pos == n:
            if len(found) == GRAPH_AUT_MAX_COUNT:
                raise SizeGuardError(f"over {GRAPH_AUT_MAX_COUNT} graph automorphisms")
            out = [0] * n
            for p, v in enumerate(order):
                out[v] = images[p]
            found.append(tuple(out))
            return
        v = order[pos]
        cand = full & ~used
        for p, u in enumerate(order[:pos]):
            if adj[v] >> u & 1:
                cand &= adj[images[p]]
            else:
                cand &= ~adj[images[p]]
            if not cand:
                return
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            images[pos] = w
            extend(pos + 1, used | 1 << w)

    extend(0, 0)
    return found
