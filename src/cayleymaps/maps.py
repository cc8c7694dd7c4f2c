"""Cayley maps as combinatorial objects.

A map is a group together with an ordered generating list (x_1, ..., x_k);
the rotation R advances the generator slot at a vertex, and the reversal L
crosses to the other end of an edge.  Arcs are numbered (vertex rank) * k +
(slot - 1), so every permutation here is a list of ints over that numbering.
`skew_morphism` decides regularity by one walk over the group's rank table,
`rotation_row` and `reversal_row` build R and L, and `arc_code` names a
regular map's isomorphism class, for maps and for the census alike.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._kernels import arc_bijection_exists
from .counting import SizeGuardError
from .groups import FiniteGroup, GroupElement
from .perms import Permutation

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


@dataclass(frozen=True)
class BalanceType:
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
    """A validated Cayley map; construct through build_map."""

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
        slot_of = {x: i for i, x in enumerate(xs, start=1)}
        kappa_images = []
        for x in xs:
            y = group.inv(x)
            if y not in slot_of:
                raise ValueError(
                    f"generator set is not inverse-closed: missing "
                    f"{group.format_element(y)}"
                )
            kappa_images.append(slot_of[y])
        if not group.generates(xs):
            raise ValueError("generator set does not generate the group")

        self.group = group
        self.xs = xs
        self.k = k
        self.n_arcs = group.order * k
        # distribution of inverses: the involution with x_i^-1 = x_kappa(i)
        self.kappa = Permutation(tuple(kappa_images))
        self._kappa0 = [s - 1 for s in kappa_images]
        mul = group.rank_table()[0]
        self._rotation_row = rotation_row(self.n_arcs, k)
        self._reversal_row = reversal_row(mul, self.xs_ranks(), self._kappa0)
        self._regular: Optional[bool] = None
        self._code: Optional[bytes] = None
        self._graph_auts: Optional[list[tuple[int, ...]]] = None

    # -- inverse distribution and balance ----------------------------------

    def canonical_base_rotation(self) -> "CayleyMap":
        """Rotate xs so the last generator is self-inverse, breaking ties by
        the lexicographically smallest rank tuple."""
        rotations = []
        for shift in range(self.k):
            rotated = self.xs[shift:] + self.xs[:shift]
            if self.group.inv(rotated[-1]) == rotated[-1]:
                rotations.append(rotated)
        if not rotations:
            raise ValueError("no rotation of xs puts a self-inverse generator last")
        best = min(rotations, key=lambda xs: tuple(self.group.rank(x) for x in xs))
        return CayleyMap(self.group, best)

    def balance_type(self) -> BalanceType:
        kp = self.kappa.images
        k = self.k
        for t in range(1, k):
            if all(kp[i % k] == (kp[i - 1] - 1 + t) % k + 1 for i in range(1, k + 1)):
                if t == 1:
                    return BalanceType("balanced", 1)
                if t == k - 1:
                    return BalanceType("anti-balanced", k - 1)
                return BalanceType("t-balanced", t)
        return BalanceType("none")

    # -- regularity ---------------------------------------------------------

    def is_regular(self) -> bool:
        """Do the map's automorphisms act regularly on its arcs? Exactly when
        x_i -> x_(i+1) extends to a skew-morphism (skew_morphism); cached."""
        if self._regular is None:
            walk = skew_morphism(self.group, self.xs_ranks(), self._kappa0)
            self._regular = walk is not None
        return self._regular

    def arc_code(self) -> bytes:
        """arc_code of this map's rows, cached."""
        if self._code is None:
            self._code = arc_code(self._rotation_row, self._reversal_row)
        return self._code

    def rotation_automorphism(self) -> Optional[tuple[int, ...]]:
        """The group automorphism phi with phi(x_i) = x_(i+1) for every slot,
        as a rank tuple in the row convention of automorphism_ranks, or None:
        skew_morphism's phi when its power function is 1 everywhere."""
        walk = skew_morphism(self.group, self.xs_ranks(), self._kappa0)
        return tuple(walk[0]) if walk and set(walk[1]) == {1} else None

    def balanced_regular_via_aut(self) -> bool:
        """Skoviera-Siran criterion (Discrete Math. 109, 1992): a balanced
        Cayley map is regular exactly when x_i -> x_{i+1} extends to an
        automorphism of the group. The answer means regularity only for a
        balanced map; is_regular decides it for every map."""
        return self.rotation_automorphism() is not None

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
        if self._graph_auts is None:
            self._graph_auts = _graph_automorphisms(self.underlying_adjacency())
        return self._graph_auts

    def graph_aut_order(self) -> int:
        return len(self.graph_automorphisms())

    def is_one_regular(self) -> bool:
        """Arc-transitive with automorphism count equal to the arc count."""
        auts = self.graph_automorphisms()
        base_u = 0
        base_v = (self.underlying_adjacency()[0]).bit_length() - 1
        arc_orbit = {(alpha[base_u], alpha[base_v]) for alpha in auts}
        return len(arc_orbit) == self.n_arcs and len(auts) == self.n_arcs

    def is_normal_cayley(self) -> bool:
        """Do all graph automorphisms normalize the left translations?"""
        auts = self.graph_automorphisms()
        # row g of the table is the left translation h -> g * h
        left = [tuple(row) for row in self.group.rank_table()[0]]
        translations = set(left)
        inverses = {}
        for alpha in auts:
            inv = [0] * len(alpha)
            for i, img in enumerate(alpha):
                inv[img] = i
            inverses[alpha] = tuple(inv)
        for alpha in auts:
            alpha_inv = inverses[alpha]
            for x in self.xs_ranks():
                trans = left[x]
                conj = tuple(alpha[trans[alpha_inv[v]]] for v in range(len(alpha)))
                if conj not in translations:
                    return False
        return True

    def xs_ranks(self) -> tuple[int, ...]:
        return tuple(self.group.rank(x) for x in self.xs)

    def __repr__(self) -> str:
        shown = ", ".join(self.group.format_element(x) for x in self.xs)
        return f"CayleyMap({self.group.name}, [{shown}])"


def build_map(group: FiniteGroup, xs: Sequence[GroupElement]) -> CayleyMap:
    """Validate and build the Cayley map for an ordered generator list."""
    return CayleyMap(group, xs)


def rotation_row(n_arcs: int, k: int) -> list[int]:
    """R: arc (v, i) -> (v, i + 1), the slot advancing mod k at each vertex."""
    star = list(range(1, k)) + [0]
    return [v + i for v in range(0, n_arcs, k) for i in star]


def reversal_row(mul, xs: Sequence[int], kappa0: Sequence[int]) -> list[int]:
    """L: arc (v, i) -> (v * x_i, kappa(i)), where mul is the group's rank
    table, xs the slot ranks and kappa0[i] the 0-based slot of x_i^-1."""
    k = len(xs)
    slots = list(zip(xs, kappa0))
    return [row[x] * k + j for row in mul for x, j in slots]


def skew_morphism(
    group: FiniteGroup, xs: Sequence[int], kappa0: Sequence[int]
) -> Optional[tuple[list[int], list[int]]]:
    """(phi, delta) when x_i -> x_(i+1) extends to a skew-morphism phi of G
    with power function delta, else None: the map with slot ranks xs and
    0-based inverse slots kappa0 is regular exactly when it is not None
    (Jajcay and Siran, Discrete Math. 244, 2002). A breadth-first walk over
    group.rank_table() from phi(e) = e, delta(e) = 1 sets, on each edge,
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
    mul = group.rank_table()[0]
    k = len(xs)
    identity = group.identity_rank
    phi = [-1] * group.order
    delta = [0] * group.order
    phi[identity], delta[identity] = identity, 1
    reached = [identity]
    for g in reached:  # the list grows while it is read: a queue
        row, image_row, d = mul[g], mul[phi[g]], delta[g]
        for i, x in enumerate(xs):
            j = (i + d) % k
            h, image, power = row[x], image_row[xs[j]], (kappa0[j] - kappa0[i]) % k
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
