"""Signed graphs: switching, balance, circle signs, switching equivalence,
and the six-way classifier for signatures of the Petersen graph.

A signature is stored as its sign mask over the canonical edge order (bit i
set when edge i is negative); ``SignedGraph.sign`` is the one place that
turns an edge bit into +1/-1. Switching a vertex set acts on the mask by XOR
with the edge mask of its cut, from ``graphs.cut_mask`` or
``graphs.cut_space``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .graphs import (Cycle, Graph, bits, cut_mask, cut_preimage, cut_space,
                     enumerate_cycles, forest_preimage, petersen)


@dataclass(frozen=True)
class SignedGraph:
    """A graph with a sign mask: bit i set when edge i is negative."""

    graph: Graph
    mask: int

    def __post_init__(self):
        m = len(self.graph.edges)
        if not 0 <= self.mask < (1 << m):
            raise ValueError(f"mask {self.mask:#x} out of range for {m} edges")

    @cached_property
    def negative_edges(self) -> frozenset:
        return frozenset(self.graph.edges[i] for i in bits(self.mask))

    @cached_property
    def positive_edges(self) -> frozenset:
        return frozenset(self.graph.edges) - self.negative_edges

    def sign(self, u: int, v: int) -> int:
        return -1 if self.mask >> self.graph.index_of(u, v) & 1 else 1


@dataclass(frozen=True)
class SwitchingFunction:
    """A +1/-1 vertex labeling; switching by it negates the edges between
    its +1 and -1 vertices."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (1, -1) for v in self.values):
            raise ValueError("switching values must be +1 or -1")

    @classmethod
    def from_set(cls, n: int, x) -> "SwitchingFunction":
        xs = set(x)
        return cls(tuple(-1 if v in xs else 1 for v in range(n)))

    @classmethod
    def identity(cls, n: int) -> "SwitchingFunction":
        return cls((1,) * n)

    @property
    def negative_set(self) -> frozenset:
        return frozenset(v for v, s in enumerate(self.values) if s < 0)


def switch(s: SignedGraph, z: SwitchingFunction) -> SignedGraph:
    if len(z.values) != s.graph.vertex_count:
        raise ValueError("switching function size mismatch")
    x = sum(1 << v for v in z.negative_set)
    return SignedGraph(s.graph, s.mask ^ cut_mask(s.graph, x))


def negate(s: SignedGraph) -> SignedGraph:
    return SignedGraph(s.graph, s.mask ^ ((1 << len(s.graph.edges)) - 1))


def sign_of_circle(s: SignedGraph, c: Cycle) -> int:
    return -1 if (s.mask & c.edge_mask).bit_count() & 1 else 1


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    bipartition: tuple[frozenset, frozenset] | None
    negative_cycle: Cycle | None

    def __bool__(self):
        return self.balanced


def is_balanced(s: SignedGraph) -> BalanceResult:
    """A signature is balanced exactly when its negative edges form a cut
    (Harary), which is the ``cut_preimage`` test: X = forest_preimage(mask)
    and cut(X) must give back the mask. Balanced signatures get the
    bipartition (V - X, X), positive edges inside a side; unbalanced ones
    get a negative cycle, the edge of least index where cut(X) and the mask
    differ (never a forest edge) closed by the forest paths from its ends."""
    g = s.graph
    x = forest_preimage(g, s.mask)
    off = s.mask ^ cut_mask(g, x)
    if not off:
        neg = frozenset(bits(x))
        return BalanceResult(True, (frozenset(range(g.vertex_count)) - neg, neg),
                             None)
    u, w = g.edges[(off & -off).bit_length() - 1]
    parent = {v: p for v, p, _ in g.spanning_forest}
    return BalanceResult(False, None, _tree_cycle(g, parent, u, w))


def _tree_cycle(g: Graph, parent, u: int, w: int) -> Cycle:
    """Cycle through edge uw plus the tree paths back to their meeting point."""
    pu, pw = [u], [w]
    seen = {u: 0}
    x = u
    while parent[x] >= 0:
        x = parent[x]
        seen[x] = len(pu)
        pu.append(x)
    x = w
    while x not in seen:
        x = parent[x]
        pw.append(x)
    meet = pw[-1]
    verts = pu[:seen[meet]] + list(reversed(pw))
    return Cycle.from_vertices(g, verts)


def switching_equivalence(s1: SignedGraph, s2: SignedGraph):
    """A switching function carrying s1 to s2, or None: the signatures are
    switching equivalent exactly when the edges where they differ form a
    cut. Each component's least vertex stays at +1."""
    if s1.graph != s2.graph:
        raise ValueError("underlying graphs differ")
    x = cut_preimage(s1.graph, s1.mask ^ s2.mask)
    if x is None:
        return None
    return SwitchingFunction.from_set(s1.graph.vertex_count, bits(x))


def negative_circle_counts(s: SignedGraph, lengths) -> dict[int, int]:
    lengths = set(lengths)
    counts = {k: 0 for k in lengths}
    for c in enumerate_cycles(s.graph, max(lengths)):
        if c.length in lengths and sign_of_circle(s, c) < 0:
            counts[c.length] += 1
    return counts


# ---------------------------------------------------------------------------
# Petersen-specific machinery
# ---------------------------------------------------------------------------

class SixType(enum.Enum):
    """The six switching-isomorphism classes of Petersen signatures, in
    fixed column order."""

    PLUS_P = "+P"
    P1 = "P1"
    P22 = "P2,2"
    P23 = "P2,3"
    P32 = "P3,2"
    P33 = "P3,3"


SIX_ORDER = (SixType.PLUS_P, SixType.P1, SixType.P22,
             SixType.P23, SixType.P32, SixType.P33)

# Fingerprint (frustration index, negative pentagon count) per class.
SIX_FINGERPRINT = {
    (0, 0): SixType.PLUS_P,
    (1, 4): SixType.P1,
    (2, 6): SixType.P22,
    (2, 8): SixType.P23,
    (3, 6): SixType.P32,
    (3, 12): SixType.P33,
}


@lru_cache(maxsize=1)
def petersen_cut_masks() -> tuple[int, ...]:
    """Edge bitmasks of all 512 cuts of the Petersen graph, in
    ``cut_space`` order; entry 0 is the empty cut."""
    return tuple(c for _, c in cut_space(petersen()[0]))


@lru_cache(maxsize=1)
def petersen_pentagon_masks() -> tuple[int, ...]:
    g, _ = petersen()
    return tuple(c.edge_mask for c in enumerate_cycles(g, 5) if c.length == 5)


@lru_cache(maxsize=1)
def petersen_hexagon_masks() -> tuple[int, ...]:
    g, _ = petersen()
    return tuple(c.edge_mask for c in enumerate_cycles(g, 6) if c.length == 6)


def petersen_frustration_of_mask(mask: int) -> int:
    """Frustration index of a Petersen signature given as a 15-bit mask:
    minimum negative count over all 512 switchings."""
    return min((mask ^ c).bit_count() for c in petersen_cut_masks())


def classify_six(s: SignedGraph) -> SixType:
    g, _ = petersen()
    if s.graph != g:
        raise ValueError("classifier requires the canonical Petersen graph")
    return classify_six_mask(s.mask)


def classify_six_mask(mask: int) -> SixType:
    l = petersen_frustration_of_mask(mask)
    c5 = sum(1 for p in petersen_pentagon_masks()
             if (mask & p).bit_count() & 1)
    return SIX_FINGERPRINT[(l, c5)]


def minimal_representative(s: SignedGraph) -> tuple[SignedGraph, SwitchingFunction]:
    """Among the 512 switchings, one with fewest negative edges; ties break
    to the least sign bitmask."""
    g, _ = petersen()
    if s.graph != g:
        raise ValueError("requires the canonical Petersen graph")
    mask = s.mask
    x, _ = min(cut_space(g), key=lambda xc: ((mask ^ xc[1]).bit_count(),
                                             mask ^ xc[1]))
    z = SwitchingFunction.from_set(10, bits(x))
    return switch(s, z), z
