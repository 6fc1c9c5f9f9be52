"""Signed graphs: switching, balance, circle signs, switching equivalence,
and the six-way classifier for signatures of the Petersen graph.

Signs are stored as a tuple of +1/-1 over the canonical edge order, with an
equivalent bitmask view (bit set = negative edge). Switching acts on the
bitmask by XOR with a cut from ``graphs.cut_space``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .graphs import (Cycle, Graph, bits, cut_preimage, cut_space,
                     enumerate_cycles, petersen)


@dataclass(frozen=True)
class SignedGraph:
    graph: Graph
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != len(self.graph.edges):
            raise ValueError("sign vector length mismatch")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def from_mask(cls, g: Graph, mask: int) -> "SignedGraph":
        m = len(g.edges)
        if not 0 <= mask < (1 << m):
            raise ValueError(f"mask {mask:#x} out of range for {m} edges")
        return cls(g, tuple(-1 if mask >> i & 1 else 1 for i in range(m)))

    @classmethod
    def all_positive(cls, g: Graph) -> "SignedGraph":
        return cls(g, (1,) * len(g.edges))

    @cached_property
    def mask(self) -> int:
        """Sign bitmask: bit i set when edge i is negative."""
        return sum(1 << i for i, s in enumerate(self.signs) if s < 0)

    @cached_property
    def negative_edges(self) -> frozenset:
        return frozenset(e for e, s in zip(self.graph.edges, self.signs) if s < 0)

    @cached_property
    def positive_edges(self) -> frozenset:
        return frozenset(e for e, s in zip(self.graph.edges, self.signs) if s > 0)

    def sign(self, u: int, v: int) -> int:
        return self.signs[self.graph.index_of(u, v)]


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
    signs = tuple(sig * z.values[u] * z.values[v]
                  for (u, v), sig in zip(s.graph.edges, s.signs))
    return SignedGraph(s.graph, signs)


def negate(s: SignedGraph) -> SignedGraph:
    return SignedGraph(s.graph, tuple(-x for x in s.signs))


def sign_of_circle(s: SignedGraph, c: Cycle) -> int:
    prod = 1
    for i in c.edge_indices:
        prod *= s.signs[i]
    return prod


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    bipartition: tuple[frozenset, frozenset] | None
    negative_cycle: Cycle | None

    def __bool__(self):
        return self.balanced


def is_balanced(s: SignedGraph) -> BalanceResult:
    """Sign-aware BFS 2-labeling.  Balanced signatures get the bipartition
    with all positive edges inside a side; unbalanced ones get a negative
    cycle built from the BFS tree."""
    g = s.graph
    n = g.vertex_count
    label = [0] * n  # 0 unknown, else +1/-1
    parent = [-1] * n
    for root in range(n):
        if label[root]:
            continue
        label[root] = 1
        queue = [root]
        i = 0
        while i < len(queue):
            u = queue[i]
            i += 1
            for w in g.adjacency[u]:
                want = label[u] * s.sign(u, w)
                if label[w] == 0:
                    label[w] = want
                    parent[w] = u
                    queue.append(w)
                elif label[w] != want:
                    return BalanceResult(False, None,
                                         _tree_cycle(g, parent, u, w))
    pos = frozenset(v for v in range(n) if label[v] > 0)
    neg = frozenset(v for v in range(n) if label[v] < 0)
    return BalanceResult(True, (pos, neg), None)


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
    return tuple(_edge_mask(c) for c in enumerate_cycles(g, 5)
                 if c.length == 5)


@lru_cache(maxsize=1)
def petersen_hexagon_masks() -> tuple[int, ...]:
    g, _ = petersen()
    return tuple(_edge_mask(c) for c in enumerate_cycles(g, 6)
                 if c.length == 6)


def _edge_mask(c: Cycle) -> int:
    m = 0
    for i in c.edge_indices:
        m |= 1 << i
    return m


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
