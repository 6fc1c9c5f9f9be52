"""Signed graphs: switching, balance, circle signs and the six-way
classifier for signatures of the Petersen graph.

A signature is stored as its sign mask over the canonical edge order (bit i
set when edge i is negative), which searches read bit by bit; a circle is
negative when the mask meets its edge mask in an odd number of edges
(``odd_count``). A switching set is a vertex mask (bit v set
when vertex v is switched); switching it acts on the sign mask by XOR with
the edge mask of its cut, from ``graphs.cut_mask`` or ``graphs.cut_space``.
Balance is one test, a yes or no: the sign mask is a cut exactly when its
cycle-space syndrome is 0 (Harary). No circle or bipartition is built.
A Petersen class is its name, a string of ``expected.CLASS_NAMES``.
"""

from __future__ import annotations

from functools import lru_cache

from . import expected
from .frustration import least_edges, least_vertices
from .graphs import (Graph, _Record, _cached, chord_mask, cut_mask,
                     enumerate_cycles, forest_paths, petersen, syndrome)


class SignedGraph(_Record):
    """A graph with a sign mask: bit i set when edge i is negative."""

    _fields = ("graph", "mask")

    def __init__(self, graph: Graph, mask: int):
        m = len(graph.edges)
        if not 0 <= mask < (1 << m):
            raise ValueError(f"mask {mask:#x} out of range for {m} edges")
        self.__dict__.update(graph=graph, mask=mask)

    @_cached
    def positive_forest(self):
        """``graphs.forest_paths`` of the positive edges, kept: clusterability
        and the first round of the inclusterability index read the same
        one."""
        return forest_paths(self.graph, self.mask)


def switch(s: SignedGraph, x: int) -> SignedGraph:
    """Switch the vertex set with mask x: flip the signs on its cut."""
    n = s.graph.vertex_count
    if not 0 <= x < (1 << n):
        raise ValueError(f"switching mask {x:#x} out of range for {n} vertices")
    return SignedGraph(s.graph, s.mask ^ cut_mask(s.graph, x))


def negate(s: SignedGraph) -> SignedGraph:
    return SignedGraph(s.graph, s.mask ^ ((1 << len(s.graph.edges)) - 1))


def is_balanced(s: SignedGraph) -> bool:
    """A signature is balanced exactly when its negative edges form a cut
    (Harary), that is when the sign mask has cycle-space syndrome 0."""
    return not syndrome(s.graph, s.mask)


def odd_count(mask: int, circles) -> int:
    """Number of circles (edge masks) that the sign mask makes negative."""
    return sum(1 for c in circles if (mask & c).bit_count() & 1)


# ---------------------------------------------------------------------------
# Petersen-specific machinery
# ---------------------------------------------------------------------------

# The six switching-isomorphism classes of Petersen signatures are their
# names, in fixed column order, and each is told by its fingerprint
# (frustration index, negative pentagon count).
SIX_ORDER = expected.CLASS_NAMES
SIX_FINGERPRINT = dict(zip(((0, 0), (1, 4), (2, 6), (2, 8), (3, 6), (3, 12)),
                           SIX_ORDER))


@lru_cache(maxsize=1)
def petersen_circle_masks() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(pentagons, hexagons) of the Petersen graph as edge masks, split by
    length from one walk of its circles up to length 6: the girth is 5."""
    cycles = enumerate_cycles(petersen()[0], 6)
    return (tuple(m for m in cycles if m.bit_count() == 5),
            tuple(m for m in cycles if m.bit_count() == 6))


@lru_cache(maxsize=64)
def _class_invariants(z: int) -> tuple[str, int, int, int, int]:
    """(class, l, l0, negative pentagons, negative hexagons) of the Petersen
    switching class with syndrome z, read off its chord representative by
    the generic searches of ``frustration``."""
    g = petersen()[0]
    base = chord_mask(g, z)
    l = least_edges(g, z).bit_count()
    l0 = least_vertices(g, base).bit_count()
    pentagon_masks, hexagon_masks = petersen_circle_masks()
    pentagons = odd_count(base, pentagon_masks)
    return (SIX_FINGERPRINT[(l, pentagons)], l, l0, pentagons,
            odd_count(base, hexagon_masks))


def petersen_invariants(mask: int) -> tuple[str, int, int, int, int]:
    """``_class_invariants`` of a 15-bit Petersen sign mask."""
    return _class_invariants(syndrome(petersen()[0], mask))


def classify_six(s: SignedGraph) -> str:
    g, _ = petersen()
    if s.graph != g:
        raise ValueError("classifier requires the canonical Petersen graph")
    return classify_six_mask(s.mask)


def classify_six_mask(mask: int) -> str:
    return petersen_invariants(mask)[0]
