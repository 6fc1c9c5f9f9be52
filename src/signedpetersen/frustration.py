"""Frustration index l and frustration number l0 from one hitting-set
search over a graph's circles.

By Harary, deleting edges or vertices balances a signature exactly when they
meet every negative circle, so l and l0 are least edge and vertex hitting
sets of the negative circles. A dense graph has far more circles than cuts:
l and l0 list circles only when the cycle space is at most 1/32 of the cut
space, and otherwise walk the 2^(n - c) switchings and the vertex subsets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, bits,
                     cut_space, enumerate_cycles)
from .signed import SignedGraph, balanced_without


@lru_cache(maxsize=8)
def circle_masks(g: Graph) -> tuple[tuple[int, int], ...]:
    """Every circle of g once, as (edge mask, vertex mask)."""
    return tuple((c.edge_mask, sum(1 << v for v in c.vertices))
                 for c in enumerate_cycles(g, g.vertex_count))


def circles_fit(g: Graph) -> bool:
    """Whether the cycle space of g, of dimension m - (n - c), is at most
    1/32 of its cut space, of dimension n - c (the spanning-forest edges).
    A circle costs about 35 cut steps to list and is one cycle-space
    element, so listing the circles then costs at most about one cut walk."""
    return len(g.chords) + 5 <= len(g.edges) - len(g.chords)


def _negative_circles(s: SignedGraph, part: int) -> list[int]:
    """Edge (part 0) or vertex (part 1) masks of the negative circles of s."""
    return [c[part] for c in circle_masks(s.graph)
            if (c[0] & s.mask).bit_count() & 1]


def _hit(targets: list[int], budget: int):
    """A bit set of size <= budget meeting every mask in targets, or None.
    Branches on the smallest target not yet met, which any hitting set must
    meet."""
    if not targets:
        return 0
    if budget == 0:
        return None
    c = min(targets, key=int.bit_count)
    while c:
        low = c & -c
        c ^= low
        rest = [t for t in targets if not t & low]
        sub = _hit(rest, budget - 1)
        if sub is not None:
            return sub | low
    return None


def min_hitting_mask(targets: list[int], cap: int) -> int:
    """A least bit set meeting every mask in targets; one of size cap does."""
    for k in range(cap + 1):
        r = _hit(targets, k)
        if r is not None:
            return r
    raise AssertionError("unreachable: cap bounds a hitting set")


def _index_by_cuts(s: SignedGraph) -> int:
    """Negative edge mask of a switching with the fewest negative edges."""
    mask = best = s.mask
    for _, c in cut_space(s.graph):
        if not best:
            break
        if (mask ^ c).bit_count() < best.bit_count():
            best = mask ^ c
    return best


def _number_by_subsets(s: SignedGraph) -> int:
    """Vertex mask of the first balancing deletion, by increasing size."""
    g = s.graph
    singles = [1 << v for v in range(g.vertex_count)]
    for k in range(len(singles) + 1):
        for w in map(sum, itertools.combinations(singles, k)):
            if balanced_without(g, s.mask, w):
                return w
    raise AssertionError("unreachable: deleting all vertices balances")


def frustration_index(s: SignedGraph) -> tuple[int, frozenset]:
    """Fewest edges whose deletion, or sign flip, balances s, with such an
    edge set as witness. On a disconnected graph this is the sum over the
    components."""
    g = s.graph
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for switching enumeration")
    # the negative edges meet every negative circle
    best = (min_hitting_mask(_negative_circles(s, 0), s.mask.bit_count())
            if circles_fit(g) else _index_by_cuts(s))
    return best.bit_count(), frozenset(g.edges[i] for i in bits(best))


def frustration_number(s: SignedGraph) -> tuple[int, frozenset]:
    """Fewest vertex deletions leaving a balanced signature, with such a
    vertex set as witness."""
    n = s.graph.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for vertex-subset search")
    # one end of each negative edge meets every negative circle
    best = (min_hitting_mask(_negative_circles(s, 1), s.mask.bit_count())
            if circles_fit(s.graph) else _number_by_subsets(s))
    return best.bit_count(), frozenset(bits(best))
