"""Clusterability of signed graphs: Davis's criterion on the positive
components, the cluster number from a minimum colouring, and the exact
inclusterability index.

A signature is clusterable exactly when no negative edge joins two vertices
of one component of the positive subgraph (Davis), equivalently when no
circle carries exactly one negative edge. The cluster number is then the
chromatic number of the graph that the negative edges make on those
components. Every cycle of a subgraph is a cycle of the original graph, so
the minimum number of edge deletions reaching clusterability is the minimum
hitting set of the "bad" cycles, those with exactly one negative edge.
Circles are listed once per graph, and only here.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, bits,
                     enumerate_cycles, minimum_coloring, tree_cycle)
from .signed import SignedGraph

MAX_EDGES = 20


@lru_cache(maxsize=8)
def circle_masks(g: Graph) -> tuple[int, ...]:
    """Edge mask of every circle of g, once each."""
    return tuple(c.edge_mask for c in enumerate_cycles(g, g.vertex_count))


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


def is_clusterable(s: SignedGraph):
    """(flag, witness), from one spanning forest of the positive subgraph.
    Its components are numbered by least vertex. If a negative edge joins
    two vertices of one component, the witness is the least such edge,
    closed by the forest path between its ends. Otherwise it is the
    fewest-parts partition with positive edges inside parts and negative
    edges across, from a minimum colouring of the graph that the negative
    edges make on the components. A graph of more than
    MAX_SEARCH_VERTICES vertices is refused before any of this work."""
    g = s.graph
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for exact chromatic number")
    positive = Graph(g.vertex_count, tuple(
        e for i, e in enumerate(g.edges) if not s.mask >> i & 1))
    forest = positive.spanning_forest
    comp = [0] * g.vertex_count
    count = 0
    for v, parent, _ in forest:
        if parent < 0:
            comp[v] = count
            count += 1
        else:
            comp[v] = comp[parent]
    negative = [g.edges[i] for i in bits(s.mask)]
    for u, w in negative:
        if comp[u] == comp[w]:
            return False, tree_cycle(g, forest, u, w)
    coloring = minimum_coloring(Graph.from_edges(
        count, ((comp[u], comp[w]) for u, w in negative)))
    parts = [set() for _ in range(max(coloring, default=-1) + 1)]
    for v, c in enumerate(comp):
        parts[coloring[c]].add(v)
    return True, tuple(frozenset(p) for p in parts)


def cluster_number(s: SignedGraph) -> int | None:
    """Minimum cluster count, None when unclusterable."""
    ok, witness = is_clusterable(s)
    return len(witness) if ok else None


def _bad_cycles(circles, neg_mask: int) -> list[int]:
    return [e for e in circles if (e & neg_mask).bit_count() == 1]


def inclusterability_index(s: SignedGraph):
    """(q, deletion set): minimum number of edge deletions reaching
    clusterability; deleting every negative edge always succeeds, so q is
    at most their number."""
    g = s.graph
    if len(g.edges) > MAX_EDGES:
        raise SearchSizeError("too many edges for deletion search")
    bad = _bad_cycles(circle_masks(g), s.mask)
    hit = min_hitting_mask(bad, s.mask.bit_count())
    dels = frozenset(g.edges[i] for i in range(len(g.edges)) if hit >> i & 1)
    return hit.bit_count(), dels
