"""Clusterability of signed graphs: Davis's criterion on the positive
components, the cluster number from a minimum colouring, and the exact
inclusterability index.

A signature is clusterable exactly when no negative edge joins two vertices
of one component of the positive subgraph (Davis), equivalently when no
circle carries exactly one negative edge. The cluster number is then the
chromatic number of the graph that the negative edges make on those
components. Every cycle of a subgraph is a cycle of the original graph, so
the minimum number of edge deletions reaching clusterability is the size of
a least set meeting every "bad" circle, one with exactly one negative edge.
No circle is listed. Both questions read one breadth-first forest of the
positive edges that are kept, and a negative edge inside one of its
components closes a bad circle with the forest path between its ends. The
forest of all positive edges is kept on the signed graph, so a ``cluster``
query builds it once for both questions.
"""

from __future__ import annotations

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, bits,
                     forest_paths, minimum_coloring, tree_cycle)
from .signed import SignedGraph

MAX_EDGES = 20


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


def bad_edge(s: SignedGraph):
    """The least negative edge (u, w) of s with both ends in one component
    of the positive subgraph, or None when s is clusterable (Davis). A
    graph of more than MAX_SEARCH_VERTICES vertices is refused before the
    forest is built."""
    g = s.graph
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for exact chromatic number")
    comp = s.positive_forest[1]
    for i in bits(s.mask):
        u, w = g.edges[i]
        if comp[u] == comp[w]:
            return u, w
    return None


def is_clusterable(s: SignedGraph):
    """(flag, witness), from one spanning forest of the positive subgraph.
    If ``bad_edge`` finds a negative edge inside one component, the witness
    is that edge, closed by the forest path between its ends. Otherwise it
    is the fewest-parts partition with positive edges inside parts and
    negative edges across, from a minimum colouring of the graph that the
    negative edges make on the components."""
    g, bad = s.graph, bad_edge(s)
    forest, comp, _ = s.positive_forest
    if bad:
        return False, tree_cycle(g, forest, *bad)
    negative = (g.edges[i] for i in bits(s.mask))
    coloring = minimum_coloring(Graph.from_edges(
        max(comp, default=-1) + 1, ((comp[u], comp[w]) for u, w in negative)))
    parts = [set() for _ in range(max(coloring, default=-1) + 1)]
    for v, c in enumerate(comp):
        parts[coloring[c]].add(v)
    return True, tuple(frozenset(p) for p in parts)


def cluster_number(s: SignedGraph) -> int | None:
    """Minimum cluster count, None when unclusterable."""
    ok, witness = is_clusterable(s)
    return len(witness) if ok else None


def inclusterability_index(s: SignedGraph):
    """(q, deletion set): minimum number of edge deletions reaching
    clusterability. Each round collects every bad circle that the current
    least deletion set H misses, one per kept negative edge inside a
    component of the forest of kept positive edges, and solves again for
    the least set meeting all the circles found. A round that finds none
    ends the search: H then meets every bad circle, and no smaller set
    meets even those found. Deleting every negative edge always succeeds,
    so q is at most their number."""
    g = s.graph
    if len(g.edges) > MAX_EDGES:
        raise SearchSizeError("too many edges for deletion search")
    targets, hit = [], 0
    while True:
        # deleting a negative edge leaves the positive forest as it is
        _, comp, up = (forest_paths(g, s.mask | hit) if hit & ~s.mask
                       else s.positive_forest)
        missed = [up[u] ^ up[w] | 1 << i for i in bits(s.mask & ~hit)
                  for u, w in (g.edges[i],) if comp[u] == comp[w]]
        if not missed:
            return hit.bit_count(), frozenset(g.edges[i] for i in bits(hit))
        targets += missed
        k = hit.bit_count()
        while (hit := _hit(targets, k)) is None:
            k += 1
