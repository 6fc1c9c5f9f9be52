"""Clusterability of signed graphs: Davis's criterion on the positive
components, the cluster number from a minimum colouring of those
components, and the exact inclusterability index.

A signature is clusterable exactly when no negative edge joins two vertices
of one component of the positive subgraph (Davis), equivalently when no
circle carries exactly one negative edge. The cluster number is then the
chromatic number of the graph that the negative edges make on those
components, which is never built: a backtrack colours the components on
the bitmasks of the components that their negative edges reach. Every
cycle of a subgraph is a cycle of the original graph, so the minimum
number of edge deletions reaching clusterability is the size of a least
set meeting every "bad" circle, one with exactly one negative edge.
No circle is listed and no partition built. Both questions read one
breadth-first forest of the positive edges that are kept, and a negative
edge inside one of its components closes a bad circle with the forest path
between its ends. The forest of all positive edges is kept on the signed
graph, so a ``cluster`` query builds it once for both questions.
"""

from __future__ import annotations

from .graphs import MAX_SEARCH_VERTICES, SearchSizeError, bits, forest_paths
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


def _clusters(s: SignedGraph) -> list[int]:
    """The colour classes, as component masks, of a minimum colouring of
    the components of the positive subgraph (numbered as
    ``s.positive_forest`` numbers them) in which no negative edge joins two
    components of one colour. s must be clusterable. A backtrack takes the
    components by decreasing number of neighbouring components, ties by
    index, and tries 2, 3, ... colours in turn (a negative edge needs two, a
    component one); the i-th taken, from 0, gets no colour above i."""
    g, comp = s.graph, s.positive_forest[1]
    n = max(comp, default=-1) + 1
    adj = [0] * n
    for i in bits(s.mask):
        u, w = g.edges[i]
        adj[comp[u]] |= 1 << comp[w]
        adj[comp[w]] |= 1 << comp[u]
    order = sorted(range(n), key=lambda c: adj[c].bit_count(), reverse=True)

    def extend(i, classes):
        if i == n:
            return True
        c = order[i]
        for j in range(min(len(classes), i + 1)):
            if not classes[j] & adj[c]:
                classes[j] |= 1 << c
                if extend(i + 1, classes):
                    return True
                classes[j] ^= 1 << c
        return False

    k = 2 if s.mask else min(n, 1)
    while not extend(0, classes := [0] * k):
        k += 1
    return classes


def is_clusterable(s: SignedGraph) -> bool:
    """Davis's criterion: no negative edge inside a positive component
    (``bad_edge``), which refuses more than MAX_SEARCH_VERTICES vertices."""
    return bad_edge(s) is None


def cluster_number(s: SignedGraph) -> int | None:
    """Minimum cluster count, None when unclusterable: the number of colour
    classes of ``_clusters``."""
    return None if bad_edge(s) else len(_clusters(s))


def inclusterability_index(s: SignedGraph) -> int:
    """q, the minimum number of edge deletions reaching clusterability.
    Each round collects every bad circle that the current least deletion
    set H misses, one per kept negative edge inside a component of the
    forest of kept positive edges, and solves again for the least set
    meeting all the circles found. A round that finds none ends the search:
    H then meets every bad circle, and no smaller set meets even those
    found, so q is its size. Deleting every negative edge always succeeds,
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
            return hit.bit_count()
        targets += missed
        k = hit.bit_count()
        while (hit := _hit(targets, k)) is None:
            k += 1
