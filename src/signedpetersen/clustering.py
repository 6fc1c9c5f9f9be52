"""Clusterability of signed graphs: Davis's criterion on the positive
components, the cluster number from a minimum colouring, the exact
inclusterability index, and the maximum-index search over all signatures.

A signature is clusterable exactly when no negative edge joins two vertices
of one component of the positive subgraph (Davis), equivalently when no
circle carries exactly one negative edge. The cluster number is then the
chromatic number of the graph that the negative edges make on those
components. Every cycle of a subgraph is a cycle of the original graph, so
the minimum number of edge deletions reaching clusterability is the minimum
hitting set of the "bad" cycles, those with exactly one negative edge. That
hitting-set view keeps the exhaustive 2^15 signature scan fast.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError,
                     all_matchings, bits, enumerate_cycles, minimum_coloring,
                     tree_cycle)
from .signed import SignedGraph

MAX_EDGES = 20


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


def delete_edges(s: SignedGraph, drop) -> SignedGraph:
    dropset = {tuple(sorted(e)) for e in drop}
    edges, mask = [], 0
    for i, e in enumerate(s.graph.edges):
        if e not in dropset:
            mask |= (s.mask >> i & 1) << len(edges)
            edges.append(e)
    return SignedGraph(Graph(s.graph.vertex_count, tuple(edges)), mask)


# --- hitting-set core -------------------------------------------------------

@lru_cache(maxsize=8)
def _cycle_edge_masks(g: Graph) -> tuple[int, ...]:
    return tuple(c.edge_mask for c in enumerate_cycles(g, g.vertex_count))


def _bad_cycles(cycle_masks, neg_mask: int) -> list[int]:
    return [cm for cm in cycle_masks if (cm & neg_mask).bit_count() == 1]


def _hit(bad: list[int], budget: int):
    """An edge-bit set of size <= budget meeting every mask in bad, or None.
    Branches on the smallest uncovered cycle, which any hitting set must
    meet."""
    if not bad:
        return 0
    if budget == 0:
        return None
    c = min(bad, key=lambda m: m.bit_count())
    while c:
        low = c & -c
        c ^= low
        rest = [b for b in bad if not b & low]
        sub = _hit(rest, budget - 1)
        if sub is not None:
            return sub | low
    return None


def _min_hitting_mask(bad: list[int], cap: int) -> int:
    for k in range(cap + 1):
        r = _hit(bad, k)
        if r is not None:
            return r
    raise AssertionError("unreachable: cap covers deleting a negative edge "
                         "of every bad cycle")


def inclusterability_index(s: SignedGraph):
    """(q, deletion set): minimum number of edge deletions reaching
    clusterability; deleting every negative edge always succeeds, so q is
    at most their number."""
    g = s.graph
    if len(g.edges) > MAX_EDGES:
        raise SearchSizeError("too many edges for deletion search")
    bad = _bad_cycles(_cycle_edge_masks(g), s.mask)
    hit = _min_hitting_mask(bad, s.mask.bit_count())
    dels = frozenset(g.edges[i] for i in range(len(g.edges)) if hit >> i & 1)
    return hit.bit_count(), dels


def max_inclusterability(g: Graph, cubic_shortcut: bool = True) -> int:
    """Maximum inclusterability index over all signatures of g.

    With the shortcut (maximum degree <= 3 required) only signatures whose
    negative edges form a matching are scanned; every other signature is
    dominated by one of those. Without it, all 2^|E| signatures are scanned.
    """
    m = len(g.edges)
    if m > MAX_EDGES:
        raise SearchSizeError("too many edges for signature scan")
    cycle_masks = _cycle_edge_masks(g)

    def q_of(neg_mask: int) -> int:
        bad = _bad_cycles(cycle_masks, neg_mask)
        return _min_hitting_mask(bad, neg_mask.bit_count()).bit_count()

    masks = range(1 << m)
    if cubic_shortcut:
        if any(g.degree(v) > 3 for v in range(g.vertex_count)):
            raise ValueError("shortcut needs maximum degree at most 3")
        masks = (sum(1 << g.edge_index[e] for e in matching)
                 for matching in all_matchings(g))
    return max(map(q_of, masks))
