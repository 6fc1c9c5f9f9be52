"""Clusterability of signed graphs: the no-circle-with-one-negative-edge
criterion, cluster number via positive-edge contraction, exact
inclusterability index, and the maximum-index search over all signatures.

A signature is clusterable exactly when no circle carries exactly one
negative edge (equivalently, contracting the positive edges leaves no loop).
Every cycle of a subgraph is a cycle of the original graph, so the minimum
number of edge deletions reaching clusterability is the minimum hitting set
of the "bad" cycles, those with exactly one negative edge. That hitting-set
view keeps the exhaustive 2^15 signature scan fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (Graph, SearchSizeError, all_matchings, contract,
                     enumerate_cycles, minimum_coloring, tree_cycle)
from .signed import SignedGraph

MAX_EDGES = 20


@dataclass(frozen=True)
class ClusterReport:
    clusterable: bool
    clun: int | None
    q: int


def positive_contraction(s: SignedGraph):
    return contract(s.graph, s.positive_edges)


def is_clusterable(s: SignedGraph):
    """(flag, witness). If the positive-edge contraction is loop-free, the
    fewest-parts partition with positive edges inside parts and negative
    edges across, from a minimum coloring of the quotient. Else a circle:
    the least negative edge inside a positive component, closed by the
    path between its ends in a positive spanning forest."""
    res = positive_contraction(s)
    if res.loop_flag:
        part = {v: i for i, o in enumerate(res.origin) for v in o}
        u, w = min((u, w) for u, w in s.negative_edges if part[u] == part[w])
        positive = Graph.from_edges(s.graph.vertex_count, s.positive_edges)
        return False, tree_cycle(s.graph, positive.spanning_forest, u, w)
    coloring = minimum_coloring(res.quotient)
    parts = [set() for _ in range(max(coloring, default=-1) + 1)]
    for qv, orig in enumerate(res.origin):
        parts[coloring[qv]] |= orig
    return True, tuple(frozenset(p) for p in parts)


def clustering_partition(s: SignedGraph) -> tuple[frozenset, ...]:
    """The fewest-parts clustering of ``is_clusterable``."""
    ok, witness = is_clusterable(s)
    if not ok:
        raise ValueError("not clusterable")
    return witness


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


def cluster_report(s: SignedGraph) -> ClusterReport:
    ok, witness = is_clusterable(s)
    if ok:
        return ClusterReport(True, len(witness), 0)
    return ClusterReport(False, None, inclusterability_index(s)[0])


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
