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

from .graphs import (Graph, SearchSizeError, all_matchings, chromatic_number,
                     contract, enumerate_cycles)
from .signed import SignedGraph

MAX_EDGES = 20


@dataclass(frozen=True)
class ClusterReport:
    clusterable: bool
    clun: int | None
    q: int
    witness_partition: tuple[frozenset, ...] | None
    witness_deletion: frozenset | None


def positive_contraction(s: SignedGraph):
    return contract(s.graph, s.positive_edges)


def is_clusterable(s: SignedGraph):
    """(flag, witness): a clustering partition when the positive-edge
    contraction is loop-free, else a circle carrying exactly one negative
    edge. The circle search, like the deletion search that follows it in
    ``cluster_report``, is limited to MAX_EDGES edges."""
    res = positive_contraction(s)
    if not res.loop_flag:
        return True, clustering_partition(s)
    if len(s.graph.edges) > MAX_EDGES:
        raise SearchSizeError("too many edges for deletion search")
    for c in enumerate_cycles(s.graph, s.graph.vertex_count):
        if (c.edge_mask & s.mask).bit_count() == 1:
            return False, c
    raise AssertionError("loopy contraction but no one-negative circle")


def clustering_partition(s: SignedGraph) -> tuple[frozenset, ...]:
    """Vertex partition with positive edges inside parts and negative edges
    across, with the fewest parts: pulled back from a minimum coloring of
    the positive-edge contraction."""
    res = positive_contraction(s)
    if res.loop_flag:
        raise ValueError("not clusterable")
    k = chromatic_number(res.quotient)
    coloring = _some_coloring(res.quotient, max(k, 1))
    parts = [set() for _ in range(max(k, 1))]
    for qv, orig in enumerate(res.origin):
        parts[coloring[qv]] |= set(orig)
    return tuple(frozenset(p) for p in parts if p)


def _some_coloring(g: Graph, k: int) -> list[int]:
    n = g.vertex_count
    colors = [-1] * n

    def extend(v):
        if v == n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in g.adjacency[v] if u < v):
                colors[v] = c
                if extend(v + 1):
                    return True
        colors[v] = -1
        return False

    if n and not extend(0):
        raise ValueError(f"graph is not {k}-colorable")
    return colors


def cluster_number(s: SignedGraph) -> int | None:
    """Minimum cluster count, None when unclusterable: the chromatic number
    of the positive-edge contraction."""
    res = positive_contraction(s)
    if res.loop_flag:
        return None
    return chromatic_number(res.quotient)


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
        return ClusterReport(True, len(witness), 0, witness, frozenset())
    q, dels = inclusterability_index(s)
    return ClusterReport(False, None, q, None, dels)


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

    best = 0
    if cubic_shortcut:
        if any(g.degree(v) > 3 for v in range(g.vertex_count)):
            raise ValueError("shortcut needs maximum degree at most 3")
        for matching in all_matchings(g):
            neg_mask = 0
            for e in matching:
                neg_mask |= 1 << g.edge_index[e]
            best = max(best, q_of(neg_mask))
        return best
    for neg_mask in range(1 << m):
        best = max(best, q_of(neg_mask))
    return best
