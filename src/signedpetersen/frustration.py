"""Frustration index and frustration number, minimality certificates, and
the independent-set balance counts used by the coloring difference formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, bits,
                     cut_space, independent_sets)
from .signed import SignedGraph, is_balanced


@dataclass(frozen=True)
class FrustrationReport:
    l: int
    l0: int
    witness_edges: frozenset
    witness_vertices: frozenset


def frustration_index(s: SignedGraph) -> tuple[int, frozenset]:
    """Minimum negative-edge count over all switchings, with the negative
    edge set of a minimizing switching as balancing witness. On a
    disconnected graph this is the sum over the components."""
    g = s.graph
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for switching enumeration")
    mask = best = s.mask
    for _, c in cut_space(g):
        if not best:
            break
        if (mask ^ c).bit_count() < best.bit_count():
            best = mask ^ c
    return best.bit_count(), frozenset(g.edges[i] for i in bits(best))


def frustration_number(s: SignedGraph) -> tuple[int, frozenset]:
    """Minimum vertex deletions leaving a balanced signature, by
    increasing-size subset search."""
    g = s.graph
    n = g.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for vertex-subset search")
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if is_balanced(delete_vertices(s, combo)):
                return k, frozenset(combo)
    raise AssertionError("unreachable: deleting all vertices balances")


def delete_vertices(s: SignedGraph, w) -> SignedGraph:
    """Signature induced on the remaining vertices (ids compacted). The
    relabeling keeps the vertex order, so the kept edges stay in canonical
    order."""
    ws = set(w)
    keep = [v for v in range(s.graph.vertex_count) if v not in ws]
    new_id = {v: i for i, v in enumerate(keep)}
    edges, mask = [], 0
    for i, (u, v) in enumerate(s.graph.edges):
        if u in ws or v in ws:
            continue
        mask |= (s.mask >> i & 1) << len(edges)
        edges.append((new_id[u], new_id[v]))
    return SignedGraph(Graph(len(keep), tuple(edges)), mask)


def frustration_report(s: SignedGraph) -> FrustrationReport:
    l, we = frustration_index(s)
    l0, wv = frustration_number(s)
    return FrustrationReport(l=l, l0=l0, witness_edges=we, witness_vertices=wv)


def is_minimal(s: SignedGraph) -> bool:
    return s.mask.bit_count() == frustration_index(s)[0]


def cut_dominance_check(s: SignedGraph) -> int | None:
    """The mask of a vertex set whose cut holds more negative than positive
    edges, if any exists; such a set certifies that switching it lowers the
    negative count, so its absence certifies minimality."""
    if s.graph.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for cut enumeration")
    mask = s.mask
    for x, c in cut_space(s.graph):
        if 2 * (mask & c).bit_count() > c.bit_count():
            return x
    return None


def alpha_k(s: SignedGraph, k: int) -> int:
    """Number of independent vertex sets of size k whose deletion leaves a
    balanced signature."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    return sum(1 for w in independent_sets(s.graph, k)
               if is_balanced(delete_vertices(s, w)))
