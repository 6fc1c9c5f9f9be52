"""Frustration index l and frustration number l0, each by one search keyed
by the cycle-space syndrome z of the sign mask, in whichever of the cycle
space (dimension r) and the cut space (dimension n - c) is the smaller.

A signature is balanced exactly when z = 0 (Harary), so l is the least size
of an edge set with syndrome z: flipping its signs balances. It is found
breadth-first over the 2^r syndromes, one step per edge, when r < n - c, and
otherwise by walking the 2^(n - c) cuts of one mask with syndrome z.

l0 is the least size of a vertex set W whose deletion leaves a balanced
signature: the first W, by increasing size, with z in U_W, the span of the
syndromes of the edges at W. When r < n - c, ``graphs.vertex_sets`` grows an
echelon basis of U_W subset by subset and z is reduced by it. Otherwise,
where a basis takes up to r reductions per edge at W, each W gets one
two-colouring of G - W in O(n + m). A tie goes to the cuts and the
colourings in both searches.
"""

from __future__ import annotations

import itertools

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, chord_mask,
                     cut_space, span_reduce, syndrome, vertex_sets)


def _edges_by_syndromes(g: Graph, z: int) -> int:
    """Least edge mask with syndrome z, by a breadth-first search from 0
    that steps by the least edge of each distinct syndrome."""
    steps = {}
    for e, y in enumerate(g.syndromes):
        if y:
            steps.setdefault(y, e)
    reach, queue = {0: 0}, [0]
    for u in queue:
        if z in reach:
            break
        for y, e in steps.items():
            if u ^ y not in reach:
                reach[u ^ y] = reach[u] | 1 << e
                queue.append(u ^ y)
    return reach[z]


def _edges_by_cuts(g: Graph, z: int) -> int:
    """Least edge mask with syndrome z, as the lightest switching of the
    chord mask of z."""
    mask = best = chord_mask(g, z)
    for _, c in cut_space(g):
        if not best:
            break
        if (mask ^ c).bit_count() < best.bit_count():
            best = mask ^ c
    return best


def _cycles_fewer(g: Graph) -> bool:
    """Whether the cycle space of g (dimension r) is smaller than its cut
    space (dimension n - c = m - r); a tie counts as not smaller."""
    r = len(g.chords)
    return r < len(g.edges) - r


def least_edges(g: Graph, z: int) -> int:
    """A least edge mask with syndrome z: a least set of edges whose sign
    flip balances any sign mask of syndrome z. Searches the 2^r syndromes
    when r < n - c and walks the 2^(n - c) cuts otherwise."""
    if _cycles_fewer(g):
        return _edges_by_syndromes(g, z)
    return _edges_by_cuts(g, z)


def balanced_without(g: Graph, mask: int, w: int) -> bool:
    """Whether sign mask mask on g is balanced after deleting the vertex
    mask w: G - W two-colours so that exactly its negative edges join the
    two colours (Harary). No smaller graph is built."""
    side = [2 if w >> v & 1 else -1 for v in range(g.vertex_count)]
    nbrs = g.neighbours
    for root, colour in enumerate(side):
        if colour != -1:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            su = side[u]
            for v, i in nbrs[u]:
                sv, want = side[v], su ^ (mask >> i & 1)
                if sv < 0:
                    side[v] = want
                    stack.append(v)
                elif sv != want and sv < 2:
                    return False
    return True


def _vertices_by_syndromes(g: Graph, z: int) -> int:
    """The first vertex mask W of ``graphs.vertex_sets`` with z in U_W:
    deleting W balances every sign mask of syndrome z."""
    for w, _, basis in vertex_sets(g):
        if not span_reduce(z, basis):
            return w


def _vertices_by_colourings(g: Graph, mask: int) -> int:
    """The first vertex mask W, in the same order, with
    ``balanced_without``: one two-colouring per W."""
    singles = [1 << v for v in range(g.vertex_count)]
    for k in range(len(singles) + 1):
        for w in map(sum, itertools.combinations(singles, k)):
            if balanced_without(g, mask, w):
                return w
    raise AssertionError("unreachable: deleting all vertices balances")


def least_vertices(g: Graph, mask: int) -> int:
    """Vertex mask of the first deletion that balances sign mask mask, by
    increasing size and then in ``itertools.combinations`` order. Tests
    each W on the syndrome kernel when r < n - c and two-colours G - W
    otherwise."""
    if _cycles_fewer(g):
        return _vertices_by_syndromes(g, syndrome(g, mask))
    return _vertices_by_colourings(g, mask)


def frustration_index(s) -> int:
    """Fewest edges whose deletion, or sign flip, balances the signed graph
    s; ``least_edges`` gives such an edge set. On a disconnected graph this
    is the sum over the components."""
    g = s.graph
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for switching enumeration")
    return least_edges(g, syndrome(g, s.mask)).bit_count()


def frustration_number(s) -> int:
    """Fewest vertex deletions leaving the signed graph s balanced;
    ``least_vertices`` gives such a vertex set."""
    if s.graph.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for vertex-subset search")
    return least_vertices(s.graph, s.mask).bit_count()
