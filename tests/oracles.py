"""Reference routes the tests compare the program with: each computes a
value the program also computes, the slow and direct way."""

import itertools

from signedpetersen.coloring import _count, count_colorations
from signedpetersen.graphs import (Graph, automorphism_images, cut_preimage,
                                   enumerate_cycles)
from signedpetersen.groups import edge_permutation, inverse
from signedpetersen.signed import SignedGraph, sign_of_circle, switch


def negative_circle_counts(s, lengths):
    """Negative circles of each length in lengths, from a fresh cycle
    listing."""
    lengths = set(lengths)
    counts = {k: 0 for k in lengths}
    for c in enumerate_cycles(s.graph, max(lengths)):
        if c.length in lengths and sign_of_circle(s, c) < 0:
            counts[c.length] += 1
    return counts


def delete_vertices(s, w):
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


def independent_sets(g, k):
    """All independent vertex sets of size exactly k."""
    return [frozenset(combo)
            for combo in itertools.combinations(range(g.vertex_count), k)
            if not any(g.has_edge(a, b)
                       for a, b in itertools.combinations(combo, 2))]


def all_independent_sets(g):
    """Independent sets of every size (including the empty set)."""
    return [w for k in range(g.vertex_count + 1)
            for w in independent_sets(g, k)]


def balanced_expansion_check(s):
    """The count at 3 colors against the sum over independent sets W of
    the zero-free backtrack count of s minus W at 2 colors (the expansion
    at mu = 1, the only one within the k <= 2 budget). Returns (equal, left
    side, right side)."""
    left = count_colorations(s, 1, zero_free=False)
    right = sum(_count(delete_vertices(s, w), 1, zero_free=True)
                for w in all_independent_sets(s.graph))
    return left == right, left, right


def switching_color_invariance_check(s, x):
    """Counts at k <= 2, both zero-free settings, agree between s and its
    switching by the vertex mask x (budget keeps the k = 2 checks to the
    zero-free ones)."""
    t = switch(s, x)
    return all(count_colorations(s, k, zf) == count_colorations(t, k, zf)
               for k, zf in ((1, False), (1, True), (2, True)))


def scan_lifts(s):
    """Each automorphism p of the underlying graph that lifts, with the
    switching part of its lift: cut_preimage of the mask xor its pullback
    through p, tried for every p."""
    g, mask = s.graph, s.mask
    out = []
    for p in automorphism_images(g):
        inv = edge_permutation(g, inverse(p))
        moved = sum(1 << inv[j] for j in range(len(g.edges)) if mask >> j & 1)
        x = cut_preimage(g, mask ^ moved)
        if x is not None:
            out.append((p, x))
    return tuple(out)
