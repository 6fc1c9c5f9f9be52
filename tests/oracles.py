"""Reference routes the tests compare the program with: each computes a
value the program also computes, the slow and direct way."""

import itertools
from functools import lru_cache

from signedpetersen.clustering import min_hitting_mask
from signedpetersen.coloring import _count, count_colorations
from signedpetersen.graphs import (Graph, automorphism_images, bits,
                                   cut_preimage, cut_space, enumerate_cycles,
                                   petersen, span_basis)
from signedpetersen.groups import (SwitchingGroup, SwitchingPermutation,
                                   _pullback, edge_permutation, inverse)
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
    """Counts at k <= 2, both zero-free settings, of s and of its switching
    by the vertex mask x agree with the backtrack on the switching (time
    keeps the k = 2 checks to the zero-free ones). The program counts once
    per switching class, so the backtrack is the independent route."""
    t = switch(s, x)
    return all(count_colorations(s, k, zf) == count_colorations(t, k, zf)
               == _count(t, k, zf)
               for k, zf in ((1, False), (1, True), (2, True)))


def minimal_representative(s):
    """Among the switchings of s, by a walk over every cut, one with fewest
    negative edges, and the vertex mask switched to reach it; ties break to
    the least sign mask."""
    g, mask = s.graph, s.mask
    x, c = min(cut_space(g), key=lambda xc: ((mask ^ xc[1]).bit_count(),
                                             mask ^ xc[1]))
    return SignedGraph(g, mask ^ c), x


def switching_orbits(g):
    """Every switching class of signatures on g once, as the sorted list
    of its masks: the least mask not yet met, switched by every cut."""
    cuts = [c for _, c in cut_space(g)]
    seen = set()
    for mask in range(1 << len(g.edges)):
        if mask not in seen:
            orbit = sorted(mask ^ c for c in cuts)
            seen.update(orbit)
            yield orbit


def switching_equivalence(s1, s2):
    """The vertex mask whose switching carries s1 to s2, or None: the
    signatures are switching equivalent exactly when the edges where they
    differ form a cut. Each component's least vertex stays unswitched."""
    if s1.graph != s2.graph:
        raise ValueError("underlying graphs differ")
    return cut_preimage(s1.graph, s1.mask ^ s2.mask)


def sp_inverse(a):
    inv = inverse(a.perm)
    return SwitchingPermutation(_pullback(a.switch_mask, inv), inv)


def graph_automorphisms(g):
    """All graph automorphisms, as switching permutations with empty
    switching part."""
    return SwitchingGroup(SwitchingPermutation(0, p)
                          for p in automorphism_images(g))


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


def circle_hitting_sets(s):
    """(edge mask, vertex mask) of a least edge set and a least vertex set
    meeting every negative circle of s, from a fresh cycle listing: by
    Harary, deleting such a set balances s. The negative edges meet every
    negative circle, so their number caps both searches."""
    negative = [c for c in enumerate_cycles(s.graph, s.graph.vertex_count)
                if sign_of_circle(s, c) < 0]
    cap = s.mask.bit_count()
    return (min_hitting_mask([c.edge_mask for c in negative], cap),
            min_hitting_mask([sum(1 << v for v in c.vertices)
                              for c in negative], cap))


@lru_cache(maxsize=1)
def deletion_tables():
    """For every vertex set W of the Petersen graph with |W| <= 3, in
    increasing size and then lexicographic order: |W| and the bitmap (r = 6
    on P) of U_W, the span of the syndromes of the edges at W, which holds
    the syndrome of a signature exactly when it is balanced on P - W."""
    g, _ = petersen()
    tables = []
    for k in range(4):
        for w in itertools.combinations(range(10), k):
            span = [0]
            for b in span_basis(g.syndromes[e] for v in w
                                for e in bits(g.incidence[v])):
                span += [u ^ b for u in span]
            tables.append((k, sum(1 << u for u in span)))
    return tables


def petersen_l0_by_spans(z):
    """Frustration number of the Petersen switching class with syndrome z:
    the least |W| whose span holds z. Every class has l0 <= 3."""
    return next(k for k, span in deletion_tables() if span >> z & 1)
