import itertools
import random
import sys
from collections import Counter

import pytest

from signedpetersen import graphs
from signedpetersen.census import standard_mask
from signedpetersen.coloring import _independent_sets
from signedpetersen.clustering import cluster_number
from signedpetersen.graphs import (PETERSEN_LABELS, PETERSEN_PAIRS, Graph,
                                   SearchSizeError, automorphism_images,
                                   cut_mask, cut_space, enumerate_cycles,
                                   syndrome, vertex_sets)
from signedpetersen.signed import SIX_ORDER, SignedGraph

from oracles import (Cycle, MatchingClass, adjacency, all_independent_sets,
                     all_matchings, classify_matching, closed_neighborhood,
                     cut, cut_preimage, deletion_tables, distances,
                     edge_distance, edge_index, geometric_matching_class,
                     hexagon_of_vertex, independent_sets,
                     induced_permutation, is_petersen, list_cycles,
                     minimum_coloring)


def k4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c5():
    return Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])


def k33():
    return Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))  # endpoints out of order
    with pytest.raises(ValueError):
        Graph(3, ((0, 2), (0, 1)))  # edges out of lex order
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))  # loop
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (0, 1)))  # parallel edge


def test_petersen_basics(pg):
    g, pairs = pg
    assert g.vertex_count == 10
    assert len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.is_connected()
    assert is_petersen(g)
    # vertices are disjoint 2-subsets of {1..5}; adjacency iff disjoint
    for u in range(10):
        for v in range(u + 1, 10):
            disjoint = not set(pairs[u]) & set(pairs[v])
            assert (v in adjacency(g)[u]) == disjoint
    # diameter 2
    assert max(max(row) for row in distances(g)) == 2


def test_index_of_finds_each_edge_and_no_other_pair(pg):
    # the one edge at both ends; a non-edge, a vertex with itself included,
    # gives -1, never an index that looks valid
    for g in (pg[0], k4(), c5(), two_components()):
        index = edge_index(g)
        for u, v in itertools.product(range(g.vertex_count), repeat=2):
            want = index.get((min(u, v), max(u, v)), -1) if u != v else -1
            assert g.index_of(u, v) == want, (u, v)


def test_petersen_labeling(pg):
    # vertex v is v_ij for the v-th 2-subset {i, j} of {1..5} in
    # lexicographic order, labelled "ij"; petersen() hands back those pairs
    assert pg[1] is PETERSEN_PAIRS
    assert PETERSEN_PAIRS == tuple((i, j) for i in range(1, 6)
                                   for j in range(i + 1, 6))
    assert " ".join(PETERSEN_LABELS) == "12 13 14 15 23 24 25 34 35 45"


def test_cycle_canonical_rotation(pg):
    g, _ = pg
    c1 = Cycle.from_vertices(g, [0, 7, 3, 4, 9])
    c2 = Cycle.from_vertices(g, [4, 9, 0, 7, 3])
    c3 = Cycle.from_vertices(g, [9, 4, 3, 7, 0])
    assert c1 == c2 == c3
    with pytest.raises(ValueError):
        Cycle.from_vertices(g, [0, 1, 2])  # not a closed walk


def test_cycle_census(pg):
    # each cycle once: an edge mask per cycle, its length its bit count
    g, _ = pg
    pent = enumerate_cycles(g, 5)
    assert len(pent) == 12 and all(m.bit_count() == 5 for m in pent)
    hexes = [m for m in enumerate_cycles(g, 6) if m.bit_count() == 6]
    assert len(hexes) == 10
    by_len = Counter(m.bit_count() for m in enumerate_cycles(g, 10))
    assert by_len == {5: 12, 6: 10, 8: 15, 9: 20}
    assert sum(by_len.values()) == len(set(enumerate_cycles(g, 10))) == 57
    # small-graph oracles
    assert len(enumerate_cycles(k4(), 4)) == 7
    assert len(enumerate_cycles(c5(), 5)) == 1
    assert len(list_cycles(g, 10)) == 57


def test_hexagon_of_vertex(pg):
    g, _ = pg
    for v in range(10):
        h = hexagon_of_vertex(g, v)
        assert h.length == 6
        assert closed_neighborhood(g, v).isdisjoint(h.vertices)
    # the ten hexagons are exactly the complements of closed neighborhoods
    assert len({hexagon_of_vertex(g, v) for v in range(10)}) == 10


def test_cut(pg):
    g, _ = pg
    for v in range(10):
        assert len(cut(g, {v})) == 3
    assert cut(g, set()) == frozenset()
    assert cut(g, set(range(10))) == frozenset()
    # symmetric difference law on cut indices
    a, b = cut(g, {0, 3}), cut(g, {3, 7})
    assert cut(g, {0, 7}) == (a | b) - (a & b)
    # the edge mask the program xors from the vertices' incidences
    for x in range(1 << 10):
        assert cut_mask(g, x) == sum(1 << i for i in cut(
            g, [v for v in range(10) if x >> v & 1]))


def pentagram():
    return Graph.from_edges(5, [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)])


def seeded_graphs(seed, sizes):
    """A random graph of each size, of a seeded edge density."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        density = rng.choice((0.2, 0.4, 0.6, 0.8))
        out.append(Graph.from_edges(n, [
            e for e in itertools.combinations(range(n), 2)
            if rng.random() < density]))
    return out


def two_components():
    # a triangle and a path, plus the isolated vertex 6: three components
    return Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])


def edge_mask(indices):
    return sum(1 << i for i in indices)


def test_cut_space(pg):
    for g, components in ((pg[0], 1), (k4(), 1), (two_components(), 3)):
        pairs = list(cut_space(g))
        assert len(pairs) == 2 ** (g.vertex_count - components)
        assert pairs[0] == (0, 0)
        assert len({c for _, c in pairs}) == len(pairs)
        for x, c in pairs:
            verts = {v for v in range(g.vertex_count) if x >> v & 1}
            assert c == edge_mask(cut(g, verts))
    # the least vertex of each component is never switched
    assert all(x & 0b1001001 == 0 for x, _ in cut_space(two_components()))


def test_cut_preimage(pg):
    g, _ = pg
    for x, c in cut_space(g):
        assert cut_preimage(g, c) == x
    for i in range(len(g.edges)):
        assert cut_preimage(g, 1 << i) is None
    h = two_components()
    for x, c in cut_space(h):
        assert cut_preimage(h, c) == x
    # a single triangle edge is not a cut; a path edge is
    assert cut_preimage(h, 1) is None
    assert cut_preimage(h, 1 << h.index_of(4, 5)) == 1 << 5


def test_syndrome_is_zero_exactly_on_cuts(pg):
    # every mask of the Petersen graph, K4, C5 and K3,3, and of a graph of
    # three components; the chords carry the unit syndromes
    for g in (pg[0], k4(), c5(), k33(), two_components()):
        m = len(g.edges)
        assert len(g.chords) == m - g.vertex_count + sum(
            1 for _, parent, _ in g.spanning_forest if parent < 0)
        assert [g.syndromes[e] for e in g.chords] == \
            [1 << t for t in range(len(g.chords))]
        for mask in range(1 << m):
            assert (syndrome(g, mask) == 0) == \
                (cut_preimage(g, mask) is not None), (g, mask)


def test_independent_sets(pg):
    g, _ = pg
    assert len(independent_sets(g, 1)) == 10
    assert len(independent_sets(g, 2)) == 30
    assert len(independent_sets(g, 4)) == 5
    assert independent_sets(g, 5) == []
    every = all_independent_sets(g)
    assert frozenset() in every
    assert len(every) == 1 + 10 + 30 + 30 + 5
    for s in every:
        assert all(v not in adjacency(g)[u] for u in s for v in s if u < v)
    # the colouring table holds each independent set once, the empty first
    table = _independent_sets(g)
    assert table[0] == (0, (), 1)
    assert Counter(size for size, _, _ in table) == \
        Counter(len(s) for s in every)


def test_vertex_sets_in_combinations_order_with_their_spans(pg):
    # every vertex set of P by size, then in itertools.combinations order,
    # with the edges at it; for |W| <= 3 its basis spans the oracle's U_W,
    # and the independent sets come in the same order
    g, _ = pg
    entries = list(vertex_sets(g))
    order = [sum(1 << v for v in w) for k in range(11)
             for w in itertools.combinations(range(10), k)]
    assert [w for w, _, _ in entries] == order
    for w, e, _ in entries:
        assert e == cut_mask(g, w) | sum(
            1 << i for i, (u, v) in enumerate(g.edges) if w >> u & w >> v & 1)
    for (_, _, basis), (_, span) in zip(entries, deletion_tables()):
        vectors = {0}
        for b in basis:
            vectors |= {u ^ b for u in vectors}
        assert sum(1 << u for u in vectors) == span
    independent = [w for w in order
                   if not any(w >> u & w >> v & 1 for u, v in g.edges)]
    assert [w for w, _, _ in vertex_sets(g, independent=True)] == independent


def test_matchings(pg):
    g, _ = pg
    ms = all_matchings(g)
    assert len(ms) == 332  # matching polynomial 1+15+75+145+90+6
    cnt = Counter(classify_matching(g, m) for m in ms)
    assert cnt[MatchingClass.EMPTY] == 1
    assert cnt[MatchingClass.M1] == 15
    assert cnt[MatchingClass.M22] == 60
    assert cnt[MatchingClass.M23] == 15
    assert cnt[MatchingClass.M32] == 20
    assert cnt[MatchingClass.M33] == 5
    assert cnt[MatchingClass.M5] == 6  # perfect matchings
    # size-2 classes agree with edge-distance oracle
    e = g.edges
    assert cnt[MatchingClass.M22] == sum(
        1 for i in range(15) for j in range(i + 1, 15)
        if edge_distance(g, e[i], e[j]) == 2)
    assert cnt[MatchingClass.M23] == sum(
        1 for i in range(15) for j in range(i + 1, 15)
        if edge_distance(g, e[i], e[j]) == 3)


def test_matching_classes_are_the_geometric_classes(pg):
    # on all 332 matchings, the class whose member lies in the orbit is
    # the class read from edge distances, hexagons and the unmatched pair
    g, _ = pg
    for m in all_matchings(g):
        assert classify_matching(g, m) == geometric_matching_class(g, m), m
    # the negative edges of each standard signature form a matching of the
    # class it is named after
    for t, named in zip(SIX_ORDER, ("empty", "M1", "M2,2", "M2,3", "M3,2",
                                    "M3,3")):
        edges = [e for i, e in enumerate(g.edges) if standard_mask(t) >> i & 1]
        assert classify_matching(g, edges) == MatchingClass(named)


def test_matching_classes_refuse_other_input(pg):
    g, _ = pg
    with pytest.raises(ValueError):
        classify_matching(k33(), [(0, 3)])
    with pytest.raises(ValueError):
        classify_matching(Graph(10, g.edges[:-1]), [])
    with pytest.raises(ValueError):
        classify_matching(g, [g.edges[0], g.edges[1]])  # share a vertex
    with pytest.raises(ValueError):
        classify_matching(g, [(0, 1)])  # 12 and 13 are not adjacent


def test_minimum_coloring(pg):
    # with every edge negative each vertex is its own positive component, so
    # the cluster number is the chromatic number (3 for Petersen: T10's -P)
    g, _ = pg
    for graph, chi in ((g, 3), (k4(), 4), (c5(), 3), (k33(), 2)):
        s = SignedGraph(graph, (1 << len(graph.edges)) - 1)
        assert cluster_number(s) == chi
        colors = minimum_coloring(graph)
        assert max(colors) + 1 == chi
        assert all(colors[u] != colors[v] for u, v in graph.edges)


def test_automorphisms(pg):
    g, _ = pg
    assert len(automorphism_images(g)) == 120
    assert len(automorphism_images(k4())) == 24
    assert len(automorphism_images(c5())) == 10
    assert len(automorphism_images(k33())) == 72


def search_nodes(g):
    """How many partial maps the automorphism search extends: the calls of
    its inner ``extend``, counted by a profile hook."""
    extend = next(c for c in graphs.automorphism_images.__code__.co_consts
                  if getattr(c, "co_name", "") == "extend")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is extend
    sys.setprofile(profile)
    try:
        graphs.automorphism_images(g)
    finally:
        sys.setprofile(None)
    return calls


def partial_isomorphisms(g):
    """The injective maps of each prefix of the search's vertex order, the
    spanning-forest order, that keep degrees, adjacency and non-adjacency:
    the first i vertices of that order, i = 0..n."""
    adj, n = adjacency(g), g.vertex_count
    order = [v for v, _, _ in g.spanning_forest]
    return sum(1 for i in range(n + 1)
               for image in itertools.permutations(range(n), i)
               if all(len(adj[v]) == len(adj[w]) for v, w in zip(order, image))
               and all((order[a] in adj[order[b]]) ==
                       (image[a] in adj[image[b]])
                       for a, b in itertools.combinations(range(i), 2)))


def test_automorphism_search_extends_only_partial_isomorphisms(pg):
    # the search extends a partial map of a prefix of its own vertex order
    # only while it keeps adjacency both ways; a test one way only finds the
    # same automorphisms through more partial maps, on the seeded graphs
    # (in spanning-forest order the symmetric ones here show no extra map).
    # On the Petersen graph the count is pinned: 881 nodes (vertex order
    # 0..9 took 1,091).
    seeded = seeded_graphs(84, (5, 6, 6, 7, 7, 7))
    for g in (pentagram(), k33(), two_components(), *seeded):
        assert search_nodes(g) == partial_isomorphisms(g), g
    assert search_nodes(pg[0]) == 881


def cube():
    return Graph.from_edges(8, [(v, v ^ 1 << b) for v in range(8)
                                for b in range(3)])


def brute_automorphisms(g):
    """Every vertex permutation that maps the edge set onto itself, in
    lexicographic order."""
    edges = set(g.edges)
    return tuple(p for p in itertools.permutations(range(g.vertex_count))
                 if all((min(p[u], p[v]), max(p[u], p[v])) in edges
                        for u, v in g.edges))


def test_automorphism_search_matches_brute_force(pg):
    # the same tuple, in lexicographic order, as trying every permutation:
    # K1-K5, C5, the pentagram, K3,3, the 3-cube, three components, and
    # seeded random graphs of up to seven vertices
    fixed = [Graph.from_edges(n, itertools.combinations(range(n), 2))
             for n in range(1, 6)]
    fixed += [c5(), pentagram(), k33(), cube(), two_components()]
    for g in fixed + seeded_graphs(71, [i % 8 for i in range(48)]):
        assert automorphism_images(g) == brute_automorphisms(g), g
    assert len(automorphism_images(cube())) == 48
    assert automorphism_images(pg[0]) == tuple(sorted(
        induced_permutation(base)
        for base in itertools.permutations(range(1, 6))))


def test_enumerate_cycles_matches_the_cycle_listing():
    # the program's masks against the oracle's circles, in the same order
    # (by length, then canonical vertex sequence), at every length cap: K3-K5,
    # C5, the pentagram, K3,3, the 3-cube, three components, and seeded
    # random graphs of up to eight vertices
    fixed = [Graph.from_edges(n, itertools.combinations(range(n), 2))
             for n in range(3, 6)]
    fixed += [c5(), pentagram(), k33(), cube(), two_components()]
    for g in fixed + seeded_graphs(29, [3 + i % 6 for i in range(60)]):
        for cap in range(g.vertex_count + 2):
            assert enumerate_cycles(g, cap) == tuple(
                c.edge_mask for c in list_cycles(g, cap)), (g, cap)
    # the 3-cube: six squares, sixteen hexagons, six octagons
    assert Counter(m.bit_count() for m in enumerate_cycles(cube(), 8)) == \
        {4: 6, 6: 16, 8: 6}


def test_search_size_guard():
    big = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(SearchSizeError):
        automorphism_images(big)
    with pytest.raises(SearchSizeError):
        minimum_coloring(big)
