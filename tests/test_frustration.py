import itertools
import random

import pytest

from signedpetersen.expected import (ALPHA0, ALPHA1, ALPHA2, CLASS_NAMES,
                                     FRUSTRATION_INDEX, FRUSTRATION_NUMBER)
from signedpetersen.coloring import alpha_k
from signedpetersen import frustration
from signedpetersen.frustration import (_edges_by_cuts, _edges_by_syndromes,
                                        _vertices_by_colourings,
                                        _vertices_by_syndromes,
                                        balanced_without, frustration_index,
                                        frustration_number, least_edges,
                                        least_vertices)
from signedpetersen.graphs import (Graph, SearchSizeError, bits, chord_mask,
                                   cut_space, petersen, syndrome)
from signedpetersen.signed import SignedGraph, negate, switch

from oracles import (balance_witness, circle_hitting_sets, delete_vertices,
                     deletion_tables, edge_syndromes, independent_sets)


def k4_signed(mask):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return SignedGraph(g, mask)


def k33_signed(mask):
    g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    return SignedGraph(g, mask)


def test_six_class_values(reps):
    for i, s in enumerate(reps):
        g = s.graph
        l, l0 = frustration_index(s), frustration_number(s)
        assert l == FRUSTRATION_INDEX[i], CLASS_NAMES[i]
        assert l0 == FRUSTRATION_NUMBER[i], CLASS_NAMES[i]
        # witness checks: the least edge mask is a negative set of some
        # switching, so flipping exactly those signs balances
        we = least_edges(g, syndrome(g, s.mask))
        wv = least_vertices(g, s.mask)
        assert we.bit_count() == l and balance_witness(
            SignedGraph(g, s.mask ^ we))
        assert wv.bit_count() == l0 and balance_witness(
            delete_vertices(s, bits(wv)))


def cut_dominance_check(s):
    """The mask of a vertex set whose cut holds more negative than positive
    edges, if any exists; such a set certifies that switching it lowers the
    negative count, so its absence certifies minimality."""
    for x, c in cut_space(s.graph):
        if 2 * (s.mask & c).bit_count() > c.bit_count():
            return x
    return None


def test_reports_and_minimality(reps):
    for s in reps:
        # standard reps are minimal
        assert frustration_index(s) == s.mask.bit_count()
        assert cut_dominance_check(s) is None
    # a non-minimal signature has a dominated cut
    bad = negate(reps[0])  # all 15 edges negative, l = 3
    assert frustration_index(bad) < bad.mask.bit_count()
    x = cut_dominance_check(bad)
    assert x is not None
    assert switch(bad, x).mask.bit_count() < bad.mask.bit_count()


def test_small_graph_oracles():
    # one negative edge on K4: l = l0 = 1
    s = k4_signed(1)
    assert frustration_index(s) == 1
    assert frustration_number(s) == 1
    # all-negative K4 is antibalanced-like: l = 2
    s = k4_signed(0b111111)
    assert frustration_index(s) == 2


def test_l0_equals_l_on_small_cubic_graphs():
    # the census checks the Petersen graph; K4 and K3,3 are the other
    # desk-size cubic cases
    for make, m in ((k4_signed, 6), (k33_signed, 9)):
        for mask in range(1 << m):
            s = make(mask)
            assert frustration_index(s) == frustration_number(s), mask


def test_alpha_k(reps):
    for i, s in enumerate(reps):
        assert alpha_k(s, 0) == ALPHA0[i], CLASS_NAMES[i]
        assert alpha_k(s, 1) == ALPHA1[i], CLASS_NAMES[i]
        assert alpha_k(s, 2) == ALPHA2[i], CLASS_NAMES[i]
    with pytest.raises(ValueError):
        alpha_k(reps[0], 3)


def test_balanced_without_matches_deleting_the_vertices():
    # seeded graphs of 0-16 vertices, sparse to complete, with vertex masks
    # from empty to everything
    rng = random.Random(12)
    for i in range(400):
        n = i % 17
        density = rng.random()
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < density])
        s = SignedGraph(g, rng.getrandbits(len(g.edges)))
        for w in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
            dropped = [v for v in range(n) if w >> v & 1]
            assert balanced_without(g, s.mask, w) == \
                bool(balance_witness(delete_vertices(s, dropped))), (s, w)


def test_balanced_without_matches_the_deletion_tables():
    # every Petersen signature, with no vertex or one vertex deleted, against
    # the syndrome spans of P - W
    g, _ = petersen()
    spans = [span for k, span in deletion_tables() if k <= 1]
    singles = [0] + [1 << v for v in range(10)]  # the order of the tables
    for mask in range(1 << 15):
        z = syndrome(g, mask)
        for w, span in zip(singles, spans):
            assert balanced_without(g, mask, w) == bool(span >> z & 1)


def test_alpha_k_matches_the_per_set_count(pg):
    g, _ = pg
    rng = random.Random(9)
    for mask in rng.sample(range(1 << 15), 60):
        s = SignedGraph(g, mask)
        for k in (0, 1, 2):
            assert alpha_k(s, k) == sum(
                1 for w in independent_sets(g, k)
                if balance_witness(delete_vertices(s, w))), (mask, k)


def test_frustration_number_of_all_negative_complete_graphs():
    # deleting all but two vertices leaves one negative edge, balanced;
    # three left make a negative triangle
    for n in (12, 16):
        g = Graph.from_edges(n, itertools.combinations(range(n), 2))
        s = SignedGraph(g, (1 << len(g.edges)) - 1)
        dropped = least_vertices(g, s.mask)
        assert frustration_number(s) == dropped.bit_count() == n - 2
        assert balance_witness(delete_vertices(s, bits(dropped)))


def test_delete_vertices(pg):
    g, _ = pg
    s = SignedGraph(g, 0x55)
    t = delete_vertices(s, {0})
    assert t.graph.vertex_count == 9
    assert len(t.graph.edges) == 12
    # deleting nothing is the identity
    assert delete_vertices(s, set()) == s


def test_size_guards():
    big = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    s = SignedGraph(big, 0)
    with pytest.raises(SearchSizeError):
        frustration_index(s)
    with pytest.raises(SearchSizeError):
        frustration_number(s)


def brute_force_index(s):
    """Fewest negative edges over all 2^n switching sets, none pinned."""
    n = s.graph.vertex_count
    return min(switch(s, x).mask.bit_count() for x in range(1 << n))


def test_index_matches_brute_force():
    k4 = k4_signed(0).graph
    k33 = k33_signed(0).graph
    # two triangles and an isolated vertex; K4 beside a triangle
    triangles = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2),
                                     (3, 4), (3, 5), (4, 5)])
    k4_tri = Graph.from_edges(7, list(k4.edges) + [(4, 5), (4, 6), (5, 6)])
    rng = random.Random(41)
    for g in (k4, k33, triangles, k4_tri):
        m = len(g.edges)
        masks = range(1 << m) if m <= 6 else rng.sample(range(1 << m), 40)
        for mask in masks:
            s = SignedGraph(g, mask)
            l = frustration_index(s)
            assert l == brute_force_index(s), (g, mask)
            we = least_edges(g, syndrome(g, mask))
            assert we.bit_count() == l
            assert balance_witness(SignedGraph(g, mask ^ we))


def test_disconnected_is_sum_of_components():
    k4 = k4_signed(0).graph
    c5 = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    # K4 on vertices 0..3 takes edge indices 0..5, C5 on 4..8 takes 6..10
    both = Graph.from_edges(9, list(k4.edges) +
                            [(u + 4, v + 4) for u, v in c5.edges])
    assert not both.is_connected()
    for m1 in range(1 << 6):
        for m2 in (0, 1, 0b11111, 0b10101):
            s = SignedGraph(both, m1 | m2 << 6)
            parts = (frustration_index(SignedGraph(k4, m1)) +
                     frustration_index(SignedGraph(c5, m2)))
            assert frustration_index(s) == parts


def parity_graphs():
    """100 seeded signed graphs of 8-16 vertices, every fifth with two
    components and every fourth all negative. Up to 11 vertices the edge
    count runs from one over a spanning forest to six over twice one, so
    both routes of ``least_edges`` occur; above that it stays near the
    forest, where the vertex-subset search is quick."""
    rng = random.Random(2011)
    out = []
    for i in range(100):
        n = 8 + i % 9
        split = n // 2 if i % 5 == 0 else n
        parts = [range(0, split), range(split, n)]
        edges = {(rng.choice(part[:j]), part[j])
                 for part in parts for j in range(1, len(part))}
        forest = len(edges)
        spare = [e for part in parts for e in itertools.combinations(part, 2)
                 if e not in edges]
        extra = rng.randint(1, forest + 6 if n <= 11 else 9)
        edges |= set(rng.sample(spare, min(extra, len(spare))))
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, ((perm[u], perm[v]) for u, v in edges))
        m = len(g.edges)
        mask = (1 << m) - 1 if i % 4 == 3 else rng.getrandbits(m)
        out.append(SignedGraph(g, mask))
    return out


def test_edge_syndromes_match_the_per_edge_formula():
    # the one pass up the forest in Graph.syndromes against the per-edge
    # formula, on the 100 parity graphs (every fifth with two components),
    # the Petersen graph, and graphs with isolated vertices, a lone edge
    # and no edge at all
    graphs = [s.graph for s in parity_graphs()] + [
        petersen()[0], Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (2, 4)]),
        Graph(3, ())]
    for g in graphs:
        assert g.syndromes == edge_syndromes(g), g


def searches_syndromes(g):
    """The route ``least_edges`` takes: the syndrome search when the cycle
    space (dimension r) is the smaller, the cut walk otherwise."""
    return len(g.chords) < len(g.edges) - len(g.chords)


def test_circle_routes_match_cut_walk_and_subset_search():
    """Every graph goes through both walks of ``least_edges`` for l and the
    subset search for l0, whichever walk production picks; the least edge
    and vertex hitting sets of the negative circles are the oracle."""
    graphs = parity_graphs()
    searched = [searches_syndromes(s.graph) for s in graphs]
    assert min(searched.count(True), searched.count(False)) >= 15
    assert any(not s.graph.is_connected() and not side
               for s, side in zip(graphs, searched))
    for s in graphs:
        g = s.graph
        z = syndrome(g, s.mask)
        by_edge_circles, by_vertex_circles = circle_hitting_sets(s)
        by_syndromes, by_cuts = _edges_by_syndromes(g, z), _edges_by_cuts(g, z)
        l = by_cuts.bit_count()
        assert by_syndromes.bit_count() == by_edge_circles.bit_count() == l, s
        for witness in (by_edge_circles, by_syndromes, by_cuts):
            assert balance_witness(SignedGraph(g, s.mask ^ witness))
        assert frustration_index(s) == l
        by_subsets = least_vertices(g, s.mask)
        l0 = by_subsets.bit_count()
        assert by_vertex_circles.bit_count() == l0 <= l, s
        for witness in (by_vertex_circles, by_subsets):
            dropped = [v for v in range(g.vertex_count) if witness >> v & 1]
            assert balance_witness(delete_vertices(s, dropped))
        assert frustration_number(s) == l0


def test_least_edges_searches_syndromes_below_the_cut_dimension(monkeypatch):
    # a path (n - 1 cut dimensions) plus r chords (r cycle dimensions): the
    # syndromes are searched exactly when r < n - 1, and a tie walks the cuts
    walks = []
    walk = frustration._edges_by_cuts

    def counted_walk(g, z):
        walks.append(len(g.chords))
        return walk(g, z)

    monkeypatch.setattr(frustration, "_edges_by_cuts", counted_walk)
    for n in (10, 16):
        path = [(i, i + 1) for i in range(n - 1)]
        chords = [e for e in itertools.combinations(range(n), 2)
                  if e[1] - e[0] > 1]
        for r in (n - 2, n - 1):
            g = Graph.from_edges(n, path + chords[:r])
            z = (1 << r) - 1
            walks.clear()
            l = least_edges(g, z).bit_count()
            assert walks == ([] if r < n - 1 else [r]), (n, r)
            assert l == _edges_by_syndromes(g, z).bit_count(), (n, r)
    # two components and an isolated vertex: n - c = 12 - 3 = 9
    left = [(i, i + 1) for i in range(5)]
    right = [(i, i + 1) for i in range(6, 10)]
    extra = [(0, 2), (0, 3), (6, 8), (0, 4), (6, 9), (1, 3), (7, 9), (1, 4),
             (2, 4), (2, 5)]
    for r in (8, 9):
        g = Graph.from_edges(12, left + right + extra[:r])
        walks.clear()
        least_edges(g, 1)
        assert searches_syndromes(g) == (r < 9) and walks == [r] * (r >= 9)


def stream_like_graphs():
    """120 seeded signed graphs of 8-16 vertices with at most 20 edges, as
    the command-line queries on general graphs come: a random tree plus
    extra edges from one over the tree up to 3n - 6, each vertex with at
    most three earlier neighbours, every ninth in two parts; each with a
    relabelled and switched twin."""
    rng = random.Random(2101)
    out = []
    for i in range(60):
        n = 8 + i % 9
        parts = [range(0, n // 2), range(n // 2, n)] if i % 9 == 0 else [
            range(n)]
        edges = set()
        for part in parts:
            k, top = len(part), min(20 // len(parts), 3 * len(part) - 6)
            tree = {(rng.choice(part[:j]), part[j]) for j in range(1, k)}
            back = {v: 1 for _, v in tree}
            extra = [e for e in itertools.combinations(part, 2)
                     if e not in tree]
            rng.shuffle(extra)
            m = rng.randint(k, max(k, top))
            for u, v in extra:
                if len(tree) < m and back[v] < 3:
                    tree.add((u, v))
                    back[v] += 1
            edges |= tree
        g = Graph.from_edges(n, edges)
        s = SignedGraph(g, rng.getrandbits(len(g.edges)))
        perm = list(range(n))
        rng.shuffle(perm)
        twin = Graph.from_edges(n, ((perm[u], perm[v]) for u, v in g.edges))
        signs = {tuple(sorted((perm[u], perm[v]))): s.mask >> i & 1
                 for i, (u, v) in enumerate(g.edges)}
        t = switch(SignedGraph(twin, sum(signs[e] << i for i, e in
                                         enumerate(twin.edges))),
                   rng.getrandbits(n))
        out += [s, t]
    return out


def test_vertex_routes_find_the_same_deletion():
    """The syndrome-span route and the two-colouring route of l0 return the
    same first W on every Petersen switching class (its chord
    representative), the parity graphs and stream-like graphs, whichever
    route ``least_vertices`` takes; on P the first W with |W| <= 3 whose
    span in the deletion tables holds z is the same W again."""
    g, _ = petersen()
    order = [sum(1 << v for v in w) for k in range(4)
             for w in itertools.combinations(range(10), k)]
    spans = [span for _, span in deletion_tables()]
    graphs = [SignedGraph(g, chord_mask(g, z)) for z in range(64)]
    for z, s in enumerate(graphs):
        first = next(w for w, span in zip(order, spans) if span >> z & 1)
        assert _vertices_by_syndromes(g, z) == first, z
    graphs += parity_graphs() + stream_like_graphs()
    routes = {True: 0, False: 0}
    for s in graphs:
        g = s.graph
        w = _vertices_by_colourings(g, s.mask)
        assert _vertices_by_syndromes(g, syndrome(g, s.mask)) == w, s
        assert least_vertices(g, s.mask) == w, s
        routes[searches_syndromes(g)] += 1
    assert min(routes.values()) >= 20, routes


def test_least_vertices_searches_syndromes_below_the_cut_dimension(
        monkeypatch):
    # the rule of least_edges: the syndrome spans when r < n - c, and a
    # tie, all-negative K10 and the dense side of a disconnected graph
    # two-colour
    taken = []
    for name in ("_vertices_by_syndromes", "_vertices_by_colourings"):
        def counted(g, key, route=getattr(frustration, name), name=name):
            taken.append(name)
            return route(g, key)
        monkeypatch.setattr(frustration, name, counted)

    def route(g, mask):
        taken.clear()
        w = least_vertices(g, mask)
        assert w == _vertices_by_colourings(g, mask), (g, mask)
        return taken == ["_vertices_by_syndromes"]

    for n in (10, 16):
        path = [(i, i + 1) for i in range(n - 1)]
        chords = [e for e in itertools.combinations(range(n), 2)
                  if e[1] - e[0] > 1]
        for r in (n - 2, n - 1):
            g = Graph.from_edges(n, path + chords[:r])
            mask = (1 << len(g.edges)) - 1
            assert route(g, mask) == (r < n - 1), (n, r)
    k10 = Graph.from_edges(10, itertools.combinations(range(10), 2))
    assert not route(k10, (1 << 45) - 1)
    # two components and an isolated vertex: n - c = 12 - 3 = 9
    left = [(i, i + 1) for i in range(5)]
    right = [(i, i + 1) for i in range(6, 10)]
    extra = [(0, 2), (0, 3), (6, 8), (0, 4), (6, 9), (1, 3), (7, 9), (1, 4),
             (2, 4), (2, 5)]
    for r in (8, 9):
        g = Graph.from_edges(12, left + right + extra[:r])
        assert not g.is_connected()
        assert route(g, (1 << len(g.edges)) - 1) == (r < 9), r
