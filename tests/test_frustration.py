import random

import pytest

from signedpetersen.expected import (ALPHA0, ALPHA1, ALPHA2, CLASS_NAMES,
                                     FRUSTRATION_INDEX, FRUSTRATION_NUMBER)
from signedpetersen.frustration import (alpha_k, cut_dominance_check,
                                        delete_vertices, frustration_index,
                                        frustration_number)
from signedpetersen.graphs import Graph, SearchSizeError
from signedpetersen.signed import SignedGraph, is_balanced, negate, switch


def k4_signed(mask):
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return SignedGraph(g, mask)


def k33_signed(mask):
    g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    return SignedGraph(g, mask)


def test_six_class_values(reps):
    for i, s in enumerate(reps):
        l, we = frustration_index(s)
        l0, wv = frustration_number(s)
        assert l == FRUSTRATION_INDEX[i], CLASS_NAMES[i]
        assert l0 == FRUSTRATION_NUMBER[i], CLASS_NAMES[i]
        # witness checks: the edge witness is a negative set of some
        # switching, so flipping exactly those signs balances
        flipped = SignedGraph(s.graph, s.mask ^ sum(
            1 << s.graph.index_of(u, v) for u, v in we))
        assert len(we) == l and is_balanced(flipped)
        assert len(wv) == l0 and is_balanced(delete_vertices(s, wv))


def test_reports_and_minimality(reps):
    for s in reps:
        # standard reps are minimal
        assert frustration_index(s)[0] == s.mask.bit_count()
        assert cut_dominance_check(s) is None
    # a non-minimal signature has a dominated cut
    bad = negate(reps[0])  # all 15 edges negative, l = 3
    assert frustration_index(bad)[0] < bad.mask.bit_count()
    x = cut_dominance_check(bad)
    assert x is not None
    assert switch(bad, x).mask.bit_count() < bad.mask.bit_count()


def test_small_graph_oracles():
    # one negative edge on K4: l = l0 = 1
    s = k4_signed(1)
    assert frustration_index(s)[0] == 1
    assert frustration_number(s)[0] == 1
    # all-negative K4 is antibalanced-like: l = 2
    s = k4_signed(0b111111)
    assert frustration_index(s)[0] == 2


def test_l0_equals_l_on_small_cubic_graphs():
    # the census checks the Petersen graph; K4 and K3,3 are the other
    # desk-size cubic cases
    for make, m in ((k4_signed, 6), (k33_signed, 9)):
        for mask in range(1 << m):
            s = make(mask)
            assert frustration_index(s)[0] == frustration_number(s)[0], mask


def test_alpha_k(reps):
    for i, s in enumerate(reps):
        assert alpha_k(s, 0) == ALPHA0[i], CLASS_NAMES[i]
        assert alpha_k(s, 1) == ALPHA1[i], CLASS_NAMES[i]
        assert alpha_k(s, 2) == ALPHA2[i], CLASS_NAMES[i]
    with pytest.raises(ValueError):
        alpha_k(reps[0], 3)


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
            l, we = frustration_index(s)
            assert l == brute_force_index(s), (g, mask)
            assert len(we) == l


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
            parts = (frustration_index(SignedGraph(k4, m1))[0] +
                     frustration_index(SignedGraph(c5, m2))[0])
            assert frustration_index(s)[0] == parts
