"""Property tests of the sign-mask form on random small signed graphs,
connected and disconnected, against brute-force oracles."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from signedpetersen.graphs import Cycle, Graph, cut, enumerate_cycles
from signedpetersen.io import parse_signed_graph, serialize_signed_graph
from signedpetersen.signed import (SignedGraph, SwitchingFunction,
                                   is_balanced, negate, sign_of_circle,
                                   switch)

# Derandomized and with no example database, so every run draws the same
# examples.
PROPERTY_SETTINGS = settings(derandomize=True, database=None,
                             max_examples=120, deadline=None)


@st.composite
def signed_graphs(draw):
    """At most 8 vertices. A drawn flag adds a random spanning tree, which
    makes the graph connected; without it the graph is a random edge
    subset, often disconnected."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = {p for i, p in enumerate(pairs) if present >> i & 1}
    if draw(st.booleans()):
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    g = Graph.from_edges(n, edges)
    return SignedGraph(g, draw(st.integers(0, (1 << len(g.edges)) - 1)))


def vertex_sets(n):
    return st.integers(0, (1 << n) - 1)


@PROPERTY_SETTINGS
@given(signed_graphs())
def test_balance_against_cycles_and_switchings(s):
    g = s.graph
    n = g.vertex_count
    all_cycles_positive = all(sign_of_circle(s, c) > 0
                              for c in enumerate_cycles(g, n))
    # balanced exactly when some switching makes every edge positive
    some_switching_positive = any(
        s.mask == sum(1 << i for i in cut(g, [v for v in range(n)
                                              if x >> v & 1]))
        for x in range(1 << n))
    res = is_balanced(s)
    assert bool(res) == all_cycles_positive == some_switching_positive
    if res:
        pos, neg = res.bipartition
        assert pos | neg == frozenset(range(n)) and not pos & neg
        for u, v in g.edges:
            assert ((u in pos) == (v in pos)) == (s.sign(u, v) > 0)
        assert res.negative_cycle is None
    else:
        c = res.negative_cycle
        assert Cycle.from_vertices(g, c.vertices) == c
        assert sign_of_circle(s, c) == -1
        assert res.bipartition is None


@PROPERTY_SETTINGS
@given(signed_graphs(), st.data())
def test_switch_is_an_involution_preserving_circle_signs(s, data):
    n = s.graph.vertex_count
    x = data.draw(vertex_sets(n))
    z = SwitchingFunction.from_set(n, [v for v in range(n) if x >> v & 1])
    t = switch(s, z)
    assert switch(t, z) == s
    assert t.mask ^ s.mask == sum(1 << i for i in cut(s.graph, z.negative_set))
    for c in enumerate_cycles(s.graph, n):
        assert sign_of_circle(t, c) == sign_of_circle(s, c)


@PROPERTY_SETTINGS
@given(signed_graphs())
def test_negate_flips_exactly_the_odd_cycles(s):
    t = negate(s)
    assert negate(t) == s
    for c in enumerate_cycles(s.graph, s.graph.vertex_count):
        flipped = sign_of_circle(t, c) != sign_of_circle(s, c)
        assert flipped == (c.length % 2 == 1)


@PROPERTY_SETTINGS
@given(signed_graphs())
def test_serialize_parse_round_trip(s):
    assert parse_signed_graph(serialize_signed_graph(s)) == s
