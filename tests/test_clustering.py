import itertools
import random

import pytest

from signedpetersen.clustering import (cluster_number, delete_edges,
                                       inclusterability_index, is_clusterable,
                                       max_inclusterability)
from signedpetersen.expected import (CLUSTER_NUMBER, INCLUSTERABILITY,
                                     MAX_INCLUSTERABILITY, T10_COLUMNS)
from signedpetersen.graphs import (Cycle, Graph, SearchSizeError,
                                   enumerate_cycles)
from signedpetersen.signed import SignedGraph, negate, sign_of_circle


def t10_signatures(reps):
    out = []
    for s in reps:
        out.append(s)
        out.append(negate(s))
    return out


def test_clusterability_witnesses(pg, reps):
    g, _ = pg
    ok, partition = is_clusterable(SignedGraph(g, 0))
    assert ok and len(partition) == 1
    for s in t10_signatures(reps):
        ok, witness = is_clusterable(s)
        if ok:
            # positive edges inside clusters, negative edges across
            owner = {}
            for ci, part in enumerate(witness):
                for v in part:
                    owner[v] = ci
            for u, v in s.graph.edges:
                assert (owner[u] == owner[v]) == (s.sign(u, v) > 0)
        else:
            # witness is a circle with exactly one negative edge
            assert sign_of_circle(s, witness) == -1
            assert (witness.edge_mask & s.mask).bit_count() == 1


def test_table_t10(reps):
    sigs = t10_signatures(reps)
    assert len(sigs) == len(T10_COLUMNS) == 12
    for i, s in enumerate(sigs):
        assert cluster_number(s) == CLUSTER_NUMBER[i], T10_COLUMNS[i]
        assert inclusterability_index(s)[0] == INCLUSTERABILITY[i], T10_COLUMNS[i]
        assert is_clusterable(s)[0] == (CLUSTER_NUMBER[i] is not None)


def fewest_clusters(s):
    """Fewest parts over every set partition of the vertices with positive
    edges inside parts and negative edges across, or None when there is no
    such partition. Vertices take block labels in restricted-growth order,
    one label sequence per partition; a prefix is dropped once an edge to an
    earlier vertex breaks the rule, which no extension can mend."""
    g = s.graph
    n = g.vertex_count
    earlier = [[(w, s.sign(v, w) > 0) for w in g.adjacency[v] if w < v]
               for v in range(n)]
    block = [0] * n
    best = None

    def extend(v, used):
        nonlocal best
        if v == n:
            best = used if best is None else min(best, used)
            return
        for b in range(used + 1):
            if all((block[w] == b) == pos for w, pos in earlier[v]):
                block[v] = b
                extend(v + 1, max(used, b + 1))

    extend(0, 0)
    return best


def test_cluster_number_against_set_partitions(reps):
    rng = random.Random(71)
    sigs = t10_signatures(reps)
    for _ in range(150):
        n = rng.randint(0, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        density = rng.random()
        sigs.append(SignedGraph(g, sum(1 << i for i in range(len(g.edges))
                                       if rng.random() < density)))
    clusterable = 0
    for s in sigs:
        expected = fewest_clusters(s)
        assert cluster_number(s) == expected, s
        ok, parts = is_clusterable(s)
        assert ok == (expected is not None)
        if ok:
            part_of = {v: i for i, p in enumerate(parts) for v in p}
            assert sum(map(len, parts)) == len(part_of) == s.graph.vertex_count
            assert len(parts) == expected
            for u, v in s.graph.edges:
                assert (part_of[u] == part_of[v]) == (s.sign(u, v) > 0)
            clusterable += 1
    assert 30 <= clusterable <= len(sigs) - 30


def test_inclusterability_witness(reps):
    for s in t10_signatures(reps):
        if is_clusterable(s)[0]:
            continue
        q, dels = inclusterability_index(s)
        assert len(dels) == q > 0
        assert is_clusterable(delete_edges(s, dels))[0]
        # minimality: no smaller deletion set works
        edges = list(s.graph.edges)
        import itertools
        for smaller in itertools.combinations(edges, q - 1):
            assert not is_clusterable(delete_edges(s, smaller))[0]


def test_one_negative_edge_criterion():
    # Davis: clusterable iff no circle carries exactly one negative edge.
    # The Petersen graph is checked on every signature in test_properties;
    # here every signature of K4, C5 and K3,3 is checked the same way.
    k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for g in (k4, c5, k33):
        cycles = enumerate_cycles(g, g.vertex_count)
        for mask in range(1 << len(g.edges)):
            bad = any((c.edge_mask & mask).bit_count() == 1 for c in cycles)
            assert is_clusterable(SignedGraph(g, mask))[0] == (not bad), mask


def test_max_inclusterability(pg):
    g, _ = pg
    assert max_inclusterability(g, cubic_shortcut=True) == MAX_INCLUSTERABILITY
    assert max_inclusterability(g, cubic_shortcut=False) == MAX_INCLUSTERABILITY


def test_delete_edges(pg):
    g, _ = pg
    s = SignedGraph(g, 0b111)
    t = delete_edges(s, [g.edges[0]])
    assert len(t.graph.edges) == 14
    assert t.graph.vertex_count == 10


def test_forest_witness_against_cycle_listing():
    # Seeded graphs of 3-16 vertices, some with more than MAX_EDGES edges.
    # Each answer carries its proof: a partition with positive edges inside
    # parts and negative edges across, or a circle with one negative edge.
    # Up to 12 vertices the flag is also checked against every cycle.
    rng = random.Random(67)
    large_unclusterable = 0
    for _ in range(240):
        n = rng.randint(3, 16)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(
            pairs, rng.randint(n - 1, min(len(pairs), 2 * n))))
        density = rng.random()
        s = SignedGraph(g, sum(1 << i for i in range(len(g.edges))
                               if rng.random() < density))
        ok, witness = is_clusterable(s)
        if ok:
            part_of = {v: i for i, p in enumerate(witness) for v in p}
            assert sorted(part_of) == list(range(n))
            for u, v in g.edges:
                assert (part_of[u] == part_of[v]) == (s.sign(u, v) > 0)
        else:
            assert witness == Cycle.from_vertices(g, witness.vertices)
            assert (witness.edge_mask & s.mask).bit_count() == 1
            large_unclusterable += len(g.edges) > 20
        if n <= 12:
            bad = any((c.edge_mask & s.mask).bit_count() == 1
                      for c in enumerate_cycles(g, n))
            assert ok == (not bad)
    assert large_unclusterable >= 10


def test_oversized_graph_refused_before_the_forest(monkeypatch):
    # A positive path on 17 vertices is clusterable with one cluster, but
    # the size check must refuse it before the positive subgraph's forest
    # is walked.
    def no_forest(g):
        raise AssertionError("spanning forest built for an oversized graph")

    monkeypatch.setattr(Graph, "spanning_forest", property(no_forest))
    path = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(SearchSizeError, match="too large"):
        is_clusterable(SignedGraph(path, 0))
