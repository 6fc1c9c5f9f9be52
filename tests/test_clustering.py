import itertools
import random

import pytest

from signedpetersen import clustering, graphs
from signedpetersen.clustering import (cluster_number, inclusterability_index,
                                       is_clusterable)
from signedpetersen.expected import (CLUSTER_NUMBER, INCLUSTERABILITY,
                                     T10_COLUMNS)
from signedpetersen.graphs import Graph, SearchSizeError
from signedpetersen.signed import SignedGraph, negate

from oracles import (MAX_INCLUSTERABILITY, Cycle, adjacency, bad_cycles,
                     circle_masks, cluster_witness,
                     clusterability_by_positive_graph, edge_sign,
                     inclusterability_by_circles, max_inclusterability,
                     sign_of_circle)


def delete_edges(s, drop):
    """The signed graph s without the edges in the edge mask drop."""
    edges, mask = [], 0
    for i, e in enumerate(s.graph.edges):
        if not drop >> i & 1:
            mask |= (s.mask >> i & 1) << len(edges)
            edges.append(e)
    return SignedGraph(Graph(s.graph.vertex_count, tuple(edges)), mask)


def t10_signatures(reps):
    out = []
    for s in reps:
        out.append(s)
        out.append(negate(s))
    return out


def clusterable_by_the_positive_graph(s):
    """Clusterability read off a separate graph of the positive edges, not
    off ``bad_edge`` as ``is_clusterable`` reads it, so that a deletion set
    is checked by a route of its own."""
    return clusterability_by_positive_graph(s)[0]


def test_clusterability_witnesses(pg, reps):
    g, _ = pg
    ok, partition = cluster_witness(SignedGraph(g, 0))
    assert ok and len(partition) == 1
    for s in t10_signatures(reps):
        ok, witness = cluster_witness(s)
        assert is_clusterable(s) is ok
        if ok:
            # positive edges inside clusters, negative edges across
            owner = {}
            for ci, part in enumerate(witness):
                for v in part:
                    owner[v] = ci
            for u, v in s.graph.edges:
                assert (owner[u] == owner[v]) == (edge_sign(s, u, v) > 0)
        else:
            # witness is a circle with exactly one negative edge, built
            # where it is asked for
            assert isinstance(witness, Cycle)
            assert sign_of_circle(s, witness) == -1
            assert (witness.edge_mask & s.mask).bit_count() == 1


def test_table_t10(reps):
    sigs = t10_signatures(reps)
    assert len(sigs) == len(T10_COLUMNS) == 12
    for i, s in enumerate(sigs):
        assert cluster_number(s) == CLUSTER_NUMBER[i], T10_COLUMNS[i]
        assert inclusterability_index(s) == INCLUSTERABILITY[i], T10_COLUMNS[i]
        assert is_clusterable(s) is (CLUSTER_NUMBER[i] is not None)


def fewest_clusters(s):
    """Fewest parts over every set partition of the vertices with positive
    edges inside parts and negative edges across, or None when there is no
    such partition. Vertices take block labels in restricted-growth order,
    one label sequence per partition; a prefix is dropped once an edge to an
    earlier vertex breaks the rule, which no extension can mend."""
    g = s.graph
    n = g.vertex_count
    earlier = [[(w, edge_sign(s, v, w) > 0) for w in adjacency(g)[v] if w < v]
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
        ok, parts = cluster_witness(s)
        assert is_clusterable(s) is ok is (expected is not None)
        if ok:
            part_of = {v: i for i, p in enumerate(parts) for v in p}
            assert sum(map(len, parts)) == len(part_of) == s.graph.vertex_count
            assert len(parts) == expected
            for u, v in s.graph.edges:
                assert (part_of[u] == part_of[v]) == (edge_sign(s, u, v) > 0)
            clusterable += 1
    assert 30 <= clusterable <= len(sigs) - 30


def test_inclusterability_witness(reps):
    for s in t10_signatures(reps):
        if is_clusterable(s):
            continue
        # the least set meeting every listed bad circle
        dels = inclusterability_by_circles(s)
        q = inclusterability_index(s)
        assert dels.bit_count() == q > 0
        assert clusterable_by_the_positive_graph(delete_edges(s, dels))
        # minimality: no smaller deletion set works
        singles = [1 << i for i in range(len(s.graph.edges))]
        for smaller in itertools.combinations(singles, q - 1):
            assert not clusterable_by_the_positive_graph(
                delete_edges(s, sum(smaller)))


def test_one_negative_edge_criterion():
    # Davis: clusterable iff no circle carries exactly one negative edge.
    # The Petersen graph is checked on every signature in test_properties;
    # here every signature of K4, C5 and K3,3 is checked the same way.
    k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for g in (k4, c5, k33):
        for mask in range(1 << len(g.edges)):
            bad = bad_cycles(circle_masks(g), mask)
            assert is_clusterable(SignedGraph(g, mask)) is not bool(bad), mask


def test_max_inclusterability(pg):
    g, _ = pg
    assert max_inclusterability(g, cubic_shortcut=True) == MAX_INCLUSTERABILITY
    assert max_inclusterability(g, cubic_shortcut=False) == MAX_INCLUSTERABILITY


def test_delete_edges(pg):
    g, _ = pg
    s = SignedGraph(g, 0b111)
    t = delete_edges(s, 0b1)
    assert len(t.graph.edges) == 14 and t.mask == 0b11
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
        ok, witness = cluster_witness(s)
        assert is_clusterable(s) is ok
        if ok:
            part_of = {v: i for i, p in enumerate(witness) for v in p}
            assert sorted(part_of) == list(range(n))
            for u, v in g.edges:
                assert (part_of[u] == part_of[v]) == (edge_sign(s, u, v) > 0)
        else:
            assert witness == Cycle.from_vertices(g, witness.vertices)
            assert (witness.edge_mask & s.mask).bit_count() == 1
            large_unclusterable += len(g.edges) > 20
        if n <= 12:
            assert ok is not bool(bad_cycles(circle_masks(g), s.mask))
    assert large_unclusterable >= 10


def test_oversized_graph_refused_before_the_forest(monkeypatch):
    # A positive path on 17 vertices is clusterable with one cluster, but
    # the size check must refuse it before the positive subgraph's forest
    # is walked.
    def no_forest(g, *skip):
        raise AssertionError("spanning forest built for an oversized graph")

    monkeypatch.setattr(Graph, "spanning_forest", property(no_forest))
    monkeypatch.setattr(graphs, "bfs_forest", no_forest)
    path = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(SearchSizeError, match="too large"):
        is_clusterable(SignedGraph(path, 0))


def check_against_listing_routes(s):
    """The index against the size of a least hitting set of every listed bad
    circle (by Davis, deleting a set leaves a clusterable signature exactly
    when it meets all of them), the clusterability witness against the
    forest of a separate positive graph and the colouring of a separate
    graph on its components, the yes or no against both witnesses, and the
    cluster number against the witness. Returns the hitting set."""
    hit = inclusterability_by_circles(s)
    assert inclusterability_index(s) == hit.bit_count()
    ok, witness = cluster_witness(s)
    assert (ok, witness) == clusterability_by_positive_graph(s)
    assert is_clusterable(s) is ok
    assert cluster_number(s) == (len(witness) if ok else None)
    return hit


def test_index_and_witness_match_the_listing_routes_on_every_petersen_signature(pg):
    g, _ = pg
    for mask in range(1 << len(g.edges)):
        check_against_listing_routes(SignedGraph(g, mask))


def test_index_and_witness_match_the_listing_routes_on_seeded_graphs():
    # 3-16 vertices and at most MAX_EDGES edges, in three kinds taken in
    # turn: any edge count, two parts with no edge between them, and dense
    # 8-9-vertex graphs whose cycle space has 10 dimensions or more
    rng = random.Random(83)
    disconnected = dense = 0
    for k in range(360):
        if k % 3 == 2:
            n = rng.choice((8, 9))
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph.from_edges(n, rng.sample(
                pairs, rng.randint(n + 9, clustering.MAX_EDGES)))
            dense += len(g.chords) >= 10
        else:
            n = rng.randint(3, 16)
            cut = rng.randint(1, n - 1) if k % 3 else n
            pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if (u < cut) == (v < cut)]
            g = Graph.from_edges(n, rng.sample(pairs, rng.randint(
                0, min(len(pairs), clustering.MAX_EDGES))))
        disconnected += not g.is_connected()
        density = rng.random()
        s = SignedGraph(g, sum(1 << i for i in range(len(g.edges))
                               if rng.random() < density))
        assert clusterable_by_the_positive_graph(
            delete_edges(s, check_against_listing_routes(s)))
    assert dense == 120 and disconnected >= 120
