import itertools
import random

import pytest

from signedpetersen.clustering import (cluster_number, cluster_report,
                                       clustering_partition, delete_edges,
                                       inclusterability_index, is_clusterable,
                                       max_inclusterability,
                                       positive_contraction)
from signedpetersen.expected import (CLUSTER_NUMBER, INCLUSTERABILITY,
                                     MAX_INCLUSTERABILITY, T10_COLUMNS)
from signedpetersen.graphs import (Cycle, Graph, chromatic_number,
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
        rep = cluster_report(s)
        assert rep.clun == CLUSTER_NUMBER[i], T10_COLUMNS[i]
        assert rep.q == INCLUSTERABILITY[i], T10_COLUMNS[i]
        assert rep.clusterable == (CLUSTER_NUMBER[i] is not None)


def test_cluster_number_is_contraction_chromatic(reps):
    for s in t10_signatures(reps):
        res = positive_contraction(s)
        if res.loop_flag:
            assert cluster_number(s) is None
        else:
            assert cluster_number(s) == chromatic_number(res)
            parts = clustering_partition(s)
            assert len(parts) == cluster_number(s)
            union = set()
            for p in parts:
                assert not union & p
                union |= p
            assert union == set(range(s.graph.vertex_count))
            # positive edges inside parts, negative edges across
            part_of = {v: i for i, p in enumerate(parts) for v in p}
            for u, v in s.graph.edges:
                assert (part_of[u] == part_of[v]) == (s.sign(u, v) > 0)


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


def test_one_negative_edge_criterion(pg):
    # Davis: clusterable iff no circle carries exactly one negative edge
    g, _ = pg
    rng = random.Random(41)
    cycles = enumerate_cycles(g, 10)
    for _ in range(150):
        s = SignedGraph(g, rng.randrange(1 << 15))
        bad = any((c.edge_mask & s.mask).bit_count() == 1 for c in cycles)
        assert is_clusterable(s)[0] == (not bad)


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
