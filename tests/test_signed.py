import random

import pytest

from signedpetersen.expected import (CLASS_NAMES, NEGATIVE_HEXAGONS,
                                     NEGATIVE_PENTAGONS)
from signedpetersen import signed
from signedpetersen.graphs import (Graph, cut_mask, cut_space,
                                   enumerate_cycles, petersen)
from signedpetersen.signed import (SIX_ORDER, SignedGraph, classify_six,
                                   classify_six_mask, is_balanced, negate,
                                   petersen_circle_masks, petersen_invariants,
                                   switch)

from oracles import (adjacency, balance_witness, closed_form_hexagon_masks,
                     closed_form_pentagon_masks, edge_sign, list_cycles,
                     minimal_representative, negative_circle_counts,
                     sign_of_circle, switching_equivalence)
from test_graphs import seeded_graphs


def test_signed_graph_construction(pg):
    g, _ = pg
    s = SignedGraph(g, 0b101)
    assert s.mask == 0b101
    assert [edge_sign(s, *e) for e in g.edges[:3]] == [-1, 1, -1]
    with pytest.raises(ValueError):
        SignedGraph(g, -1)
    with pytest.raises(ValueError):
        SignedGraph(g, 1 << 15)


def test_switching_function(pg):
    """A switching set is a vertex mask in 0 .. 2^n - 1."""
    g, _ = pg
    s = SignedGraph(g, 0x1234)
    assert switch(s, 0) == s
    assert switch(s, (1 << 10) - 1) == s  # the cut of all vertices is empty
    assert switch(s, 1 << 9).mask == s.mask ^ sum(
        1 << g.index_of(9, u) for u in adjacency(g)[9])
    for x in (-1, 1 << 10):
        with pytest.raises(ValueError):
            switch(s, x)


def test_switch_preserves_circle_signs(pg):
    g, _ = pg
    rng = random.Random(7)
    cycles = list_cycles(g, 6)
    for _ in range(25):
        s = SignedGraph(g, rng.randrange(1 << 15))
        z = sum(1 << v for v in rng.sample(range(10), rng.randrange(11)))
        t = switch(s, z)
        for c in cycles:
            assert sign_of_circle(s, c) == sign_of_circle(t, c)
    # switching is an involution
    s = SignedGraph(g, 0x1234)
    z = 0b100101
    assert switch(switch(s, z), z) == s


def test_balance_witnesses(pg):
    g, _ = pg
    res = balance_witness(SignedGraph(g, 0))
    assert res and res.bipartition == (frozenset(range(10)), frozenset())
    # switch of all-positive is balanced, bipartition = the switched set
    res = balance_witness(switch(SignedGraph(g, 0), 0b1010010))
    assert res
    pos, neg = res.bipartition
    assert neg == frozenset({1, 4, 6})
    # one negative edge is unbalanced with a genuinely negative cycle witness
    s = SignedGraph(g, 1)
    res = balance_witness(s)
    assert not res and res.bipartition is None
    assert sign_of_circle(s, res.negative_cycle) == -1


def check_balance(s):
    """is_balanced against the cut of the forest preimage, whose witness is
    checked too: on balanced signatures the cut of the negative side is the
    sign mask, on unbalanced ones the circle is negative. Returns the
    flag."""
    res = balance_witness(s)
    assert is_balanced(s) is res.balanced, s
    g = s.graph
    if res.balanced:
        pos, neg = res.bipartition
        assert pos | neg == frozenset(range(g.vertex_count)) and not pos & neg
        assert cut_mask(g, sum(1 << v for v in neg)) == s.mask, s
        assert res.negative_cycle is None
    else:
        assert sign_of_circle(s, res.negative_cycle) == -1, s
    return res.balanced


def test_is_balanced_matches_the_witness_on_every_petersen_signature():
    g = petersen()[0]
    balanced = sum(check_balance(SignedGraph(g, mask))
                   for mask in range(1 << 15))
    assert balanced == 512  # one switching class, the 2^9 cuts


def test_is_balanced_matches_the_witness_on_seeded_graphs_and_twins():
    # each seeded graph with a random signature, a random cut (balanced)
    # and each of those switched by a random vertex set
    rng = random.Random(47)
    balanced = switched = 0
    for g in seeded_graphs(53, [i % 10 for i in range(150)]):
        n = g.vertex_count
        for mask in (rng.getrandbits(len(g.edges)),
                     cut_mask(g, rng.getrandbits(n))):
            s = SignedGraph(g, mask)
            twin = switch(s, rng.getrandbits(n))
            flag = check_balance(s)
            assert check_balance(twin) == flag
            balanced += flag
            switched += flag and twin.mask != 0
    assert balanced >= 150 and switched >= 100


def test_switching_equivalence(pg):
    g, _ = pg
    rng = random.Random(11)
    for _ in range(20):
        s = SignedGraph(g, rng.randrange(1 << 15))
        z = sum(1 << v for v in rng.sample(range(10), rng.randrange(11)))
        t = switch(s, z)
        found = switching_equivalence(s, t)
        assert found is not None and switch(s, found) == t
    # different classes are never switching equivalent
    assert switching_equivalence(SignedGraph(g, 0),
                                 SignedGraph(g, 1)) is None


def test_negative_circle_counts_table(reps):
    for i, s in enumerate(reps):
        counts = negative_circle_counts(s, {5, 6})
        assert counts[5] == NEGATIVE_PENTAGONS[i], CLASS_NAMES[i]
        assert counts[6] == NEGATIVE_HEXAGONS[i], CLASS_NAMES[i]


def test_cut_masks_form_xor_space(pg):
    masks = [c for _, c in cut_space(pg[0])]
    assert len(masks) == 512
    assert len(set(masks)) == 512
    assert masks[0] == 0
    space = set(masks)
    assert all(a ^ b in space for a in masks for b in masks)
    # single-vertex cuts have size 3 and appear in the space
    assert sum(1 for m in masks if m.bit_count() == 3) >= 9


def test_pentagon_hexagon_masks(pg, monkeypatch):
    # both tables come from one walk of the cycles up to length 6
    walks = []
    monkeypatch.setattr(signed, "enumerate_cycles",
                        lambda g, n: walks.append(n) or enumerate_cycles(g, n))
    petersen_circle_masks.cache_clear()
    pentagons, hexagons = petersen_circle_masks()
    assert petersen_circle_masks() == (pentagons, hexagons) and walks == [6]
    assert len(pentagons) == 12
    assert len(hexagons) == 10
    assert all(m.bit_count() == 5 for m in pentagons)
    assert all(m.bit_count() == 6 for m in hexagons)
    # every edge lies on exactly 4 pentagons and 4 hexagons
    for i in range(15):
        assert sum(1 for m in pentagons if m >> i & 1) == 4
        assert sum(1 for m in hexagons if m >> i & 1) == 4
    # the oracle's listing, in its order: by length, then vertex sequence
    listed = list_cycles(pg[0], 6)
    assert pentagons + hexagons == tuple(c.edge_mask for c in listed)


def test_pentagons_and_hexagons_have_closed_forms():
    # on the pairs of {1..5}: ab-cd-ea-bc-de per cyclic order up to
    # reversal, and xp-yq-xr-yp-xq-yr per pair {x, y}
    pentagons = closed_form_pentagon_masks()
    hexagons = closed_form_hexagon_masks()
    assert (len(pentagons), len(hexagons)) == (12, 10)
    assert (pentagons, hexagons) == tuple(map(set, petersen_circle_masks()))


def test_classify_six(reps, rep_masks):
    for i, s in enumerate(reps):
        assert classify_six(s) is SIX_ORDER[i]
        assert classify_six_mask(rep_masks[i]) is SIX_ORDER[i]
    # classification is switching invariant
    rng = random.Random(19)
    for s in reps:
        z = sum(1 << v for v in rng.sample(range(10), 4))
        assert classify_six(switch(s, z)) is classify_six(s)
    small = Graph.from_edges(3, ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError):
        classify_six(SignedGraph(small, 0))


def test_minimal_representative(pg, reps):
    g, _ = pg
    rng = random.Random(23)
    for _ in range(30):
        s = SignedGraph(g, rng.randrange(1 << 15))
        m, z = minimal_representative(s)
        assert switch(s, z) == m
        assert m.mask.bit_count() == petersen_invariants(s.mask)[1]
    for s in reps:
        m, _ = minimal_representative(s)
        assert m.mask.bit_count() == s.mask.bit_count()


def test_negate(reps):
    s = reps[0]
    assert negate(negate(s)) == s
    assert negate(s).mask == 0x7FFF
