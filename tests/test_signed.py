import random

import pytest

from signedpetersen.expected import (CLASS_NAMES, NEGATIVE_HEXAGONS,
                                     NEGATIVE_PENTAGONS)
from signedpetersen.graphs import Graph, enumerate_cycles
from signedpetersen.signed import (SIX_ORDER, BalanceResult, SignedGraph,
                                   SwitchingFunction, classify_six,
                                   classify_six_mask, is_balanced,
                                   minimal_representative, negate,
                                   negative_circle_counts,
                                   petersen_cut_masks,
                                   petersen_frustration_of_mask,
                                   petersen_hexagon_masks,
                                   petersen_pentagon_masks, sign_of_circle,
                                   switch, switching_equivalence)


def test_signed_graph_construction(pg):
    g, _ = pg
    s = SignedGraph(g, 0b101)
    assert s.mask == 0b101
    assert [s.sign(*e) for e in g.edges[:3]] == [-1, 1, -1]
    assert s.negative_edges == {g.edges[0], g.edges[2]}
    assert len(s.positive_edges) == 13
    with pytest.raises(ValueError):
        SignedGraph(g, -1)
    with pytest.raises(ValueError):
        SignedGraph(g, 1 << 15)


def test_switching_function():
    z = SwitchingFunction.from_set(5, {1, 3})
    assert z.values == (1, -1, 1, -1, 1)
    assert z.negative_set == frozenset({1, 3})
    assert SwitchingFunction.identity(4).values == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        SwitchingFunction((1, 0, -1))


def test_switch_preserves_circle_signs(pg):
    g, _ = pg
    rng = random.Random(7)
    cycles = enumerate_cycles(g, 6)
    for _ in range(25):
        s = SignedGraph(g, rng.randrange(1 << 15))
        z = SwitchingFunction.from_set(10, rng.sample(range(10), rng.randrange(11)))
        t = switch(s, z)
        for c in cycles:
            assert sign_of_circle(s, c) == sign_of_circle(t, c)
    # switching is an involution
    s = SignedGraph(g, 0x1234)
    z = SwitchingFunction.from_set(10, {0, 2, 5})
    assert switch(switch(s, z), z) == s


def test_is_balanced_witnesses(pg):
    g, _ = pg
    res = is_balanced(SignedGraph(g, 0))
    assert res and res.bipartition == (frozenset(range(10)), frozenset())
    # switch of all-positive is balanced, bipartition = the switched set
    z = SwitchingFunction.from_set(10, {1, 4, 6})
    res = is_balanced(switch(SignedGraph(g, 0), z))
    assert res
    pos, neg = res.bipartition
    assert neg == frozenset({1, 4, 6})
    # one negative edge is unbalanced with a genuinely negative cycle witness
    s = SignedGraph(g, 1)
    res = is_balanced(s)
    assert not res and res.bipartition is None
    assert sign_of_circle(s, res.negative_cycle) == -1


def test_switching_equivalence(pg):
    g, _ = pg
    rng = random.Random(11)
    for _ in range(20):
        s = SignedGraph(g, rng.randrange(1 << 15))
        z = SwitchingFunction.from_set(10, rng.sample(range(10), rng.randrange(11)))
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


def test_cut_masks_form_xor_space():
    masks = petersen_cut_masks()
    assert len(masks) == 512
    assert len(set(masks)) == 512
    assert masks[0] == 0
    space = set(masks)
    assert all(a ^ b in space for a in masks for b in masks)
    # single-vertex cuts have size 3 and appear in the space
    assert sum(1 for m in masks if m.bit_count() == 3) >= 9


def test_pentagon_hexagon_masks():
    assert len(petersen_pentagon_masks()) == 12
    assert len(petersen_hexagon_masks()) == 10
    assert all(m.bit_count() == 5 for m in petersen_pentagon_masks())
    assert all(m.bit_count() == 6 for m in petersen_hexagon_masks())
    # every edge lies on exactly 4 pentagons and 4 hexagons
    for i in range(15):
        assert sum(1 for m in petersen_pentagon_masks() if m >> i & 1) == 4
        assert sum(1 for m in petersen_hexagon_masks() if m >> i & 1) == 4


def test_classify_six(reps, rep_masks):
    for i, s in enumerate(reps):
        assert classify_six(s) is SIX_ORDER[i]
        assert classify_six_mask(rep_masks[i]) is SIX_ORDER[i]
    # classification is switching invariant
    rng = random.Random(19)
    for s in reps:
        z = SwitchingFunction.from_set(10, rng.sample(range(10), 4))
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
        assert m.mask.bit_count() == petersen_frustration_of_mask(s.mask)
    for s in reps:
        m, _ = minimal_representative(s)
        assert m.mask.bit_count() == s.mask.bit_count()


def test_negate(reps):
    s = reps[0]
    assert negate(negate(s)) == s
    assert negate(s).mask == 0x7FFF
