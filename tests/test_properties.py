"""Randomized property suite (seeded, deterministic): switching invariance
of the numeric invariants, clusterability criteria, and group sanity on a
large sample of signatures."""

import random

from signedpetersen.census import petersen_l0_of_mask
from signedpetersen.clustering import is_clusterable
from signedpetersen.coloring import balanced_expansion_check, count_colorations
from signedpetersen.graphs import enumerate_cycles
from signedpetersen.signed import (SignedGraph, SwitchingFunction,
                                   classify_six_mask, is_balanced,
                                   petersen_cut_masks,
                                   petersen_frustration_of_mask,
                                   petersen_hexagon_masks,
                                   petersen_pentagon_masks, switch)

SAMPLES = 1200


def sample_pairs(seed):
    rng = random.Random(seed)
    cuts = petersen_cut_masks()
    for _ in range(SAMPLES):
        yield rng.randrange(1 << 15), rng.choice(cuts)


def test_switching_invariance_of_frustration_index():
    for mask, cut in sample_pairs(101):
        assert petersen_frustration_of_mask(mask) == \
            petersen_frustration_of_mask(mask ^ cut)


def test_switching_invariance_of_frustration_number():
    for mask, cut in sample_pairs(102):
        assert petersen_l0_of_mask(mask) == petersen_l0_of_mask(mask ^ cut)


def test_switching_invariance_of_circle_signs():
    pentagons = petersen_pentagon_masks()
    hexagons = petersen_hexagon_masks()
    for mask, cut in sample_pairs(103):
        for circles in (pentagons, hexagons):
            before = sum(1 for c in circles if (mask & c).bit_count() & 1)
            after = sum(1 for c in circles if ((mask ^ cut) & c).bit_count() & 1)
            assert before == after
    # consequence: classification is switching invariant
    for mask, cut in sample_pairs(104):
        assert classify_six_mask(mask) is classify_six_mask(mask ^ cut)


def test_switching_invariance_of_chromatic_counts(pg):
    g, _ = pg
    rng = random.Random(105)
    for _ in range(25):
        mask = rng.randrange(1 << 15)
        s = SignedGraph(g, mask)
        z = SwitchingFunction.from_set(10, rng.sample(range(10), rng.randrange(11)))
        t = switch(s, z)
        assert count_colorations(s, 1) == count_colorations(t, 1)
        assert count_colorations(s, 1, zero_free=True) == \
            count_colorations(t, 1, zero_free=True)


def test_balanced_expansion_random(pg):
    g, _ = pg
    rng = random.Random(106)
    for _ in range(12):
        s = SignedGraph(g, rng.randrange(1 << 15))
        equal, left, right = balanced_expansion_check(s)
        assert equal and left == right


def test_clusterability_criterion_random(pg):
    # the loop-free-contraction test agrees with the one-negative-edge
    # circle criterion on a large random sample
    g, _ = pg
    cycles = enumerate_cycles(g, 10)
    rng = random.Random(107)
    for _ in range(SAMPLES):
        s = SignedGraph(g, rng.randrange(1 << 15))
        bad = any((c.edge_mask & s.mask).bit_count() == 1 for c in cycles)
        assert is_clusterable(s)[0] == (not bad)


def test_balance_agrees_with_frustration_zero(pg):
    g, _ = pg
    rng = random.Random(108)
    for _ in range(SAMPLES):
        mask = rng.randrange(1 << 15)
        s = SignedGraph(g, mask)
        assert bool(is_balanced(s)) == (petersen_frustration_of_mask(mask) == 0)


def test_group_axioms_and_projection_on_random_switchings(reps):
    # FiniteGroup construction machine-checks closure, identity, inverses,
    # and associativity; build switched copies and confirm projection
    # injectivity survives switching
    from signedpetersen.groups import swaut
    rng = random.Random(109)
    for s in reps[2:5]:
        z = SwitchingFunction.from_set(10, rng.sample(range(10), rng.randrange(11)))
        w = swaut(switch(s, z))
        perms = [e.perm for e in w.elements]
        assert len(perms) == len(set(perms))
