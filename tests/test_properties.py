"""Property suite. On all 2^15 Petersen signatures: switching invariance of
the frustration index, the frustration number and the pentagon and hexagon
sign counts, balance against a zero frustration index, and the
clusterability criterion against every cycle. Seeded samples check the
colouring counts, the balanced expansion and group sanity."""

import random

import pytest

from signedpetersen.census import petersen_l0_of_mask
from signedpetersen.clustering import is_clusterable
from signedpetersen.coloring import count_colorations
from signedpetersen.graphs import enumerate_cycles
from signedpetersen.signed import (SignedGraph, is_balanced,
                                   petersen_frustration_of_mask,
                                   petersen_hexagon_masks,
                                   petersen_pentagon_masks, switch)

from oracles import balanced_expansion_check

ALL_MASKS = range(1 << 15)


@pytest.fixture(scope="module")
def frustration_indices():
    return [petersen_frustration_of_mask(mask) for mask in ALL_MASKS]


def assert_switching_invariant(values, g):
    # Switching one vertex flips the signs on its star; the 10 stars
    # generate all 512 switchings, so invariance under each star is
    # invariance under every switching.
    for star in g.incidence:
        assert [values[mask ^ star] for mask in ALL_MASKS] == values


def test_switching_invariance_of_frustration_index(pg, frustration_indices):
    assert_switching_invariant(frustration_indices, pg[0])


def test_switching_invariance_of_frustration_number(pg):
    assert_switching_invariant([petersen_l0_of_mask(m) for m in ALL_MASKS],
                               pg[0])


def test_switching_invariance_of_circle_signs(pg):
    # The six-way class reads only the frustration index and the pentagon
    # count, so it is switching invariant too.
    for circles in (petersen_pentagon_masks(), petersen_hexagon_masks()):
        assert_switching_invariant(
            [sum((mask & c).bit_count() & 1 for c in circles)
             for mask in ALL_MASKS], pg[0])


def test_switching_invariance_of_chromatic_counts(pg):
    g, _ = pg
    rng = random.Random(105)
    for _ in range(25):
        mask = rng.randrange(1 << 15)
        s = SignedGraph(g, mask)
        z = sum(1 << v for v in rng.sample(range(10), rng.randrange(11)))
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
    # Davis: a signature is clusterable exactly when no circle carries
    # exactly one negative edge; checked on every signature against all 57
    # cycles of the Petersen graph.
    g, _ = pg
    cycles = [c.edge_mask for c in enumerate_cycles(g, 10)]
    assert len(cycles) == 57
    for mask in ALL_MASKS:
        bad = any((c & mask).bit_count() == 1 for c in cycles)
        assert is_clusterable(SignedGraph(g, mask))[0] == (not bad), mask


def test_balance_agrees_with_frustration_zero(pg, frustration_indices):
    g, _ = pg
    for mask in ALL_MASKS:
        assert bool(is_balanced(SignedGraph(g, mask))) == \
            (frustration_indices[mask] == 0)


def test_group_axioms_and_projection_on_random_switchings(reps):
    # FiniteGroup construction machine-checks closure, identity, inverses,
    # and associativity; build switched copies and confirm projection
    # injectivity survives switching
    from signedpetersen.groups import swaut
    rng = random.Random(109)
    for s in reps[2:5]:
        z = sum(1 << v for v in rng.sample(range(10), rng.randrange(11)))
        w = swaut(switch(s, z))
        perms = [e.perm for e in w.elements]
        assert len(perms) == len(set(perms))
