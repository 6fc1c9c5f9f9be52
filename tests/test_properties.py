"""Property suite. The program reads the switching invariants once per
switching class, so each is checked against an independent route on every
class: the frustration index against a walk over the 512 cuts, the
frustration number against the span table of the deletions, the circle sign
counts against a direct count, and the colouring counts and chromatic
numbers against the backtrack on several members. On all 2^15 signatures:
balance against a zero frustration index, and the clusterability criterion
against every cycle. Seeded samples check the balanced expansion and group
sanity."""

import random

import pytest

from signedpetersen.clustering import is_clusterable
from signedpetersen.coloring import (_count, chromatic_numbers,
                                     count_colorations)
from signedpetersen.frustration import frustration_number
from signedpetersen.graphs import enumerate_cycles, syndrome
from signedpetersen.signed import (SIX_FINGERPRINT, SignedGraph, is_balanced,
                                   petersen_circle_masks, petersen_invariants,
                                   switch)

from oracles import (balanced_expansion_check, minimal_representative,
                     petersen_l0_by_spans, switching_orbits)

ALL_MASKS = range(1 << 15)


@pytest.fixture(scope="module")
def orbits(pg):
    """The 64 switching classes of Petersen signatures, 512 masks each,
    from a walk over the cuts (no syndromes)."""
    orbits = list(switching_orbits(pg[0]))
    assert len(orbits) == 64 and all(len(o) == 512 for o in orbits)
    return orbits


@pytest.fixture(scope="module")
def frustration_indices():
    return [petersen_invariants(mask)[1] for mask in ALL_MASKS]


def assert_switching_invariant(values, g):
    # Switching one vertex flips the signs on its star; the 10 stars
    # generate all 512 switchings, so invariance under each star is
    # invariance under every switching.
    for star in g.incidence:
        assert [values[mask ^ star] for mask in ALL_MASKS] == values


def test_switching_invariance_of_frustration_index(pg, orbits):
    # every mask of each orbit reads the least weight that the 512-cut walk
    # finds from the orbit's least mask, and the class of that weight and
    # the orbit's pentagon count
    g, _ = pg
    for orbit in orbits:
        rep, _ = minimal_representative(SignedGraph(g, orbit[0]))
        l = rep.mask.bit_count()
        assert l == min(m.bit_count() for m in orbit)
        pentagons = sum((orbit[0] & c).bit_count() & 1
                        for c in petersen_circle_masks()[0])
        six = SIX_FINGERPRINT[(l, pentagons)]
        assert [petersen_invariants(m)[1] for m in orbit] == [l] * 512
        assert {petersen_invariants(m)[0] for m in orbit} == {six}


def test_switching_invariance_of_frustration_number(pg, orbits):
    # the least deletion whose syndrome span holds the class (the span
    # table), against every mask of the orbit and against the generic
    # search on a seeded member
    g, _ = pg
    rng = random.Random(104)
    for orbit in orbits:
        l0 = petersen_l0_by_spans(syndrome(g, orbit[0]))
        assert [petersen_invariants(m)[2] for m in orbit] == [l0] * 512
        assert frustration_number(SignedGraph(g, rng.choice(orbit))) == l0


def test_switching_invariance_of_circle_signs(pg):
    # The six-way class reads only the frustration index and the pentagon
    # count, so it is switching invariant too. The program's counts match
    # the direct ones on every mask.
    rows = [petersen_invariants(mask) for mask in ALL_MASKS]
    for at, circles in zip((3, 4), petersen_circle_masks()):
        counts = [sum((mask & c).bit_count() & 1 for c in circles)
                  for mask in ALL_MASKS]
        assert_switching_invariant(counts, pg[0])
        assert [row[at] for row in rows] == counts


def least_k(s, zero_free):
    return next(k for k in range(1 if zero_free else 0, 3)
                if _count(s, k, zero_free, first=True))


def test_switching_invariance_of_chromatic_counts(pg, orbits, reps):
    # the backtrack on three members of each switching class for the counts
    # at k = 0 and 1 and both chromatic numbers, and on three members of
    # each of the six classes for the (slower) counts at k = 2
    g, _ = pg
    rng = random.Random(105)
    for orbit in orbits:
        for mask in [orbit[0]] + rng.sample(orbit[1:], 2):
            s = SignedGraph(g, mask)
            for k in (0, 1):
                for zf in (False, True):
                    assert count_colorations(s, k, zf) == _count(s, k, zf)
            assert chromatic_numbers(s) == (least_k(s, False),
                                            least_k(s, True))
    for s in reps:
        for x in [0] + rng.sample(range(1, 1 << 10), 2):
            t = switch(s, x)
            for zf in (False, True):
                assert count_colorations(t, 2, zf) == _count(t, 2, zf)


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
    cycles = enumerate_cycles(g, 10)
    assert len(cycles) == 57
    for mask in ALL_MASKS:
        bad = any((c & mask).bit_count() == 1 for c in cycles)
        assert is_clusterable(SignedGraph(g, mask)) is not bad, mask


def test_balance_agrees_with_frustration_zero(pg, frustration_indices):
    g, _ = pg
    for mask in ALL_MASKS:
        assert is_balanced(SignedGraph(g, mask)) is \
            (frustration_indices[mask] == 0)


def test_group_axioms_and_projection_on_random_switchings(reps):
    # SwAut is checked to be a group once per switching class, by closure
    # under generators on the class's chord representative; build switched
    # copies and confirm projection injectivity survives switching
    from signedpetersen.groups import swaut
    rng = random.Random(109)
    for s in reps[2:5]:
        z = sum(1 << v for v in rng.sample(range(10), rng.randrange(11)))
        w = swaut(switch(s, z))
        perms = [e.perm for e in w.elements]
        assert len(perms) == len(set(perms))
