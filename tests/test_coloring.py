import random

import pytest

from signedpetersen.coloring import (BudgetError, balanced_expansion_check,
                                     chi3_difference, chromatic_numbers,
                                     count_colorations,
                                     switching_color_invariance_check)
from signedpetersen.expected import (CHI, CHI3, CHI3_DIFFERENCE, CHI_STAR,
                                     CLASS_NAMES)
from signedpetersen.graphs import Graph, chromatic_number
from signedpetersen.signed import (SignedGraph, SwitchingFunction, is_balanced,
                                   negate, switch)


def signed_cycle(length, negatives):
    edges = sorted([(i, i + 1) for i in range(length - 1)] + [(0, length - 1)])
    g = Graph.from_edges(length, edges)
    mask = 0
    for i in range(negatives):
        mask |= 1 << i
    return SignedGraph(g, mask)


def test_cycle_closed_forms():
    # transfer-matrix closed forms for signed cycles: positive cycles count
    # (y-1)^l + (-1)^l (y-1); negative cycles (y-1)^l at odd y (color 0
    # present) and (y-1)^l - (-1)^l at even y (zero-free)
    for length in (3, 4, 5, 6):
        for k in (1, 2):
            pos = signed_cycle(length, 0)
            neg = signed_cycle(length, 1)
            y = 2 * k + 1
            assert count_colorations(pos, k) == \
                (y - 1) ** length + (-1) ** length * (y - 1)
            assert count_colorations(neg, k) == (y - 1) ** length
            y = 2 * k
            assert count_colorations(pos, k, zero_free=True) == \
                (y - 1) ** length + (-1) ** length * (y - 1)
            assert count_colorations(neg, k, zero_free=True) == \
                (y - 1) ** length - (-1) ** length


def test_chi3_row(reps):
    for i, s in enumerate(reps):
        assert count_colorations(s, 1) == CHI3[i], CLASS_NAMES[i]


def test_chromatic_numbers_table(reps):
    for i, s in enumerate(reps):
        assert chromatic_numbers(s) == (CHI[i], CHI_STAR[i]), CLASS_NAMES[i]


def test_all_positive_matches_unsigned_counts(pg):
    g, _ = pg
    s = SignedGraph(g, 0)
    # 2k+1 colors of an all-positive signature behave like ordinary colors
    assert count_colorations(s, 1) == 120
    # ordinary chromatic polynomial of the Petersen graph at 4
    assert count_colorations(s, 2, zero_free=True) == 12960


def test_zero_free_at_two_detects_antibalance(pg, reps):
    g, _ = pg
    # antibalanced connected signature: exactly 2 zero-free 1-colorations
    assert count_colorations(negate(reps[0]), 1, zero_free=True) == 2
    # balanced but not antibalanced: 0 (odd cycles cannot alternate)
    assert count_colorations(reps[0], 1, zero_free=True) == 0
    z = SwitchingFunction.from_set(10, {2, 3, 8})
    assert count_colorations(switch(negate(reps[0]), z), 1, zero_free=True) == 2


def test_chi3_difference_formula(reps):
    for i, s in enumerate(reps):
        d = chi3_difference(s)
        assert d == CHI3_DIFFERENCE[i], CLASS_NAMES[i]
        assert d == count_colorations(s, 1) - 120


def test_balanced_expansion(reps):
    for s in (reps[0], reps[1], negate(reps[0])):
        equal, left, right = balanced_expansion_check(s)
        assert equal and left == right
    equal, left, right = balanced_expansion_check(reps[1])
    assert left == 112
    equal, left, right = balanced_expansion_check(negate(reps[0]))
    assert left == 202


def test_switching_invariance(reps):
    rng = random.Random(31)
    for s in reps:
        z = SwitchingFunction.from_set(10, rng.sample(range(10), 5))
        assert switching_color_invariance_check(s, z)


def test_budget(reps):
    with pytest.raises(BudgetError):
        count_colorations(reps[0], 3)


def test_two_of_three_law():
    # balance, antibalance, bipartiteness: any two imply the third
    rng = random.Random(37)
    g = Graph.from_edges(6, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4),
                             (3, 4), (3, 5), (4, 5)))
    gb = Graph.from_edges(6, ((0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)))
    for graph in (g, gb):
        bip = chromatic_number(graph) <= 2
        for _ in range(200):
            s = SignedGraph(graph, rng.randrange(1 << len(graph.edges)))
            bal = bool(is_balanced(s))
            anti = bool(is_balanced(negate(s)))
            assert not (bal and anti) or bip
            assert not (bal and bip) or anti
            assert not (anti and bip) or bal
