import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import signedpetersen
from signedpetersen.coloring import (BudgetError, _count, chi3_difference,
                                     chromatic_numbers, count_colorations)
from signedpetersen.expected import (CHI, CHI3, CHI3_DIFFERENCE, CHI_STAR,
                                     CLASS_NAMES)
from signedpetersen.graphs import Graph, SearchSizeError
from signedpetersen.signed import SignedGraph, negate, switch

from oracles import (balance_witness, balanced_expansion_check, edge_sign,
                     minimum_coloring, serialize_signed_graph,
                     switching_color_invariance_check)


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
    z = 0b100001100  # vertices 2, 3, 8
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
        z = sum(1 << v for v in rng.sample(range(10), 5))
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
        bip = max(minimum_coloring(graph)) <= 1
        for _ in range(200):
            s = SignedGraph(graph, rng.randrange(1 << len(graph.edges)))
            bal = bool(balance_witness(s))
            anti = bool(balance_witness(negate(s)))
            assert not (bal and anti) or bip
            assert not (bal and bip) or anti
            assert not (anti and bip) or bal


def brute_colorations(s, k, zero_free):
    """The proper colorations, found by trying every assignment of colors."""
    colors = [c for c in range(-k, k + 1) if c or not zero_free]
    edges = [(u, v, edge_sign(s, u, v)) for u, v in s.graph.edges]
    return (a for a in itertools.product(colors, repeat=s.graph.vertex_count)
            if all(a[v] != sig * a[u] for u, v, sig in edges))


def brute_count(s, k, zero_free):
    return sum(1 for _ in brute_colorations(s, k, zero_free))


def oracle_graphs():
    """The 0-vertex graph, edgeless graphs, positive K5 and K6, and seeded
    random signed graphs on 1-6 vertices."""
    out = [SignedGraph(Graph(n, ()), 0) for n in range(5)]
    for n in (5, 6):
        out.append(SignedGraph(Graph.from_edges(
            n, itertools.combinations(range(n), 2)), 0))
    rng = random.Random(59)
    for n in (1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        out.append(SignedGraph(g, rng.randrange(1 << len(g.edges))))
    return out


def test_colorations_match_brute_force():
    beyond = 0
    for s in oracle_graphs():
        counts = {(k, zf): brute_count(s, k, zf)
                  for k in range(3) for zf in (False, True)}
        for (k, zf), want in counts.items():
            assert count_colorations(s, k, zf) == want, (s, k, zf)
        chi = next((k for k in (0, 1, 2) if counts[k, False]), None)
        chi_star = next((k for k in (1, 2) if counts[k, True]), None)
        if chi is None or chi_star is None:
            beyond += 1
            with pytest.raises(BudgetError):
                chromatic_numbers(s)
        else:
            assert chromatic_numbers(s) == (chi, chi_star), s
    assert chromatic_numbers(SignedGraph(Graph(0, ()), 0)) == (0, 1)
    assert beyond >= 2


def test_chromatic_number_is_zero_exactly_without_edges():
    # with the colour 0 alone every edge is improper: an edgeless graph of
    # 0-6 vertices has chi 0, a one-edge graph of either sign, with an
    # isolated vertex beside it or not, has none at k = 0 and chi 1
    for n in range(7):
        s = SignedGraph(Graph(n, ()), 0)
        assert brute_count(s, 0, False) == count_colorations(s, 0) == 1
        assert chromatic_numbers(s) == (0, 1), n
    for n, mask in itertools.product((2, 3), (0, 1)):
        s = SignedGraph(Graph(n, ((0, 1),)), mask)
        assert brute_count(s, 0, False) == count_colorations(s, 0) == 0
        assert brute_count(s, 1, False) and brute_count(s, 1, True)
        assert chromatic_numbers(s) == (1, 1), (n, mask)


def test_petersen_colorations_match_brute_force(reps):
    # at k = 1 every one of the 3^10 assignments (2^10 without zero), on the
    # six representatives and their negations; chi and chi* are the least k
    # at which some assignment is proper
    def least(s, zero_free):
        return next(k for k in range(1 if zero_free else 0, 3)
                    if next(brute_colorations(s, k, zero_free), None) is not None)

    for s in reps + [negate(s) for s in reps]:
        for zf in (False, True):
            assert count_colorations(s, 1, zf) == brute_count(s, 1, zf), (s.mask, zf)
        assert chromatic_numbers(s) == (least(s, False), least(s, True)), s.mask


def expansion_oracle_graphs():
    """One mask of each Petersen switching class; every signature of K4, C5
    and K3,3; and seeded graphs of 0-10 vertices, edgeless and
    disconnected ones among them."""
    from signedpetersen.census import _switching_orbits
    from signedpetersen.graphs import petersen
    rng = random.Random(67)
    g = petersen()[0]
    out = [SignedGraph(g, rng.choice(orbit)) for orbit in _switching_orbits()]
    for n, edges in ((4, itertools.combinations(range(4), 2)),
                     (5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
                     (6, [(u, v) for u in range(3) for v in range(3, 6)])):
        h = Graph.from_edges(n, edges)
        out += [SignedGraph(h, m) for m in range(1 << len(h.edges))]
    for i in range(66):
        n = i % 11
        density = rng.choice((0.0, 0.15, 0.3, 0.6))
        h = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < density])
        out.append(SignedGraph(h, rng.getrandbits(len(h.edges))))
    return out


def test_expansion_matches_the_backtrack():
    # k = 1 counts and both chromatic numbers against backtracking alone
    disconnected = 0
    for s in expansion_oracle_graphs():
        for zf in (False, True):
            assert count_colorations(s, 1, zf) == _count(s, 1, zf), (s, zf)
        want = []
        for zf in (False, True):
            want.append(next((k for k in range(1 if zf else 0, 3)
                              if _count(s, k, zf, first=True)), None))
        if None in want:
            with pytest.raises(BudgetError):
                chromatic_numbers(s)
        else:
            assert chromatic_numbers(s) == tuple(want), s
        disconnected += not s.graph.is_connected()
    assert disconnected >= 20


def test_coloring_size_checks_come_first():
    # past the vertex cap both callers refuse before searching, even where
    # the search would be short (at k = 0 there is one coloration)
    s = SignedGraph(Graph(17, ()), 0)
    with pytest.raises(SearchSizeError):
        count_colorations(s, 0)
    with pytest.raises(SearchSizeError):
        chromatic_numbers(s)
    with pytest.raises(BudgetError):
        count_colorations(s, -1)


def test_color_file_query_matches_brute_force_counts(capsys, tmp_path):
    # a cold `color --file` at each k, both zero-free settings, against the
    # brute-force counts
    from signedpetersen import cli, coloring
    # not bipartite, and not switching equivalent to its negation
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                             (0, 2), (1, 4), (3, 5)])
    s = SignedGraph(g, 0b001100101)
    path = tmp_path / "graph.txt"
    path.write_text(serialize_signed_graph(s))
    counts = {(k, zf): brute_count(s, k, zf)
              for k in range(3) for zf in (False, True)}
    chi = next(k for k in (0, 1, 2) if counts[k, False])
    chi_star = next(k for k in (1, 2) if counts[k, True])
    coloring._class_count.cache_clear()
    coloring._independent_sets.cache_clear()
    for (k, zf), count in counts.items():
        argv = ["color", "--file", str(path), "--k", str(k)]
        kind = "zero-free colorations" if zf else "colorations"
        assert cli.main(argv + ["--zero-free"] * zf) == 0
        assert capsys.readouterr().out == (
            f"{kind} at k={k}: {count}\nchromatic number {chi}\n"
            f"zero-free chromatic number {chi_star}\n")


def test_color_at_two_refused_past_eleven_vertices(capsys, tmp_path,
                                                  monkeypatch):
    # a count at k = 2 walks every colouring (5 * 4^11 on a 12-vertex
    # path), so on 12 vertices `color --k 2` exits 2 before any count, with
    # no output; at the bound and on the Petersen graph it still counts
    from signedpetersen import cli, coloring
    path = tmp_path / "path12.txt"
    path.write_text(serialize_signed_graph(SignedGraph(
        Graph.from_edges(12, [(i, i + 1) for i in range(11)]), 0)))

    def refuse(*args):
        raise AssertionError("counted before the size check")

    coloring._class_count.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(coloring, "_count", refuse)
        for extra in ([], ["--zero-free"]):
            argv = ["color", "--file", str(path), "--k", "2", *extra]
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: graph too large for coloring search\n"
    assert coloring.MAX_K2_VERTICES == 11
    # zero-free closed forms at four colours on the 11-cycle
    assert count_colorations(signed_cycle(11, 0), 2, True) == 3 ** 11 - 3
    assert count_colorations(signed_cycle(11, 1), 2, True) == 3 ** 11 + 1
    assert cli.main(["color", "--mask", "0x0000", "--k", "2",
                     "--zero-free"]) == 0
    assert capsys.readouterr().out == (
        "zero-free colorations at k=2: 12960\nchromatic number 1\n"
        "zero-free chromatic number 2\n")


def color_k1_run(tmp_path, n, edges):
    """`color --k 1 --file` on the all-positive graph, in a subprocess with
    a timeout: (exit code, stdout, stderr)."""
    path = tmp_path / "graph.txt"
    path.write_text(serialize_signed_graph(
        SignedGraph(Graph.from_edges(n, edges), 0)))
    src = str(Path(signedpetersen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "signedpetersen.cli", "color", "--k", "1",
         "--file", str(path)], capture_output=True, text=True, env=env,
        timeout=10)
    return done.returncode, done.stdout, done.stderr


BUDGET_FAILURE = (2, "", "error: chromatic number exceeds the k <= 2 budget\n")


def test_color_fails_fast_on_a_clique_beside_a_long_path(tmp_path):
    # all positive: a 10-vertex path beside a K6, which has no colouring at
    # k = 2, and the same with the path joined to the K6 by the edge
    # (9, 10); in index order the first-stop search walked every colouring
    # of the path before each K6 failure, and by degree the clique fails
    # first. The joined graph is one component, so only the degree order
    # keeps it short.
    k6 = list(itertools.combinations(range(10, 16), 2))
    path = [(i, i + 1) for i in range(9)]
    for edges in (path + k6, path + [(9, 10)] + k6):
        assert color_k1_run(tmp_path, 16, edges) == BUDGET_FAILURE


def test_color_counts_each_component_on_its_own(tmp_path):
    # all positive: K5,5 on 0-9 beside a K6 on 10-15, all of degree 5, so
    # the degree order keeps index order; a search over the whole graph
    # walked every colouring of the K5,5 before each K6 failure at k = 2
    k55 = [(a, b) for a in range(5) for b in range(5, 10)]
    k6 = list(itertools.combinations(range(10, 16), 2))
    assert color_k1_run(tmp_path, 16, k55 + k6) == BUDGET_FAILURE
    s = SignedGraph(Graph.from_edges(16, k55 + k6), 0)
    assert _count(s, 2, False, first=True) == 0
    # the count of a disjoint union is the product of its components'
    # brute-force counts: a signed pentagon, a signed K4 and an isolated
    # vertex
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    k4 = list(itertools.combinations(range(4), 2))
    parts = [SignedGraph(Graph.from_edges(5, c5), 0b00100),
             SignedGraph(Graph.from_edges(4, k4), 0b100110),
             SignedGraph(Graph(1, ()), 0)]
    union = SignedGraph(Graph.from_edges(10, c5 + [(u + 5, v + 5)
                                                   for u, v in k4]),
                        0b00100 | 0b100110 << 5)
    for k in range(3):
        for zf in (False, True):
            want = 1
            for part in parts:
                want *= brute_count(part, k, zf)
            assert _count(union, k, zf) == want, (k, zf)
