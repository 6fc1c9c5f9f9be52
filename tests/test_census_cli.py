import csv
import io as stdio
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signedpetersen
from signedpetersen import cli, clustering, frustration, graphs, signed
from signedpetersen import expected
from signedpetersen.census import (EXPECTED_ROWS, TABLE_IDS, build_table,
                                   standard_mask, verify_all)
from signedpetersen.frustration import frustration_index, frustration_number
from signedpetersen.io import (InputError, format_mask, load_signed_graph,
                               parse_mask, parse_signed_graph, read_header)
from signedpetersen.signed import SIX_ORDER, SignedGraph, classify_six_mask
from signedpetersen.graphs import (Graph, automorphism_images, cut_mask,
                                   petersen, syndrome)

from oracles import (circle_hitting_sets, inclusterability_by_circles,
                     is_petersen, serialize_signed_graph)


# --------------------------------------------------------------------------
# census core
# --------------------------------------------------------------------------

def test_run_census_totals():
    census = build_table("census")
    assert census.columns == expected.CLASS_NAMES
    rows = dict(census.rows)
    assert sum(rows["signatures"]) == expected.TOTAL_SIGNATURES
    assert sum(rows["switching classes"]) == expected.TOTAL_SWITCHING_CLASSES
    assert rows["signatures"] == expected.SIGNATURE_COUNTS
    assert rows["switching classes"] == expected.SWITCHING_CLASSES
    assert rows["minimal signatures"] == expected.COPIES
    for i, t in enumerate(SIX_ORDER):
        # the orbit walk picks the least minimal mask, which classifies the
        # same and carries the class's frustration index
        mask = int(rows["representative mask"][i], 16)
        assert classify_six_mask(mask) is t
        assert mask.bit_count() == expected.FRUSTRATION_INDEX[i]


def test_standard_masks_classify_correctly(rep_masks):
    for t, mask in zip(SIX_ORDER, rep_masks):
        assert classify_six_mask(mask) is t


def test_deletion_tables_match_restricted_cuts():
    # oracle: every one of the 512 Petersen cuts restricted to the kept
    # edges. A mask of each of the 64 syndromes (its chords, switched by a
    # seeded cut) is balanced on P - W exactly when its kept part is one.
    from signedpetersen.graphs import bits, cut_space, syndrome
    from oracles import deletion_tables
    g, _ = petersen()
    rng = random.Random(13)
    cuts = [c for _, c in cut_space(g)]
    tables = deletion_tables()
    sets = [w for k in range(4) for w in itertools.combinations(range(10), k)]
    assert len(tables) == len(sets) == 176
    assert len(g.chords) == 6
    for (k, span), w in zip(tables, sets):
        keep = sum(1 << i for i, e in enumerate(g.edges) if not set(e) & set(w))
        restricted = {c & keep for c in cuts}
        assert k == len(w) and 0 < span < 1 << 64
        for z in range(64):
            mask = sum(1 << g.chords[t] for t in bits(z)) ^ rng.choice(cuts)
            assert syndrome(g, mask) == z
            assert bool(span >> z & 1) == (mask & keep in restricted), (w, z)


def test_verify_all_empty():
    assert verify_all() == []


def test_verify_all_checks_census_totals_and_representatives(monkeypatch):
    from signedpetersen import census
    real = census.build_table

    def tampered(table_id):
        art = real(table_id)
        if table_id != "census":
            return art
        rows = dict(art.rows)
        sig = rows["signatures"]
        rows["signatures"] = (sig[0] + 1,) + sig[1:]
        classes = rows["switching classes"]
        rows["switching classes"] = classes[:-1] + (classes[-1] - 2,)
        reps = list(rows["representative mask"])
        reps[1] = "0x0003"          # weight 2, so not a minimal P1 signature
        reps[3] = reps[2]           # the P2,2 representative under P2,3
        rows["representative mask"] = tuple(reps)
        return census.TableArtifact("census", art.columns, tuple(rows.items()))

    monkeypatch.setattr(census, "build_table", tampered)
    diffs = verify_all()
    assert "census [signatures] total: got 32769, expected 32768" in diffs
    assert "census [switching classes] total: got 62, expected 64" in diffs
    reps = [d for d in diffs if d.startswith("census [representative mask]")]
    assert reps == [
        "census [representative mask] P1 0x0003: got ('P1', 2), "
        "expected ('P1', 1)",
        "census [representative mask] P2,3 0x000a: got ('P2,2', 2), "
        "expected ('P2,3', 2)"]


def test_table_ids_are_the_expected_rows():
    assert tuple(EXPECTED_ROWS) == TABLE_IDS
    with pytest.raises(ValueError, match="unknown table id 'T99'"):
        build_table("T99")


def test_build_table_refuses_columns_that_do_not_fit_the_rows(monkeypatch):
    # T2 has one row: a column of two values, or a missing column, is an
    # error, not a table cut short
    from signedpetersen import census
    columns, compute, rows = census._TABLES["T2"]
    for wrong in ([(0, 1)] * 6, [(0,)] * 5 + [()]):
        monkeypatch.setitem(census._TABLES, "T2",
                            (columns, lambda: wrong, rows))
        with pytest.raises(ValueError):
            build_table("T2")


def test_census_walk_runs_once_through_the_module_attribute(capsys,
                                                            monkeypatch):
    # the census table calls run_census by name, so a wrapper bound over
    # the module attribute (as a tracer binds one) sees every walk
    from signedpetersen import census
    calls = []
    real = census.run_census

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(census, "run_census", counted)
    assert run_cli(capsys, "census")[0] == 0 and len(calls) == 1
    assert run_cli(capsys, "table", "census")[0] == 0 and len(calls) == 2
    assert verify_all() == [] and len(calls) == 3


def test_verify_all_does_group_work_once(monkeypatch):
    """verify_all scans the Petersen automorphisms once, reads their 120
    chord images once, and builds each representative's lifts once, from
    one scan of its switching class, which runs the class's one closure
    check: the twelve T4 groups and the T5 orbit counts read them. The
    groups are checked by closure under generators: ``groups`` defines no
    Cayley table, and no group built holds one. T3
    tests balance on vertex masks, and T9 and the difference formula on
    syndrome spans, so no per-graph balance test runs."""
    from signedpetersen import census, coloring, graphs, groups, signed
    from functools import lru_cache
    scans, edge_maps, lifted, built, tables, balance, current = (
        [], [], [], [], [], [], [])
    search, init, build = (groups.automorphism_images,
                           groups.FiniteGroup.__init__, census.build_table)
    edge_maps_of = groups._automorphism_edge_maps.__wrapped__
    lifts, closure = groups._lifts.__wrapped__, groups._check_closure
    closures = []
    is_balanced = signed.is_balanced

    def counted_search(g):
        scans.append(g)
        return search(g)

    def counted_edge_maps(g):
        maps = edge_maps_of(g)
        edge_maps.append(maps)
        return maps

    def counted_closure(by_perm):
        closures.append((current[-1], len(by_perm)))
        return closure(by_perm)

    def counted_lifts(s):
        lifted.append(s.mask)
        return lifts(s)

    def counted_init(self, elements, histogram=None):
        init(self, elements, histogram)
        built.append((current[-1], self.order))
        tables.extend(name for name in vars(self) if "table" in name)

    def counted_is_balanced(s):
        balance.append(s)
        return is_balanced(s)

    def tracked_build(table_id):
        current.append(table_id)
        return build(table_id)

    monkeypatch.setattr(groups, "automorphism_images", counted_search)
    monkeypatch.setattr(groups.FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(census, "build_table", tracked_build)
    monkeypatch.setattr(groups, "_automorphism_edge_maps",
                        lru_cache(maxsize=8)(counted_edge_maps))
    monkeypatch.setattr(groups, "_check_closure", counted_closure)
    monkeypatch.setattr(groups, "_lifts", lru_cache(maxsize=8)(counted_lifts))
    monkeypatch.setattr(signed, "is_balanced", counted_is_balanced)
    # a fresh graph, automorphisms unscanned, syndromes, edge maps,
    # switching classes and independent-set table unbuilt
    caches = (graphs.petersen, groups._automorphism_edge_maps,
              groups._switching_class, coloring._independent_sets)
    for cache in caches:
        cache.cache_clear()
    try:
        assert verify_all() == []
    finally:
        for cache in caches:
            cache.cache_clear()
    assert len(scans) == 1 and is_petersen(scans[0])
    assert len(edge_maps) == 1 and len(edge_maps[0]) == 120
    assert {len(pulled) for _, pulled in edge_maps[0]} == {6}
    assert sorted(lifted) == sorted(standard_mask(t) for t in SIX_ORDER)
    # one closure check per class and one per Aut, all within T4; the
    # six SwAut take their class's histogram unchecked
    assert {table for table, _ in closures} == {"T4_orders"}
    assert sorted(order for _, order in closures) == \
        sorted(expected.AUT_ORDERS + expected.SWAUT_ORDERS)
    assert {table for table, _ in built} == {"T4_orders"}
    orders = [order for _, order in built]
    assert sorted(orders) == sorted(expected.AUT_ORDERS + expected.SWAUT_ORDERS)
    assert tables == [] and balance == []
    assert not [name for name in [*vars(groups), *vars(groups.FiniteGroup)]
                if "cayley" in name.lower()]


def test_warm_group_and_color_read_the_syndrome_tables(capsys, monkeypatch,
                                                       rep_masks):
    """The first group query of a switching class scans the automorphisms
    once for the class (one forest preimage per lift) and runs the one
    closure check of its SwAut there, before the check of its Aut; every
    query then reads one forest preimage, the switching that carries the
    class's chord representative to the mask, and checks only its own
    Aut. color --k 1 counts without the backtrack at k = 1."""
    from signedpetersen import coloring, groups
    preimages, closures, counted = [], [], []
    forest_preimage, count = groups.forest_preimage, coloring._count
    closure = groups._check_closure

    def counted_preimage(g, d):
        preimages.append(d)
        return forest_preimage(g, d)

    def counted_closure(by_perm):
        closures.append(len(by_perm))
        return closure(by_perm)

    def counted_count(s, k, zero_free, first=False):
        counted.append(k)
        return count(s, k, zero_free, first)

    g = petersen()[0]
    assert run_cli(capsys, "group", "--mask", format_mask(rep_masks[0]))[0] == 0
    monkeypatch.setattr(groups, "forest_preimage", counted_preimage)
    monkeypatch.setattr(groups, "_check_closure", counted_closure)
    monkeypatch.setattr(coloring, "_count", counted_count)
    groups._switching_class.cache_clear()
    for i, m in enumerate(rep_masks):
        name = expected.CLASS_NAMES[i]
        for first, mask in ((True, m), (False, m ^ cut_mask(g, 0b0110010))):
            groups._lifts.cache_clear()
            preimages.clear()
            closures.clear()
            h = format_mask(mask)
            code, out, _ = run_cli(capsys, "group", "--mask", h)
            assert code == 0, name
            assert len(preimages) == 1 + first * expected.SWAUT_ORDERS[i], name
            # SwAut once per class, then the Aut of the mask
            assert closures[:-1] == first * [expected.SWAUT_ORDERS[i]], name
            assert closures[-1] == int(out.split()[2]), name
        for flags in ((), ("--zero-free",)):
            assert run_cli(capsys, "color", "--mask", h, "--k", "1", *flags)[0] == 0
    assert 1 not in counted


def test_warm_group_and_cluster_compute_only_what_they_print(capsys,
                                                             monkeypatch,
                                                             rep_masks,
                                                             tmp_path):
    # A warm group --coset-table query on a P2,2 mask reads one lift list,
    # looks its switching class up once and runs one closure check, that of
    # its Aut; SwAut's order histogram comes with the lifts from the class
    # cache. A cluster query and T10 read the cluster number from the
    # positive forest, with no graph built on the components.
    from functools import lru_cache
    from signedpetersen import groups
    lifted, closures, built, looked_up = [], [], [], []
    lifts, closure = groups._lifts.__wrapped__, groups._check_closure
    switching_class = groups._switching_class
    graph_init = Graph.__init__

    def counted_lifts(s):
        lifted.append(s.mask)
        return lifts(s)

    def counted_class(g, z):
        looked_up.append(z)
        return switching_class(g, z)

    def counted_closure(by_perm):
        closures.append(len(by_perm))
        return closure(by_perm)

    def counted_init(self, *args):
        built.append(args)
        graph_init(self, *args)

    g, m = petersen()[0], rep_masks[2]
    assert run_cli(capsys, "group", "--mask", format_mask(m),
                   "--coset-table")[0] == 0
    monkeypatch.setattr(groups, "_lifts", lru_cache(maxsize=8)(counted_lifts))
    monkeypatch.setattr(groups, "_check_closure", counted_closure)
    monkeypatch.setattr(groups, "_switching_class", counted_class)
    monkeypatch.setattr(Graph, "__init__", counted_init)
    for x in (0b11, 0b1010010110):
        mask = m ^ cut_mask(g, x)
        lifted.clear()
        closures.clear()
        looked_up.clear()
        code, out, _ = run_cli(capsys, "group", "--mask", format_mask(mask),
                               "--coset-table")
        assert code == 0 and "swaut order 4 label V4" in out
        aut_order = int(out.split()[2])
        assert lifted == [mask] and closures == [aut_order]
        assert looked_up == [syndrome(g, m)]
    for mask in rep_masks[1:4]:
        assert run_cli(capsys, "cluster", "--mask", format_mask(mask)) == \
            (0, f"clusterable no inclusterability "
                f"{expected.INCLUSTERABILITY[2 * rep_masks.index(mask)]}\n",
             "")
    for i, mask in enumerate(rep_masks):
        for j, x in ((2 * i, mask), (2 * i + 1, mask ^ ((1 << 15) - 1))):
            if expected.CLUSTER_NUMBER[j] is not None:
                assert run_cli(capsys, "cluster", "--mask", format_mask(x)) \
                    == (0, f"clusterable yes clusters "
                           f"{expected.CLUSTER_NUMBER[j]}\n", "")
    assert built == []
    assert build_table("T10").rows[0][1] == expected.CLUSTER_NUMBER
    # the count needs no graph on the components: all-negative K16 has 16
    path = tmp_path / "k16.txt"
    path.write_text(serialize_signed_graph(SignedGraph(
        Graph.from_edges(16, itertools.combinations(range(16), 2)),
        (1 << 120) - 1)))
    built.clear()
    assert run_cli(capsys, "cluster", "--file", str(path)) == \
        (0, "clusterable yes clusters 16\n", "")
    assert len(built) == 1  # the loaded graph


def test_classify_and_color_read_each_switching_class_once(capsys,
                                                          monkeypatch,
                                                          rep_masks):
    """On two switching-equivalent masks, classify runs the l search and
    color --k 1 the k = 2 backtrack for the first only; the second reads
    every line from the per-class caches. chi = 0 is read off the edge
    list, so no k = 0 backtrack runs."""
    from signedpetersen import coloring
    walks, counted = [], []
    least_edges, count = signed.least_edges, coloring._count

    def counted_least_edges(g, z):
        walks.append(z)
        return least_edges(g, z)

    def counted_count(s, k, zero_free, first=False):
        counted.append(k)
        return count(s, k, zero_free, first)

    monkeypatch.setattr(signed, "least_edges", counted_least_edges)
    monkeypatch.setattr(coloring, "_count", counted_count)
    caches = (signed._class_invariants, coloring._class_count)
    mask = rep_masks[2]  # P2,2: chi* = 2, so the k = 2 backtrack runs
    twin = mask ^ petersen()[0].incidence[3] ^ petersen()[0].incidence[7]
    answers = []
    for cache in caches:
        cache.cache_clear()
    try:
        for m in (mask, twin):
            for argv in (("classify",), ("color", "--k", "1")):
                code, out, _ = run_cli(capsys, *argv[:1], "--mask",
                                       format_mask(m), *argv[1:])
                assert code == 0
                answers.append(out)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert answers[:2] == answers[2:]
    assert answers[0].startswith("class P2,2\n")
    assert answers[1].endswith("zero-free chromatic number 2\n")
    assert len(walks) == 1 and counted == [2]


def test_table_artifacts_render():
    for tid in TABLE_IDS:
        art = build_table(tid)
        text = art.render("text")
        assert text.strip()
        rows = list(csv.reader(stdio.StringIO(art.render("csv"))))
        assert len(rows) >= 2
        data = json.loads(art.render("json"))
        assert data["table"] == tid
        assert data["columns"]
        assert all("label" in r and "values" in r for r in data["rows"])
    with pytest.raises(ValueError):
        build_table("T99")


def test_table_t1_values():
    data = json.loads(build_table("T1").render("json"))
    by_label = {r["label"]: r["values"] for r in data["rows"]}
    assert by_label["negative pentagons"] == list(expected.NEGATIVE_PENTAGONS)
    assert by_label["negative hexagons"] == list(expected.NEGATIVE_HEXAGONS)


# --------------------------------------------------------------------------
# io round trips
# --------------------------------------------------------------------------

def test_mask_round_trip():
    assert parse_mask("0x1a2") == 0x1A2
    assert parse_mask("1A2") == 0x1A2
    assert parse_mask(format_mask(0x7FFF)) == 0x7FFF
    with pytest.raises(InputError):
        parse_mask("0x8000")
    with pytest.raises(InputError):
        parse_mask("zz")


def test_edge_list_round_trip(pg):
    g, _ = pg
    s = SignedGraph(g, 0x1234)
    assert parse_signed_graph(serialize_signed_graph(s)) == s
    # sign column optional, comments ignored
    t = parse_signed_graph("# comment\nn 3\n0 1\n1 2 -\n")
    assert t.mask == 0b10


@pytest.mark.parametrize("text", [
    "", "0 1 +", "n x", "n -1", "n 3\n0 1 *", "n 3\n0 3 +",
    "n 3\n0 0 +", "n 3\n0 1 +\n1 0 -",
])
def test_edge_list_errors(text):
    with pytest.raises(InputError):
        parse_signed_graph(text)


@pytest.mark.parametrize("text, message", [
    ("n 3\n0 1 * junk\n", "malformed edge line '0 1 * junk'"),
    ("n 3\n 0 x -\t\n", "malformed edge line '0 x -'"),
    ("n 3\n0\n", "malformed edge line '0'"),
    ("n 3\n0 1 +\n\t1 3 -  \n0 0\n", "vertex out of range in '1 3 -'"),
    ("n 3\n-1 2\n", "vertex out of range in '-1 2'"),
    ("n 3\n  # 0 0\n2 2 +\n0 5\n", "loop edge in '2 2 +'"),
    ("n 3\n0 1 +\n#1 0\n 1 0 - \n0 5\n", "duplicate edge in '1 0 -'"),
])
def test_edge_list_error_messages(text, message):
    # the first faulty line after the header, stripped, whatever follows;
    # a line whose first token starts with # is a comment
    with pytest.raises(InputError) as exc:
        parse_signed_graph(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("", "missing 'n <vertex_count>' header"),
    ("# only a comment\n0 1 +", "missing 'n <vertex_count>' header"),
    ("n x", "bad header line 'n x'"),
    ("  n  ", "missing 'n <vertex_count>' header"),
    ("n -1", "negative vertex count"),
])
def test_header_errors(text, message):
    for read in (parse_signed_graph, lambda t: read_header(iter(t.splitlines()))):
        with pytest.raises(InputError) as exc:
            read(text)
        assert str(exc.value) == message


def test_header_reader_stops_at_the_header():
    lines = iter(["# comment", "", "  n 5 ", "0 0 *", "junk"])
    assert read_header(lines) == 5
    assert list(lines) == ["0 0 *", "junk"]


@pytest.mark.parametrize("text", [
    "# c\x85n 3\n0 1 -\n1 2\n",
    "# c\u2028n 4\n0 1 -\n# z\u20292 3 +\n",
    "n 3\r\n0 1 -\r\n1 2 +\r\n",
    "n 3\r0 1 -\r1 2 +",
    "n 3\x0b0 1 -\x0c1 2 +\n",
])
def test_file_lines_split_as_text_lines(tmp_path, text):
    # the file is read line by line, yet splits where str.splitlines does
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    assert load_signed_graph(str(path)) == parse_signed_graph(text)


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_census_and_tables(capsys):
    code, out, _ = run_cli(capsys, "census")
    assert code == 0 and "P3,3" in out
    code, out, _ = run_cli(capsys, "table", "T1", "--format", "json")
    assert code == 0 and json.loads(out)["table"] == "T1"
    code, out, _ = run_cli(capsys, "table", "T10", "--format", "csv")
    assert code == 0 and out.splitlines()[0].startswith("T10,")


def test_cli_classify(capsys, rep_masks):
    code, out, _ = run_cli(capsys, "classify", "--mask",
                           format_mask(rep_masks[4]))
    assert code == 0
    assert "class P3,2" in out
    assert "frustration index 3" in out
    assert "negative pentagons 6" in out


def test_cli_classify_matches_generic_searches(capsys, rep_masks, pg):
    """On Petersen masks the CLI reads l and l0 from the Petersen routes
    (512 cuts, deletion tables); they agree with the generic searches."""
    g, _ = pg
    rng = random.Random(37)
    for mask in list(rep_masks) + [rng.randrange(1 << 15) for _ in range(30)]:
        code, out, _ = run_cli(capsys, "classify", "--mask", format_mask(mask))
        s = SignedGraph(g, mask)
        assert code == 0
        assert out.splitlines()[1:3] == [
            f"frustration index {frustration_index(s)}",
            f"frustration number {frustration_number(s)}"]


def test_cli_classify_file(capsys, tmp_path, pg):
    g, _ = pg
    path = tmp_path / "sig.txt"
    path.write_text(serialize_signed_graph(SignedGraph(g, 1)))
    code, out, _ = run_cli(capsys, "classify", "--file", str(path))
    assert code == 0 and "class P1" in out


def test_cli_classify_disconnected_file(capsys, tmp_path):
    # two negative triangles, one balanced edge between vertices 6 and 7
    path = tmp_path / "two.txt"
    path.write_text("n 8\n0 1 -\n1 2 +\n0 2 +\n3 4 -\n4 5 -\n3 5 -\n6 7 -\n")
    code, out, _ = run_cli(capsys, "classify", "--file", str(path))
    assert code == 0
    assert "frustration index 2" in out
    assert "frustration number 2" in out


def test_cli_group(capsys, rep_masks):
    code, out, _ = run_cli(capsys, "group", "--mask",
                           format_mask(rep_masks[4]), "--coset-table")
    assert code == 0
    assert "aut order 6 label S3" in out
    assert "swaut order 60 label A5" in out
    assert "cosets 10 conjugation-closed True" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("rep ")) == 10


def test_vertex_perm_name():
    # each of the 120 automorphisms of P that the search finds, named in
    # cycle notation, a different name each, by the permutation of {1..5}
    # that induces it
    from oracles import induced_permutation, parse_cycles
    names = {cli._perm_name(perm): perm
             for perm in automorphism_images(petersen()[0])}
    assert len(names) == 120
    for name, perm in names.items():
        assert induced_permutation(parse_cycles(name)) == perm, name
    # vertex vectors induced by no permutation of {1..5}: a transposition
    # of two vertices, a map of every vertex to vertex 0, the identity with
    # an eleventh vertex, whose first ten entries alone are induced, and
    # the identity without its tenth
    for vector in ([1, 0] + list(range(2, 10)), [0] * 10, list(range(11)),
                   list(range(9))):
        assert cli._perm_name(tuple(vector)) == str(vector)


def test_coset_table_names_only_the_printed_permutations(capsys, monkeypatch,
                                                         rep_masks):
    # a cold group --coset-table names each printed representative's
    # permutation at most once, not all 120 of S5; warm, it names none
    from signedpetersen import groups
    named = []
    format_cycles = cli.format_cycles

    def counted_format(base):
        named.append(base)
        return format_cycles(base)

    monkeypatch.setattr(cli, "format_cycles", counted_format)
    caches = (cli._perm_name, graphs.petersen, groups._automorphism_edge_maps,
              groups._switching_class, groups._lifts)
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "group", "--mask",
                               format_mask(rep_masks[4]), "--coset-table")
        reps = [ln for ln in out.splitlines() if ln.startswith("rep ")]
        assert code == 0 and len(reps) == 10
        assert 1 <= len(named) <= len(reps) and len(set(named)) == len(named)
        named.clear()
        assert run_cli(capsys, "group", "--mask", format_mask(rep_masks[4]),
                       "--coset-table")[1] == out
        assert named == []
    finally:
        for cache in caches:
            cache.cache_clear()


def test_cli_color_and_cluster(capsys, rep_masks):
    code, out, _ = run_cli(capsys, "color", "--mask",
                           format_mask(rep_masks[4]), "--k", "1")
    assert code == 0 and "colorations at k=1: 80" in out
    code, out, _ = run_cli(capsys, "cluster", "--mask", "0x0")
    assert code == 0 and "clusterable yes clusters 1" in out
    code, out, _ = run_cli(capsys, "cluster", "--mask",
                           format_mask(rep_masks[2]))
    assert code == 0 and "clusterable no inclusterability 2" in out
    code, out, _ = run_cli(capsys, "cluster", "--mask",
                           format_mask(rep_masks[1]))
    assert code == 0 and "clusterable no inclusterability 1" in out


# Edge-list files for `cluster`, with the expected stdout, stderr and exit
# code. Clusters are unions of components of the positive subgraph. A graph
# of more than 16 vertices exits 2 before that subgraph is built, even a
# positive path with one cluster, or two million vertices and one edge.
CLUSTER_FILES = (
    ("n 7\n0 1 +\n1 2 +\n2 3 -\n3 4 +\n4 5 -\n5 6 +\n0 6 -\n1 4 -\n"
     "2 5 -\n0 3 -\n", "clusterable yes clusters 3\n", "", 0),
    ("n 5\n0 1 +\n1 2 +\n0 2 -\n2 3 +\n3 4 +\n2 4 -\n",
     "clusterable no inclusterability 2\n", "", 0),
    ("n 8\n0 1 -\n1 2 -\n0 2 -\n3 4 +\n4 5 -\n3 5 -\n6 7 -\n",
     "clusterable yes clusters 3\n", "", 0),
    ("n 9\n0 1 +\n1 2 -\n2 3 +\n5 7 -\n", "clusterable yes clusters 2\n",
     "", 0),
    ("n 40\n", "", "error: graph too large for exact chromatic number\n", 2),
    ("n 17\n" + "".join(f"{i} {i + 1} +\n" for i in range(16)), "",
     "error: graph too large for exact chromatic number\n", 2),
    ("n 2000000\n0 1 -\n", "",
     "error: graph too large for exact chromatic number\n", 2),
    ("n 2000000\n" + "".join(f"{i} {i + 1} +\n" for i in range(200_000)), "",
     "error: graph too large for exact chromatic number\n", 2),
)


def test_cli_cluster_general_graph_files(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    for text, out, err, code in CLUSTER_FILES:
        path.write_text(text)
        assert run_cli(capsys, "cluster", "--file", str(path)) == \
            (code, out, err), text


def test_oversized_header_is_refused_before_any_edge_line(capsys, tmp_path):
    # the edge line is malformed, but no command gets to read it: each
    # refuses the 17 vertices of the header with its own message
    path = tmp_path / "big.txt"
    path.write_text("n 17\n0 0 *\n")
    for argv, err in (
            (("classify",), "graph too large for switching enumeration"),
            (("cluster",), "graph too large for exact chromatic number"),
            (("color", "--k", "1"), "graph too large for coloring search"),
            (("color", "--k", "9"), "k=9 outside the supported range 0..2")):
        assert run_cli(capsys, argv[0], "--file", str(path), *argv[1:]) == \
            (2, "", f"error: {err}\n")
    path.write_text("n 16\n0 0 *\n")
    assert run_cli(capsys, "cluster", "--file", str(path)) == \
        (2, "", "error: malformed edge line '0 0 *'\n")


def test_cli_reads_a_file_it_cannot_seek(capsys):
    # a pipe gives its bytes once, so the file must be opened and read once
    for text, out, err, code in CLUSTER_FILES[:-1]:
        r, w = os.pipe()
        try:
            assert os.write(w, text.encode()) == len(text)
            os.close(w)
            assert run_cli(capsys, "cluster", "--file", f"/dev/fd/{r}") == \
                (code, out, err), text
        finally:
            os.close(r)


def test_cli_verify(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and "all tables verified" in out


def test_cli_verify_prints_each_difference(capsys, monkeypatch):
    # one line per difference, and exit 1: a changed T2 cell, a T3 that
    # lost its row, a T5 row and census representatives cut short, and a
    # census without its switching-class row; then a census without its
    # representative row
    from signedpetersen import census
    real = census.build_table
    census_drops = ["switching classes"]

    def tampered(table_id):
        art = real(table_id)
        rows = dict(art.rows)
        if table_id == "T2":
            (label, row), = art.rows
            return census.TableArtifact("T2", art.columns,
                                        ((label, (1,) + row[1:]),))
        if table_id == "T3":
            return census.TableArtifact("T3", art.columns, ())
        if table_id == "T5":
            rows["copies"] = rows["copies"][:3]
        if table_id == "census":
            rows["representative mask"] = rows["representative mask"][:3]
            for label in census_drops:
                del rows[label]
        return census.TableArtifact(table_id, art.columns, tuple(rows.items()))

    monkeypatch.setattr(census, "build_table", tampered)
    want = ["T2 [frustration index] +P: got 1, expected 0",
            "T3: missing row 'frustration number'",
            "T5 [copies]: got 3 values, expected 6",
            "census: missing row 'switching classes'",
            "census [representative mask]: got 3 values, expected 6"]
    assert verify_all() == want
    assert run_cli(capsys, "verify") == (1, "".join(d + "\n" for d in want), "")
    census_drops[:] = ["representative mask"]
    want[3:] = ["census: missing row 'representative mask'"]
    assert verify_all() == want
    assert run_cli(capsys, "verify") == (1, "".join(d + "\n" for d in want), "")


def test_cli_errors(capsys):
    code, _, err = run_cli(capsys, "classify", "--mask", "0xFFFFF")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "color", "--mask", "0x0", "--k", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "--file", "/nonexistent")
    assert code == 2


def test_parser_is_built_once_per_process(capsys, rep_masks):
    # a warm run of commands builds one parser, and neither an argparse
    # error nor a ValueError exit leaves it in a state that changes what
    # the next command prints
    golden = {tuple(r["argv"]): r for r in json.loads(
        (Path(__file__).parent / "data" / "cli_golden.json").read_text())}
    hx = format_mask(rep_masks[3])
    valid = [("classify", "--mask", hx), ("group", "--mask", hx, "--coset-table"),
             ("color", "--mask", hx, "--k", "1", "--zero-free"),
             ("cluster", "--mask", hx), ("table", "T1", "--format", "csv")]
    cli.build_parser.cache_clear()
    for argv in valid:
        with pytest.raises(SystemExit) as exc:
            cli.main(["color", "--mask", hx])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "classify", "--mask", "0xFFFFF")
        assert code == 2 and out == "" and err.startswith("error:")
        want = golden[argv]
        assert run_cli(capsys, *argv) == (want["exit"], want["stdout"], want["stderr"])
        assert cli.build_parser.cache_info().misses == 1


def grammar_tokens() -> tuple[str, ...]:
    """The option names and choices of ``cli._GRAMMAR``, each once."""
    tokens = {}
    for _, _, options in cli._GRAMMAR.values():
        for name, kw in options:
            if name.startswith("-"):
                tokens[name] = None
            tokens.update(dict.fromkeys(kw.get("choices", ())))
    return tuple(tokens)


# Grammar tokens, values and junk: the commands, option names and choices
# of ``cli._GRAMMAR``, abbreviations, "=", values that start with "-", int
# spellings argparse accepts.
ARGV_TOKENS = tuple(cli._GRAMMAR) + grammar_tokens() + (
    "0x0001", "f", "1", "2", "-1", " 3", "1_0", "x", "", "--coset", "--zero",
    "--mask=0x1", "--k=1", "-h", "--help", "--", "-", "T99", "x y")
ARGV_VALUES = st.one_of(
    st.sampled_from(("0x0001", "f", "1", "2") + cli._FORMAT[1]["choices"]),
    st.sampled_from(ARGV_TOKENS), st.text(max_size=3))


@st.composite
def argvs(draw):
    """A command with its options in a drawn order, one of --mask and
    --file or both, each value drawn from grammar tokens and junk; then a
    few tokens dropped, and a few grammar tokens or junk inserted."""
    command = draw(st.sampled_from(tuple(cli._GRAMMAR)))
    pieces = []
    options = dict(cli._GRAMMAR[command][2])
    if {"--mask", "--file"} <= options.keys():
        options.pop(draw(st.sampled_from(("--mask", "--file", "both"))), None)
    for name, kw in options.items():
        if "action" in kw:
            pieces.append([name])
        elif not name.startswith("-"):
            pieces.append([draw(st.sampled_from(kw["choices"]))])
        else:
            pieces.append([name, draw(ARGV_VALUES)])
    tokens = [t for piece in draw(st.permutations(pieces)) for t in piece]
    for i in draw(st.sets(st.integers(0, 5), max_size=2)):
        if i < len(tokens):
            del tokens[i]
    for i, token in draw(st.lists(st.tuples(st.integers(0, 6), ARGV_VALUES),
                                  max_size=2)):
        tokens.insert(i, token)
    return [command] + tokens


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(argvs())
def test_argv_matcher_declines_or_agrees_with_argparse(argv):
    # the matcher either declines argv or builds the namespace argparse
    # builds for it; argparse raising SystemExit on a matched argv fails
    matched = cli._match(argv)
    if matched is not None:
        assert vars(matched) == vars(cli.build_parser().parse_args(argv))


def test_argv_matcher_matches_the_exact_grammar():
    # every spelling the grammar allows, in any option order, and what
    # it must leave to argparse
    valid = [["classify", "--mask", "0x1"], ["classify", "--file", "f"],
             ["group", "--coset-table", "--mask", "0x1"],
             ["color", "--zero-free", "--k", "2", "--file", "f"],
             ["table", "--format", "csv", "T4_orders"], ["census"],
             ["cluster", "--mask", "0x1"], ["verify"]]
    for argv in valid:
        assert vars(cli._match(argv)) == vars(cli.build_parser().parse_args(argv))
    for argv in (["group", "--coset", "--mask", "0x1"], ["verify", "-h"],
                 ["classify", "--mask", "0x1", "--file", "f"],
                 ["classify", "--mask=0x1"], ["group", "--mask", "1", "--mask", "2"],
                 ["color", "--mask", "0x1", "--k", "-1"], ["color", "--mask", "0x1"],
                 ["color", "--mask", "0x1", "--k", "one"], ["table", "T99"],
                 ["census", "--format", "xml"], []):
        assert cli._match(argv) is None, argv


def test_valid_query_imports_no_argparse():
    code = ("import sys; from signedpetersen import cli; "
            "cli.main(['classify', '--mask', '0x0001']); "
            "print('argparse' in sys.modules)")
    src = str(Path(signedpetersen.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=30, check=True).stdout
    assert out.splitlines()[-1] == "False"


def complete_graph_file(tmp_path, n, negative=()):
    path = tmp_path / f"k{n}.txt"
    path.write_text(f"n {n}\n" + "".join(
        f"{u} {v} {'-' if (u, v) in negative else '+'}\n"
        for u, v in itertools.combinations(range(n), 2)))
    return path


def refuse(*args):
    raise AssertionError("route not taken for this graph")


def refuse_circles(monkeypatch):
    """Make every name-imported copy of ``enumerate_cycles`` in the package
    raise (now those of ``graphs`` and ``signed``)."""
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "signedpetersen"
                and hasattr(module, "enumerate_cycles")):
            monkeypatch.setattr(module, "enumerate_cycles", refuse)


def test_cli_classify_dense_file_lists_no_circles(capsys, tmp_path,
                                                  monkeypatch):
    # all-negative K12: a cycle space of 55 dimensions against 11 for cuts,
    # so l walks the cuts and l0 the vertex subsets
    path = complete_graph_file(tmp_path, 12, negative=set(
        itertools.combinations(range(12), 2)))
    refuse_circles(monkeypatch)
    monkeypatch.setattr(frustration, "_edges_by_syndromes", refuse)
    code, out, err = run_cli(capsys, "classify", "--file", str(path))
    assert (code, out, err) == (
        0, "frustration index 30\nfrustration number 10\n", "")


def test_cli_classify_sparse_file_walks_no_cuts(capsys, tmp_path,
                                                monkeypatch):
    # 16 vertices, 20 edges: a cycle space of 5 dimensions against 15, so l
    # searches the 32 syndromes and l0 the vertex subsets
    rng = random.Random(11)
    edges = {(rng.randrange(v), v) for v in range(1, 16)}
    while len(edges) < 20:
        edges.add(tuple(sorted(rng.sample(range(16), 2))))
    s = SignedGraph(Graph.from_edges(16, edges), (1 << 20) - 1)
    z = syndrome(s.graph, s.mask)
    l = frustration._edges_by_cuts(s.graph, z).bit_count()
    l0 = circle_hitting_sets(s)[1].bit_count()
    assert (l, l0) == (3, 1)
    path = tmp_path / "sparse.txt"
    path.write_text(serialize_signed_graph(s))
    refuse_circles(monkeypatch)
    monkeypatch.setattr(frustration, "cut_space", refuse)
    code, out, err = run_cli(capsys, "classify", "--file", str(path))
    assert (code, out, err) == (
        0, f"frustration index {l}\nfrustration number {l0}\n", "")


def test_cli_cluster_file_lists_no_circles(capsys, tmp_path, monkeypatch):
    # 9 vertices and 20 edges, a cycle space of 12 dimensions: the index
    # must come from forests of the kept positive edges, not a circle list
    rng = random.Random(2)
    g = Graph.from_edges(9, rng.sample(
        list(itertools.combinations(range(9), 2)), 20))
    s = SignedGraph(g, rng.getrandbits(20))
    q = inclusterability_by_circles(s).bit_count()
    assert q == 4
    path = tmp_path / "dense9.txt"
    path.write_text(serialize_signed_graph(s))
    refuse_circles(monkeypatch)
    code, out, err = run_cli(capsys, "cluster", "--file", str(path))
    assert (code, out, err) == (0, f"clusterable no inclusterability {q}\n", "")


def test_cli_cluster_builds_one_forest_per_round(capsys, tmp_path,
                                                 monkeypatch):
    # the positive forest kept on the signed graph, which bad_edge reads,
    # is round 0
    # of the index, and each later round builds one forest without the
    # negative edges and its deletion set H, unless H holds negative edges
    # only; the rounds' sets H are what _hit returns at the top of its
    # recursion
    skips, solved, depth = [], [], [0]
    forest, hit = graphs.bfs_forest, clustering._hit

    def counted_forest(g, skip=0):
        skips.append(skip)
        return forest(g, skip)

    def counted_hit(targets, budget):
        depth[0] += 1
        try:
            found = hit(targets, budget)
        finally:
            depth[0] -= 1
        if not depth[0] and found is not None:
            solved.append(found)
        return found

    monkeypatch.setattr(graphs, "bfs_forest", counted_forest)
    monkeypatch.setattr(clustering, "_hit", counted_hit)
    rng = random.Random(5)
    rounds = set()
    for k in range(40):
        g = Graph.from_edges(9, rng.sample(
            list(itertools.combinations(range(9), 2)), rng.randint(9, 20)))
        s = SignedGraph(g, rng.getrandbits(len(g.edges)))
        path = tmp_path / f"g{k}.txt"
        path.write_text(serialize_signed_graph(s))
        skips.clear()
        solved.clear()
        code, out, _ = run_cli(capsys, "cluster", "--file", str(path))
        assert code == 0
        assert skips == [s.mask] + [s.mask | h for h in solved
                                    if h & ~s.mask], k
        assert out.startswith("clusterable no") == bool(solved), k
        rounds.add((len(solved) + 1, len(skips)))
    assert {(1, 1), (2, 2), (3, 3)} <= rounds and any(
        r > f for r, f in rounds), rounds


def test_cli_color_budget_error_prints_nothing(capsys, tmp_path):
    # all-positive K6 needs 6 colors, beyond the k <= 2 budget
    path = complete_graph_file(tmp_path, 6)
    code, out, err = run_cli(capsys, "color", "--file", str(path), "--k", "1")
    assert code == 2 and out == "" and "budget" in err


def run_module(*argv):
    src = str(Path(signedpetersen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "signedpetersen.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)


def test_cli_color_too_many_vertices_fails_fast(tmp_path):
    # 3^40 colorations of an edgeless graph: the vertex cap must stop the
    # search before it starts
    path = tmp_path / "edgeless40.txt"
    path.write_text("n 40\n")
    done = run_module("color", "--file", str(path), "--k", "1")
    assert done.returncode == 2 and done.stdout == ""
    assert "too large" in done.stderr


def test_cli_cluster_too_many_edges_fails_fast(tmp_path):
    # K12 (66 edges) with one negative edge is unclusterable; the edge limit
    # must stop it before any circle is listed
    path = complete_graph_file(tmp_path, 12, negative={(0, 1)})
    done = run_module("cluster", "--file", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert "too many edges" in done.stderr
