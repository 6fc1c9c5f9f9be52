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

import signedpetersen
from signedpetersen import cli
from signedpetersen import expected
from signedpetersen.census import (TABLE_IDS, build_table, run_census,
                                   standard_mask, verify_all)
from signedpetersen.frustration import frustration_index, frustration_number
from signedpetersen.io import (InputError, format_mask, parse_mask,
                               parse_signed_graph, serialize_signed_graph)
from signedpetersen.signed import SIX_ORDER, SignedGraph, classify_six_mask
from signedpetersen.graphs import petersen


# --------------------------------------------------------------------------
# census core
# --------------------------------------------------------------------------

def test_run_census_totals():
    census = run_census()
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
    # oracle: every one of the 512 Petersen cuts restricted to the kept edges
    from signedpetersen.census import _deletion_tables
    from signedpetersen.signed import petersen_cut_masks
    g, _ = petersen()
    tables = _deletion_tables()
    sets = [w for k in range(4) for w in itertools.combinations(range(10), k)]
    assert len(tables) == len(sets) == 176
    for (k, keep, cuts), w in zip(tables, sets):
        want = sum(1 << i for i, e in enumerate(g.edges) if not set(e) & set(w))
        assert (k, keep) == (len(w), want)
        assert cuts == {c & keep for c in petersen_cut_masks()}, w


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


def test_verify_all_does_group_work_once(monkeypatch):
    """verify_all scans the Petersen automorphisms once, builds their 120
    edge permutations once, builds the twelve T4 groups once each, and
    builds no group for T5, whose orbit sizes come from stabilizer
    counts."""
    from signedpetersen import census, graphs, groups
    scans, edge_maps, built, current = [], [], [], []
    search, init, build = (graphs._automorphism_search,
                           groups.FiniteGroup.__init__, census.build_table)
    edge_permutation = groups.edge_permutation

    def counted_search(g):
        scans.append(g)
        return search(g)

    def counted_edge_permutation(g, perm):
        edge_maps.append(perm)
        return edge_permutation(g, perm)

    def counted_init(self, elements, mul):
        init(self, elements, mul)
        built.append((current[-1], self.order))

    def tracked_build(table_id):
        current.append(table_id)
        return build(table_id)

    monkeypatch.setattr(graphs, "_automorphism_search", counted_search)
    monkeypatch.setattr(groups.FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(census, "build_table", tracked_build)
    monkeypatch.setattr(groups, "edge_permutation", counted_edge_permutation)
    # a fresh graph, automorphisms unscanned and edge maps unbuilt
    graphs.petersen.cache_clear()
    groups._automorphism_edge_maps.cache_clear()
    try:
        assert verify_all() == []
    finally:
        graphs.petersen.cache_clear()
        groups._automorphism_edge_maps.cache_clear()
    assert len(scans) == 1 and graphs.is_petersen(scans[0])
    assert len(edge_maps) == 120 and len(set(edge_maps)) == 120
    assert {table for table, _ in built} == {"T4_orders"}
    orders = [order for _, order in built]
    assert sorted(orders) == sorted(expected.AUT_ORDERS + expected.SWAUT_ORDERS)
    assert sum(order * order for order in orders) == 47688


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
            f"frustration index {frustration_index(s)[0]}",
            f"frustration number {frustration_number(s)[0]}"]


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


def test_vertex_perm_name(pg):
    g, lab = pg
    from signedpetersen.groups import induced_permutation, parse_cycles
    for text in ("()", "(12)(45)", "(145)", "(12345)"):
        perm = induced_permutation(lab, parse_cycles(text))
        assert cli._vertex_perm_name(list(perm)) == text
    # a vertex permutation induced by no permutation of {1..5}
    swapped = [1, 0] + list(range(2, 10))
    assert cli._vertex_perm_name(swapped) == str(swapped)


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
)


def test_cli_cluster_general_graph_files(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    for text, out, err, code in CLUSTER_FILES:
        path.write_text(text)
        assert run_cli(capsys, "cluster", "--file", str(path)) == \
            (code, out, err), text


def test_cli_verify(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and "all tables verified" in out


def test_cli_errors(capsys):
    code, _, err = run_cli(capsys, "classify", "--mask", "0xFFFFF")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "color", "--mask", "0x0", "--k", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "--file", "/nonexistent")
    assert code == 2


def complete_graph_file(tmp_path, n, negative=()):
    path = tmp_path / f"k{n}.txt"
    path.write_text(f"n {n}\n" + "".join(
        f"{u} {v} {'-' if (u, v) in negative else '+'}\n"
        for u, v in itertools.combinations(range(n), 2)))
    return path


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
