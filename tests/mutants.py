"""Replayable mutation checks: each mutant swaps one exact snippet of a
source file for a faulty replacement, and every test named beside it must
then fail.

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # the named ones
    python3 tests/mutants.py --list

Each mutant runs in a temporary copy of ``src``, ``tests`` and
``pyproject.toml``, with only its own tests. A line per mutant says caught
or missed, with the seconds taken; the script exits 1 when a mutant is
missed, its snippet does not occur exactly once, or its run does not end.
It uses the standard library only, and pytest does not collect it. The
tier-1 test ``tests/test_mutants.py`` checks that every snippet still
occurs exactly once, so the table fails loudly when the code moves. A
change to a mutated file should run the table again.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids; a prefix covers its parameters


IO, COLORING = "src/signedpetersen/io.py", "src/signedpetersen/coloring.py"
CLUSTERING = "src/signedpetersen/clustering.py"
GRAPHS, SIGNED = "src/signedpetersen/graphs.py", "src/signedpetersen/signed.py"
FRUSTRATION = "src/signedpetersen/frustration.py"
GROUPS, CLI = "src/signedpetersen/groups.py", "src/signedpetersen/cli.py"
CENSUS = "src/signedpetersen/census.py"

MUTANTS = (
    Mutant("rest of a long file never read", IO,
           "(block + fh.readall()).decode()", "block.decode()",
           ("tests/test_io.py::test_file_gives_what_its_text_gives",
            "tests/test_io.py::test_long_file_within_the_cap_is_read_whole")),
    Mutant("long file read whole before its lines are parsed", IO,
           "lines = (_read_on(fh, data) if",
           "lines = (iter(list(_read_on(fh, data))) if",
           ("tests/test_io.py::test_large_header_is_refused_after_one_block",
            "tests/test_io.py::"
            "test_faulty_line_in_the_first_block_ends_the_read")),
    Mutant("back-edge sign inverted", COLORING,
           "(pos[u], -1 if s.mask >> j & 1 else 1)",
           "(pos[u], 1 if s.mask >> j & 1 else -1)",
           ("tests/test_coloring.py::test_colorations_match_brute_force",
            "tests/test_coloring.py::"
            "test_color_file_query_matches_brute_force_counts")),
    Mutant("k = 2 bound checked after the count", COLORING,
           "    return _class_count(s.graph, _class_syndrome(s, k), k, "
           "zero_free, False)\n",
           "    count = _class_count(s.graph, syndrome(s.graph, s.mask), k, "
           "zero_free, False)\n"
           "    _class_syndrome(s, k)\n"
           "    return count\n",
           ("tests/test_coloring.py::"
            "test_color_at_two_refused_past_eleven_vertices",)),
    Mutant("degree order dropped from the colouring backtrack", COLORING,
           "for v in sorted(range(g.vertex_count), key=g.degree, "
           "reverse=True):",
           "for v in range(g.vertex_count):",
           ("tests/test_coloring.py::"
            "test_color_fails_fast_on_a_clique_beside_a_long_path",)),
    Mutant("component counts summed, not multiplied", COLORING,
           "        total *= extend(0)\n", "        total += extend(0)\n",
           ("tests/test_coloring.py::"
            "test_color_counts_each_component_on_its_own",
            "tests/test_coloring.py::test_expansion_matches_the_backtrack")),
    Mutant("chi = 0 read off the vertices, not the edges", COLORING,
           "least(False) if s.graph.edges else 0",
           "least(False) if s.graph.vertex_count else 0",
           ("tests/test_coloring.py::"
            "test_chromatic_number_is_zero_exactly_without_edges",
            "tests/test_coloring.py::test_colorations_match_brute_force")),
    Mutant("size check after the forest", CLUSTERING,
           "    if g.vertex_count > MAX_SEARCH_VERTICES:\n"
           "        raise SearchSizeError(\"graph too large for exact chromatic "
           "number\")\n"
           "    comp = s.positive_forest[1]\n",
           "    comp = s.positive_forest[1]\n"
           "    if g.vertex_count > MAX_SEARCH_VERTICES:\n"
           "        raise SearchSizeError(\"graph too large for exact chromatic "
           "number\")\n",
           ("tests/test_clustering.py::"
            "test_oversized_graph_refused_before_the_forest",)),
    Mutant("hitting set stopped after one round", CLUSTERING,
           "        if not missed:\n",
           "        if not missed or targets:\n",
           ("tests/test_clustering.py::test_inclusterability_witness",
            "tests/test_clustering.py::"
            "test_index_and_witness_match_the_listing_routes_on_seeded_graphs")),
    Mutant("hitting set one larger", CLUSTERING,
           "            return sub | low\n",
           "            return sub | low | c & -c\n",
           ("tests/test_clustering.py::test_inclusterability_witness",
            "tests/test_clustering.py::"
            "test_index_and_witness_match_the_listing_routes_on_seeded_graphs")),
    Mutant("cluster builds its own forest", CLUSTERING,
           "    comp = s.positive_forest[1]\n",
           "    comp = forest_paths(g, s.mask)[1]\n",
           ("tests/test_census_cli.py::"
            "test_cli_cluster_builds_one_forest_per_round",)),
    Mutant("cluster decision read from the spanning forest", CLUSTERING,
           "    comp = s.positive_forest[1]\n",
           "    comp = forest_paths(g, 0)[1]\n",
           ("tests/test_census_cli.py::test_cli_cluster_general_graph_files",
            "tests/test_cli_golden.py::"
            "test_group_and_cluster_digests_over_the_six_classes")),
    Mutant("cluster colouring tests the component, not its neighbours",
           CLUSTERING,
           "if not classes[j] & adj[c]:", "if not classes[j] & 1 << c:",
           ("tests/test_graphs.py::test_minimum_coloring",
            "tests/test_cli_golden.py::"
            "test_group_and_cluster_digests_over_the_six_classes")),
    Mutant("cluster colouring keeps the colour bit on return", CLUSTERING,
           "                classes[j] ^= 1 << c\n",
           "                pass\n",
           ("tests/test_clustering.py::"
            "test_index_and_witness_match_the_listing_routes_on_every_"
            "petersen_signature",)),
    Mutant("components taken by increasing degree", CLUSTERING,
           "key=lambda c: adj[c].bit_count(), reverse=True)",
           "key=lambda c: adj[c].bit_count())",
           ("tests/test_clustering.py::"
            "test_index_and_witness_match_the_listing_routes_on_every_"
            "petersen_signature",)),
    Mutant("inclusterability counts the circles, not the deletions",
           CLUSTERING,
           "            return hit.bit_count()\n",
           "            return len(targets)\n",
           ("tests/test_clustering.py::test_table_t10",
            "tests/test_clustering.py::test_inclusterability_witness",
            "tests/test_clustering.py::"
            "test_index_and_witness_match_the_listing_routes_on_seeded_graphs")),
    Mutant("vertex sets grown in reverse", GRAPHS,
           "for v in range(w.bit_length(), n):",
           "for v in reversed(range(w.bit_length(), n)):",
           ("tests/test_graphs.py::"
            "test_vertex_sets_in_combinations_order_with_their_spans",
            "tests/test_frustration.py::test_vertex_routes_find_the_same_deletion")),
    Mutant("star without its last two edges", GRAPHS,
           "for _, i in nv[:-1] if cols[i]]",
           "for _, i in nv[:-2] if cols[i]]",
           ("tests/test_graphs.py::"
            "test_vertex_sets_in_combinations_order_with_their_spans",)),
    Mutant("syndrome pass without the upward xor", GRAPHS,
           "                below[parent] ^= below[v]\n",
           "                pass\n",
           ("tests/test_frustration.py::"
            "test_edge_syndromes_match_the_per_edge_formula",)),
    Mutant("edge index one too high", GRAPHS,
           "(inc[u] & inc[v]).bit_length() - 1 if u != v else -1",
           "(inc[u] & inc[v]).bit_length() if u != v else -1",
           ("tests/test_graphs.py::"
            "test_index_of_finds_each_edge_and_no_other_pair",)),
    Mutant("automorphism search tests adjacency one way", GRAPHS,
           "if adj[w] & used == need:", "if adj[w] & need == need:",
           ("tests/test_graphs.py::"
            "test_automorphism_search_extends_only_partial_isomorphisms",)),
    Mutant("standard mask looks its labels up with the digits reversed",
           CENSUS,
           "PETERSEN_LABELS.index(a), PETERSEN_LABELS.index(b)",
           "PETERSEN_LABELS.index(a[::-1]), PETERSEN_LABELS.index(b[::-1])",
           ("tests/test_graphs.py::"
            "test_matching_classes_are_the_geometric_classes",
            "tests/test_groups.py::test_burnside_counts_the_six_classes")),
    Mutant("permutation named without the length check", CLI,
           " and len(perm) == len(PETERSEN_PAIRS):", ":",
           ("tests/test_census_cli.py::test_vertex_perm_name",)),
    Mutant("cycle orientation check dropped", GRAPHS,
           "if path[1] < last:  # fix orientation: one copy per cycle",
           "if True:",
           ("tests/test_graphs.py::test_cycle_census",
            "tests/test_graphs.py::"
            "test_enumerate_cycles_matches_the_cycle_listing",
            "tests/test_signed.py::test_pentagon_hexagon_masks")),
    Mutant("balance read off the mask, not the syndrome", SIGNED,
           "return not syndrome(s.graph, s.mask)", "return not s.mask",
           ("tests/test_signed.py::"
            "test_is_balanced_matches_the_witness_on_every_petersen_signature",
            "tests/test_signed.py::"
            "test_is_balanced_matches_the_witness_on_seeded_graphs_and_twins",
            "tests/test_properties.py::"
            "test_balance_agrees_with_frustration_zero")),
    Mutant("hexagons split off the walk with the pentagons", SIGNED,
           "tuple(m for m in cycles if m.bit_count() == 6)",
           "tuple(m for m in cycles if m.bit_count() >= 5)",
           ("tests/test_signed.py::test_pentagon_hexagon_masks",
            "tests/test_signed.py::"
            "test_pentagons_and_hexagons_have_closed_forms",
            "tests/test_census_cli.py::test_table_t1_values")),
    Mutant("one-pass edge check without the order test", GRAPHS,
           "if not (last < e and 0 <= u < v < vertex_count):",
           "if not (0 <= u < v < vertex_count):",
           ("tests/test_graphs.py::test_graph_validation",)),
    Mutant("route rule negated", FRUSTRATION,
           "    return r < len(g.edges) - r\n",
           "    return r >= len(g.edges) - r\n",
           ("tests/test_frustration.py::"
            "test_least_edges_searches_syndromes_below_the_cut_dimension",
            "tests/test_frustration.py::"
            "test_least_vertices_searches_syndromes_below_the_cut_dimension")),
    Mutant("tie sent to the syndrome search", FRUSTRATION,
           "    return r < len(g.edges) - r\n",
           "    return r <= len(g.edges) - r\n",
           ("tests/test_frustration.py::"
            "test_least_edges_searches_syndromes_below_the_cut_dimension",)),
    Mutant("frustration index counts the chord representative", FRUSTRATION,
           "    return least_edges(g, syndrome(g, s.mask)).bit_count()\n",
           "    return chord_mask(g, syndrome(g, s.mask)).bit_count()\n",
           ("tests/test_frustration.py::test_index_matches_brute_force",
            "tests/test_frustration.py::"
            "test_circle_routes_match_cut_walk_and_subset_search")),
    Mutant("frustration number counts the least edges", FRUSTRATION,
           "    return least_vertices(s.graph, s.mask).bit_count()\n",
           "    return least_edges(s.graph, syndrome(s.graph, s.mask))"
           ".bit_count()\n",
           ("tests/test_frustration.py::"
            "test_frustration_number_of_all_negative_complete_graphs",
            "tests/test_frustration.py::"
            "test_circle_routes_match_cut_walk_and_subset_search")),
    Mutant("comment test read off the line", IO,
           'if not parts or parts[0][0] == "#":',
           'if not parts or ln[0] == "#":',
           ("tests/test_census_cli.py::test_edge_list_error_messages",)),
    Mutant("sign mask shifted one place", IO,
           "            mask |= 1 << i\n",
           "            mask |= 2 << i\n",
           ("tests/test_census_cli.py::test_edge_list_round_trip",
            "tests/test_io.py::test_file_gives_what_its_text_gives")),
    Mutant("transport without the high table", GROUPS,
           "x ^= y ^ lo[low] ^ hi[high]", "x ^= y ^ lo[low]",
           ("tests/test_groups.py::"
            "test_lifts_are_carried_from_the_chord_representative",)),
    Mutant("lifts without the vertex-0 step", GROUPS,
           "out.append(_pair((x ^ full if x & 1 else x, p)))",
           "out.append(_pair((x, p)))",
           ("tests/test_groups.py::test_lifts_match_the_pullback_scan",
            "tests/test_groups.py::"
            "test_lifts_are_carried_from_the_chord_representative")),
    Mutant("closure check blind to switching masks", GROUPS,
           "if c is None or c[0] != (z ^ full if z & 1 else z):",
           "if c is None:",
           ("tests/test_groups.py::"
            "test_switching_group_rejects_bad_elements",)),
    Mutant("Aut closure check skipped", GROUPS,
           "            _check_closure(self.by_perm)\n",
           "            pass\n",
           ("tests/test_groups.py::test_switching_group_rejects_bad_elements",
            "tests/test_groups.py::"
            "test_switching_group_accepts_exactly_the_subgroups",
            "tests/test_census_cli.py::"
            "test_warm_group_and_cluster_compute_only_what_they_print")),
    Mutant("a group given no histogram skips its closure check", GROUPS,
           "        if not histogram:\n"
           "            _check_closure(self.by_perm)\n"
           "            histogram = Counter(map(perm_order, self.by_perm))\n",
           "        if not histogram:\n"
           "            histogram = Counter(map(perm_order, self.by_perm))\n"
           "        else:\n"
           "            _check_closure(self.by_perm)\n",
           ("tests/test_groups.py::test_switching_group_rejects_bad_elements",
            "tests/test_census_cli.py::test_verify_all_does_group_work_once")),
    Mutant("subgroup test compares permutations only", GROUPS,
           "all(other.by_perm.get(e[1]) == e for e in self.elements)",
           "all(e[1] in other.by_perm for e in self.elements)",
           ("tests/test_groups.py::test_subgroup_test_compares_whole_pairs",)),
    Mutant("image edge one index too high", GROUPS,
           "(inc[ai[u]] & inc[ai[v]]).bit_length() - 1",
           "(inc[ai[u]] & inc[ai[v]]).bit_length()",
           ("tests/test_groups.py::"
            "test_chord_images_match_the_edge_permutation",
            "tests/test_cli_golden.py::"
            "test_group_and_cluster_digests_over_the_six_classes")),
    Mutant("class scan skips the closure check", GROUPS,
           "    _check_closure({p: (x, p) for x, p, _ in lifts})\n", "",
           ("tests/test_groups.py::"
            "test_orbit_counts_refuse_a_class_scan_that_is_not_a_group",)),
    Mutant("lifts handed to swaut without the class histogram", GROUPS,
           "    return tuple(out), histogram\n",
           "    return tuple(out), None\n",
           ("tests/test_census_cli.py::test_verify_all_does_group_work_once",
            "tests/test_census_cli.py::"
            "test_warm_group_and_cluster_compute_only_what_they_print")),
    Mutant("coset system keeps the unclosed default", GROUPS,
           "    if not closed and (alternative := _closed_reps(cosets, "
           "conjugations, n)):\n"
           "        reps = alternative\n",
           "    if not closed and (alternative := _closed_reps(cosets, "
           "conjugations, n)):\n"
           "        pass\n",
           ("tests/test_groups.py::"
            "test_coset_systems_match_the_element_reference",)),
    Mutant("coset tie-break inverted", GROUPS,
           "(size == n and x ^ full < x)", "(size == n and x ^ full > x)",
           ("tests/test_groups.py::"
            "test_coset_representatives_switch_at_most_half_the_vertices",)),
    Mutant("catalog key read in element order, not sorted", GROUPS,
           "key = (g.order, tuple(sorted(g.order_histogram.items())))",
           "key = (g.order, tuple(g.order_histogram.items()))",
           ("tests/test_groups.py::test_cayley_tables_match_oracle",
            "tests/test_groups.py::test_aut_and_swaut_tables")),
    Mutant("argv matcher keeping --k a string", CLI,
           "value = convert(value)", "convert(value)",
           ("tests/test_census_cli.py::"
            "test_argv_matcher_declines_or_agrees_with_argparse",)),
)


def occurrences(m: Mutant) -> int:
    return (ROOT / m.path).read_text().count(m.snippet)


def failed_ids(output: str) -> set[str]:
    """The node ids that pytest's ``-rf`` summary lists as failed."""
    return set(re.findall(r"^FAILED (\S+)", output, re.MULTILINE))


def run(m: Mutant) -> tuple[bool, str]:
    """(caught, what happened): caught when every named test fails."""
    if occurrences(m) != 1:
        return False, f"snippet occurs {occurrences(m)} times in {m.path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                      ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / m.path
        target.write_text(target.read_text().replace(m.snippet, m.replacement))
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf",
                 "-p", "no:cacheprovider", *m.tests],
                cwd=work, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"no end within {TIMEOUT_S} s"
    if done.returncode not in (0, 1):  # an error, not a test failure
        last = (done.stdout.strip().splitlines() or [""])[-1]
        return False, f"pytest exit {done.returncode}: {last}"
    failed = failed_ids(done.stdout)
    alive = [t for t in m.tests
             if not any(f == t or f.startswith(t + "[") for f in failed)]
    if alive:
        return False, "passed: " + ", ".join(alive)
    return True, f"{len(m.tests)} failed"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    missed = 0
    for m in chosen:
        start = time.perf_counter()
        caught, what = run(m)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'} {m.name} "
              f"({time.perf_counter() - start:.1f} s): {what}", flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
