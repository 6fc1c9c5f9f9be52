"""Tests of the benchmark itself: span arithmetic, answer checks, the
planted-class generator and seed reproducibility.

    python3 -m pytest perfbench/tests
"""

import json
import random

import pytest

import checks
import inputs
import run
import speed
from tracer import Tracer, layer_totals
from signedpetersen import census, expected
from signedpetersen.signed import SIX_ORDER, classify_six_mask


# --------------------------------------------------------------------------
# Self time
# --------------------------------------------------------------------------

class StepClock:
    """A clock that advances by a fixed step on every reading."""

    def __init__(self, step=10):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_of_nested_calls():
    clock = StepClock()
    tracer = Tracer(clock)
    inner = tracer.wrap(lambda: 7, "inner", lambda a, k, r: r)

    def body():
        clock.now += 100          # outer's own work
        inner()
        inner()
        return 0

    outer = tracer.wrap(body, "outer")
    outer()
    # Clock readings: outer start 10, own work jumps to 110, inner 120..130,
    # inner 140..150, outer end 160.
    totals = layer_totals(tracer.spans)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_ns"] == 20
    assert totals["inner"]["sum"] == 14
    assert totals["inner"]["distinct"] == 1
    assert totals["outer"]["self_ns"] == 150 - 20
    ids = {s[0]: s for s in tracer.spans}
    outer_span = next(s for s in tracer.spans if s[3] == "outer")
    assert all(ids[s[1]] is outer_span for s in tracer.spans if s[3] == "inner")
    assert {s[2] for s in tracer.spans} == {1}


def test_install_rebinds_name_imported_copies():
    from signedpetersen import cli, frustration, groups
    original = groups.swaut
    original_index = frustration.frustration_index
    tracer = Tracer()
    tracer.install()
    try:
        assert census.swaut is groups.swaut is cli.swaut
        assert cli.swaut is not original
        assert cli.frustration_index is frustration.frustration_index
        assert cli.frustration_index is not original_index
    finally:
        tracer.uninstall()
    assert groups.swaut is original and census.swaut is original and cli.swaut is original
    assert cli.frustration_index is original_index
    assert frustration.frustration_index is original_index


def test_traced_command_counts_swaut_calls(capsys):
    from signedpetersen import cli
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["group", "--mask", "0x0001"]) == 0
    finally:
        tracer.uninstall()
    totals = layer_totals(tracer.spans)
    assert totals["groups.swaut"]["calls"] == 1
    assert totals["groups.swaut"]["distinct"] == 1
    assert totals["groups.cayley"]["sum"] == 8 ** 2 + 8 ** 2
    assert totals["cli.main"]["calls"] == 1
    assert all(t["self_ns"] >= 0 for t in totals.values())


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def classify_answer(col):
    return (f"class {expected.CLASS_NAMES[col]}\n"
            f"frustration index {expected.FRUSTRATION_INDEX[col]}\n"
            f"frustration number {expected.FRUSTRATION_NUMBER[col]}\n"
            f"negative pentagons {expected.NEGATIVE_PENTAGONS[col]}\n"
            f"negative hexagons {expected.NEGATIVE_HEXAGONS[col]}\n")


def test_checker_rejects_a_mutated_line():
    good = classify_answer(2)
    assert checks.check_classify_mask(good, 2, expected) is None
    lines = good.splitlines(keepends=True)
    for i, line in enumerate(lines):
        mutated = "".join(lines[:i] + [line.replace(line.split()[-1], "9")] + lines[i + 1:])
        assert checks.check_classify_mask(mutated, 2, expected) is not None


def test_checker_rejects_a_mutated_table_cell():
    good = census.build_table("T4_orders").render("json")
    assert checks.check_table("T4_orders", good, census.EXPECTED_ROWS, expected) is None
    doc = json.loads(good)
    doc["rows"][2]["values"][4] = 30
    bad = json.dumps(doc)
    assert "swaut order" in checks.check_table("T4_orders", bad, census.EXPECTED_ROWS, expected)


def test_verdict_rejects_an_unexpected_exit_code():
    query = {"kind": "classify"}
    ok = lambda out: None  # noqa: E731
    assert checks.verdict(query, 0, "x", "", ok) == (checks.OK, None)
    v, reason = checks.verdict(query, 1, "x", "", ok)
    assert v == checks.WRONG and "exit code 1" in reason
    v, _ = checks.verdict(query, None, "", "timeout after 30 s", ok)
    assert v == checks.WRONG


def test_twin_must_match_its_graph():
    query = {"kind": "cluster", "twin": True}
    out = "clusterable yes clusters 2\n"
    assert checks.verdict(query, 0, out, "", lambda o: None, (0, out))[0] == checks.OK
    assert checks.verdict(query, 0, out, "", lambda o: None,
                          (0, "clusterable yes clusters 3\n"))[0] == checks.WRONG


def test_union_find_clusterability():
    triangle = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    assert not checks.clusterable(3, triangle)
    assert checks.clusterable(3, {(0, 1): 1, (1, 2): -1, (0, 2): -1})
    assert checks.check_cluster("clusterable no inclusterability 1\n", 3, triangle) is None
    assert checks.check_cluster("clusterable yes clusters 2\n", 3, triangle) is not None


# --------------------------------------------------------------------------
# Planted classes
# --------------------------------------------------------------------------

class CountingRandom(random.Random):
    """Class draws walk through every value in turn; the rest is random."""

    def __init__(self):
        super().__init__(0)
        self.next_class = 0

    def randrange(self, stop, *rest):
        if stop == expected.TOTAL_SIGNATURES and not rest:
            self.next_class += 1
            return self.next_class - 1
        return super().randrange(stop, *rest)


def test_planted_classes_follow_signature_counts():
    standard = inputs.standard_masks(expected)
    rng = CountingRandom()
    counts = [0] * 6
    for _ in range(expected.TOTAL_SIGNATURES):
        col, _ = inputs.planted_mask(rng, expected, standard)
        counts[col] += 1
    assert tuple(counts) == expected.SIGNATURE_COUNTS


def test_planted_masks_belong_to_their_class():
    standard = inputs.standard_masks(expected)
    assert [classify_six_mask(m) for m in standard] == list(SIX_ORDER)
    rng = random.Random(3)
    for _ in range(2000):
        col, mask = inputs.planted_mask(rng, expected, standard)
        assert classify_six_mask(mask) is SIX_ORDER[col]


def test_automorphisms_and_edge_order_match_the_program():
    from signedpetersen.graphs import automorphism_images, petersen
    g, _ = petersen()
    assert inputs.EDGES == g.edges
    assert sorted(inputs.AUTOMORPHISMS) == sorted(automorphism_images(g))


# --------------------------------------------------------------------------
# Seeds
# --------------------------------------------------------------------------

def streams(seed, work):
    work.mkdir()
    petersen = run.petersen_stream(random.Random(seed), census, 200)
    general = run.general_stream(random.Random(seed), work, 30)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return [q["argv"] for q in petersen], [q["argv"][1:] for q in general], files


def test_fixed_seed_reproduces_inputs_byte_for_byte(tmp_path):
    a = streams(11, tmp_path / "a")
    b = streams(11, tmp_path / "b")
    c = streams(12, tmp_path / "c")
    assert a[0] == b[0] and a[2] == b[2]
    assert [x[0] for x in a[1]] == [x[0] for x in b[1]]
    assert a[0] != c[0] and a[2] != c[2]


def test_general_graphs_stay_in_their_envelope(tmp_path):
    queries = run.general_stream(random.Random(5), tmp_path, 36)
    for q in queries:
        n, signs = q["graph"]
        assert inputs.MIN_VERTICES <= n <= inputs.MAX_VERTICES
        assert len(signs) <= inputs.MAX_EDGES
        if q["kind"] == "color":
            assert n <= inputs.COLOR_MAX_VERTICES
    disconnected = {q["index"] for q in queries if not q["connected"]}
    assert disconnected == {i for i in range(36) if i % 9 == 0}
    assert not any(q["kind"] == "classify" for q in queries if not q["connected"])


def test_probe_reads_the_disconnected_classify_exit_code(tmp_path):
    queries = run.general_stream(random.Random(5), tmp_path, 9)
    assert not queries[0]["connected"] and queries[0]["argv"][2] == str(tmp_path / "g0_graph.txt")
    # 2 while classify rejects disconnected graphs, 0 once it answers them
    assert run.probe_disconnected_classify(tmp_path) in (0, 2)


@pytest.mark.parametrize("values,expected_tail", [
    (list(range(19)), None),
    (list(range(20)), (50, 9)),
    (list(range(100)), (90, 89)),
])
def test_tail_percentile_keeps_ten_samples_beyond(values, expected_tail):
    assert run.tail(values) == expected_tail


def test_layer_report_gives_every_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    swaut = dict(run.EMPTY, self_ns=3_000_000, calls=12, distinct=6)
    passes = [{"all": {"groups.swaut": swaut,
                       "groups.cayley": dict(run.EMPTY, self_ns=5_000_000, calls=2, sum=128),
                       "import.signedpetersen": dict(run.EMPTY, self_ns=40_000_000)},
               "verify": {"groups.swaut": swaut},
               "tables": {"groups.swaut": dict(swaut, calls=6)}},
              {"all": {"groups.swaut": dict(swaut, self_ns=1_000_000)}}]
    report = run.Report(units)
    run.layer_report(report, passes, [1.0, 1.0], [1.2, 1.4])
    value = {k: v["value"] for k, v in report.metrics.items()}
    assert set(value) == set(units)
    assert value["groups.swaut.ms"] == 2.0
    assert value["groups.swaut.calls"] == 12
    assert value["verify.groups.swaut.calls"] == 12
    assert value["verify.groups.swaut.distinct_ratio"] == 0.5
    assert value["tables.groups.swaut.distinct_ratio"] == 1.0
    assert value["groups.cayley.cells"] == 128
    assert value["import.signedpetersen.ms"] == 20.0
    assert value["coloring.count_colorations.calls"] == 0
    assert value["trace.overhead_ratio"] == pytest.approx(1.3)


# --------------------------------------------------------------------------
# Worker and pass times
# --------------------------------------------------------------------------

def test_worker_writes_each_answer_as_a_line(tmp_path):
    plan = {"src": str(run.SRC), "warmup": [["classify", "--mask", "0x0000"]],
            "stream": [["classify", "--mask", "0x0001"], ["cluster", "--mask", "0x0003"]],
            "seconds": 0.3, "query_timeout_s": 30, "trace_pass": 2, "mode": "run"}
    summary, answers = run.run_worker(plan, tmp_path, "t")
    lines = (tmp_path / "t.result.jsonl").read_text().splitlines()
    assert len(lines) == len(answers) + 1 and json.loads(lines[-1])[0] == "done"
    assert [a[0] for a in answers[:2]] == [0, 1]
    assert all(a[1] == 0 and a[2] > 0 and a[3] >= 0 and a[4] > 0 for a in answers)
    assert answers[0][5].startswith("class ")
    assert summary["setup_cpu_s"] > 0 and summary["setup_reference_ms"] > 0
    assert summary["run_s"] >= 0.3


def test_pass_times_sum_complete_passes_only():
    queries = [{"pass": 0}, {"pass": 0}, {"pass": 1}, {"pass": 1}]
    answers = [[0, 0, 1.0, 0.5, 4.0, "", ""], [1, 0, 2.0, 1.5, 1.0, "", ""],
               [2, 0, 4.0, 3.0, 2.0, "", ""]]
    assert run.pass_times(queries, answers, lambda a: a[2]) == [3.0]
    assert run.pass_times(queries, answers, lambda a: speed.adjusted(a[3], a[4])) == [
        0.5 * speed.REFERENCE_MS / 4.0 + 1.5 * speed.REFERENCE_MS / 1.0]


def test_adjusted_time_cancels_the_host_speed():
    # The same work on a host twice as slow takes twice the CPU time and
    # twice the reference loop time.
    assert speed.adjusted(0.3, 2.5) == speed.adjusted(0.6, 5.0)
    assert speed.adjusted(0.3, speed.REFERENCE_MS) == 0.3
    assert speed.reference_ms(3) > 0
