"""Benchmark of the signedpetersen package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see BENCHMARK.json for why each was chosen), all closed
loops with one client driven from this process:

- ``paper_verify``: fresh processes one after another: ``verify``,
  ``census --format json``, then ``table <id> --format json`` for the nine
  ids in a seeded order.
- ``petersen_queries``: one warm process answers ``classify``, ``group
  --coset-table``, ``color --k 1`` and ``cluster`` in turn, each on a fresh
  planted-class mask.
- ``general_graphs``: one warm process answers ``classify``, ``cluster``
  and (up to 10 vertices) ``color --k 1`` on seeded random signed graphs of
  8-16 vertices and their relabelled or switched twins.

Every answer is checked. With ``--trace 0`` the run prints the end-to-end
metrics, whose times are CPU times adjusted for the host's speed (see
speed.py); with ``--trace 1`` it alternates untraced and traced passes over a
fixed slice of the same work and prints per-layer self times and counts.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's median, tail percentile and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from tracer import layer_totals  # noqa: E402

WORKLOADS = ("paper_verify", "petersen_queries", "general_graphs")
TABLE_IDS = ("T1", "T2", "T3", "T4_orders", "T5", "T8", "T9", "T10", "census")
QUERY_KINDS = ("classify", "group", "color", "cluster")
SETUP_REPEATS = 16         # half before the timed loop, half after
PETERSEN_PASS = 16         # queries per pass: four rounds of the four kinds
PROCESS_TIMEOUT_S = 60
QUERY_TIMEOUT_S = 30
RUN_PY = "import sys; from signedpetersen.cli import main; sys.exit(main(sys.argv[1:]))"

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it (nearest rank), or None with fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    p = 100 * (n - 10) // n
    return p, ordered[-(-p * n // 100) - 1]


class Report:
    """Metrics of one run plus the human-readable lines describing them.

    Only the metrics named in BENCHMARK.json for this mode go into the JSON
    result; the rest (per-command and per-kind timings, the fail rate) are
    printed as details."""

    def __init__(self, units):
        self.units = units      # name -> unit of every metric to report
        self.metrics = {}
        self.lines = []

    def timing(self, name, unit, samples, scale=1.0):
        values = [v * scale for v in samples]
        if not values:
            self.value(name, unit, 0.0, "no successful samples")
            return
        med = statistics.median(values)
        t = tail(values)
        extra = f"p{t[0]} {t[1]:.4f}" if t else "no tail (<20 samples)"
        self.value(name, unit, med, f"median, {extra}, n={len(values)}")

    def value(self, name, unit, value, note=""):
        mark = "" if name in self.units else "  (detail)"
        self.lines.append(f"{name:<40} {value:14.4f} {unit:<6} {note}{mark}".rstrip())
        if name in self.units:
            self.metrics[name] = {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_process(argv, timeout=PROCESS_TIMEOUT_S):
    """(exit code or None on timeout, wall seconds, CPU seconds, stdout,
    stderr). CPU is the child's user+system time, read from the rusage of
    reaped children, so it leaves out time the host gave to other work."""
    cpu = children_cpu_s()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            rc, err = None, f"timeout after {timeout} s"
    return rc, time.perf_counter() - start, children_cpu_s() - cpu, out, err


def peak_rss_mb():
    """Largest peak RSS among the finished child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def add(self, verdict, reason):
        self.attempted += 1
        if verdict != checks.OK:
            self.failed += 1
            self.wrong.append(reason)


# ---------------------------------------------------------------------------
# paper_verify
# ---------------------------------------------------------------------------

def paper_commands(rng):
    tables = list(TABLE_IDS)
    rng.shuffle(tables)
    return ([("verify", ["verify"]), ("census", ["census", "--format", "json"])]
            + [(f"table {t}", ["table", t, "--format", "json"]) for t in tables])


def check_paper(name, rc, out, err, program):
    if rc != 0:
        return checks.WRONG, f"{name}: exit code {rc} {err.strip()[-160:]!r}"
    if name == "verify":
        reason = checks.check_verify(out)
    else:
        table_id = "census" if name == "census" else name.split()[1]
        reason = checks.check_table(table_id, out, program.EXPECTED_ROWS, program.expected)
    return (checks.WRONG, reason) if reason else (checks.OK, None)


def paper_iteration(commands, tally, program, spans_dir=None):
    """Run one paper reproduction; returns {command: (wall s, CPU s,
    adjusted CPU s, reference ms)} and, when traced, the span list of each
    command. A command's reference is the mean of the reference loops timed
    just before and just after it."""
    times, spans = {}, {}
    reference = speed.reference_ms(3)
    for i, (name, argv) in enumerate(commands):
        if spans_dir is None:
            cmd = [sys.executable, "-c", RUN_PY, *argv]
        else:
            path = spans_dir / f"spans{i}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(SRC), str(path), "--", *argv]
        rc, wall, cpu, out, err = run_process(cmd)
        tally.add(*check_paper(name, rc, out, err, program))
        before, reference = reference, speed.reference_ms(3)
        mean = (before + reference) / 2
        times[name] = wall, cpu, speed.adjusted(cpu, mean), mean
        if spans_dir is not None:
            spans[name] = json.loads(path.read_text()) if path.exists() else []
    return times, spans


def run_paper_verify(args, rng, work, program, report, tally):
    commands = paper_commands(rng)
    if args.trace:
        iterations = []
        begin = time.perf_counter()
        while not iterations or time.perf_counter() - begin < args.seconds:
            untraced, _ = paper_iteration(commands, tally, program)
            traced, spans = paper_iteration(commands, tally, program, work)
            iterations.append((sum(t[2] for t in untraced.values()),
                               sum(t[2] for t in traced.values()), spans))
        layer_report(report, [process_totals(it[2]) for it in iterations],
                     [it[0] for it in iterations], [it[1] for it in iterations])
        return

    def setup_once():
        reference = speed.reference_ms(3)
        rc, _, cpu, _, err = run_process([sys.executable, "-c", "import signedpetersen.cli"])
        if rc != 0:
            raise SystemExit(f"import failed: {err}")
        return speed.adjusted(cpu, (reference + speed.reference_ms(3)) / 2)

    setup = [setup_once() for _ in range(SETUP_REPEATS // 2)]
    samples = {"verify": [], "census": [], "tables": [], "wall": [], "adjusted": [],
               "reference": []}
    begin = time.perf_counter()
    while not samples["wall"] or time.perf_counter() - begin < args.seconds:
        times, _ = paper_iteration(commands, tally, program)
        samples["verify"].append(times["verify"][0])
        samples["census"].append(times["census"][0])
        samples["tables"].append(sum(t[0] for k, t in times.items() if k.startswith("table ")))
        samples["wall"].append(sum(t[0] for t in times.values()))
        samples["adjusted"].append(sum(t[2] for t in times.values()))
        samples["reference"] += [t[3] for t in times.values()]
    elapsed = time.perf_counter() - begin
    setup += [setup_once() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    report.timing("setup_s", "s", setup)
    report.timing("pass_ms", "ms", samples["adjusted"], 1e3)
    report.value("peak_rss_mb", "MB", peak_rss_mb(), "largest command process")
    report.timing("pass_wall_ms", "ms", samples["wall"], 1e3)
    report.value("queries_per_s", "1/s", (tally.attempted - tally.failed) / elapsed,
                 "correct commands per second of run time")
    report.timing("verify_s", "s", samples["verify"])
    report.timing("tables_s", "s", samples["tables"])
    report.timing("census_s", "s", samples["census"])
    report.timing("reference_ms", "ms", samples["reference"])


def process_totals(spans_by_command):
    """Layer totals of one paper pass, by scope: ``all`` processes, the
    ``verify`` process and the nine ``tables`` processes. Each process's
    totals are summed, so distinct SwAut masks are counted per process (no
    work can be shared across processes); the import time is the median
    over processes."""
    scopes = {"all": {}, "verify": {}, "tables": {}}
    imports = []
    for name, spans in spans_by_command.items():
        per = layer_totals(spans)
        imports.append(per.pop("import.signedpetersen", EMPTY)["self_ns"])
        targets = [scopes["all"]]
        if name == "verify" or name.startswith("table "):
            targets.append(scopes["verify" if name == "verify" else "tables"])
        for totals in targets:
            for key, t in per.items():
                acc = totals.setdefault(key, dict(EMPTY))
                for field in acc:
                    acc[field] += t[field]
    scopes["all"]["import.signedpetersen"] = dict(EMPTY, self_ns=statistics.median(imports))
    return scopes


# ---------------------------------------------------------------------------
# Warm workloads
# ---------------------------------------------------------------------------

def petersen_stream(rng, program, count):
    standard = inputs.standard_masks(program.expected)
    queries = []
    for i in range(count):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        col, mask = inputs.planted_mask(rng, program.expected, standard)
        argv = [kind, "--mask", f"0x{mask:04x}"] + {
            "group": ["--coset-table"], "color": ["--k", "1"]}.get(kind, [])
        queries.append({"kind": kind, "argv": argv, "col": col, "mask": mask,
                        "pass": i // PETERSEN_PASS})
    return queries


def petersen_check(query, out, expected):
    kind, col = query["kind"], query["col"]
    if kind == "classify":
        return checks.check_classify_mask(out, col, expected)
    if kind == "group":
        return checks.check_group(out, col, expected)
    if kind == "color":
        return checks.check_color_mask(out, col, expected)
    signs = {e: -1 if query["mask"] >> i & 1 else 1 for i, e in enumerate(inputs.EDGES)}
    return checks.check_cluster(out, 10, signs)


def general_stream(rng, work, graphs):
    """Queries on each graph: classify on it and its switched twin (only if
    it is connected, see probe_disconnected_classify), cluster on it and its
    relabelled twin, color on it and its switched twin."""
    queries = []
    for index in range(graphs):
        g = inputs.graph_set(rng, index)
        paths = {}
        for key in ("graph", "relabelled", "switched"):
            paths[key] = work / f"g{index}_{key}.txt"
            paths[key].write_text(g[key])
        pairs = [("cluster", "relabelled")]
        if g["connected"]:
            pairs.insert(0, ("classify", "switched"))
        if g["n"] <= inputs.COLOR_MAX_VERTICES:
            pairs.append(("color", "switched"))
        for kind, twin in pairs:
            extra = ["--k", "1"] if kind == "color" else []
            for key in ("graph", twin):
                queries.append({"kind": kind, "argv": [kind, "--file", str(paths[key]), *extra],
                                "graph": checks.parse_graph(g[key]), "index": index,
                                "pass": index // (inputs.MAX_VERTICES - inputs.MIN_VERTICES + 1),
                                "connected": g["connected"], "twin": key != "graph"})
    return queries


def probe_disconnected_classify(work):
    """Exit code of one fresh-process ``classify`` on a disconnected graph.

    The benchmarked commit exits 2 there ("requires a connected graph").
    The workloads must not fail, so disconnected graphs get no ``classify``
    in the timed stream; this probe, run after the metrics are taken, keeps
    the defect in the output. Once it reads 0, disconnected graphs belong in
    the stream again."""
    graph = work / "g0_graph.txt"      # graph 0 of every round is disconnected
    rc, _, _, _, _ = run_process([sys.executable, "-c", RUN_PY, "classify", "--file", str(graph)])
    return rc


def general_check(query, out):
    n, signs = query["graph"]
    if query["kind"] == "classify":
        return checks.check_classify_graph(out, signs)
    if query["kind"] == "cluster":
        return checks.check_cluster(out, n, signs)
    return checks.check_color_graph(out)


def judge(queries, answers, check, tally):
    """Verdict of every answer, in order; a twin is compared with the answer
    its graph got just before it."""
    verdicts = []
    previous = None
    for k, rc, _, _, _, out, err in answers:
        q = queries[k]
        twin_of = previous if q.get("twin") and previous and previous[0] == k - 1 else None
        v, reason = checks.verdict(q, rc, out, err, lambda o: check(q, o),
                                   twin_of[1:] if twin_of else None)
        tally.add(v, reason)
        verdicts.append(v)
        previous = (k, rc, out) if v == checks.OK and not q.get("twin") else None
    return verdicts


def pass_times(queries, answers, seconds):
    """Time of each complete pass: ``seconds(answer)`` summed over the
    consecutive answers to all queries of one pass id."""
    size = {}
    for q in queries:
        size[q["pass"]] = size.get(q["pass"], 0) + 1
    out, current, total, count = [], None, 0.0, 0
    for answer in answers:
        p = queries[answer[0]]["pass"]
        if p != current:
            current, total, count = p, 0.0, 0
        total += seconds(answer)
        count += 1
        if count == size[p]:
            out.append(total)
    return out


def run_worker(plan, work, name):
    """(summary, answers) of one worker process; see worker.py."""
    plan_path, result_path = work / f"{name}.plan.json", work / f"{name}.result.jsonl"
    plan_path.write_text(json.dumps(plan))
    rc, _, _, _, err = run_process([sys.executable, str(HERE / "worker.py"), str(plan_path),
                                    str(result_path)], timeout=plan["seconds"] + 120)
    if rc != 0:
        raise SystemExit(f"worker failed ({rc}): {err.strip()[-400:]}")
    answers, summary = [], None
    with open(result_path, encoding="utf-8") as fh:
        for line in fh:
            tag, *rest = json.loads(line)
            if tag == "answer":
                answers.append(rest)
            else:
                summary = rest[0]
    return summary, answers


def run_warm(args, rng, work, program, report, tally):
    if args.workload == "petersen_queries":
        queries = petersen_stream(rng, program, 4000)
        warm_rng = random.Random(0)
        warmup = [q["argv"] for q in petersen_stream(warm_rng, program, 4)]
        trace_pass = 32
        check = lambda q, o: petersen_check(q, o, program.expected)  # noqa: E731
    else:
        queries = general_stream(rng, work, 360)
        warm_dir = work / "warmup"
        warm_dir.mkdir()
        warmup = [q["argv"] for q in general_stream(random.Random(0), warm_dir, 2)
                  if not q["twin"]]
        # one round: a graph of each size 8..16
        trace_pass = sum(1 for q in queries if q["index"] <= inputs.MAX_VERTICES - inputs.MIN_VERTICES)
        check = general_check
    plan = {"src": str(SRC), "warmup": warmup, "stream": [q["argv"] for q in queries],
            "seconds": args.seconds, "query_timeout_s": QUERY_TIMEOUT_S,
            "trace_pass": trace_pass, "mode": "trace" if args.trace else "run"}
    if args.trace:
        result, answers = run_worker(plan, work, "trace")
        judge(queries, answers, check, tally)
        passes = result["passes"]
        scopes = [{"all": layer_totals(p["spans"])} for p in passes]
        for s in scopes:
            s["all"]["import.signedpetersen"] = dict(EMPTY, self_ns=result["import_ms"] * 1e6)
        layer_report(report, scopes, [p["untraced_s"] for p in passes],
                     [p["traced_s"] for p in passes])
        return

    def setup_adjusted(summary):
        return speed.adjusted(summary["setup_cpu_s"], summary["setup_reference_ms"])

    def setup_once(i):
        return setup_adjusted(run_worker(dict(plan, mode="setup"), work, f"setup{i}")[0])

    setup = [setup_once(i) for i in range(SETUP_REPEATS // 2 - 1)]
    result, answers = run_worker(plan, work, "run")
    setup.append(setup_adjusted(result))
    setup += [setup_once(i) for i in range(SETUP_REPEATS // 2, SETUP_REPEATS)]
    verdicts = judge(queries, answers, check, tally)
    report.timing("setup_s", "s", setup)
    report.timing("pass_ms", "ms", pass_times(queries, answers,
                                              lambda a: speed.adjusted(a[3], a[4])), 1e3)
    report.value("peak_rss_mb", "MB", peak_rss_mb(), "worker process")
    report.timing("pass_wall_ms", "ms", pass_times(queries, answers, lambda a: a[2]), 1e3)
    ok = sum(1 for v in verdicts if v == checks.OK)
    report.value("queries_per_s", "1/s", ok / result["run_s"], "correct queries per second of run time")
    kinds = QUERY_KINDS if args.workload == "petersen_queries" else ("classify", "color", "cluster")
    for kind in kinds:
        report.timing(f"{kind}_ms", "ms", [a[2] for a, v in zip(answers, verdicts)
                                           if v == checks.OK and queries[a[0]]["kind"] == kind],
                      1e3)
    report.timing("reference_ms", "ms", [a[4] for a in answers])
    if args.workload == "general_graphs":
        report.value("classify_disconnected_exit", "code", probe_disconnected_classify(work),
                     "known defect while not 0; untimed, not counted")


# ---------------------------------------------------------------------------
# Per-layer report
# ---------------------------------------------------------------------------

EMPTY = {"self_ns": 0, "calls": 0, "sum": 0, "distinct": 0}
SCOPES = ("verify", "tables")


def layer_report(report, passes, untraced_s, traced_s):
    """Every per-layer metric named in BENCHMARK.json, from the traced
    passes (each a dict scope -> span name -> totals). A metric is named
    ``[scope.]<span>.<stat>``: ``ms`` is the span's self time, the median
    over passes; ``calls`` its call count; ``distinct_ratio`` its distinct
    info values per call; any other stat the sum of its info values. Counts
    come from the first pass, since every pass runs the same queries.
    Layers a workload never reaches read 0."""
    for name in sorted(report.units):
        if name == "trace.overhead_ratio":
            report.value(name, "ratio", statistics.median(traced_s) / statistics.median(untraced_s),
                         f"traced / untraced adjusted pass CPU time, {len(traced_s)} pairs")
            continue
        head, rest = name.split(".", 1)
        scope, rest = (head, rest) if head in SCOPES else ("all", name)
        span, stat = rest.rsplit(".", 1)
        first = passes[0].get(scope, {}).get(span, EMPTY)
        if stat == "ms":
            value = statistics.median(p.get(scope, {}).get(span, EMPTY)["self_ns"] / 1e6
                                      for p in passes)
        elif stat == "calls":
            value = first["calls"]
        elif stat == "distinct_ratio":
            value = first["distinct"] / first["calls"] if first["calls"] else 0.0
        else:
            value = first["sum"]
        report.value(name, report.units[name], value)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_program():
    """The checkout's package, imported from src/ and nowhere else."""
    if not (SRC / "signedpetersen" / "cli.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'signedpetersen'}")
    sys.path.insert(0, str(SRC))
    import signedpetersen.census as census
    if Path(census.__file__).resolve().parent != SRC / "signedpetersen":
        raise SystemExit(f"imported {census.__file__}, not the checkout's package")
    return census


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    rng = random.Random(args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    report, tally = Report(units), Tally()
    try:
        if args.workload == "paper_verify":
            run_paper_verify(args, rng, work, program, report, tally)
        else:
            run_warm(args, rng, work, program, report, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not args.trace:
        report.value("success_ratio", "ratio", (tally.attempted - tally.failed) / tally.attempted,
                     "correct answers / attempted")
        report.value("fail_rate", "ratio", tally.failed / tally.attempted,
                     f"{tally.failed} of {tally.attempted} failed")
    print(f"# {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in report.lines:
        print(line)
    for reason in tally.wrong[:20]:
        print(f"WRONG: {reason}")
    missing = units.keys() - report.metrics.keys()
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
