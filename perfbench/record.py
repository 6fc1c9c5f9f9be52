"""Record a set of benchmark runs as a BENCH json file.

    python3 perfbench/record.py --label NAME --out FILE

For each workload of BENCHMARK.json: two sets of ten untraced runs, each
with its own seed (1, 2, ...), then one traced run. Reports, per set and
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median), and checks that every spread
is within the metric's bound and that the second set's median is not worse
than the first's by more than the bound. Every run's result line and detail
lines are kept in the file. Exits 1 if a check fails or an answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = {}
    for line in lines[:-1]:
        words = line.split()
        if line.endswith("(detail)") and len(words) >= 3:
            details[words[0]] = {"value": float(words[1]), "unit": words[2]}
    result["seed"] = seed
    result["details"] = details
    return result


def summary(runs, spec):
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median if median else None,
                               "bound": metric["bound"]}
    return out


def worse_by(first, later, better):
    """Share by which a later median is worse than the first one."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"label": args.label, "python": platform.python_version(),
           "platform": platform.platform(), "cpus": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    seed = 1
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(workload, seed, spec["run_seconds"], 0))
                seed += 1
                r = runs[-1]
                print(workload, r["seed"], r["correct"], r["attempted"], r["failed"],
                      {k: round(v["value"], 4) for k, v in r["metrics"].items()}, flush=True)
            sets.append({"runs": runs, "summary": summary(runs, spec)})
        traced = run_once(workload, seed, spec["run_seconds"], 1)
        seed += 1
        doc["workloads"][workload] = {"sets": sets, "traced": traced}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first = sets[0]["summary"][name]
            for i, st in enumerate(sets):
                m = st["summary"][name]
                drift = worse_by(first["median"], m["median"], metric["better"])
                steady = (m["spread"] or 0) <= metric["bound"]
                agree = drift <= metric["bound"]
                ok = ok and steady and agree and all(r["correct"] for r in st["runs"])
                print(f"{workload:<18} set {i} {name:<14} median {m['median']:12.4f} "
                      f"spread {m['spread'] or 0:.4f} (bound {metric['bound']}, third "
                      f"{metric['bound'] / 3:.4f}) worse than set 0 by {drift:+.4f}"
                      f"{'' if steady and agree else '  <-- outside bound'}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
