"""Warm-process worker: imports the program once, then answers a stream of
``cli.main`` calls in-process with stdout and stderr captured.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan holds the source directory, the warm-up argv lists, the query
argv stream, the run length and the mode:

- ``setup``: import and warm up, then stop; reports ``setup_s``.
- ``run``: answer the stream in order, wrapping round, until the run length
  has passed.
- ``trace``: alternate an untraced and a traced pass over the first
  ``trace_pass`` queries until the run length has passed; the spans and the
  adjusted CPU time of each traced pass, and that of the untraced pass
  before it, are returned.

The result file is JSON lines: one ``["answer", k, rc, wall_s, cpu_s,
reference_ms, out, err]`` line per query, written as it is answered so that
the worker's peak RSS holds no benchmark data that grows with throughput,
then one ``["done", summary]`` line. ``cpu_s`` is the process's user+system
time spent in the call and ``reference_ms`` the reference loop timed just
before it (see speed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time

import speed
from tracer import Tracer


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def ask(cli, argv, timeout_s):
    """(exit code or None, wall seconds, CPU seconds, stdout, stderr) of one
    cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    cpu = time.process_time_ns()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except QueryTimeout:
        rc, err = None, io.StringIO(f"timeout after {timeout_s} s")
    except Exception as exc:  # a crash is an answer to record, not to die on
        rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter_ns() - start
        cpu = time.process_time_ns() - cpu
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, elapsed / 1e9, cpu / 1e9, out.getvalue(), err.getvalue()


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, plan["src"])

    reference = [speed.reference_ms(3)]
    cpu = time.process_time_ns()
    start = time.perf_counter_ns()
    from signedpetersen import cli
    import_ns = time.perf_counter_ns() - start
    for argv in plan["warmup"]:
        rc, _, _, _, err = ask(cli, argv, plan["query_timeout_s"])
        if rc != 0:
            print(f"warm-up {argv} failed with {rc}: {err}", file=sys.stderr)
            return 1
    summary = {"setup_s": (time.perf_counter_ns() - start) / 1e9,
               "setup_cpu_s": (time.process_time_ns() - cpu) / 1e9,
               "import_ms": import_ns / 1e6, "passes": []}
    reference.append(speed.reference_ms(3))
    summary["setup_reference_ms"] = sum(reference) / 2

    stream, seconds, timeout = plan["stream"], plan["seconds"], plan["query_timeout_s"]
    with open(result_path, "w", encoding="utf-8") as fh:

        def answer(k):
            reference = speed.reference_ms()
            rc, wall, cpu, out, err = ask(cli, stream[k], timeout)
            fh.write(json.dumps(["answer", k, rc, wall, cpu, reference, out, err]) + "\n")
            return speed.adjusted(cpu, reference)

        begin = time.perf_counter()
        if plan["mode"] == "run":
            i = 0
            while time.perf_counter() - begin < seconds:
                answer(i % len(stream))
                i += 1
            summary["run_s"] = time.perf_counter() - begin
        elif plan["mode"] == "trace":
            queries = range(plan["trace_pass"])
            while not summary["passes"] or time.perf_counter() - begin < seconds:
                untraced = sum(answer(k) for k in queries)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = sum(answer(k) for k in queries)
                finally:
                    tracer.uninstall()
                summary["passes"].append({"untraced_s": untraced, "traced_s": traced,
                                          "spans": tracer.spans})
        fh.write(json.dumps(["done", summary]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
