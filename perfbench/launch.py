"""Traced fresh-process launcher: times the program's import, installs the
layer wrappers, runs one command through ``cli.main`` and writes the spans.

    python3 perfbench/launch.py SRC_DIR SPANS.json -- <command argv...>

It exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main(argv) -> int:
    src, spans_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SRC_DIR SPANS.json -- COMMAND...")
    sys.path.insert(0, src)
    tracer = Tracer()
    start = tracer.clock()
    from signedpetersen import cli
    tracer.record("import.signedpetersen", start, tracer.clock())
    tracer.install()
    try:
        rc = cli.main(command)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
