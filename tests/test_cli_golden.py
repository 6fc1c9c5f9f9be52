"""Golden CLI output: every command line in ``data/cli_golden.json`` must
print the recorded stdout and stderr byte for byte and exit with the
recorded code.

The fixture covers ``census`` and the nine tables in every format, and
``classify``, ``group --coset-table``, ``cluster``, ``color --k 1`` and
``color --k 1 --zero-free`` on the six standard masks and their negations,
and ``group --coset-table`` on a switched and a relabelled twin of each
standard mask, whose groups are conjugates of the standard ones.

Over the 3,072 masks of the six standard masks' switching classes,
``group --coset-table`` and ``cluster`` are pinned by one SHA-256 each of
their exit codes and outputs in mask order.

``data/cli_parser_golden.json`` holds the same record for the command
lines that take the argparse path: the help screens, the usage errors,
and the spellings only argparse accepts (abbreviations, ``--opt=value``,
repeated options, values starting with ``-``). Argparse wraps its text to
the terminal width, so both recording and comparing pin ``COLUMNS=80``.
To record both fixtures again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from functools import lru_cache
from pathlib import Path

from signedpetersen import census, cli
from signedpetersen.graphs import cut_mask, cut_space, petersen
from signedpetersen.groups import SwitchingPermutation, induced_permutation
from signedpetersen.io import format_mask
from signedpetersen.signed import SIX_ORDER, SignedGraph

from oracles import parse_cycles, sp_act

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"
PARSER_FIXTURE = Path(__file__).parent / "data" / "cli_parser_golden.json"


def golden_commands() -> list[list[str]]:
    cmds = [["census", "--format", f] for f in ("text", "csv", "json")]
    cmds += [["table", t, "--format", f]
             for t in census.TABLE_IDS for f in ("text", "csv", "json")]
    masks = [census.standard_mask(t) for t in SIX_ORDER]
    for m in masks + [m ^ 0x7FFF for m in masks]:
        hx = format_mask(m)
        cmds += [["classify", "--mask", hx],
                 ["group", "--mask", hx, "--coset-table"],
                 ["cluster", "--mask", hx],
                 ["color", "--mask", hx, "--k", "1"],
                 ["color", "--mask", hx, "--k", "1", "--zero-free"]]
    g, lab = petersen()
    relabel = SwitchingPermutation(
        0, induced_permutation(lab, parse_cycles("(132)(45)")))
    for m in masks:
        switched = m ^ cut_mask(g, 0b1001010010)
        relabelled = sp_act(relabel, SignedGraph(g, m)).mask
        cmds += [["group", "--mask", format_mask(t), "--coset-table"]
                 for t in (switched, relabelled)]
    return cmds


def parser_commands() -> list[list[str]]:
    return [["-h"]] + [[c, "-h"] for c in cli._GRAMMAR] + [
        [], ["bogus"], ["classify"], ["group"], ["table"], ["table", "T99"],
        ["census", "--format", "xml"], ["census", "extra"],
        ["verify", "--format", "json"],
        ["classify", "--mask", "0x1", "--file", "f"],
        ["classify", "--mask", "--file", "f"], ["color", "--mask", "0x1"],
        ["color", "--mask", "0x1", "--k", "one"],
        ["group", "--mask", "0x1", "--coset-table=yes"],
        ["classify", "--mask=0x1"], ["group", "--coset", "--mask", "0x1"],
        ["group", "--mask", "0x1", "--mask", "0x3"],
        ["color", "--mask", "0x1", "--k", "-1"],
        ["color", "--mask", "0x1", "--k=1", "--zero"],
        ["cluster", "--mask", "-1"], ["census", "--form", "csv"],
        ["table", "--", "T1"]]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_golden_fixture_covers_the_commands():
    recorded = json.loads(FIXTURE.read_text())
    assert [r["argv"] for r in recorded] == golden_commands()


def test_cli_output_matches_golden(monkeypatch):
    # Each table is built once and rendered in every format; the CLI still
    # renders and prints it on each call.
    monkeypatch.setattr(census, "build_table",
                        lru_cache(maxsize=None)(census.build_table))
    recorded = json.loads(FIXTURE.read_text())
    cli.build_parser.cache_clear()
    differ = [" ".join(r["argv"]) for r in recorded if run(r["argv"]) != r]
    assert differ == []
    # every recorded command keeps to the exact grammar, so none of them
    # builds the argument parser
    assert cli.build_parser.cache_info().misses == 0


def test_parser_path_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(PARSER_FIXTURE.read_text())
    assert [r["argv"] for r in recorded] == parser_commands()
    differ = [" ".join(r["argv"]) for r in recorded if run(r["argv"]) != r]
    assert differ == []


# SHA-256 of f"{exit}\n{stdout}" over the class masks, in mask order, as
# recorded before the switching automorphisms took the (mask, perm) form
CLASS_DIGESTS = {
    "group": "8f39c8bbe6348363ad4bb922497dbd631267c830e59b6a8de574b4e6f8ffb76d",
    "cluster": "265bab15c17bbf7ba673fef3a8760cfbfa92daba200a59e6bbd9fa89b3d8e9dc",
}


def test_group_and_cluster_digests_over_the_six_classes():
    g, _ = petersen()
    cuts = [c for _, c in cut_space(g)]
    masks = sorted({census.standard_mask(t) ^ c for t in SIX_ORDER
                    for c in cuts})
    assert len(masks) == 6 * 512
    for command, extra in (("group", ["--coset-table"]), ("cluster", [])):
        h = hashlib.sha256()
        for m in masks:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--mask", f"0x{m:04x}", *extra])
            h.update(f"{code}\n{out.getvalue()}".encode())
        assert h.hexdigest() == CLASS_DIGESTS[command], command


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for path, cmds in ((FIXTURE, golden_commands()),
                       (PARSER_FIXTURE, parser_commands())):
        path.write_text(json.dumps([run(a) for a in cmds], indent=1) + "\n")
