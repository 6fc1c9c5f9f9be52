"""Command-line interface: census, table emission, per-signature
classification, groups, coloring counts, clustering, and verification.

Exit codes: 0 success, 1 verification difference, 2 input error.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from types import SimpleNamespace

from . import census as census_mod
from . import io as io_mod
from .clustering import cluster_number, inclusterability_index
from .coloring import chromatic_numbers, count_colorations
from .frustration import frustration_index, frustration_number
from .graphs import PETERSEN_LABELS, PETERSEN_PAIRS, bits, petersen
from .groups import (aut_signed, coset_system, format_cycles, identify_group,
                     swaut)
from .signed import SignedGraph, petersen_invariants


def _load(args) -> SignedGraph:
    if args.mask is not None:
        return SignedGraph(petersen()[0], io_mod.parse_mask(args.mask))
    return io_mod.load_signed_graph(args.file)


def cmd_census(args) -> int:
    print(census_mod.build_table("census").render(args.format), end="")
    return 0


def cmd_table(args) -> int:
    print(census_mod.build_table(args.id).render(args.format), end="")
    return 0


def cmd_classify(args) -> int:
    s = _load(args)
    if s.graph != petersen()[0]:
        print(f"frustration index {frustration_index(s)}")
        print(f"frustration number {frustration_number(s)}")
        return 0
    six, l, l0, pentagons, hexagons = petersen_invariants(s.mask)
    print(f"class {six}")
    print(f"frustration index {l}")
    print(f"frustration number {l0}")
    print(f"negative pentagons {pentagons}")
    print(f"negative hexagons {hexagons}")
    return 0


def cmd_group(args) -> int:
    s = _load(args)
    aut = aut_signed(s)
    sw = swaut(s)
    print(f"aut order {aut.order} label {identify_group(aut)}")
    print(f"swaut order {sw.order} label {identify_group(sw)}")
    if args.coset_table:
        reps, closed = coset_system(sw, aut)
        print(f"cosets {len(reps)} conjugation-closed {closed}")
        for i, (x, p) in enumerate(reps):
            labels = ",".join([PETERSEN_LABELS[v] for v in bits(x)])
            print(f"rep {i}: switch {{{labels}}} perm {_perm_name(p)}")
    return 0


@lru_cache(maxsize=256)
def _perm_name(perm: tuple[int, ...]) -> str:
    """Cycle notation on {1..5} when the vertex permutation is induced from
    one, else the raw image vector; worked out once per permutation. It is
    induced, if at all, from the permutation of {1..5} that sends i to the
    one element shared by the images of the pairs that hold i. When that
    base is a permutation and every vertex has an image, the image of the
    pair {i, j} holds base i and base j, so it is that pair: perm is
    induced."""
    shared = [set.intersection(*(set(PETERSEN_PAIRS[w]) for w, p
                                 in zip(perm, PETERSEN_PAIRS) if i in p))
              for i in range(1, 6)]
    base = tuple(min(x, default=0) for x in shared)
    if set(base) == {1, 2, 3, 4, 5} and len(perm) == len(PETERSEN_PAIRS):
        return format_cycles(base)
    return str(list(perm))


def cmd_color(args) -> int:
    s = _load(args)
    # Every count first: a budget error (exit 2) then leaves no output.
    count = count_colorations(s, args.k, zero_free=args.zero_free)
    chi, chi_star = chromatic_numbers(s)
    kind = "zero-free colorations" if args.zero_free else "colorations"
    print(f"{kind} at k={args.k}: {count}")
    print(f"chromatic number {chi}")
    print(f"zero-free chromatic number {chi_star}")
    return 0


def cmd_cluster(args) -> int:
    s = _load(args)
    clusters = cluster_number(s)
    if clusters is None:
        print(f"clusterable no inclusterability {inclusterability_index(s)}")
    else:
        print(f"clusterable yes clusters {clusters}")
    return 0


def cmd_verify(args) -> int:
    diffs = census_mod.verify_all()
    if diffs:
        for d in diffs:
            print(d)
        return 1
    print("all tables verified")
    return 0


_MASK = ("--mask", {"help": "15-bit hex sign mask"})
_FILE = ("--file", {"help": "signed edge-list file"})
_FORMAT = ("--format", {"choices": ("text", "csv", "json"), "default": "text"})

# Each command's function, help line, and options with their add_argument
# keywords. A command that has both --mask and --file takes exactly one.
_GRAMMAR = {
    "census": (cmd_census, "full 2^15 signature census", (_FORMAT,)),
    "table": (cmd_table, "emit one verification table",
              (("id", {"choices": census_mod.TABLE_IDS}), _FORMAT)),
    "classify": (cmd_classify, "classify a signature", (_MASK, _FILE)),
    "group": (cmd_group, "automorphism groups of a signature",
              (("--mask", dict(_MASK[1], required=True)),
               ("--coset-table", {"action": "store_true"}))),
    "color": (cmd_color, "signed coloration counts",
              (_MASK, _FILE, ("--k", {"type": int, "required": True}),
               ("--zero-free", {"action": "store_true"}))),
    "cluster": (cmd_cluster, "clusterability of a signature", (_MASK, _FILE)),
    "verify": (cmd_verify, "recompute and compare all tables", ()),
}


def _syntax(func, options):
    """What ``_match`` reads of a command: its function; each option token
    (the positional under None) with its dest, whether it is a flag, its
    type and its choices; argparse's defaults; the dests it requires; and
    whether it takes exactly one of --mask and --file."""
    tokens, defaults, required = {}, {}, []
    for name, kw in options:
        dest, flag = name.lstrip("-").replace("-", "_"), "action" in kw
        tokens[name if name[0] == "-" else None] = (
            dest, flag, kw.get("type"), kw.get("choices"))
        defaults[dest] = kw.get("default", False if flag else None)
        if kw.get("required") or name[0] != "-":
            required.append(dest)
    return (func, tokens, defaults, tuple(required),
            {"mask", "file"} <= defaults.keys())


_SYNTAX = {command: _syntax(func, options)
           for command, (func, _, options) in _GRAMMAR.items()}


def _match(argv):
    """The namespace argparse builds for argv, when argv keeps to the exact
    grammar: the command first, then each option of its own at most once,
    spelled out in full, with its value in the next token, and the table id
    of ``table``. Else None, and argparse parses argv and words its errors:
    abbreviations, ``--opt=value``, repeated or missing options, bad
    choices, values starting with ``-``, and ``-h``."""
    syntax = _SYNTAX.get(argv[0]) if argv else None
    if syntax is None:
        return None
    func, options, defaults, required, one_of = syntax
    ns, seen, tokens = dict(defaults), set(), iter(argv[1:])
    for token in tokens:
        if token in options:
            key, flag, convert, choices = options[token]
            value = True if flag else next(tokens, "")
        elif None in options:
            (key, flag, convert, choices), value = options[None], token
        else:
            return None
        if key in seen or not flag and value[:1] in ("", "-"):
            return None
        seen.add(key)
        if convert:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices and value not in choices:
            return None
        ns[key] = value
    for key in required:
        if ns[key] is None:
            return None
    if one_of and (ns["mask"] is None) == (ns["file"] is None):
        return None
    return SimpleNamespace(command=argv[0], **ns, func=func)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``_GRAMMAR`` once per process on
    the first call that the exact grammar does not match."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="signed-petersen",
        description="Signed-graph census and analysis of Petersen signatures")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_line)
        one_of = _SYNTAX[command][-1]
        source = p.add_mutually_exclusive_group(required=True) if one_of else p
        for name, kw in options:
            (source if name in ("--mask", "--file") else p).add_argument(
                name, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
