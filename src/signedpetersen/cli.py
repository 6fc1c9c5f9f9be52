"""Command-line interface: census, table emission, per-signature
classification, groups, coloring counts, clustering, and verification.

Exit codes: 0 success, 1 verification difference, 2 input error.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from types import SimpleNamespace

from . import census as census_mod
from . import io as io_mod
from .clustering import inclusterability_index, is_clusterable
from .coloring import chromatic_numbers, count_colorations
from .frustration import frustration_index, frustration_number
from .graphs import bits, petersen
from .groups import (aut_signed, coset_system, format_cycles, identify_group,
                     induced_permutation, swaut)
from .signed import SignedGraph, petersen_invariants


def _load(args) -> SignedGraph:
    if getattr(args, "mask", None) is not None:
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
        print(f"frustration index {frustration_index(s)[0]}")
        print(f"frustration number {frustration_number(s)[0]}")
        return 0
    six, l, l0, pentagons, hexagons = petersen_invariants(s.mask)
    print(f"class {six.value}")
    print(f"frustration index {l}")
    print(f"frustration number {l0}")
    print(f"negative pentagons {pentagons}")
    print(f"negative hexagons {hexagons}")
    return 0


def cmd_group(args) -> int:
    s = SignedGraph(petersen()[0], io_mod.parse_mask(args.mask))
    aut = aut_signed(s)
    sw = swaut(s)
    print(f"aut order {aut.order} label {identify_group(aut)}")
    print(f"swaut order {sw.order} label {identify_group(sw)}")
    if args.coset_table:
        system = coset_system(sw, aut)
        print(f"cosets {len(system.representatives)} "
              f"conjugation-closed {system.closed_under_conjugation}")
        _, lab = petersen()
        for i, r in enumerate(system.representatives):
            sset = ",".join(f"{a}{b}" for a, b in
                            sorted(lab.pair_of[v] for v in bits(r.switch_mask)))
            perm = _vertex_perm_name(r.perm)
            print(f"rep {i}: switch {{{sset}}} perm {perm}")
    return 0


def _vertex_perm_name(perm) -> str:
    """Cycle notation on {1..5} when the vertex permutation is induced from
    one, else the raw image vector."""
    return _induced_names().get(tuple(perm)) or str(list(perm))


@lru_cache(maxsize=1)
def _induced_names() -> dict[tuple[int, ...], str]:
    """Cycle notation of each of the 120 permutations of {1..5}, keyed by
    the vertex permutation of the Petersen graph it induces."""
    _, lab = petersen()
    return {induced_permutation(lab, base): format_cycles(base)
            for base in itertools.permutations(range(1, 6))}


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
    ok, witness = is_clusterable(s)
    if ok:
        print(f"clusterable yes clusters {len(witness)}")
    else:
        print(f"clusterable no inclusterability {inclusterability_index(s)[0]}")
    return 0


def cmd_verify(args) -> int:
    diffs = census_mod.verify_all()
    if diffs:
        for d in diffs:
            print(d)
        return 1
    print("all tables verified")
    return 0


# Each command's function and options, with the defaults argparse gives
# them: None for an option that takes a value, False for a flag.
_GRAMMAR = {
    "census": (cmd_census, {"format": "text"}),
    "table": (cmd_table, {"id": None, "format": "text"}),
    "classify": (cmd_classify, {"mask": None, "file": None}),
    "group": (cmd_group, {"mask": None, "coset_table": False}),
    "color": (cmd_color, {"mask": None, "file": None, "k": None,
                          "zero_free": False}),
    "cluster": (cmd_cluster, {"mask": None, "file": None}),
    "verify": (cmd_verify, {}),
}


def _match(argv):
    """The namespace argparse builds for argv, when argv keeps to the exact
    grammar: the command first, then each option of its own at most once,
    spelled out in full, with its value in the next token, and the table id
    of ``table``. Else None, and argparse parses argv and words its errors:
    abbreviations, ``--opt=value``, repeated or missing options, bad
    choices, values starting with ``-``, and ``-h``."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    func, defaults = _GRAMMAR[argv[0]]
    ns, seen, tokens = dict(defaults), set(), iter(argv[1:])
    for token in tokens:
        if token in ("--coset-table", "--zero-free"):
            key, value = token[2:].replace("-", "_"), True
        elif token in ("--mask", "--file", "--k", "--format"):
            key, value = token[2:], next(tokens, "")
            if value[:1] in ("", "-"):
                return None
        elif token in census_mod.TABLE_IDS:
            key, value = "id", token
        else:
            return None
        if key not in ns or key in seen:
            return None
        seen.add(key)
        ns[key] = value
    if ns.get("format", "text") not in ("text", "csv", "json"):
        return None
    if ns.get("k") is not None:
        try:
            ns["k"] = int(ns["k"])
        except ValueError:
            return None
    unset = [key for key, value in ns.items() if value is None]
    if unset not in ((["mask"], ["file"]) if "file" in ns else ([],)):
        return None
    return SimpleNamespace(command=argv[0], **ns, func=func)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first call that
    the exact grammar does not match."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="signed-petersen",
        description="Signed-graph census and analysis of Petersen signatures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="full 2^15 signature census")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("table", help="emit one verification table")
    p.add_argument("id", choices=census_mod.TABLE_IDS)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("classify", help="classify a signature")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--mask", help="15-bit hex sign mask")
    grp.add_argument("--file", help="signed edge-list file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("group", help="automorphism groups of a signature")
    p.add_argument("--mask", required=True, help="15-bit hex sign mask")
    p.add_argument("--coset-table", action="store_true")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("color", help="signed coloration counts")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--mask", help="15-bit hex sign mask")
    grp.add_argument("--file", help="signed edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--zero-free", action="store_true")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("cluster", help="clusterability of a signature")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--mask", help="15-bit hex sign mask")
    grp.add_argument("--file", help="signed edge-list file")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("verify", help="recompute and compare all tables")
    p.set_defaults(func=cmd_verify)

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
