"""Command-line interface: census, table emission, per-signature
classification, groups, coloring counts, clustering, and verification.

Exit codes: 0 success, 1 verification difference, 2 input error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from functools import lru_cache

from . import census as census_mod
from . import io as io_mod
from .clustering import inclusterability_index, is_clusterable
from .coloring import chromatic_numbers, count_colorations
from .frustration import frustration_index, frustration_number
from .graphs import bits, petersen
from .groups import (aut_signed, coset_system, format_cycles, identify_group,
                     induced_permutation, swaut)
from .signed import (SignedGraph, classify_six, petersen_frustration_of_mask,
                     petersen_hexagon_masks, petersen_pentagon_masks)


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
    print(f"class {classify_six(s).value}")
    print(f"frustration index {petersen_frustration_of_mask(s.mask)}")
    print(f"frustration number {census_mod.petersen_l0_of_mask(s.mask)}")
    for name, cycles in (("pentagons", petersen_pentagon_masks()),
                         ("hexagons", petersen_hexagon_masks())):
        odd = sum(1 for c in cycles if (s.mask & c).bit_count() & 1)
        print(f"negative {name} {odd}")
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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
