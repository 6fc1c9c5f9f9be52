"""File and literal input formats: signed edge lists and Petersen sign
masks, with round-tripping serializers.

Edge-list format: a header line ``n <vertex_count>``, then one edge per
line as ``u v +`` or ``u v -`` with 0-based vertex ids (unsigned graphs may
omit the sign column, defaulting to +).
"""

from __future__ import annotations

from .graphs import Graph
from .signed import SignedGraph


class InputError(ValueError):
    """Malformed input file or mask literal."""


def parse_signed_graph(text: str) -> SignedGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n "):
        raise InputError("missing 'n <vertex_count>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputError(f"bad header line {lines[0]!r}") from None
    if n < 0:
        raise InputError("negative vertex count")
    edges = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 2:
            parts.append("+")
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise InputError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"vertex out of range in {ln!r}")
        if u == v:
            raise InputError(f"loop edge in {ln!r}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise InputError(f"duplicate edge in {ln!r}")
        edges[key] = parts[2] == "-"
    order = sorted(edges)
    return SignedGraph(Graph(n, tuple(order)),
                       sum(1 << i for i, e in enumerate(order) if edges[e]))


def load_signed_graph(path: str) -> SignedGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_signed_graph(text)


def serialize_signed_graph(s: SignedGraph) -> str:
    out = [f"n {s.graph.vertex_count}"]
    for i, (u, v) in enumerate(s.graph.edges):
        out.append(f"{u} {v} {'-' if s.mask >> i & 1 else '+'}")
    return "\n".join(out) + "\n"


def parse_mask(text: str) -> int:
    """A 15-bit Petersen sign mask from a hex literal (0x prefix optional)."""
    t = text.strip().lower()
    try:
        mask = int(t, 16)
    except ValueError:
        raise InputError(f"bad mask literal {text!r}") from None
    if not 0 <= mask < (1 << 15):
        raise InputError(f"mask {text!r} out of range (15 bits)")
    return mask


def format_mask(mask: int) -> str:
    return f"0x{mask:04x}"
