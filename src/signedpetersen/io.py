"""Input formats: signed edge lists, and Petersen sign masks written as hex
literals.

Edge-list format: a header line ``n <vertex_count>``, then one edge per
line as ``u v +`` or ``u v -`` with 0-based vertex ids (unsigned graphs may
omit the sign column, defaulting to +). A file is read raw, decoded as
UTF-8 and split where ``str.splitlines`` splits, so a file and its text
give the same graph, except above ``MAX_SEARCH_VERTICES`` vertices: there
``load_signed_graph`` gives an edgeless stand-in and parses no edge line.
"""

from __future__ import annotations

import itertools

from .graphs import MAX_SEARCH_VERTICES, Graph
from .signed import SignedGraph


class InputError(ValueError):
    """Malformed input file or mask literal."""


def read_header(lines) -> int:
    """The vertex count from the ``n <vertex_count>`` header, the first line
    of an iterator of lines that is neither blank nor a ``#`` comment; no
    line after it is read."""
    for ln in lines:
        first = ln.strip()
        if first[:1] not in ("", "#"):
            break
    else:
        first = ""
    if not first.startswith("n "):
        raise InputError("missing 'n <vertex_count>' header")
    try:
        n = int(first.split()[1])
    except (IndexError, ValueError):
        raise InputError(f"bad header line {first!r}") from None
    if n < 0:
        raise InputError("negative vertex count")
    return n


def parse_signed_graph(text: str) -> SignedGraph:
    """The signed graph of an edge-list text, every edge line parsed at any
    vertex count, unlike ``load_signed_graph``."""
    lines = iter(text.splitlines())
    return _parse_edges(read_header(lines), lines)


def _parse_edges(n: int, lines) -> SignedGraph:
    """The signed graph of the edge lines after the header, in one pass that
    splits each line once; a line is stripped only to word an error."""
    edges = {}
    for ln in lines:
        parts = ln.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) == 2:
            parts.append("+")
        try:
            u, v, sign = parts
            u, v = int(u), int(v)
        except ValueError:
            sign = None
        if sign not in ("+", "-"):
            raise InputError(f"malformed edge line {ln.strip()!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"vertex out of range in {ln.strip()!r}")
        if u == v:
            raise InputError(f"loop edge in {ln.strip()!r}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise InputError(f"duplicate edge in {ln.strip()!r}")
        edges[key] = sign == "-"
    order = sorted(edges)
    mask = 0
    for i, e in enumerate(order):
        if edges[e]:
            mask |= 1 << i
    return SignedGraph(Graph(n, tuple(order)), mask)


def load_signed_graph(path: str) -> SignedGraph:
    """The signed graph of an edge-list file, as ``parse_signed_graph``
    reads its text, but for a header of more than ``MAX_SEARCH_VERTICES``
    vertices: every command refuses that many with its own message, so the
    file then gives the edgeless graph on them, and no edge line is parsed.
    The first 8,192 bytes come in one raw read; a shorter file is decoded
    and split at once."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = b""
            while len(data) < 8192 and (more := fh.read(8192 - len(data))):
                data += more  # a pipe may give a block in parts
            lines = (_read_on(fh, data) if len(data) == 8192
                     else iter(data.decode().splitlines()))
            n = read_header(lines)
            if n > MAX_SEARCH_VERTICES:
                return SignedGraph(Graph(n, ()), 0)
            return _parse_edges(n, lines)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_on(fh, block: bytes):
    """The lines of a file whose first block is ``block``: the block's
    complete lines, and only once the parser has used them up, the lines
    after them, the rest of the file read whole. A large header or a
    faulty line in the block thus ends the read. The file is decoded in
    one piece, so a decode error names its offset in the file."""
    head = block[:block.rfind(b"\n") + 1].decode().splitlines()
    yield from head
    lines = (block + fh.readall()).decode().splitlines()
    yield from itertools.islice(lines, len(head), None)


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
