"""The edge-list loader: a file gives what its text gives, whatever splits
its lines, wherever the 8,192-byte block ends, and however a pipe hands
the bytes over; a long file is read on only when its header is within the
vertex cap."""

import io as stdio
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedpetersen import cli
from signedpetersen import io as io_mod
from signedpetersen.graphs import MAX_SEARCH_VERTICES, Graph
from signedpetersen.io import (InputError, load_signed_graph,
                               parse_signed_graph, read_header)
from signedpetersen.signed import SignedGraph

BLOCK = 8192
# every line boundary of str.splitlines
BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")
WIDE = ("é", "€", "\U0001d11e")  # 2, 3 and 4 bytes in UTF-8


def text_route(text):
    """What the loader must give for a file with this text: the text's
    graph, or the edgeless graph when the header names more vertices than
    any command takes, or the message of the text's InputError."""
    try:
        n = read_header(iter(text.splitlines()))
        if n > MAX_SEARCH_VERTICES:
            return SignedGraph(Graph(n, ()), 0)
        return parse_signed_graph(text)
    except InputError as exc:
        return str(exc)


def file_route(path):
    try:
        return load_signed_graph(path)
    except InputError as exc:
        return str(exc)


def padding(before: int, target: int, wide: str = "") -> str:
    """A comment line, without its break, that ends ``wide`` at byte
    ``target`` when it starts at byte ``before``; a short one when the
    text is already past that."""
    room = target - before - 1 - len(wide.encode())
    return "#" + "x" * max(room, 0) + wide


@st.composite
def edge_list_texts(draw):
    """Edge-list texts that mix every line break, comments and blank lines,
    faulty lines and headers, sizes on both sides of one block, a wide
    character across the block's end, and large headers after more than a
    block of comments."""
    lines = []

    def filler():
        return draw(st.sampled_from(["", "  ", "# note", " #x y z", "#"]))

    lines += [filler() for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        lines.append("#" + "c" * draw(st.integers(BLOCK, BLOCK + 600)))
    n = draw(st.sampled_from([0, 1, 3, 7, 12, 16, 17, 40, 2_000_000]))
    lines.append(draw(st.sampled_from(
        [f"n {n}"] * 4 + [f"  n {n}\t", f"n {n} x", "n x", "n -2", "0 1 +"])))
    top = min(n, MAX_SEARCH_VERTICES)
    pairs = [(u, v) for u in range(top) for v in range(u + 1, top)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=30)) if pairs else []
    # either orientation; an edge without its sign column is positive
    body = [f"{u} {v} {draw(st.sampled_from('+-'))}" if draw(st.booleans())
            else f" {v}\t{u} " for u, v in chosen]
    body += [filler() for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 3)) == 0:  # one faulty line
        body.append(draw(st.sampled_from(
            ["1 1 +", f"0 {top} -", "0 1 *", "5", "0 1 - x", "1 0 +"])))
    lines += draw(st.permutations(body))
    breaks = [draw(st.sampled_from(BREAKS)) for _ in lines]
    text = "".join(a + b for a, b in zip(lines, breaks))
    place = draw(st.sampled_from(["none", "wide", "size"]))
    if place == "wide":
        # a wide character whose bytes run over the end of the first block
        wide = draw(st.sampled_from(WIDE))
        over = draw(st.integers(1, len(wide.encode()) - 1))
        at = draw(st.integers(0, len(lines)))
        head = "".join(a + b for a, b in zip(lines[:at], breaks[:at]))
        line = padding(len(head.encode()), BLOCK + over, wide)
        text = head + line + draw(st.sampled_from(BREAKS)) + text[len(head):]
    elif place == "size":
        # a last comment that brings the file to a size next to the block
        target = BLOCK + draw(st.integers(-3, 3))
        text += padding(len(text.encode()), target - 1) + "\n"
    return text


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "graph.txt"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(edge_list_texts())
def test_file_gives_what_its_text_gives(scratch, text):
    scratch.write_bytes(text.encode())
    assert file_route(str(scratch)) == text_route(text)


def pipe_texts():
    """Texts that reach past one block: a long graph within the cap, a wide
    character across the block's end, and a large header after a block of
    comments."""
    edges = "".join(f"{u} {v} {'-' if (u + v) % 3 else '+'}\r\n"
                    for u in range(16) for v in range(u + 1, 16))
    long_graph = "# " + "y" * 9000 + " n 16\n" + edges
    head = "n 5\n0 1 -\n"
    wide = head + padding(len(head), BLOCK + 2, "\U0001d11e") + "\x85" \
        + "1 2 -\n3 4\n"
    large = "#" + "z" * BLOCK + "\nn 2000000\n0 1 -\n"
    return [long_graph, wide, large, "n 3\n0 1 -\n1 2\n"]


@pytest.mark.parametrize("text", pipe_texts())
def test_pipe_written_in_two_writes(text):
    # a raw read of a pipe can come back short: the loader reads on until
    # the block is full or the writer has closed
    data = text.encode()
    for cut in (1, len(data) // 2, BLOCK - 1, BLOCK + 1):
        cut = min(cut, len(data) - 1)
        r, w = os.pipe()

        def write():
            os.write(w, data[:cut])
            time.sleep(0.02)
            with os.fdopen(w, "wb") as fh:
                fh.write(data[cut:])

        writer = threading.Thread(target=write)
        writer.start()
        try:
            got = file_route(f"/dev/fd/{r}")
        finally:
            writer.join(timeout=10)
            os.close(r)
        assert not writer.is_alive()
        assert got == text_route(text), cut


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decode_error_names_the_offset_in_the_file(capsys, tmp_path):
    # one decode of the whole file: a bad byte past the first 8 KiB is
    # named at its offset in the file, not within an 8 KiB chunk
    path = tmp_path / "bad.txt"
    data = b"n 16\n0 1 +\n#" + b"x" * 12_100 + b"\n"
    path.write_bytes(data[:12_008] + b"\xff" + data[12_008:])
    assert run_cli(capsys, "cluster", "--file", str(path)) == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position "
        "12008: invalid start byte\n")
    # a short file is decoded before its header is read: a bad byte after
    # a large header is still a codec error, not "graph too large"
    path.write_bytes(b"n 40\n0 1 \xff\n")
    assert run_cli(capsys, "cluster", "--file", str(path)) == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 9: "
        "invalid start byte\n")


class CountedFile(stdio.FileIO):
    """A raw file that adds up the bytes its reads return."""

    read_bytes = 0

    def read(self, size=-1):
        data = super().read(size)
        CountedFile.read_bytes += len(data)
        return data

    def readall(self):
        data = super().readall()
        CountedFile.read_bytes += len(data)
        return data


@pytest.fixture
def counted(monkeypatch):
    CountedFile.read_bytes = 0
    monkeypatch.setattr(io_mod, "open", lambda path, *_, **__: CountedFile(path),
                        raising=False)
    return CountedFile


def test_large_header_is_refused_after_one_block(capsys, tmp_path, counted):
    # two million vertices and 200,000 edge lines: one block is read
    path = tmp_path / "big.txt"
    path.write_text("n 2000000\n" + "".join(f"{i} {i + 1} +\n"
                                            for i in range(200_000)))
    assert run_cli(capsys, "cluster", "--file", str(path)) == (
        2, "", "error: graph too large for exact chromatic number\n")
    assert 0 < counted.read_bytes <= BLOCK


def test_long_file_within_the_cap_is_read_whole(tmp_path, counted):
    path = tmp_path / "long.txt"
    text = "# " + "w" * 3 * BLOCK + "\nn 4\n0 1 -\n" + "#\n" * BLOCK + "2 3\n"
    path.write_text(text)
    assert load_signed_graph(str(path)) == parse_signed_graph(text)
    assert counted.read_bytes == len(text)


def test_faulty_line_in_the_first_block_ends_the_read(capsys, tmp_path,
                                                       counted):
    # a duplicate edge on line 3 of a 2 MB file within the cap: the first
    # block's lines are parsed before the rest is read
    path = tmp_path / "dup.txt"
    path.write_text("n 16\n0 1 +\n1 0 -\n" + "2 3 +\n" * 350_000)
    assert run_cli(capsys, "cluster", "--file", str(path)) == (
        2, "", "error: duplicate edge in '1 0 -'\n")
    assert 0 < counted.read_bytes <= BLOCK
