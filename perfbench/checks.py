"""Answer checks for every query the benchmark sends.

Each check returns None when the answer is right and a short reason when it
is not. ``verdict`` turns a query's exit code and output into OK or WRONG.
"""

from __future__ import annotations

import json

OK, WRONG = "ok", "wrong"

# Labels the program's catalogue gives each group order; any other order is
# labelled "other".
LABELS_BY_ORDER = {1: {"1"}, 2: {"Z2"}, 4: {"Z4", "V4"}, 6: {"S3"},
                   8: {"D4", "Q8"}, 24: {"S4"}, 60: {"A5"}, 120: {"S5"}}


# ---------------------------------------------------------------------------
# paper_verify
# ---------------------------------------------------------------------------

def check_verify(out: str) -> str | None:
    return None if out == "all tables verified\n" else f"verify printed {out[:80]!r}"


def check_table(table_id: str, out: str, expected_rows: dict, expected) -> str | None:
    """A ``table <id> --format json`` (or ``census --format json``) answer
    against ``census.EXPECTED_ROWS`` and the expected totals."""
    try:
        doc = json.loads(out)
        rows = {r["label"]: r["values"] for r in doc["rows"]}
        columns = doc["columns"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"{table_id}: unreadable json ({exc})"
    if doc.get("table") != table_id:
        return f"{table_id}: table id {doc.get('table')!r}"
    want_columns = expected.T10_COLUMNS if table_id == "T10" else expected.CLASS_NAMES
    if columns != list(want_columns):
        return f"{table_id}: columns {columns}"
    for label, values in expected_rows[table_id].items():
        if rows.get(label) != list(values):
            return f"{table_id} [{label}]: got {rows.get(label)}, expected {list(values)}"
    if table_id == "census":
        if sum(rows["signatures"]) != expected.TOTAL_SIGNATURES:
            return "census: signature total"
        if sum(rows["switching classes"]) != expected.TOTAL_SWITCHING_CLASSES:
            return "census: switching-class total"
        weights = [int(m, 16).bit_count() for m in rows.get("representative mask", ())]
        if weights != list(expected.FRUSTRATION_INDEX):
            return f"census: representative masks {rows.get('representative mask')}"
    return None


# ---------------------------------------------------------------------------
# petersen_queries: answers against the planted class's row of ``expected``
# ---------------------------------------------------------------------------

def check_classify_mask(out: str, col: int, expected) -> str | None:
    want = (f"class {expected.CLASS_NAMES[col]}\n"
            f"frustration index {expected.FRUSTRATION_INDEX[col]}\n"
            f"frustration number {expected.FRUSTRATION_NUMBER[col]}\n"
            f"negative pentagons {expected.NEGATIVE_PENTAGONS[col]}\n"
            f"negative hexagons {expected.NEGATIVE_HEXAGONS[col]}\n")
    return None if out == want else f"classify: got {out!r}, expected {want!r}"


def check_group(out: str, col: int, expected) -> str | None:
    """SwAut order and label are class invariants. Aut depends on the
    signature itself, so only its consistency is checked: it is a subgroup
    of SwAut with |SwAut| / |Aut| cosets, one representative line each."""
    lines = out.splitlines()
    try:
        a = lines[0].split()
        s = lines[1].split()
        c = lines[2].split()
        aut_order, aut_label = int(a[2]), a[4]
        sw_order, sw_label = int(s[2]), s[4]
        cosets = int(c[1])
    except (IndexError, ValueError):
        return f"group: unreadable output {out[:120]!r}"
    if a[:2] != ["aut", "order"] or s[:2] != ["swaut", "order"] or c[0] != "cosets":
        return f"group: unexpected output {out[:120]!r}"
    if (sw_order, sw_label) != (expected.SWAUT_ORDERS[col], expected.SWAUT_LABELS[col]):
        return f"group: swaut {sw_order} {sw_label}"
    if sw_order % aut_order or aut_label not in LABELS_BY_ORDER.get(aut_order, {"other"}):
        return f"group: aut {aut_order} {aut_label}"
    if cosets != sw_order // aut_order or len(lines) != 3 + cosets:
        return f"group: {cosets} cosets, {len(lines) - 3} representatives"
    if any(not ln.startswith(f"rep {i}: switch {{") for i, ln in enumerate(lines[3:])):
        return "group: malformed representative line"
    return None


def check_color_mask(out: str, col: int, expected) -> str | None:
    want = (f"colorations at k=1: {expected.CHI3[col]}\n"
            f"chromatic number {expected.CHI[col]}\n"
            f"zero-free chromatic number {expected.CHI_STAR[col]}\n")
    return None if out == want else f"color: got {out!r}, expected {want!r}"


def clusterable(n: int, signs: dict) -> bool:
    """Union-find over the positive edges: clusterable exactly when no
    negative edge joins two vertices of one positive component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), s in signs.items():
        if s > 0:
            parent[find(u)] = find(v)
    return all(find(u) != find(v) for (u, v), s in signs.items() if s < 0)


def check_cluster(out: str, n: int, signs: dict) -> str | None:
    negatives = sum(1 for s in signs.values() if s < 0)
    words = out.split()
    if clusterable(n, signs):
        ok = (len(words) == 4 and words[:3] == ["clusterable", "yes", "clusters"]
              and words[3].isdigit() and 1 <= int(words[3]) <= n)
    else:
        ok = (len(words) == 4 and words[:3] == ["clusterable", "no", "inclusterability"]
              and words[3].isdigit() and 1 <= int(words[3]) <= negatives)
    return None if ok and out.endswith("\n") else f"cluster: got {out!r}"


# ---------------------------------------------------------------------------
# general_graphs: a twin must give the same answer as its graph
# ---------------------------------------------------------------------------

def check_classify_graph(out: str, signs: dict) -> str | None:
    """Frustration index at most the negative-edge count; frustration
    number at most the index."""
    words = out.split()
    if (len(words) != 6 or words[:2] != ["frustration", "index"]
            or words[3:5] != ["frustration", "number"]
            or not words[2].isdigit() or not words[5].isdigit()):
        return f"classify: got {out!r}"
    l, l0 = int(words[2]), int(words[5])
    if not l0 <= l <= sum(1 for s in signs.values() if s < 0):
        return f"classify: index {l}, number {l0}"
    return None


def check_color_graph(out: str) -> str | None:
    lines = out.splitlines()
    ok = (len(lines) == 3 and lines[0].startswith("colorations at k=1: ")
          and lines[0].split()[-1].isdigit()
          and lines[1].startswith("chromatic number ")
          and lines[2].startswith("zero-free chromatic number "))
    return None if ok else f"color: got {out!r}"


def parse_graph(text: str) -> tuple[int, dict]:
    lines = text.split("\n")
    n = int(lines[0].split()[1])
    signs = {}
    for ln in lines[1:]:
        if ln:
            u, v, s = ln.split()
            signs[(int(u), int(v))] = 1 if s == "+" else -1
    return n, signs


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def verdict(query: dict, rc, out: str, err: str, check, twin_of=None) -> tuple[str, str | None]:
    """(OK | WRONG, reason) for one query; ``check`` maps its output to a
    reason or None. ``twin_of`` is the (rc, out) of the graph a twin was
    derived from, when that one was answered correctly."""
    kind = query["kind"]
    if rc != 0:
        return WRONG, f"{kind}: exit code {rc} {err.strip()[-160:]!r}"
    reason = check(out)
    if reason is None and twin_of is not None and twin_of != (rc, out):
        reason = f"{kind}: twin answered {out!r}, graph answered {twin_of[1]!r}"
    return (WRONG, reason) if reason else (OK, None)
