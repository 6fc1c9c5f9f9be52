"""Exhaustive census of all 2^15 Petersen signatures, table construction,
and the verification harness comparing recomputed tables against the
embedded expected values.
"""

from __future__ import annotations

from functools import lru_cache

from . import expected
from .clustering import cluster_number, inclusterability_index
from .coloring import (alpha_k, chi3_difference, chromatic_numbers,
                       count_colorations)
from .frustration import frustration_number
from .graphs import PETERSEN_LABELS, _Record, chord_mask, cut_space, petersen
from .groups import aut_signed, identify_group, orbit_counts, swaut
from .io import format_mask
from .signed import (SIX_FINGERPRINT, SIX_ORDER, SignedGraph,
                     classify_six_mask, negate, odd_count,
                     petersen_circle_masks, petersen_invariants)


def standard_representative(t: str) -> SignedGraph:
    """The standard minimal signature of a class, from the embedded
    negative-edge lists."""
    return SignedGraph(petersen()[0], standard_mask(t))


@lru_cache(maxsize=None)
def standard_mask(t: str) -> int:
    """Sign mask of the standard representative of class t, whose negative
    edges are pairs of vertex labels "ij", found in ``PETERSEN_LABELS``."""
    g = petersen()[0]
    mask = 0
    for a, b in expected.STANDARD_NEGATIVE_EDGES[t]:
        u, v = PETERSEN_LABELS.index(a), PETERSEN_LABELS.index(b)
        mask |= 1 << g.index_of(u, v)
    return mask


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def _switching_orbits():
    """Every switching class of Petersen signatures once, as the list of
    its 512 masks: one class per syndrome z, the chords of z switched by
    each cut."""
    g = petersen()[0]
    cuts = [c for _, c in cut_space(g)]
    for z in range(1 << len(g.chords)):
        base = chord_mask(g, z)
        yield [base ^ c for c in cuts]


def run_census() -> list[tuple]:
    """The census columns, one (signatures, switching classes, minimal
    signatures, representative mask) per class: classify every 15-bit
    signature by walking switching orbits. Each orbit holds the 512
    switchings of a base signature, shares its class, and contributes its
    minimum-weight members to the minimal count; each class keeps its least
    minimal mask."""
    pentagons = petersen_circle_masks()[0]
    columns = {t: [0, 0, 0, 1 << 15] for t in SIX_ORDER}
    for orbit in _switching_orbits():
        weights = [m.bit_count() for m in orbit]
        l = min(weights)
        col = columns[SIX_FINGERPRINT[(l, odd_count(orbit[0], pentagons))]]
        col[0] += len(orbit)
        col[1] += 1
        col[2] += weights.count(l)
        col[3] = min(col[3], *(m for m, w in zip(orbit, weights) if w == l))
    return [(sig, cls, mins, format_mask(rep))
            for sig, cls, mins, rep in columns.values()]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class TableArtifact(_Record):
    _fields = ("table_id", "columns", "rows")

    def __init__(self, table_id: str, columns: tuple[str, ...],
                 rows: tuple[tuple[str, tuple], ...]):
        self.__dict__.update(table_id=table_id, columns=columns, rows=rows)

    def to_text(self) -> str:
        width = max([len(self.table_id)] +
                    [len(label) for label, _ in self.rows])
        cols = [max(len(str(c)), *(len(_fmt(r[1][i])) for r in self.rows))
                for i, c in enumerate(self.columns)]
        out = [" ".join([self.table_id.ljust(width)] +
                        [str(c).rjust(w) for c, w in zip(self.columns, cols)])]
        for label, values in self.rows:
            out.append(" ".join([label.ljust(width)] +
                                [_fmt(v).rjust(w) for v, w in zip(values, cols)]))
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([self.table_id] + list(self.columns))
        for label, values in self.rows:
            writer.writerow([label] + [_fmt(v) for v in values])
        return buf.getvalue()

    def to_json(self) -> str:
        import json
        return json.dumps({
            "table": self.table_id,
            "columns": list(self.columns),
            "rows": [{"label": label, "values": list(values)}
                     for label, values in self.rows],
        }, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def _fmt(v) -> str:
    return "-" if v is None else str(v)


def _each_class(column):
    """The column function of a six-class table: column(s) for the standard
    representative s of each class, in SIX_ORDER."""
    return lambda: [column(standard_representative(t)) for t in SIX_ORDER]


def _groups_column(s: SignedGraph) -> tuple:
    aut, sw = aut_signed(s), swaut(s)
    return aut.order, identify_group(aut), sw.order, identify_group(sw)


def _colorations_column(s: SignedGraph) -> tuple:
    return (*(alpha_k(s, k) for k in (0, 1, 2)), petersen_invariants(s.mask)[4],
            chi3_difference(s), count_colorations(s, 1, zero_free=False))


def _clustering_columns() -> list[tuple]:
    """T10's twelve columns: each class representative, then its negation."""
    reps = [standard_representative(t) for t in SIX_ORDER]
    return [(cluster_number(x), inclusterability_index(x))
            for s in reps for x in (s, negate(s))]


# Each paper table: its column names, a function returning one tuple of row
# values per column, and its rows as (label, expected values or None). The
# functions reach module functions through lambdas and bodies that look them
# up at call time, so a wrapper rebound over a module attribute sees the call.
_TABLES = {
    "T1": (expected.CLASS_NAMES,
           _each_class(lambda s: petersen_invariants(s.mask)[3:]),
           (("negative pentagons", expected.NEGATIVE_PENTAGONS),
            ("negative hexagons", expected.NEGATIVE_HEXAGONS))),
    "T2": (expected.CLASS_NAMES,
           _each_class(lambda s: petersen_invariants(s.mask)[1:2]),
           (("frustration index", expected.FRUSTRATION_INDEX),)),
    "T3": (expected.CLASS_NAMES,
           _each_class(lambda s: (frustration_number(s),)),
           (("frustration number", expected.FRUSTRATION_NUMBER),)),
    "T4_orders": (expected.CLASS_NAMES, _each_class(_groups_column),
                  (("aut order", expected.AUT_ORDERS),
                   ("aut label", expected.AUT_LABELS),
                   ("swaut order", expected.SWAUT_ORDERS),
                   ("swaut label", expected.SWAUT_LABELS))),
    "T5": (expected.CLASS_NAMES, _each_class(lambda s: orbit_counts(s)),
           (("copies", expected.COPIES),
            ("switching classes", expected.SWITCHING_CLASSES))),
    "T8": (expected.CLASS_NAMES, _each_class(lambda s: chromatic_numbers(s)),
           (("chromatic number", expected.CHI),
            ("zero-free chromatic number", expected.CHI_STAR))),
    "T9": (expected.CLASS_NAMES, _each_class(_colorations_column),
           (("balance-after-deletion count, size 0", expected.ALPHA0),
            ("balance-after-deletion count, size 1", expected.ALPHA1),
            ("balance-after-deletion count, size 2", expected.ALPHA2),
            ("negative hexagons", expected.NEGATIVE_HEXAGONS),
            ("3-color count minus all-positive", expected.CHI3_DIFFERENCE),
            ("3-color count", expected.CHI3))),
    "T10": (expected.T10_COLUMNS, _clustering_columns,
            (("cluster number", expected.CLUSTER_NUMBER),
             ("inclusterability index", expected.INCLUSTERABILITY))),
    "census": (expected.CLASS_NAMES, lambda: run_census(),
               (("signatures", expected.SIGNATURE_COUNTS),
                ("switching classes", expected.SWITCHING_CLASSES),
                ("minimal signatures", expected.COPIES),
                ("representative mask", None))),
}
TABLE_IDS = tuple(_TABLES)


def build_table(table_id: str) -> TableArtifact:
    if table_id not in _TABLES:
        raise ValueError(f"unknown table id {table_id!r}")
    columns, compute, rows = _TABLES[table_id]
    values = zip(*compute(), strict=True)
    return TableArtifact(table_id, columns, tuple(
        (label, row) for (label, _), row in zip(rows, values, strict=True)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

EXPECTED_ROWS = {table_id: {label: want for label, want in rows
                            if want is not None}
                 for table_id, (_, _, rows) in _TABLES.items()}


def verify_all() -> list[str]:
    """Recompute every table, report each missing row and compare the others
    cell-by-cell against the embedded expected values, then check the
    census rows that no expected row holds; the returned list of
    differences is empty on a clean build."""
    diffs = []
    for table_id, (_, _, rows) in _TABLES.items():
        artifact = build_table(table_id)
        got = dict(artifact.rows)
        for label, want in rows:
            if label not in got:
                diffs.append(f"{table_id}: missing row {label!r}")
            elif want is not None:
                diffs += _row_diffs(f"{table_id} [{label}]", artifact.columns,
                                    got[label], want)
        if table_id == "census":
            diffs += _census_checks(artifact.columns, got)
    return diffs


def _row_diffs(where: str, columns, got, want) -> list[str]:
    """One line per differing cell, or one line when the lengths differ."""
    if len(got) != len(want):
        return [f"{where}: got {len(got)} values, expected {len(want)}"]
    return [f"{where} {col}: got {have!r}, expected {w!r}"
            for col, have, w in zip(columns, got, want) if have != w]


def _census_checks(columns, rows) -> list[str]:
    """The census totals, and the class and weight of each representative
    mask: a minimal signature weighs the frustration index of its class.
    A missing row is already reported, so it is skipped here."""
    diffs = [f"census [{label}] total: got {sum(rows[label])!r}, "
             f"expected {want!r}"
             for label, want in (("signatures", expected.TOTAL_SIGNATURES),
                                 ("switching classes",
                                  expected.TOTAL_SWITCHING_CLASSES))
             if label in rows and sum(rows[label]) != want]
    if "representative mask" not in rows:
        return diffs
    texts = rows["representative mask"]
    masks = [int(text, 16) for text in texts]
    return diffs + _row_diffs(
        "census [representative mask]",
        [f"{col} {text}" for col, text in zip(columns, texts)],
        [(classify_six_mask(m), m.bit_count()) for m in masks],
        list(zip(columns, expected.FRUSTRATION_INDEX)))
