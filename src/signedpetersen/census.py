"""Exhaustive census of all 2^15 Petersen signatures, table construction,
and the verification harness comparing recomputed tables against the
embedded expected values.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from . import expected
from .clustering import cluster_number, inclusterability_index
from .coloring import chi3_difference, chromatic_numbers, count_colorations
from .frustration import alpha_k, frustration_number
from .graphs import petersen
from .groups import aut_signed, identify_group, orbit_counts, swaut
from .signed import (SIX_FINGERPRINT, SIX_ORDER, SignedGraph, SixType,
                     classify_six_mask, negate, negative_circle_counts,
                     petersen_cut_masks, petersen_frustration_of_mask,
                     petersen_pentagon_masks)


def standard_representative(t: SixType) -> SignedGraph:
    """The standard minimal signature of a class, from the embedded
    negative-edge lists."""
    return SignedGraph(petersen()[0], standard_mask(t))


@lru_cache(maxsize=None)
def standard_mask(t: SixType) -> int:
    g, lab = petersen()
    mask = 0
    for a, b in expected.STANDARD_NEGATIVE_EDGES[t.value]:
        u = lab.vertex(int(a[0]), int(a[1]))
        v = lab.vertex(int(b[0]), int(b[1]))
        mask |= 1 << g.index_of(u, v)
    return mask


# ---------------------------------------------------------------------------
# Fast per-mask frustration number
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _deletion_tables():
    """For every vertex set W with |W| <= 3: the kept-edge mask and the set
    of all cut masks of P minus W. A signature minus W is balanced exactly
    when its restricted mask is such a cut. The cuts of P minus W are the
    XOR closure of its vertex stars, each a star of P restricted to the
    kept edges; a star already in the closure adds nothing."""
    g, _ = petersen()
    tables = []
    for k in range(4):
        for w in itertools.combinations(range(10), k):
            keep = sum(1 << i for i, (a, b) in enumerate(g.edges)
                       if a not in w and b not in w)
            cuts = frozenset([0])
            for star in (inc & keep for inc in g.incidence):
                if star not in cuts:
                    cuts |= {c ^ star for c in cuts}
            tables.append((k, keep, cuts))
    return tables


def petersen_l0_of_mask(mask: int) -> int:
    """Frustration number of a Petersen signature, by increasing deletion
    size (only sizes 0..3 occur)."""
    for k, keep, cuts in _deletion_tables():
        if mask & keep in cuts:
            return k
    raise AssertionError("frustration number above 3 on a Petersen signature")


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def _switching_orbits():
    """Every switching class of Petersen signatures once, as the list of
    its 512 masks; the first is the least mask of the class."""
    cuts = petersen_cut_masks()
    seen = bytearray(1 << 15)
    for base in range(1 << 15):
        if not seen[base]:
            orbit = [base ^ c for c in cuts]
            for m in orbit:
                seen[m] = 1
            yield orbit


def run_census() -> TableArtifact:
    """The census table: classify every 15-bit signature by walking
    switching orbits. Each orbit holds the 512 switchings of a base
    signature, shares its class, and contributes its minimum-weight members
    to the minimal count; each class keeps its least minimal mask."""
    pentagons = petersen_pentagon_masks()
    sig = {t: 0 for t in SIX_ORDER}
    cls = {t: 0 for t in SIX_ORDER}
    mins = {t: 0 for t in SIX_ORDER}
    rep = {t: None for t in SIX_ORDER}
    for orbit in _switching_orbits():
        weights = [m.bit_count() for m in orbit]
        l = min(weights)
        c5 = sum(1 for p in pentagons if (orbit[0] & p).bit_count() & 1)
        t = SIX_FINGERPRINT[(l, c5)]
        best = min(m for m, w in zip(orbit, weights) if w == l)
        mins[t] += weights.count(l)
        sig[t] += 512
        cls[t] += 1
        if rep[t] is None or best < rep[t]:
            rep[t] = best
    return TableArtifact("census", expected.CLASS_NAMES, (
        ("signatures", tuple(sig.values())),
        ("switching classes", tuple(cls.values())),
        ("minimal signatures", tuple(mins.values())),
        ("representative mask", tuple(f"0x{m:04x}" for m in rep.values())),
    ))


def verify_l0_equals_l_everywhere() -> bool:
    """Frustration number equals frustration index on all 32768
    signatures: the number per mask from the deletion tables, the index as
    the least weight in the mask's switching class."""
    for orbit in _switching_orbits():
        l = min(m.bit_count() for m in orbit)
        if any(petersen_l0_of_mask(m) != l for m in orbit):
            return False
    return True


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableArtifact:
    table_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple], ...]

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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([self.table_id] + list(self.columns))
        for label, values in self.rows:
            writer.writerow([label] + [_fmt(v) for v in values])
        return buf.getvalue()

    def to_json(self) -> str:
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


TABLE_IDS = ("T1", "T2", "T3", "T4_orders", "T5", "T8", "T9", "T10", "census")


def build_table(table_id: str) -> TableArtifact:
    builders = {
        "T1": _table_t1,
        "T2": _table_t2,
        "T3": _table_t3,
        "T4_orders": _table_t4,
        "T5": _table_t5,
        "T8": _table_t8,
        "T9": _table_t9,
        "T10": _table_t10,
        "census": run_census,
    }
    if table_id not in builders:
        raise ValueError(f"unknown table id {table_id!r}")
    return builders[table_id]()


def _reps():
    return [standard_representative(t) for t in SIX_ORDER]


def _table_t1() -> TableArtifact:
    rows5, rows6 = [], []
    for s in _reps():
        counts = negative_circle_counts(s, {5, 6})
        rows5.append(counts[5])
        rows6.append(counts[6])
    return TableArtifact("T1", expected.CLASS_NAMES, (
        ("negative pentagons", tuple(rows5)),
        ("negative hexagons", tuple(rows6)),
    ))


def _table_t2() -> TableArtifact:
    row = tuple(petersen_frustration_of_mask(standard_mask(t)) for t in SIX_ORDER)
    return TableArtifact("T2", expected.CLASS_NAMES, (
        ("frustration index", row),
    ))


def _table_t3() -> TableArtifact:
    row = tuple(frustration_number(s)[0] for s in _reps())
    return TableArtifact("T3", expected.CLASS_NAMES, (
        ("frustration number", row),
    ))


def _table_t4() -> TableArtifact:
    auts = [aut_signed(s) for s in _reps()]
    swauts = [swaut(s) for s in _reps()]
    return TableArtifact("T4_orders", expected.CLASS_NAMES, (
        ("aut order", tuple(g.order for g in auts)),
        ("aut label", tuple(identify_group(g) for g in auts)),
        ("swaut order", tuple(g.order for g in swauts)),
        ("swaut label", tuple(identify_group(g) for g in swauts)),
    ))


def _table_t5() -> TableArtifact:
    counts = [orbit_counts(s) for s in _reps()]
    return TableArtifact("T5", expected.CLASS_NAMES, (
        ("copies", tuple(c for c, _ in counts)),
        ("switching classes", tuple(w for _, w in counts)),
    ))


def _table_t8() -> TableArtifact:
    pairs = [chromatic_numbers(s) for s in _reps()]
    return TableArtifact("T8", expected.CLASS_NAMES, (
        ("chromatic number", tuple(p[0] for p in pairs)),
        ("zero-free chromatic number", tuple(p[1] for p in pairs)),
    ))


def _table_t9() -> TableArtifact:
    reps = _reps()
    a0 = tuple(alpha_k(s, 0) for s in reps)
    a1 = tuple(alpha_k(s, 1) for s in reps)
    a2 = tuple(alpha_k(s, 2) for s in reps)
    c6 = tuple(negative_circle_counts(s, {6})[6] for s in reps)
    diff = tuple(chi3_difference(s) for s in reps)
    chi3 = tuple(count_colorations(s, 1, zero_free=False) for s in reps)
    return TableArtifact("T9", expected.CLASS_NAMES, (
        ("balance-after-deletion count, size 0", a0),
        ("balance-after-deletion count, size 1", a1),
        ("balance-after-deletion count, size 2", a2),
        ("negative hexagons", c6),
        ("3-color count minus all-positive", diff),
        ("3-color count", chi3),
    ))


def _table_t10() -> TableArtifact:
    signatures = []
    for t in SIX_ORDER:
        s = standard_representative(t)
        signatures.extend([s, negate(s)])
    clun = tuple(cluster_number(s) for s in signatures)
    q = tuple(inclusterability_index(s)[0] for s in signatures)
    return TableArtifact("T10", expected.T10_COLUMNS, (
        ("cluster number", clun),
        ("inclusterability index", q),
    ))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

EXPECTED_ROWS = {
    "T1": {"negative pentagons": expected.NEGATIVE_PENTAGONS,
           "negative hexagons": expected.NEGATIVE_HEXAGONS},
    "T2": {"frustration index": expected.FRUSTRATION_INDEX},
    "T3": {"frustration number": expected.FRUSTRATION_NUMBER},
    "T4_orders": {"aut order": expected.AUT_ORDERS,
                  "aut label": expected.AUT_LABELS,
                  "swaut order": expected.SWAUT_ORDERS,
                  "swaut label": expected.SWAUT_LABELS},
    "T5": {"copies": expected.COPIES,
           "switching classes": expected.SWITCHING_CLASSES},
    "T8": {"chromatic number": expected.CHI,
           "zero-free chromatic number": expected.CHI_STAR},
    "T9": {"balance-after-deletion count, size 0": expected.ALPHA0,
           "balance-after-deletion count, size 1": expected.ALPHA1,
           "balance-after-deletion count, size 2": expected.ALPHA2,
           "negative hexagons": expected.NEGATIVE_HEXAGONS,
           "3-color count minus all-positive": expected.CHI3_DIFFERENCE,
           "3-color count": expected.CHI3},
    "T10": {"cluster number": expected.CLUSTER_NUMBER,
            "inclusterability index": expected.INCLUSTERABILITY},
    "census": {"signatures": expected.SIGNATURE_COUNTS,
               "switching classes": expected.SWITCHING_CLASSES,
               "minimal signatures": expected.COPIES},
}


def verify_all() -> list[str]:
    """Recompute every table and compare cell-by-cell against the embedded
    expected values, then check the census rows that no expected row
    holds; the returned list of differences is empty on a clean build."""
    diffs = []
    for table_id, wanted in EXPECTED_ROWS.items():
        artifact = build_table(table_id)
        got = dict(artifact.rows)
        for label, values in wanted.items():
            if label not in got:
                diffs.append(f"{table_id}: missing row {label!r}")
                continue
            for col, (have, want) in zip(artifact.columns,
                                         zip(got[label], values)):
                if have != want:
                    diffs.append(
                        f"{table_id} [{label}] {col}: got {have!r}, "
                        f"expected {want!r}")
        if table_id == "census":
            diffs += _census_checks(artifact)
    return diffs


def _census_checks(artifact: TableArtifact) -> list[str]:
    """The census totals, and the class and weight of each representative
    mask: a minimal signature weighs the frustration index of its class."""
    rows = dict(artifact.rows)
    checks = [(f"census [{label}] total", sum(rows[label]), want)
              for label, want in (("signatures", expected.TOTAL_SIGNATURES),
                                  ("switching classes",
                                   expected.TOTAL_SWITCHING_CLASSES))]
    for col, text, weight in zip(artifact.columns, rows["representative mask"],
                                 expected.FRUSTRATION_INDEX):
        mask = int(text, 16)
        checks.append((f"census [representative mask] {col} {text}",
                       (classify_six_mask(mask).value, mask.bit_count()),
                       (col, weight)))
    return [f"{where}: got {have!r}, expected {want!r}"
            for where, have, want in checks if have != want]
