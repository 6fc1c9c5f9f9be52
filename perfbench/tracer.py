"""Layer spans taken from outside the program.

The tracer wraps the public functions named in ``TARGETS`` and records one
span per call: id, parent span, request (one ``cli.main`` call), name, start
and end in nanoseconds, and an info value taken from the arguments or the
result. Spans stay in memory until the caller writes them out; self time is
computed afterwards by ``layer_totals``.

Modules copy functions into their own namespace with ``from x import f``, so
installing a wrapper rebinds every attribute of every loaded
``signedpetersen`` module that holds the original function; otherwise calls
made through such a copy (``cli.swaut``, ``census.swaut``, ...) would bypass
the span.
"""

from __future__ import annotations

import functools
import sys
import time


def _mask(args, kwargs, result):
    return args[0].mask


def _cells(args, kwargs, result):
    return len(args[0].elements) ** 2


def _length(args, kwargs, result):
    return len(result)


def _value(args, kwargs, result):
    return result


def _table_name(args, kwargs):
    return f"census.table.{args[0] if args else kwargs['table_id']}"


# (module, attribute, span name or name function, info function or None).
# The info of a span is summed per name (cycles found, colorations counted,
# Cayley-table cells) and its distinct values are counted (SwAut masks).
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("io", "load_signed_graph", "io.load_signed_graph", None),
    ("census", "run_census", "census.run_census", None),
    ("census", "build_table", _table_name, None),
    ("groups", "swaut", "groups.swaut", _mask),
    ("groups", "aut_signed", "groups.aut_signed", None),
    ("groups", "coset_system", "groups.coset_system", None),
    ("groups", "FiniteGroup.__init__", "groups.cayley", _cells),
    ("graphs", "automorphism_images", "graphs.automorphism_images", None),
    ("graphs", "enumerate_cycles", "graphs.enumerate_cycles", _length),
    ("signed", "classify_six", "signed.classify_six", None),
    ("signed", "is_balanced", "signed.is_balanced", None),
    ("frustration", "frustration_index", "frustration.frustration_index", None),
    ("frustration", "frustration_number", "frustration.frustration_number", None),
    ("coloring", "count_colorations", "coloring.count_colorations", _value),
    ("coloring", "chromatic_numbers", "coloring.chromatic_numbers", None),
    ("clustering", "is_clusterable", "clustering.is_clusterable", None),
    ("clustering", "inclusterability_index", "clustering.inclusterability_index", None),
)

PACKAGE = "signedpetersen"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []        # [id, parent, request, name, start, end, info]
        self.request = 0
        self._stack = []
        self._next_id = 1
        self._patches = []

    def record(self, name, start, end):
        """A top-level span timed by the caller."""
        self.spans.append([self._next_id, 0, self.request, name, start, end, None])
        self._next_id += 1

    def wrap(self, fn, name, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            if not parent:
                tracer.request += 1
            tracer._stack.append(span_id)
            result, ok = None, False
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                value = info(args, kwargs, result) if info and ok else None
                tracer.spans.append([span_id, parent, tracer.request, label,
                                     start, end, value])

        return traced

    def install(self):
        """Wrap every target and rebind each loaded copy of it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr, name, info in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(original, name, info)
            self._patch(owner, leaf, original, wrapper)
            if path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, original, wrapper)

    def _patch(self, obj, key, original, wrapper):
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, original))

    def uninstall(self):
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)


def layer_totals(spans) -> dict:
    """name -> {"self_ns", "calls", "sum", "distinct"} from one process's
    spans. Self time is a span's duration minus that of its direct
    children; children of one span never overlap, since a process runs one
    call at a time."""
    child_ns = {}
    for span_id, parent, _, _, start, end, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    totals = {}
    for span_id, _, _, name, start, end, info in spans:
        t = totals.setdefault(name, {"self_ns": 0, "calls": 0, "sum": 0, "distinct": set()})
        t["self_ns"] += end - start - child_ns.get(span_id, 0)
        t["calls"] += 1
        if info is not None:
            t["sum"] += info
            t["distinct"].add(info)
    for t in totals.values():
        t["distinct"] = len(t["distinct"])
    return totals
