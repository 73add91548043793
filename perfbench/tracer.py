"""Span tracing of helpzc's public functions, done from outside the library.

`Tracer` replaces each traced function by a shim in every loaded helpzc
module that holds it (a `from .psl2 import char_value` in help_core and
cli is patched too), and `CycSum.trace` on its class.  Each call becomes a
span (id, parent, operation, name, start, end) kept in memory; leaving the
context restores the original objects.  `layer_metrics` turns the spans
of one traced pass into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import defaultdict
from functools import update_wrapper
from typing import NamedTuple

# span name -> (defining module, attribute); "Class.method" names a method
TARGETS = {
    "cli.main": ("helpzc.cli", "main"),
    "solver.solve_vpa": ("helpzc.solver", "solve_vpa"),
    "solver.rank_check": ("helpzc.solver", "rank_check"),
    "solver.derive_bounds": ("helpzc.solver", "derive_bounds"),
    "solver.enumerate_solutions": ("helpzc.solver", "enumerate_solutions"),
    "solver.compare_sets": ("helpzc.solver", "compare_sets"),
    "help_core.build_constraints": ("helpzc.help_core", "build_constraints"),
    "help_core.verify_v4": ("helpzc.help_core", "verify_v4"),
    "help_core.tpa_set": ("helpzc.help_core", "tpa_set"),
    "help_core.exceptional_set": ("helpzc.help_core", "exceptional_set"),
    "psl2.char_value": ("helpzc.psl2", "char_value"),
    "psl2.brauer_irreducibles": ("helpzc.psl2", "brauer_irreducibles"),
    "cyclotomic.trace": ("helpzc.cyclotomic", "CycSum.trace"),
}

# spans whose return values feed the work counters
KEEP_RESULTS = {
    "solver.enumerate_solutions",
    "help_core.build_constraints",
    "help_core.verify_v4",
}


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float


class Tracer:
    """Context manager that records a span for every call of a traced function."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.results: dict[str, list] = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in KEEP_RESULTS
        clock = time.perf_counter

        def shim(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, parent, self.op, name, start, end)
            if keep:
                results[name].append(out)
            return out

        return update_wrapper(shim, fn)

    def __enter__(self) -> Tracer:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "helpzc" or key.startswith("helpzc."))
        ]
        try:
            for name, (modname, attr) in TARGETS.items():
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                shim = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, shim)
        except BaseException:
            self._unpatch()
            raise
        return self

    def _patch(self, owner, key: str, shim) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, shim)

    def _unpatch(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def finished(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for s in self.finished():
                fh.write(f"{s.id}\t{s.parent}\t{s.op}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n")


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds (minus traced children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child[s.id]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    totals = span_totals(tracer.finished())

    def calls(name: str) -> int:
        return int(totals[name]["calls"]) if name in totals else 0

    def self_s(*names: str) -> float:
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def total_s(name: str) -> float:
        return totals[name]["total_s"] if name in totals else 0.0

    reports = tracer.results["solver.enumerate_solutions"]
    nodes = sum(r.node_count for r in reports)
    solutions = sum(len(r.solutions) for r in reports)
    log2_volume = sum(math.log2(r.bounds.volume()) for r in reports if r.bounds.volume() > 0)
    systems = tracer.results["help_core.build_constraints"]
    rows = sum(len(s.rows) for s in systems)
    distinct = sum(len({(r.coeffs, r.const, r.upper) for r in s.rows}) for s in systems)
    enumerate_s = self_s("solver.enumerate_solutions")

    metrics = {
        "solver.derive_bounds_s": (self_s("solver.derive_bounds"), "s"),
        "solver.derive_bounds_calls": (calls("solver.derive_bounds"), "count"),
        "solver.enumerate_s": (enumerate_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (_ratio(nodes, enumerate_s), "1/s"),
        "solver.yield": (_ratio(solutions, nodes), "ratio"),
        "solver.rank_check_s": (self_s("solver.rank_check"), "s"),
        "solver.rank_check_calls": (calls("solver.rank_check"), "count"),
        "solver.solve_vpa_s": (self_s("solver.solve_vpa"), "s"),
        "solver.vars": (sum(len(r.bounds.lo) for r in reports), "count"),
        "solver.box_log2_volume": (log2_volume, "log2"),
        "solver.solutions": (solutions, "count"),
        "solver.compare_sets_s": (self_s("solver.compare_sets"), "s"),
        "help_core.build_constraints_s": (self_s("help_core.build_constraints"), "s"),
        "help_core.build_constraints_calls": (calls("help_core.build_constraints"), "count"),
        "help_core.rows": (rows, "count"),
        "help_core.distinct_rows": (distinct, "count"),
        "help_core.distinct_ratio": (_ratio(distinct, rows), "ratio"),
        "help_core.verify_v4_s": (self_s("help_core.verify_v4"), "s"),
        "help_core.verify_v4_total_s": (total_s("help_core.verify_v4"), "s"),
        "help_core.multiplicities": (
            sum(len(r.checks) for r in tracer.results["help_core.verify_v4"]), "count"),
        "help_core.expected_sets_s": (self_s("help_core.tpa_set", "help_core.exceptional_set"), "s"),
        "psl2.char_value_calls": (calls("psl2.char_value"), "count"),
        "psl2.char_value_s": (self_s("psl2.char_value"), "s"),
        "psl2.brauer_irreducibles_calls": (calls("psl2.brauer_irreducibles"), "count"),
        "cyclotomic.trace_calls": (calls("cyclotomic.trace"), "count"),
        "cyclotomic.trace_s": (self_s("cyclotomic.trace"), "s"),
        "cli.main_s": (total_s("cli.main"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace_overhead_frac": (_ratio(traced_wall_s, untraced_wall_s) - 1.0, "ratio"),
    }
    return metrics
