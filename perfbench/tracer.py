"""In-memory spans and counters around robustflow's layer entry points.

The tracer wraps public entry points as module attributes (for example
``robust.dual_simplex``: each module imported its collaborators by name, so
the wrapper goes where the caller looks the name up) and two methods of
``SimplexTableau``.  It changes no file of the program.

A span is (name, start, end, parent, command id).  ``SimplexTableau.pivot``
and ``SimplexTableau.copy`` are far too frequent to keep one span each: they
are aggregated into counters and into the enclosing span's child time, so a
span's self time is its duration minus its child spans minus the pivots and
copies made inside it.  A wrap point that no longer exists is recorded as
missing and the metrics that depend on it are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

import numpy as np

# (module, attribute, span name).  Callers bound these names at import time,
# so the same function is wrapped once per module that calls it.
WRAP_POINTS = [
    ("cli", "parse_sndlib_native", "formats.parse"),
    ("cli", "parse_json_instance", "formats.parse"),
    ("cli", "serialize_report", "formats.serialize"),
    ("cli", "serialize_bench", "formats.serialize"),
    ("flows", "rank_reduce", "network.rank_reduce"),
    ("flows", "build_throughput_tableau", "flows.build_tableau"),
    ("robust", "build_throughput_tableau", "flows.build_tableau"),
    ("cli", "solve_throughput", "flows.solve_throughput"),
    ("robust", "solve_throughput", "flows.solve_throughput"),
    ("cli", "solve_latency_linear", "flows.solve_latency"),
    ("flows", "pin_throughput_tableau", "flows.pin"),
    ("robust", "pin_throughput_tableau", "flows.pin"),
    ("flows", "primal_simplex", "simplex.primal"),
    ("flows", "dual_simplex", "simplex.dual"),
    ("robust", "primal_simplex", "simplex.primal"),
    ("robust", "dual_simplex", "robust.node"),
    ("robust", "tighten_rhs", "simplex.tighten_rhs"),
    # the paired-failure path in cli imports these inside the function
    ("simplex", "primal_simplex", "simplex.primal"),
    ("simplex", "dual_simplex", "robust.node"),
    ("simplex", "tighten_rhs", "simplex.tighten_rhs"),
    ("flows", "add_cut_row", "simplex.add_cut_row"),
    ("robustify", "add_cut_row", "simplex.add_cut_row"),
    ("robustify", "dual_simplex", "robustify.master"),
    ("robustify", "robust_throughput", "robustify.inner_eval"),
    ("robustify", "_robust_latency", "robustify.inner_eval"),
    ("cli", "robust_throughput", "robust.evaluate"),
    ("cli", "robust_latency_linear", "robust.evaluate"),
    ("cli", "_paired_robust_throughput", "robust.evaluate"),
    ("cli", "robustify_throughput_cutting_plane", "robustify.run"),
    ("cli", "robustify_throughput_subgradient", "robustify.run"),
    ("cli", "robustify_latency_linear", "robustify.run"),
]
METHOD_POINTS = [("simplex", "SimplexTableau", "pivot"), ("simplex", "SimplexTableau", "copy")]

SOLVE_SPANS = {"simplex.primal", "simplex.dual", "robust.node", "robustify.master"}
DUAL_SPANS = {"simplex.dual", "robust.node", "robustify.master"}
REBUILD_SPANS = {"flows.build_tableau", "simplex.primal", "flows.pin", "flows.solve_throughput"}

# name, unit, spans or methods it needs (absent when one of them is missing)
PER_LAYER = [
    ("simplex.primal_pivots", "count", ["simplex.primal", "pivot"]),
    ("simplex.dual_pivots", "count", ["robust.node", "pivot"]),
    ("simplex.pivot_s", "s", ["pivot"]),
    ("simplex.pivot_us_mean", "us", ["pivot"]),
    ("simplex.pivot_col_density", "ratio", ["pivot"]),
    ("simplex.pivot_bytes_computed", "MB", ["pivot"]),
    ("simplex.select_s", "s", ["robust.node", "simplex.primal", "pivot", "copy"]),
    ("simplex.degenerate_pivot_ratio", "ratio", ["pivot"]),
    ("simplex.copies", "count", ["copy"]),
    ("simplex.copy_s", "s", ["copy"]),
    ("simplex.iteration_limit_solves", "count", ["robust.node", "simplex.primal"]),
    ("simplex.tighten_rhs_calls", "count", ["simplex.tighten_rhs"]),
    ("simplex.add_cut_row_calls", "count", ["simplex.add_cut_row"]),
    ("robust.tail_pivot_share", "ratio", ["robust.node", "pivot"]),
    ("robust.node_pivots_p50", "count", ["robust.node", "pivot"]),
    ("robust.node_pivots_p90", "count", ["robust.node", "pivot"]),
    ("robust.node_pivots_max", "count", ["robust.node", "pivot"]),
    ("robust.node_ms_p50", "ms", ["robust.node"]),
    ("robust.node_ms_p90", "ms", ["robust.node"]),
    ("robust.node_samples", "count", ["robust.node"]),
    ("robust.zero_pivot_node_ratio", "ratio", ["robust.node", "pivot"]),
    ("robust.tree_nodes", "count", ["robust.node"]),
    ("robust.scenarios", "count", ["robust.evaluate", "robustify.inner_eval"]),
    ("robustify.outer_iters", "count", ["robustify.inner_eval"]),
    ("robustify.inner_eval_s", "s", ["robustify.inner_eval"]),
    ("robustify.inner_rebuild_share", "ratio", ["robustify.inner_eval", "flows.build_tableau"]),
    ("robustify.master_s", "s", ["robustify.master"]),
    ("robustify.master_pivots", "count", ["robustify.master", "pivot"]),
    ("network.rank_reduce_calls", "count", ["network.rank_reduce"]),
    ("network.rank_reduce_s", "s", ["network.rank_reduce"]),
    ("flows.build_tableau_calls", "count", ["flows.build_tableau"]),
    ("flows.build_tableau_s", "s", ["flows.build_tableau"]),
    ("flows.nominal_pivots", "count", ["robust.node", "robustify.master", "pivot"]),
    ("flows.pin_calls", "count", ["flows.pin"]),
    ("formats.parse_s", "s", ["formats.parse"]),
    ("formats.serialize_s", "s", ["formats.serialize"]),
    ("cli.self_s", "s", []),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "cmd", "child_s", "pivots", "scenarios")

    def __init__(self, name, start, parent, cmd):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.cmd = cmd
        self.child_s = 0.0
        self.pivots = 0
        self.scenarios = None

    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced process; install() patches the
    program, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cmd = None
        self.missing = []
        self.pivots = {"primal": 0, "dual": 0, "other": 0}
        self.pivot_s = 0.0
        self.pivot_density = 0.0
        self.pivot_bytes = 0
        self.degenerate = 0
        self.copies = 0
        self.copy_s = 0.0
        self.iteration_limit = 0
        self._restore = []

    # -- spans ----------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.cmd)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def command(self, cmd_id, run):
        """Run one CLI command under a root span named cli.main."""
        self.cmd = cmd_id
        span = self.open("cli.main")
        try:
            return run()
        finally:
            self.close(span)
            self.cmd = None

    # -- patching -------------------------------------------------------

    def install(self):
        for mod_name, attr, span_name in WRAP_POINTS:
            module = importlib.import_module(f"robustflow.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._restore.append((module, attr, original))
        for mod_name, cls_name, meth in METHOD_POINTS:
            module = importlib.import_module(f"robustflow.{mod_name}")
            cls = getattr(module, cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            wrapper = self._wrap_pivot(original) if meth == "pivot" else self._wrap_copy(original)
            setattr(cls, meth, wrapper)
            self._restore.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            status = getattr(getattr(result, "status", None), "name", None)
            if status == "ITERATION_LIMIT":
                tracer.iteration_limit += 1
            scenarios = getattr(result, "scenarios_evaluated", None)
            if scenarios is not None:
                span.scenarios = scenarios
            return result

        return wrapper

    def _wrap_pivot(self, fn):
        tracer = self

        @functools.wraps(fn)
        def pivot(tab, row, col):
            rows, cols = tab.body.shape
            density = np.count_nonzero(tab.body[:, col]) / rows
            corner = tab.cost_corner
            began = time.perf_counter()
            fn(tab, row, col)
            elapsed = time.perf_counter() - began
            tracer.pivot_s += elapsed
            tracer.pivot_density += density
            # dense rank-1 update: write the outer-product temporary, then
            # read it and the body and write the body, 8 bytes per entry
            tracer.pivot_bytes += 32 * rows * cols
            if abs(tab.cost_corner - corner) <= 1e-12 * (1.0 + abs(corner)):
                tracer.degenerate += 1
            top = tracer.stack[-1] if tracer.stack else None
            kind = "other"
            if top is not None:
                top.child_s += elapsed
                top.pivots += 1
                if top.name in DUAL_SPANS:
                    kind = "dual"
                elif top.name == "simplex.primal":
                    kind = "primal"
            tracer.pivots[kind] += 1

        return pivot

    def _wrap_copy(self, fn):
        tracer = self

        @functools.wraps(fn)
        def copy(tab):
            began = time.perf_counter()
            result = fn(tab)
            elapsed = time.perf_counter() - began
            tracer.copies += 1
            tracer.copy_s += elapsed
            if tracer.stack:
                tracer.stack[-1].child_s += elapsed
            return result

        return copy

    # -- output ---------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent
        index, command id, self time."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = index.get(id(span.parent)) if span.parent is not None else None
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": parent, "cmd": span.cmd,
                    "self_s": span.duration() - span.child_s,
                }) + "\n")

    def metrics(self):
        """Per-layer metric values, keyed by name; None marks an absent one."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(s.duration() for s in spans(name))

        def under(span, names):
            node = span.parent
            while node is not None:
                if node.name in names:
                    return True
                node = node.parent
            return False

        n_piv = sum(self.pivots.values())
        nodes = spans("robust.node")
        node_pivots = sorted((s.pivots for s in nodes), reverse=True)
        node_ms = [s.duration() * 1e3 for s in nodes]
        node_piv_total = sum(node_pivots)
        tail = node_pivots[: max(1, -(-len(node_pivots) // 10))] if node_pivots else []
        master_pivots = sum(s.pivots for s in spans("robustify.master"))
        inner = spans("robustify.inner_eval")
        inner_s = sum(s.duration() for s in inner)
        rebuild_s = sum(
            s.duration() for s in self.spans
            if s.name in REBUILD_SPANS and not under(s, REBUILD_SPANS)
            and under(s, {"robustify.inner_eval"})
        )
        select_s = sum(s.duration() - s.child_s for s in self.spans if s.name in SOLVE_SPANS)
        scenarios = sum(s.scenarios or 0 for s in spans("robust.evaluate") + inner)

        def pct(values, p):
            if not values:
                return 0.0
            ordered = sorted(values)
            return float(ordered[min(len(ordered) - 1, int(p * len(ordered)))])

        values = {
            "simplex.primal_pivots": self.pivots["primal"],
            "simplex.dual_pivots": self.pivots["dual"],
            "simplex.pivot_s": self.pivot_s,
            "simplex.pivot_us_mean": self.pivot_s / n_piv * 1e6 if n_piv else 0.0,
            "simplex.pivot_col_density": self.pivot_density / n_piv if n_piv else 0.0,
            "simplex.pivot_bytes_computed": self.pivot_bytes / 1e6,
            "simplex.select_s": select_s,
            "simplex.degenerate_pivot_ratio": self.degenerate / n_piv if n_piv else 0.0,
            "simplex.copies": self.copies,
            "simplex.copy_s": self.copy_s,
            "simplex.iteration_limit_solves": self.iteration_limit,
            "simplex.tighten_rhs_calls": len(spans("simplex.tighten_rhs")),
            "simplex.add_cut_row_calls": len(spans("simplex.add_cut_row")),
            "robust.tail_pivot_share": sum(tail) / node_piv_total if node_piv_total else 0.0,
            "robust.node_pivots_p50": statistics.median(node_pivots) if nodes else 0.0,
            "robust.node_pivots_p90": pct(node_pivots, 0.9),
            "robust.node_pivots_max": node_pivots[0] if nodes else 0,
            "robust.node_ms_p50": statistics.median(node_ms) if nodes else 0.0,
            "robust.node_ms_p90": pct(node_ms, 0.9),
            "robust.node_samples": len(nodes),
            "robust.zero_pivot_node_ratio":
                sum(1 for p in node_pivots if p == 0) / len(nodes) if nodes else 0.0,
            "robust.tree_nodes": len(nodes),
            "robust.scenarios": scenarios,
            "robustify.outer_iters": len(inner),
            "robustify.inner_eval_s": inner_s,
            "robustify.inner_rebuild_share": rebuild_s / inner_s if inner_s else 0.0,
            "robustify.master_s": total("robustify.master") + sum(
                s.duration() for s in spans("simplex.add_cut_row")
                if under(s, {"robustify.run"})),
            "robustify.master_pivots": master_pivots,
            "network.rank_reduce_calls": len(spans("network.rank_reduce")),
            "network.rank_reduce_s": total("network.rank_reduce"),
            "flows.build_tableau_calls": len(spans("flows.build_tableau")),
            "flows.build_tableau_s": total("flows.build_tableau"),
            "flows.nominal_pivots": n_piv - node_piv_total - master_pivots,
            "flows.pin_calls": len(spans("flows.pin")),
            "formats.parse_s": total("formats.parse"),
            "formats.serialize_s": total("formats.serialize"),
            "cli.self_s": sum(s.duration() - s.child_s for s in spans("cli.main")),
        }
        missing_spans = set()
        for mod_attr in self.missing:
            for mod_name, attr, span_name in WRAP_POINTS:
                if f"{mod_name}.{attr}" == mod_attr:
                    missing_spans.add(span_name)
            for _, cls_name, meth in METHOD_POINTS:
                if mod_attr.endswith(f"{cls_name}.{meth}"):
                    missing_spans.add(meth)
        out = {}
        for name, unit, needs in PER_LAYER:
            absent = [n for n in needs if n in missing_spans]
            out[name] = (None if absent else values[name], unit)
        return out
