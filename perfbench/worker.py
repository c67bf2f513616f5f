"""One fresh process of a benchmark run.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec names a mode:

- ``setup``: time ``import robustflow`` plus parsing every instance and
  building its initial throughput tableau;
- ``measure``: run the batch of CLI commands (``robustflow.cli.main``) in
  passes until the window is used up, counting pivots on
  ``SimplexTableau.pivot``;
- ``traced``: one pass with the tracer installed.

Both batch modes first run the spec's ``warmup`` commands once, untimed and
uncounted, so lazy imports and first-call costs stay out of the passes.

Only the standard library and robustflow (from the checkout's ``src``) are
imported, so the process's peak memory is the program's.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class OpDeadline(BaseException):
    """Raised by the alarm when one operation overruns its deadline."""


def _alarm(signum, frame):
    raise OpDeadline()


def import_program():
    sys.path.insert(0, SRC)
    import robustflow
    import robustflow.cli

    where = os.path.abspath(robustflow.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"robustflow was imported from {where}, not from {SRC}")
    return robustflow


class PivotCounter:
    """Counts SimplexTableau.pivot calls; the cost is one Python call."""

    def __init__(self, simplex_module):
        self.count = 0
        cls = simplex_module.SimplexTableau
        original = cls.pivot
        counter = self

        def pivot(tab, row, col):
            counter.count += 1
            return original(tab, row, col)

        cls.pivot = pivot


def run_op(call, deadline_s):
    """Run one CLI command; returns (rc, stdout, stderr, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    began = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call()
    except OpDeadline:
        error = f"missed the {deadline_s:g} s operation deadline"
    except Exception as exc:  # a traceback is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - began
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), err.getvalue(), error, elapsed


def run_pass(spec, main, counter=None, tracer=None):
    """Run every op once; an op that cannot start before the run's stop
    time counts as failed."""
    records = []
    began = time.perf_counter()
    for op in spec["ops"]:
        if time.time() > spec["stop_at"]:
            records.append({"id": op["id"], "rc": None, "error": "run budget exhausted",
                            "stdout": "", "seconds": 0.0, "pivots": 0})
            continue
        before = counter.count if counter else 0

        def call(argv=op["argv"]):
            return main(argv)

        if tracer:
            call = functools.partial(tracer.command, op["id"], call)
        rc, stdout, stderr, error, seconds = run_op(call, spec["op_deadline"])
        records.append({
            "id": op["id"], "rc": rc, "error": error or (stderr.strip() if rc else None),
            "stdout": stdout, "seconds": seconds,
            "pivots": (counter.count - before) if counter else None,
        })
    return records, time.perf_counter() - began


def warm_up(spec, main):
    for argv in spec["warmup"]:
        run_op(functools.partial(main, argv), spec["op_deadline"])


def mode_setup(spec):
    began = time.perf_counter()
    import_program()
    from robustflow.flows import build_throughput_tableau
    from robustflow.formats import parse_sndlib_native

    for path in spec["instances"]:
        with open(path, encoding="utf-8") as handle:
            doc = parse_sndlib_native(handle.read(), name=os.path.basename(path))
        build_throughput_tableau(doc.network, doc.demands)
    return {"setup_s": time.perf_counter() - began}


def _nominal_pivots(spec, counter):
    """Pivot count of the nominal throughput solve of each instance that a
    robust-latency command used (its printed total leaves that solve out)."""
    from robustflow.flows import solve_throughput
    from robustflow.formats import parse_sndlib_native

    out = {}
    for path in spec.get("nominal_pivots_for", []):
        with open(path, encoding="utf-8") as handle:
            doc = parse_sndlib_native(handle.read())
        before = counter.count
        solve_throughput(doc.network, doc.demands)
        out[path] = counter.count - before
    return out


def _digest(records):
    return hashlib.sha256("\x00".join(r["stdout"] for r in records).encode()).hexdigest()


def mode_measure(spec):
    import_program()
    from robustflow import cli, simplex

    warm_up(spec, cli.main)
    counter = PivotCounter(simplex)
    window_end = time.perf_counter() + spec["seconds"]
    passes = []
    first = None
    while True:
        records, wall = run_pass(spec, cli.main, counter)
        if first is None:
            first = records
        passes.append({
            "wall_s": wall,
            "pivots": sum(r["pivots"] for r in records),
            "failed": [r["id"] for r in records if r["rc"] != 0 or r["error"]],
            "digest": _digest(records),
        })
        walls = sorted(p["wall_s"] for p in passes)
        typical = walls[len(walls) // 2]
        if time.perf_counter() + typical > window_end or time.time() + typical > spec["stop_at"]:
            break
    return {
        "first_pass": first,
        "passes": passes,
        "nominal_pivots": _nominal_pivots(spec, counter),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def mode_traced(spec):
    import_program()
    from robustflow import cli

    import tracer as tracing

    warm_up(spec, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, wall = run_pass(spec, cli.main, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spec["trace_path"])
    metrics = tracer.metrics()
    return {
        "first_pass": records,
        "wall_s": wall,
        "metrics": {k: list(v) for k, v in metrics.items()},
        "missing": tracer.missing,
        "spans": len(tracer.spans),
    }


def main(argv):
    spec_path, result_path = argv[1], argv[2]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    signal.signal(signal.SIGALRM, _alarm)
    handler = {"setup": mode_setup, "measure": mode_measure, "traced": mode_traced}[spec["mode"]]
    result = handler(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
