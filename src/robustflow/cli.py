"""Command-line front end.

Subcommands: throughput, load-balance, latency, robust-throughput,
robust-latency, robustify-throughput, robustify-latency, bench.  Exit codes:
0 success, 1 infeasible or disconnected instance data, 2 usage error, 3 a
simplex solve stopped without an optimum (pivot cap or unexpected status).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, robust
from .errors import DataError, InputError, RobustFlowError, SolverError
from .flows import (
    LatencyConfig,
    LatencyKind,
    eval_latency,
    load_balance_from_throughput,
    solve_latency_linear,
    solve_throughput,
)
from .formats import (
    _fmt,
    parse_json_instance,
    parse_sndlib_native,
    serialize_bench,
    serialize_report,
)
from .robust import (
    MAX_SCENARIOS,
    bench_robust_throughput,
    robust_latency_linear,
    robust_throughput,
)
from .robustify import (
    robustify_latency_linear,
    robustify_throughput_cutting_plane,
    robustify_throughput_subgradient,
)

ENV_MAX_SCENARIOS = "ROBUSTFLOW_MAX_SCENARIOS"


def _load_instance(args):
    path = args.network
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    fmt = args.format
    if fmt == "auto":
        fmt = "json" if path.endswith(".json") else "sndlib"
    if fmt == "json":
        return parse_json_instance(text)
    return parse_sndlib_native(text, name=os.path.basename(path))


def _max_scenarios():
    raw = os.environ.get(ENV_MAX_SCENARIOS)
    if raw is None:
        return MAX_SCENARIOS
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_MAX_SCENARIOS} must be an integer") from exc


def _emit(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _latency_config(args):
    kind = LatencyKind(args.latency_kind)
    return LatencyConfig(kind=kind, beta=args.beta, alpha_c=args.alpha_c)


def _cmd_throughput(args):
    doc = _load_instance(args)
    sol = solve_throughput(doc.network, doc.demands)
    _emit({
        "command": "throughput",
        "instance": doc.name,
        "lambda": _fmt(sol.lambda_star),
        "pivots": sol.pivot_count,
    })
    return 0


def _cmd_load_balance(args):
    doc = _load_instance(args)
    sol = solve_throughput(doc.network, doc.demands)
    theta, _ = load_balance_from_throughput(sol)
    _emit({
        "command": "load-balance",
        "instance": doc.name,
        "lambda": _fmt(sol.lambda_star),
        "theta": _fmt(theta),
    })
    return 0


def _cmd_latency(args):
    doc = _load_instance(args)
    cfg = _latency_config(args)
    sol = solve_throughput(doc.network, doc.demands)
    lat = solve_latency_linear(doc.network, doc.demands,
                               LatencyConfig(LatencyKind.LINEAR, cfg.beta, cfg.alpha_c),
                               sol)
    payload = {
        "command": "latency",
        "instance": doc.name,
        "beta": _fmt(cfg.beta),
        "lambda_max": _fmt(sol.lambda_star),
        "latency_linear": _fmt(lat.latency),
    }
    if cfg.kind is not LatencyKind.LINEAR:
        # evaluate the nonlinear models on the linear-optimal flows
        total = lat.flows.sum(axis=1)
        payload[f"latency_{cfg.kind.value}_evaluated"] = _fmt(
            eval_latency(total, doc.network, cfg)
        )
    _emit(payload)
    return 0


def _tree_options(doc, args):
    """Scenario-tree keyword arguments of a robust subcommand: the failure
    groups (SNDlib link pairs under --paired-failure, else single edges),
    the gate and, where registered, the worker count."""
    groups = None
    if args.paired_failure:
        if not doc.link_pairs:
            raise InputError("--paired-failure requires an SNDlib instance")
        groups = doc.link_pairs
    options = {"groups": groups, "allow_large": args.allow_large,
               "max_scenarios": _max_scenarios()}
    if "workers" in args:
        options["workers"] = args.workers
    return options


def _cmd_robust_throughput(args):
    doc = _load_instance(args)
    if args.paired_failure:
        report = _paired_robust_throughput(doc, args)
    else:
        report = robust_throughput(doc.network, doc.demands, args.q,
                                   **_tree_options(doc, args))
    sys.stdout.write(serialize_report(report, args.output))
    return 0


def _paired_robust_throughput(doc, args):
    """Robust throughput where both directions of each chosen SNDlib link
    fail together."""
    # through the module, so that a wrapper around cli.robust_throughput
    # (perfbench/tracer.py) sees one evaluation per command
    return robust.robust_throughput(doc.network, doc.demands, args.q,
                                    **_tree_options(doc, args))


def _cmd_robust_latency(args):
    doc = _load_instance(args)
    cfg = _latency_config(args)
    if cfg.kind is not LatencyKind.LINEAR:
        raise InputError("robust latency optimization supports only the linear model")
    report = robust_latency_linear(doc.network, doc.demands, args.q, cfg,
                                   **_tree_options(doc, args))
    sys.stdout.write(serialize_report(report, args.output))
    return 0


def _method_options(args):
    """Keyword arguments of the chosen robustify method: its iteration cap
    and, for the cutting plane, ``--tol`` when given."""
    if args.method == "subgradient":
        return {"steps": args.max_iters}
    options = {"max_iters": args.max_iters}
    if args.tol is not None:
        options["tol"] = args.tol
    return options


def _cmd_robustify_throughput(args):
    doc = _load_instance(args)
    method = (robustify_throughput_cutting_plane if args.method == "cutting-plane"
              else robustify_throughput_subgradient)
    # (allocation, [cut model,] history)
    alloc, *_, history = method(doc.network, doc.demands, args.q, args.budget,
                                **_method_options(args), **_tree_options(doc, args))
    _emit({
        "command": "robustify-throughput",
        "instance": doc.name,
        "method": args.method,
        "q": args.q,
        "budget": _fmt(args.budget),
        "delta_b": [_fmt(v) for v in alloc.delta_b],
        "robust_lambda": _fmt(history[-1]),
        "iterations": len(history),
    })
    return 0


def _cmd_robustify_latency(args):
    doc = _load_instance(args)
    cfg = _latency_config(args)
    alloc, history = robustify_latency_linear(
        doc.network, doc.demands, args.q, args.budget, cfg, method=args.method,
        **_method_options(args), **_tree_options(doc, args),
    )
    _emit({
        "command": "robustify-latency",
        "instance": doc.name,
        "method": args.method,
        "q": args.q,
        "budget": _fmt(args.budget),
        "delta_b": [_fmt(v) for v in alloc.delta_b],
        "robust_latency": _fmt(history[-1]),
    })
    return 0


def _cmd_bench(args):
    doc = _load_instance(args)
    rows, totals = bench_robust_throughput(doc.network, doc.demands, args.q,
                                           **_tree_options(doc, args))
    sys.stdout.write(serialize_bench(rows, totals))
    return 0


def _add_common(parser):
    parser.add_argument("--network", required=True, help="instance file path")
    parser.add_argument("--format", choices=["auto", "json", "sndlib"],
                        default="auto", help="input format (default: by extension)")


def _add_robust(parser, workers=True, output=False):
    parser.add_argument("--q", type=int, default=1,
                        help="number of deleted edges (links under --paired-failure)")
    if workers:
        parser.add_argument("--workers", type=int, default=1,
                            help="parallel scenario workers (output is identical for any value)")
    parser.add_argument("--allow-large", action="store_true",
                        help="override the scenario enumeration gate")
    if output:
        parser.add_argument("--output", choices=["json", "csv"], default="json")
    parser.add_argument("--paired-failure", action="store_true",
                        help="delete both directions of each SNDlib link together")


def _add_latency_opts(parser):
    parser.add_argument("--beta", type=float, default=0.9, help="load ratio in (0, 1]")
    parser.add_argument("--latency-kind", choices=[k.value for k in LatencyKind],
                        default="linear")
    parser.add_argument("--alpha-c", type=float, default=1e-6,
                        help="stabilization scale of the inverse model")


def _add_robustify(parser):
    parser.add_argument("--budget", type=float, required=True,
                        help="total capacity increment budget")
    parser.add_argument("--method", choices=["cutting-plane", "subgradient"],
                        default="cutting-plane")
    parser.add_argument("--max-iters", type=int, default=200)
    parser.add_argument("--tol", type=float,
                        help="cutting-plane stopping tolerance (default 1e-7)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robustflow",
        description="Multi-commodity flow metrics, edge-failure robustness, "
                    "and budgeted capacity robustification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="maximal concurrent throughput")
    _add_common(p)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("load-balance", help="optimal load balance")
    _add_common(p)
    p.set_defaults(func=_cmd_load_balance)

    p = sub.add_parser("latency", help="average latency at a load ratio")
    _add_common(p)
    _add_latency_opts(p)
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("robust-throughput", help="worst-case throughput under q deletions")
    _add_common(p)
    _add_robust(p, output=True)
    p.set_defaults(func=_cmd_robust_throughput)

    p = sub.add_parser("robust-latency", help="worst-case latency under q deletions")
    _add_common(p)
    _add_robust(p, output=True)
    _add_latency_opts(p)
    p.set_defaults(func=_cmd_robust_latency)

    p = sub.add_parser("robustify-throughput", help="allocate budget to maximize robust throughput")
    _add_common(p)
    _add_robust(p)
    _add_robustify(p)
    p.set_defaults(func=_cmd_robustify_throughput)

    p = sub.add_parser("robustify-latency", help="allocate budget to minimize robust latency")
    _add_common(p)
    _add_robust(p)
    _add_latency_opts(p)
    _add_robustify(p)
    p.set_defaults(func=_cmd_robustify_latency)

    p = sub.add_parser("bench", help="warm-start vs cold-solve pivot counts")
    _add_common(p)
    _add_robust(p, workers=False)
    p.set_defaults(func=_cmd_bench)

    return parser


def _validate(args):
    if getattr(args, "q", 0) < 0:
        raise InputError("q must be non-negative")
    if not 0 <= getattr(args, "budget", 0.0) < float("inf"):
        raise InputError("budget must be finite and non-negative")
    tol = getattr(args, "tol", None)
    if tol is not None:
        if args.method == "subgradient":
            raise InputError("--tol applies only to --method cutting-plane")
        if not 0 < tol < float("inf"):
            raise InputError("tolerance must be finite and positive")
    if getattr(args, "workers", 1) < 1:
        raise InputError("workers must be at least 1")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RobustFlowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
