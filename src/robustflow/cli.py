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

from . import __version__
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


def _cmd_robust_throughput(args):
    doc = _load_instance(args)
    if args.paired_failure:
        report = _paired_robust_throughput(doc, args)
    else:
        report = robust_throughput(
            doc.network, doc.demands, args.q,
            workers=args.workers,
            allow_large=args.allow_large,
            max_scenarios=_max_scenarios(),
        )
    sys.stdout.write(serialize_report(report, args.output))
    return 0


def _paired_robust_throughput(doc, args):
    """Exhaustive paired-failure evaluation: both directions of each chosen
    link are zeroed together."""
    from itertools import combinations

    from .robust import EvalContext, RobustReport, scenario_key
    from .simplex import Status, dual_simplex, primal_simplex, tighten_rhs
    from .flows import build_throughput_tableau
    import math as _math

    pairs = doc.link_pairs
    if not pairs:
        raise InputError("--paired-failure requires an SNDlib instance")
    if _math.comb(len(pairs), args.q) > _max_scenarios() and not args.allow_large:
        raise InputError("scenario count exceeds the enumeration gate")
    caps = doc.network.capacities
    tableau, _ = build_throughput_tableau(doc.network, doc.demands)
    out = primal_simplex(tableau)
    if out.status is not Status.OPTIMAL:
        raise SolverError(f"nominal throughput solve ended with status {out.status.value}")
    values = {}
    pivots = out.pivot_count
    best = None
    for chosen in combinations(range(len(pairs)), args.q):
        t = out.tableau
        edges = tuple(sorted(e for link in chosen for e in pairs[link]))
        for e in edges:
            t = tighten_rhs(t, e, caps[e])
        solved = dual_simplex(t)
        pivots += solved.pivot_count
        if solved.status is not Status.OPTIMAL:
            raise SolverError(f"paired scenario {edges} solve ended with status "
                              f"{solved.status.value}", scenario=edges)
        value = -solved.objective
        values[edges] = value
        key = scenario_key(value, edges, "min")
        if best is None or key < best[0]:
            best = (key, value, edges, solved.tableau)
    _, value, edges, tab = best
    return RobustReport(
        worst_value=value,
        worst_scenario=edges,
        per_scenario_values=values,
        pivots_total=pivots,
        scenarios_evaluated=len(values),
        context=EvalContext(tab, edges, caps),
    )


def _cmd_robust_latency(args):
    doc = _load_instance(args)
    cfg = _latency_config(args)
    if cfg.kind is not LatencyKind.LINEAR:
        raise InputError("robust latency optimization supports only the linear model")
    report = robust_latency_linear(
        doc.network, doc.demands, args.q, cfg,
        workers=args.workers,
        allow_large=args.allow_large,
        max_scenarios=_max_scenarios(),
    )
    sys.stdout.write(serialize_report(report, args.output))
    return 0


def _cmd_robustify_throughput(args):
    doc = _load_instance(args)
    if args.method == "cutting-plane":
        alloc, model, history = robustify_throughput_cutting_plane(
            doc.network, doc.demands, args.q, args.budget,
            tol=args.tol, max_iters=args.max_iters,
            allow_large=args.allow_large, workers=args.workers,
        )
        iterations = len(model.cuts)
    else:
        alloc, history = robustify_throughput_subgradient(
            doc.network, doc.demands, args.q, args.budget,
            steps=args.max_iters, allow_large=args.allow_large,
            workers=args.workers,
        )
        iterations = len(history)
    _emit({
        "command": "robustify-throughput",
        "instance": doc.name,
        "method": args.method,
        "q": args.q,
        "budget": _fmt(args.budget),
        "delta_b": [_fmt(v) for v in alloc.delta_b],
        "robust_lambda": _fmt(history[-1]),
        "iterations": iterations,
    })
    return 0


def _cmd_robustify_latency(args):
    doc = _load_instance(args)
    cfg = _latency_config(args)
    alloc, history = robustify_latency_linear(
        doc.network, doc.demands, args.q, args.budget, cfg,
        method=args.method, steps=args.max_iters, tol=args.tol,
        max_iters=args.max_iters, allow_large=args.allow_large,
        workers=args.workers,
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
    rows, totals = bench_robust_throughput(
        doc.network, doc.demands, args.q,
        allow_large=args.allow_large, max_scenarios=_max_scenarios(),
    )
    sys.stdout.write(serialize_bench(rows, totals))
    return 0


def _add_common(parser):
    parser.add_argument("--network", required=True, help="instance file path")
    parser.add_argument("--format", choices=["auto", "json", "sndlib"],
                        default="auto", help="input format (default: by extension)")


def _add_robust(parser):
    parser.add_argument("--q", type=int, default=1, help="number of deleted edges")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel scenario workers (output is identical for any value)")
    parser.add_argument("--allow-large", action="store_true",
                        help="override the scenario enumeration gate")
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
    parser.add_argument("--tol", type=float, default=1e-7)


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
    _add_robust(p)
    p.set_defaults(func=_cmd_robust_throughput)

    p = sub.add_parser("robust-latency", help="worst-case latency under q deletions")
    _add_common(p)
    _add_robust(p)
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
    _add_robust(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def _validate(args):
    if getattr(args, "q", 0) < 0:
        raise InputError("q must be non-negative")
    if getattr(args, "budget", 0.0) < 0:
        raise InputError("budget must be non-negative")
    if getattr(args, "tol", 1.0) <= 0:
        raise InputError("tolerance must be positive")
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
