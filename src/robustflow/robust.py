"""Worst-case throughput and latency over edge-failure scenarios.

Scenarios of exactly q deleted edges are enumerated as a depth-first tree in
lexicographic order.  Each tree node deletes one more edge than its parent by
tightening that edge's capacity slack to zero and re-optimizing with the
dual simplex method, so every child solve is warm-started from its parent's
optimal basis.  Throughput is monotone in capacities, so the worst case over
at-most-q failures is attained by an exactly-q scenario.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NoTableau, ScenarioInfeasible, ScenarioLimitExceeded, SolverError
from .flows import (
    build_throughput_tableau,
    latency_cost_vector,
    pin_throughput_tableau,
    solve_throughput,
    LatencyKind,
)
from .simplex import (
    Status,
    dual_simplex,
    primal_simplex,
    rhs_sensitivity,
    tighten_rhs,
)

MAX_SCENARIOS = 10 ** 6


@dataclass
class EvalContext:
    """Worst-scenario solver state retained for sensitivity extraction."""

    worst_tableau: object
    deleted: tuple
    capacities: np.ndarray
    scale: float = 1.0


@dataclass
class RobustReport:
    worst_value: float
    worst_scenario: tuple
    per_scenario_values: dict | None
    pivots_total: int
    scenarios_evaluated: int
    per_scenario_pivots: dict | None = field(default=None, repr=False)
    context: EvalContext | None = field(default=None, repr=False, compare=False)


def enumerate_scenarios(m, q):
    """All C(m, q) failure scenarios in lexicographic order."""
    if not (0 <= q <= m):
        raise ValueError("q must lie in [0, m]")
    return combinations(range(m), q)


def _check_gate(m, q, allow_large, max_scenarios):
    if not (0 <= q <= m):
        raise ValueError(f"q must lie in [0, {m}]")
    count = math.comb(m, q)
    if count > max_scenarios and not allow_large:
        raise ScenarioLimitExceeded(
            f"C({m},{q}) = {count} scenarios exceeds the gate of {max_scenarios}; "
            "pass the override to proceed"
        )


def scenario_key(value, scenario, sense):
    """Sort key under which the worst scenario is the smallest.

    The value is snapped to 0 when ``|value| <= 1e-9`` and otherwise rounded
    to 10 significant digits, so values equal up to float noise tie and the
    tie resolves to the lexicographically smallest scenario.
    """
    rounded = 0.0 if abs(value) <= 1e-9 else float(f"{value:.9e}")
    return (rounded if sense == "min" else -rounded, scenario)


class _TreeAccumulator:
    """Order-insensitive reduction of scenario values.

    Combining by ``scenario_key`` makes the result independent of
    evaluation order: ties in value resolve to the lexicographically
    smallest scenario.
    """

    def __init__(self, sense, keep_values):
        self.sense = sense  # "min" or "max"
        self.best = None
        self.values = {} if keep_values else None
        self.pivots = {}
        self.count = 0
        self.total_pivots = 0

    def record(self, scenario, value, tableau, pivots):
        self.count += 1
        if self.values is not None:
            self.values[scenario] = value
            self.pivots[scenario] = pivots
        key = scenario_key(value, scenario, self.sense)
        if self.best is None or key < self.best[0]:
            self.best = (key, value, scenario, tableau)

    def merge(self, other):
        self.count += other.count
        self.total_pivots += other.total_pivots
        if self.values is not None and other.values is not None:
            self.values.update(other.values)
            self.pivots.update(other.pivots)
        if other.best is not None and (self.best is None or other.best[0] < self.best[0]):
            self.best = other.best


def _scenario_tree(root, caps, q, value_of, acc, infeasible, start=0,
                   deleted=(), max_pivots=None, on_leaf=None):
    """Depth-first warm-started enumeration below one tree node."""
    if len(deleted) == q:
        acc.record(deleted, value_of(root), root, 0)
        return
    m = caps.size
    remaining = q - len(deleted)
    for e in range(start, m - remaining + 1):
        child = tighten_rhs(root, e, caps[e])
        began = time.perf_counter()
        out = dual_simplex(child, max_pivots)
        elapsed = time.perf_counter() - began
        acc.total_pivots += out.pivot_count
        path = deleted + (e,)
        if out.status is Status.INFEASIBLE:
            # every completion of this path only tightens further
            for rest in combinations(range(e + 1, m), remaining - 1):
                infeasible.append(path + rest)
            continue
        if out.status is not Status.OPTIMAL:
            raise SolverError(f"scenario {path} solve ended with status {out.status.value}",
                              scenario=path)
        if len(path) == q:
            acc.record(path, value_of(out.tableau), out.tableau, out.pivot_count)
            if on_leaf is not None:
                on_leaf(path, out.pivot_count, elapsed)
        else:
            _scenario_tree(out.tableau, caps, q, value_of, acc, infeasible,
                           e + 1, path, max_pivots, on_leaf)


def _run_tree(root, caps, q, value_of, sense, keep_values, workers,
              max_pivots=None, on_leaf=None):
    infeasible = []
    if q == 0 or workers <= 1:
        acc = _TreeAccumulator(sense, keep_values)
        _scenario_tree(root, caps, q, value_of, acc, infeasible,
                       max_pivots=max_pivots, on_leaf=on_leaf)
        return acc, infeasible
    m = caps.size

    # split on the first deleted edge; each worker owns private tableau copies
    def branch_only(first):
        acc = _TreeAccumulator(sense, keep_values)
        infs = []
        child = tighten_rhs(root, first, caps[first])
        out = dual_simplex(child, max_pivots)
        acc.total_pivots += out.pivot_count
        path = (first,)
        if out.status is Status.INFEASIBLE:
            for rest in combinations(range(first + 1, m), q - 1):
                infs.append(path + rest)
            return acc, infs
        if out.status is not Status.OPTIMAL:
            raise SolverError(f"scenario {path} solve ended with status {out.status.value}",
                              scenario=path)
        if q == 1:
            acc.record(path, value_of(out.tableau), out.tableau, out.pivot_count)
        else:
            _scenario_tree(out.tableau, caps, q, value_of, acc, infs,
                           first + 1, path, max_pivots, on_leaf)
        return acc, infs

    acc = _TreeAccumulator(sense, keep_values)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(branch_only, range(m - q + 1)))
    for sub, infs in results:
        acc.merge(sub)
        infeasible.extend(infs)
    infeasible.sort()
    return acc, infeasible


def _solve_cold(net, demands, caps, max_pivots, scenario=None):
    """Cold primal solve of the throughput LP at capacities ``caps``; the
    optimal ``SolveOutcome``, or SolverError naming ``scenario``."""
    tableau, _ = build_throughput_tableau(net, demands, caps)
    out = primal_simplex(tableau, max_pivots)
    if out.status is not Status.OPTIMAL:
        what = "nominal throughput" if scenario is None else f"cold scenario {scenario}"
        raise SolverError(f"{what} solve ended with status {out.status.value}",
                          scenario=scenario)
    return out


def robust_throughput(net, demands, q, b_override=None, keep_per_scenario=True,
                      workers=1, allow_large=False, max_scenarios=MAX_SCENARIOS,
                      max_pivots=None):
    """Worst-case throughput after exactly q edge deletions.

    The worst value is zero iff at most q deletions can disconnect a demand
    pair.  The returned report retains the worst scenario's optimal tableau
    for sensitivity extraction.
    """
    m = net.n_edges
    _check_gate(m, q, allow_large, max_scenarios)
    caps = net.capacities if b_override is None else np.asarray(b_override, dtype=float)
    nominal = _solve_cold(net, demands, caps, max_pivots)

    acc, infeasible = _run_tree(
        nominal.tableau, caps, q, value_of=lambda t: -t.objective,
        sense="min", keep_values=keep_per_scenario, workers=workers,
        max_pivots=max_pivots,
    )
    if infeasible:
        raise SolverError(f"throughput scenario {infeasible[0]} solve ended with "
                          "status infeasible", scenario=infeasible[0])
    _, value, scenario, worst_tab = acc.best
    return RobustReport(
        worst_value=value,
        worst_scenario=scenario,
        per_scenario_values=acc.values,
        pivots_total=nominal.pivot_count + acc.total_pivots,
        scenarios_evaluated=acc.count,
        per_scenario_pivots=acc.pivots,
        context=EvalContext(worst_tab, scenario, caps, scale=1.0),
    )


def _robust_latency(net, demands, q, throughput, target, denom, b_override=None,
                    keep_per_scenario=True, workers=1, allow_large=False,
                    max_scenarios=MAX_SCENARIOS, max_pivots=None):
    """Worst-case total delay divided by ``denom`` with the throughput pinned
    to ``target``, warm-started from ``throughput``, the optimal
    ``ThroughputSolution`` at capacities ``b_override``.  The reported
    pivots leave out that throughput solve."""
    _check_gate(net.n_edges, q, allow_large, max_scenarios)
    caps = net.capacities if b_override is None else np.asarray(b_override, dtype=float)
    cost = latency_cost_vector(net, throughput.var_map)
    tableau, pivots = pin_throughput_tableau(throughput, target, cost, max_pivots)
    if tableau is None:
        raise ScenarioInfeasible([()])

    acc, infeasible = _run_tree(
        tableau, caps, q, value_of=lambda t: t.objective / denom,
        sense="max", keep_values=keep_per_scenario, workers=workers,
        max_pivots=max_pivots,
    )
    if infeasible:
        raise ScenarioInfeasible(sorted(infeasible))
    _, value, scenario, worst_tab = acc.best
    return RobustReport(
        worst_value=value,
        worst_scenario=scenario,
        per_scenario_values=acc.values,
        pivots_total=pivots + acc.total_pivots,
        scenarios_evaluated=acc.count,
        per_scenario_pivots=acc.pivots,
        context=EvalContext(worst_tab, scenario, caps, scale=denom),
    )


def robust_latency_linear(net, demands, q, cfg, b_override=None, **kwargs):
    """Worst-case normalized linear latency after exactly q edge deletions.

    The routed fraction is pinned at beta times the nominal maximal
    throughput in every scenario; a scenario that cannot carry that load
    raises ScenarioInfeasible listing the offending edge sets.
    """
    if cfg.kind is not LatencyKind.LINEAR:
        raise ValueError("robust latency is only solvable for the linear model")
    caps = net.capacities if b_override is None else np.asarray(b_override, dtype=float)
    throughput = solve_throughput(net, demands, caps, kwargs.get("max_pivots"))
    target = cfg.beta * throughput.lambda_star
    denom = target * demands.total()
    return _robust_latency(net, demands, q, throughput, target, denom, caps, **kwargs)


def worst_scenario_subgradient(context, b_current):
    """Subgradient of the robust value with respect to the capacity vector.

    Component e is the right-hand-side sensitivity of the worst scenario's
    LP for edge e's capacity constraint; entries of deleted edges are forced
    to zero because the scenario value does not depend on them.
    """
    if context is None or context.worst_tableau is None:
        raise NoTableau("the worst-scenario tableau was not retained")
    b_current = np.asarray(b_current, dtype=float)
    if b_current.shape != context.capacities.shape or not np.allclose(
        b_current, context.capacities, atol=1e-12
    ):
        raise ValueError("b_current does not match the evaluated capacity vector")
    deleted = set(context.deleted)
    grad = np.zeros(b_current.size)
    for e in range(b_current.size):
        if e in deleted:
            continue
        grad[e] = rhs_sensitivity(context.worst_tableau, e) / context.scale
    return grad


def bench_robust_throughput(net, demands, q, b_override=None, allow_large=False,
                            max_scenarios=MAX_SCENARIOS, max_pivots=None):
    """Warm-started tree versus per-scenario cold solves, with pivot counts.

    Returns (rows, totals): one row per scenario with the leaf dual-simplex
    pivot count and wall time next to a cold primal solve of the same
    scenario, and totals where the warm side includes internal tree nodes.
    """
    m = net.n_edges
    _check_gate(m, q, allow_large, max_scenarios)
    caps = net.capacities if b_override is None else np.asarray(b_override, dtype=float)
    nominal = _solve_cold(net, demands, caps, max_pivots)

    warm_rows = {}

    def on_leaf(path, pivots, elapsed):
        warm_rows[path] = (pivots, elapsed)

    acc, infeasible = _run_tree(
        nominal.tableau, caps, q, value_of=lambda t: -t.objective,
        sense="min", keep_values=True, workers=1, max_pivots=max_pivots,
        on_leaf=on_leaf,
    )
    if infeasible:
        raise SolverError(f"throughput scenario {infeasible[0]} solve ended with "
                          "status infeasible", scenario=infeasible[0])

    rows = []
    cold_total_pivots = 0
    cold_total_time = 0.0
    for scenario in enumerate_scenarios(m, q):
        scenario_caps = caps.copy()
        scenario_caps[list(scenario)] = 0.0
        began = time.perf_counter()
        cold = _solve_cold(net, demands, scenario_caps, max_pivots, scenario)
        cold_time = time.perf_counter() - began
        warm_pivots, warm_time = warm_rows.get(scenario, (0, 0.0))
        value = acc.values[scenario]
        if abs(value - (-cold.objective)) > 1e-7:
            raise RuntimeError(f"warm/cold value mismatch on scenario {scenario}")
        cold_total_pivots += cold.pivot_count
        cold_total_time += cold_time
        rows.append({
            "scenario_edges": scenario,
            "value": value,
            "warm_pivots": warm_pivots,
            "cold_pivots": cold.pivot_count,
            "warm_time_s": warm_time,
            "cold_time_s": cold_time,
        })
    totals = {
        "warm_pivots": acc.total_pivots,
        "cold_pivots": cold_total_pivots,
        "warm_time_s": sum(r["warm_time_s"] for r in rows),
        "cold_time_s": cold_total_time,
    }
    return rows, totals
