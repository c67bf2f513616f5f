"""Worst-case throughput and latency over edge-failure scenarios.

A scenario deletes q failure groups: disjoint tuples of edges that fail
together, single edges ``(e,)`` by default or both directions of each SNDlib
link.  One walk (``_Walk``) enumerates the q-subsets of the groups as a
depth-first tree in lexicographic order; each tree node deletes one more
group than its parent by tightening its edges' capacity slacks to zero and
re-optimizing with the dual simplex method, so every child solve is
warm-started from its parent's optimal basis.  A scenario is reported as the
sorted tuple of its deleted edges.  With several workers the first-level
subtrees run on threads; the result does not depend on how many.
Throughput is monotone in capacities, so the worst case over at-most-q
failures is attained by an exactly-q scenario.

Budget allocation evaluates the same tree at many capacity vectors.  A
``WarmStart`` carries the optimal node tableaux of one tree level from one
evaluation to the next: a capacity change moves only right-hand sides, so
each kept node stays dual feasible after ``shift_rhs`` and is re-optimized
from its own basis instead of being rebuilt and reached again from the root.
"""

from __future__ import annotations

import math
import time
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
    shift_rhs,
    tighten_rhs,
)

MAX_SCENARIOS = 10 ** 6
# bytes of node tableaux one warm start may keep between evaluations
MAX_WARM_BYTES = 256 * 2 ** 20


@dataclass
class EvalContext:
    """Worst-scenario solver state retained for sensitivity extraction."""

    worst_tableau: object
    deleted: tuple
    capacities: np.ndarray
    scale: float = 1.0


@dataclass
class WarmStart:
    """Optimal scenario-tree nodes kept between the evaluations of one run
    at changing capacities.

    Empty until the first evaluation fills it for the tree ``tree`` =
    (q, failure groups).  ``nodes`` maps each kept node's deleted edges to
    (index of the first group it may still delete, its optimal tableau at
    ``caps``); the kept nodes sit ``below`` levels above the leaves.
    """

    caps: np.ndarray | None = None
    nodes: dict = field(default_factory=dict)
    below: int = 0
    tree: tuple = ()


@dataclass
class RobustReport:
    worst_value: float
    worst_scenario: tuple
    per_scenario_values: dict | None
    pivots_total: int
    scenarios_evaluated: int
    per_scenario_pivots: dict | None = field(default=None, repr=False)
    context: EvalContext | None = field(default=None, repr=False, compare=False)


def _capacities(net, b_override):
    """The capacities of an evaluation: ``b_override``, else the network's."""
    return net.capacities if b_override is None else np.asarray(b_override, dtype=float)


def _check_gate(m, groups, q, allow_large, max_scenarios):
    """The failure groups, singletons ``(e,)`` of the m edges when ``groups``
    is None, once q and the scenario count C(len(groups), q) pass the gate."""
    groups = tuple((e,) for e in range(m)) if groups is None else tuple(map(tuple, groups))
    g = len(groups)
    if not (0 <= q <= g):
        raise ValueError(f"q must lie in [0, {g}]")
    count = math.comb(g, q)
    if count > max_scenarios and not allow_large:
        raise ScenarioLimitExceeded(
            f"C({g},{q}) = {count} scenarios exceeds the gate of {max_scenarios}; "
            "pass the override to proceed"
        )
    return groups


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
        if abs(value) <= 1e-9:
            value = 0.0  # float noise around zero, never -0.0
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

    def report(self, pivots, caps, scale):
        """Report of the recorded scenarios; ``pivots`` were spent before the
        tree, whose root LP was built at capacities ``caps``.  The report
        holds a copy of the worst tableau, which a warm start may shift."""
        _, value, scenario, tableau = self.best
        return RobustReport(
            worst_value=value,
            worst_scenario=scenario,
            per_scenario_values=self.values,
            pivots_total=pivots + self.total_pivots,
            scenarios_evaluated=self.count,
            per_scenario_pivots=self.pivots,
            context=EvalContext(tableau.copy(), scenario, caps, scale=scale),
        )


class _Walk:
    """Depth-first warm-started walk of the scenario tree at capacities
    ``caps``.

    A node copies its parent, tightens one more group and runs one dual solve.
    Scenarios are recorded as sorted edge tuples in ``acc``, infeasible ones
    in ``infeasible``; with a ``warm`` start, the optimal nodes of its kept
    level go to ``warm.nodes`` as well.
    """

    def __init__(self, caps, groups, value_of, acc, max_pivots=None, on_leaf=None,
                 warm=None):
        self.caps = caps
        self.groups = groups
        self.value_of = value_of
        self.acc = acc
        self.infeasible = []
        self.max_pivots = max_pivots
        self.on_leaf = on_leaf
        self.warm = warm

    def tree(self, root, q, start=0, stop=None, deleted=()):
        """Delete q more groups from ``groups[start:]`` below ``root``, optimal
        with the edges ``deleted`` removed; the first of them below ``stop``
        (None: any)."""
        if q == 0:
            self.acc.record(deleted, self.value_of(root), root, 0)
            return
        last = len(self.groups) - q + 1
        for g in range(start, last if stop is None else min(stop, last)):
            first, *rest = self.groups[g]
            child = tighten_rhs(root, first, self.caps[first])
            for e in rest:
                shift_rhs(child, {e: -self.caps[e]})
            self.node(child, tuple(sorted(deleted + self.groups[g])), g + 1, q - 1)

    def node(self, child, path, start, q):
        """Re-optimize ``child``, dual feasible with the edges ``path``
        deleted; then record it (q = 0) or walk the q groups it still
        deletes from ``groups[start:]``."""
        began = time.perf_counter()
        out = dual_simplex(child, self.max_pivots)
        elapsed = time.perf_counter() - began
        self.acc.total_pivots += out.pivot_count
        if out.status is Status.INFEASIBLE:
            # every completion of this path only tightens further
            for rest in combinations(self.groups[start:], q):
                self.infeasible.append(tuple(sorted(path + sum(rest, ()))))
            return
        if out.status is not Status.OPTIMAL:
            raise SolverError(f"scenario {path} solve ended with status {out.status.value}",
                              scenario=path)
        if self.warm is not None and q == self.warm.below:
            self.warm.nodes[path] = (start, out.tableau)
        if q == 0:
            self.acc.record(path, self.value_of(out.tableau), out.tableau, out.pivot_count)
            if self.on_leaf is not None:
                self.on_leaf(path, out.pivot_count, elapsed)
        else:
            self.tree(out.tableau, q, start, None, path)


def _run_tree(new_walk, task, items, workers):
    """``task(walk, item)`` for every item: (merged accumulator, sorted
    infeasible scenarios).  With several workers each item runs on a thread
    and a walk of its own; the result does not depend on how many."""
    if workers <= 1 or len(items) <= 1:
        walk = new_walk()
        for item in items:
            task(walk, item)
        walks = [walk]
    else:
        from concurrent.futures import ThreadPoolExecutor

        def run(item):
            walk = new_walk()
            task(walk, item)
            return walk

        with ThreadPoolExecutor(max_workers=workers) as pool:
            walks = list(pool.map(run, items))
    acc, infeasible = walks[0].acc, walks[0].infeasible
    for walk in walks[1:]:
        acc.merge(walk.acc)
        infeasible.extend(walk.infeasible)
    return acc, sorted(infeasible)


def _keep_level(warm, root, groups, q):
    """Make ``warm`` keep the nodes of the deepest level d <= q whose
    C(len(groups), d) tableaux, each the size of ``root``, fit in
    ``MAX_WARM_BYTES``; the root itself when no level d >= 1 fits."""
    size = sum(a.nbytes for a in (root.tab, root.basic_vars, root.nonbasic_vars))
    depth = next((d for d in range(q, 0, -1)
                  if math.comb(len(groups), d) * size <= MAX_WARM_BYTES), 0)
    warm.tree = (q, groups)
    warm.below = q - depth
    warm.nodes = {(): (0, root)} if depth == 0 else {}


def _evaluate(root, caps, groups, q, value_of, sense, keep_values, workers,
              max_pivots=None, warm=None, on_leaf=None):
    """The scenario tree at capacities ``caps``: (pivots spent before the
    tree, accumulator, sorted infeasible scenarios).

    ``root()`` returns the optimal tableau with nothing deleted and its
    pivots.  A ``warm`` start that holds nodes skips it: each kept node is
    shifted by the capacity change since the previous evaluation (zero on
    its deleted edges), re-optimized by dual simplex from its own basis, and
    the levels below it walked.  Otherwise the full tree runs below
    ``root()`` and fills ``warm``.
    """
    def new_walk():
        return _Walk(caps, groups, value_of, _TreeAccumulator(sense, keep_values),
                     max_pivots, on_leaf, warm)

    if warm is not None and warm.caps is not None:
        if warm.tree != (q, groups):
            raise ValueError("a warm start serves the scenario tree it was filled for")
        change = caps - warm.caps
        moved = np.flatnonzero(change).tolist()
        # taken out first, so that an evaluation that fails leaves no stale node
        nodes, warm.nodes, warm.caps = warm.nodes, {}, None

        def resolve(walk, path):
            start, tableau = nodes.pop(path)
            shift_rhs(tableau, {e: change[e] for e in moved if e not in path})
            walk.node(tableau, path, start, warm.below)

        pivots = 0
        acc, infeasible = _run_tree(new_walk, resolve, sorted(nodes), workers)
    else:
        tableau, pivots = root()
        if warm is not None:
            _keep_level(warm, tableau, groups, q)
        firsts = range(len(groups) - q + 1) if q else range(1)
        acc, infeasible = _run_tree(
            new_walk, lambda walk, g: walk.tree(tableau, q, g, g + 1), firsts, workers)
    if warm is not None:
        # an infeasible node is not kept, so the next evaluation starts cold
        warm.caps = None if infeasible else caps
    return pivots, acc, infeasible


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


def _throughput_tree(net, demands, q, b_override, groups, keep_values, workers,
                     allow_large, max_scenarios, max_pivots, on_leaf=None, warm=None):
    """Nominal solve and scenario tree of the throughput LP: (capacities,
    pivots spent before the tree, accumulator)."""
    groups = _check_gate(net.n_edges, groups, q, allow_large, max_scenarios)
    caps = _capacities(net, b_override)

    def nominal():
        out = _solve_cold(net, demands, caps, max_pivots)
        return out.tableau, out.pivot_count

    pivots, acc, infeasible = _evaluate(
        nominal, caps, groups, q, value_of=lambda t: -t.objective, sense="min",
        keep_values=keep_values, workers=workers, max_pivots=max_pivots, warm=warm,
        on_leaf=on_leaf,
    )
    if infeasible:
        raise SolverError(f"throughput scenario {infeasible[0]} solve ended with "
                          "status infeasible", scenario=infeasible[0])
    return caps, pivots, acc


def robust_throughput(net, demands, q, b_override=None, keep_per_scenario=True,
                      workers=1, allow_large=False, max_scenarios=MAX_SCENARIOS,
                      max_pivots=None, groups=None, warm=None):
    """Worst-case throughput after deleting q failure groups (by default q
    single edges).

    The worst value is zero iff q deletions can disconnect a demand pair.
    The returned report retains the worst scenario's optimal tableau for
    sensitivity extraction.  ``warm``, one ``WarmStart`` shared by the
    evaluations of a run, re-optimizes the nodes kept at the previous
    capacities instead of solving the nominal LP again.
    """
    caps, pivots, acc = _throughput_tree(net, demands, q, b_override, groups,
                                         keep_per_scenario, workers, allow_large,
                                         max_scenarios, max_pivots, warm=warm)
    return acc.report(pivots, caps, scale=1.0)


def _robust_latency(net, demands, q, throughput, target, denom, b_override=None,
                    keep_per_scenario=True, workers=1, allow_large=False,
                    max_scenarios=MAX_SCENARIOS, max_pivots=None, groups=None,
                    warm=None):
    """Worst-case total delay divided by ``denom`` with the throughput pinned
    to ``target``, warm-started from ``throughput``, the optimal
    ``ThroughputSolution`` at capacities ``b_override``.  The reported
    pivots leave out that throughput solve.  A ``warm`` start that holds
    nodes needs no ``throughput``; it assumes ``target`` and ``denom`` stay
    as they were when it was filled.
    """
    groups = _check_gate(net.n_edges, groups, q, allow_large, max_scenarios)
    caps = _capacities(net, b_override)

    def pinned():
        cost = latency_cost_vector(net, throughput.var_map)
        tableau, pivots = pin_throughput_tableau(throughput, target, cost, max_pivots)
        if tableau is None:
            raise ScenarioInfeasible([()])
        return tableau, pivots

    pivots, acc, infeasible = _evaluate(
        pinned, caps, groups, q, value_of=lambda t: t.objective / denom, sense="max",
        keep_values=keep_per_scenario, workers=workers, max_pivots=max_pivots, warm=warm,
    )
    if infeasible:
        raise ScenarioInfeasible(infeasible)
    return acc.report(pivots, caps, scale=denom)


def robust_latency_linear(net, demands, q, cfg, b_override=None, **kwargs):
    """Worst-case normalized linear latency after deleting q failure groups
    (``groups`` among the keyword arguments; by default q single edges).

    The routed fraction is pinned at beta times the nominal maximal
    throughput in every scenario; a scenario that cannot carry that load
    raises ScenarioInfeasible listing the offending edge sets.
    """
    if cfg.kind is not LatencyKind.LINEAR:
        raise ValueError("robust latency is only solvable for the linear model")
    caps = _capacities(net, b_override)
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
                            max_scenarios=MAX_SCENARIOS, max_pivots=None, groups=None):
    """Warm-started tree versus per-scenario cold solves, with pivot counts.

    Returns (rows, totals): one row per scenario the tree recorded, with the
    leaf dual-simplex pivot count and wall time next to a cold primal solve
    of the same scenario, and totals where the warm side includes internal
    tree nodes.
    """
    warm_rows = {}

    def on_leaf(path, pivots, elapsed):
        warm_rows[path] = (pivots, elapsed)

    caps, _, acc = _throughput_tree(net, demands, q, b_override, groups, True, 1,
                                    allow_large, max_scenarios, max_pivots, on_leaf)
    rows = []
    cold_total_pivots = 0
    cold_total_time = 0.0
    for scenario, value in sorted(acc.values.items()):
        scenario_caps = caps.copy()
        scenario_caps[list(scenario)] = 0.0
        began = time.perf_counter()
        cold = _solve_cold(net, demands, scenario_caps, max_pivots, scenario)
        cold_time = time.perf_counter() - began
        warm_pivots, warm_time = warm_rows.get(scenario, (0, 0.0))
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
