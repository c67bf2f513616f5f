"""Budgeted capacity allocation maximizing robust throughput or minimizing
robust latency.

Both outer methods minimize a convex piecewise-affine objective over the
budget simplex {delta_b >= 0, sum(delta_b) <= B}: the value of the worst
failure scenario's LP as a function of the capacity increments.  The
projected subgradient method walks the simplex directly; the cutting-plane
method builds an affine lower model from (value, subgradient) pairs and
re-optimizes the master LP after each new cut with a warm-started dual
simplex.

One objective serves both kinds.  Each evaluation walks the scenario tree
once, through ``robust_throughput`` or ``_robust_latency`` with one
``WarmStart`` per run: only the first builds and solves the nominal LP.
Every later one shifts kept node tableaux by their capacity change and
re-optimizes them by dual simplex (increments move only right-hand sides).
Where the kept nodes are the leaves, it re-solves only the leaves whose
old flows, scaled into the new capacities, cannot rule them out as the
worst case; the other leaves keep their tableaux for a later evaluation.
At q = 1 the first evaluation already visits the leaves in bound order: a
solved leaf's flows bound every leaf whose group they leave unloaded, so
only the leaves these witnesses cannot rule out are solved.  The others
are kept by their witness records with the root, from which a later
evaluation builds a leaf it must solve.  The first master LP is checked
against its closed form to a relative 1e-7: at large budgets its rounding
alone exceeds any fixed absolute tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .robust import WarmStart, _robust_latency, robust_throughput, worst_scenario_subgradient
from .simplex import SimplexTableau, Status, add_cut_row, dual_simplex


@dataclass(frozen=True)
class BudgetAllocation:
    """Non-negative capacity increments with bounded total."""

    delta_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta_b", np.asarray(self.delta_b, dtype=float))
        if (self.delta_b < -1e-12).any():
            raise ValueError("capacity increments must be non-negative")


@dataclass
class Cut:
    value: float
    subgradient: np.ndarray
    point: np.ndarray


@dataclass
class CutModel:
    """One cut per evaluation, the last master tableau, phi per iteration."""

    cuts: list = field(default_factory=list)
    master_tableau: SimplexTableau | None = None
    phi_history: list = field(default_factory=list)


def project_budget_simplex(v, budget):
    """Euclidean projection onto {x >= 0, sum(x) <= budget}.

    Clipping at zero suffices when it lands inside the budget; otherwise the
    projection coincides with the projection onto the equality simplex,
    computed by the usual sort-and-threshold rule.
    """
    if not budget > 0:
        if budget == 0:
            return np.zeros(np.asarray(v).size)
        raise ValueError("budget must be non-negative")
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    if clipped.sum() <= budget:
        return clipped
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - budget
    ks = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u - cumulative / ks > 0)[0][-1])
    tau = cumulative[rho] / (rho + 1)
    return np.maximum(v - tau, 0.0)


def _subgradient_descent(objective, m, budget, steps, step_rule):
    """Projected subgradient descent of a convex objective over the budget
    simplex.  ``objective(x)`` returns (value, subgradient).  Returns the
    best iterate and the monotone history of best values."""
    if not 0 <= budget < math.inf:
        raise ValueError("budget must be finite and non-negative")
    if step_rule is None:
        step_rule = lambda t: budget / math.sqrt(t + 1.0)
    x = np.zeros(m)
    value, grad = objective(x)
    best_x, best_value = x.copy(), value
    history = [best_value]
    if budget == 0:
        return best_x, history
    for t in range(steps):
        x = project_budget_simplex(x - step_rule(t) * grad, budget)
        value, grad = objective(x)
        if value < best_value:
            best_value, best_x = value, x.copy()
        history.append(best_value)
    return best_x, history


def _cutting_plane(objective, m, budget, tol, max_iters):
    """Piecewise-affine minimization by an expanding cut model (Kelley).

    Master variables are (phi_shift, x, budget slack) where the model value
    is phi = phi_shift + floor and the floor is one below the first cut's
    simplex minimum, a provable lower bound that keeps phi_shift >= 0 from
    ever binding.  Each iteration appends one cut row to the optimal master
    tableau and re-optimizes with the dual simplex method.
    """
    if not 0 <= budget < math.inf:
        raise ValueError("budget must be finite and non-negative")
    model = CutModel()
    x = np.zeros(m)
    value, grad = objective(x)
    model.cuts.append(Cut(value, grad.copy(), x.copy()))
    best_x, best_value = x.copy(), value
    history = [best_value]
    if budget == 0:
        return best_x, model, history

    # the first cut's minimum puts the budget on its most negative coordinate
    phi_first = value + budget * min(0.0, grad.min())
    floor = phi_first - 1.0

    # master over (phi_shift, x_1..x_m, budget slack); only the budget row yet
    n_master = m + 2
    budget_row = np.zeros(m + 1)
    budget_row[1:] = 1.0
    cost = np.zeros(m + 1)
    cost[0] = 1.0
    master = SimplexTableau(
        basic_vars=[m + 1],
        nonbasic_vars=np.arange(m + 1),
        body=budget_row.reshape(1, -1),
        rhs=[budget],
        cost_row=cost,
        cost_corner=0.0,
        constraint_slacks={"budget": m + 1},
        n_original=n_master,
    )

    for t in range(max_iters):
        cut = np.zeros(n_master)
        cut[0] = -1.0
        cut[1:m + 1] = grad
        cut_rhs = float(grad @ x) - value + floor
        master = add_cut_row(master, cut, cut_rhs)
        out = dual_simplex(master)
        if out.status is not Status.OPTIMAL:
            raise SolverError(f"master LP ended with status {out.status.value}")
        master = out.tableau
        point = master.solution_point()
        phi = point[0] + floor
        x_next = np.maximum(point[1:m + 1], 0.0)
        model.phi_history.append(phi)
        if t == 0 and abs(phi - phi_first) > 1e-7 * max(1.0, abs(phi_first)):
            raise SolverError(f"first master LP value {phi:.17g} disagrees with its "
                              f"closed form {phi_first:.17g}")
        step = float(np.max(np.abs(x_next - x)))
        value, grad = objective(x_next)
        model.cuts.append(Cut(value, grad.copy(), x_next.copy()))
        if value < best_value:
            best_value, best_x = value, x_next.copy()
        history.append(best_value)
        x = x_next
        if step <= tol or value - phi <= tol:
            break
    model.master_tableau = master
    return best_x, model, history


def _robust_objective(evaluate, base_caps, sign):
    """``x -> (value, subgradient)`` to minimize: ``sign`` times the worst
    value of the report ``evaluate(base_caps + x)``, whose worst tableau's
    sensitivities are already those of that signed value."""
    def objective(x):
        caps = base_caps + x
        report = evaluate(caps)
        return sign * report.worst_value, worst_scenario_subgradient(report.context, caps)

    return objective


def _throughput_evaluate(net, demands, q, tree):
    warm = WarmStart()
    return lambda caps: robust_throughput(net, demands, q, b_override=caps,
                                          keep_per_scenario=False, warm=warm, **tree)


def robustify_throughput_subgradient(net, demands, q, budget, steps=1000,
                                     step_rule=None, **tree):
    """Allocate the capacity budget by projected subgradient descent.

    ``tree`` holds the scenario-tree options of ``robust_throughput``
    (groups, workers, allow_large, max_scenarios).  Returns the best
    allocation and the best robust throughput per iteration (monotone).
    """
    objective = _robust_objective(_throughput_evaluate(net, demands, q, tree),
                                  net.capacities, -1.0)
    x, history = _subgradient_descent(objective, net.n_edges, budget, steps, step_rule)
    return BudgetAllocation(x), [-v for v in history]


def robustify_throughput_cutting_plane(net, demands, q, budget, tol=1e-7,
                                       max_iters=100, **tree):
    """Allocate the capacity budget by the cutting-plane method.

    ``tree`` holds the scenario-tree options of ``robust_throughput``.
    Returns the best allocation, the cut model (``CutModel``), and the
    monotone history of the best robust throughput per iteration.
    """
    objective = _robust_objective(_throughput_evaluate(net, demands, q, tree),
                                  net.capacities, -1.0)
    x, model, history = _cutting_plane(objective, net.n_edges, budget, tol, max_iters)
    return BudgetAllocation(x), model, [-v for v in history]


def robustify_latency_linear(net, demands, q, budget, method="cutting-plane",
                             steps=1000, step_rule=None, tol=1e-7, max_iters=100,
                             **tree):
    """Allocate the capacity budget to minimize the worst-case total delay
    under the linear delay model.

    The inner problem routes the full demand (no throughput scaling) and its
    objective is the unnormalized total delay; a scenario that cannot carry
    the full demand at zero increment aborts with the offending scenarios.
    ``tree`` holds the scenario-tree options of ``robust_throughput``.
    """
    warm = WarmStart()

    def evaluate(caps):
        return _robust_latency(net, demands, q, target=1.0, denom=1.0, b_override=caps,
                               keep_per_scenario=False, warm=warm, **tree)

    objective = _robust_objective(evaluate, net.capacities, 1.0)
    if method == "subgradient":
        x, history = _subgradient_descent(objective, net.n_edges, budget, steps, step_rule)
    elif method == "cutting-plane":
        x, _, history = _cutting_plane(objective, net.n_edges, budget, tol, max_iters)
    else:
        raise ValueError(f"unknown method {method!r}")
    return BudgetAllocation(x), history
