"""Nominal flow LPs: maximal concurrent throughput, load balance, and
average latency.

The throughput LP is solved from an explicitly constructed initial tableau
whose starting vertex (all flows zero, slacks at capacity) is feasible by
construction, so no phase-1 is ever needed on this path.  Commodity blocks
exist only for sources that emit demand; the other sources keep their global
variable indices and carry zero flow.  The linear latency LP reuses the
optimal throughput tableau: the throughput variable is pinned to its target
by two cut rows and the cost row is swapped for the delay costs, which keeps
the whole pipeline warm-startable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleSystem,
    NoIndependentColumns,
    SaturatedEdge,
    SolverError,
    ZeroThroughput,
)
from .network import (
    demand_laplacian,
    incidence_matrix,
    independent_columns,
    rank_reduce,
)
from .simplex import (
    FEAS_TOL,
    SimplexTableau,
    Status,
    add_cut_row,
    dual_simplex,
    primal_simplex,
)

# constraint ids of the two rows pinning the throughput variable in latency LPs
LAMBDA_UPPER = "lambda_ub"
LAMBDA_LOWER = "lambda_lb"


@dataclass(frozen=True)
class VariableMap:
    """Global variable indices of the flow LPs.

    Flow variable f_{e,s} sits at s*m + e (column-major vec of the m-by-n
    flow matrix), the capacity slack of edge e at n*m + e, and the
    throughput variable last.  Every source keeps its indices, including
    sources without outgoing demand, which have no block in the throughput
    tableau: their flows are absent from every solution point and read as
    zero in ``flow_matrix``.
    """

    n_edges: int
    n_vertices: int

    def flow_index(self, edge, source):
        return source * self.n_edges + edge

    def slack_index(self, edge):
        return self.n_vertices * self.n_edges + edge

    @property
    def lambda_index(self):
        return self.n_vertices * self.n_edges + self.n_edges

    @property
    def n_flow_vars(self):
        return self.n_edges * self.n_vertices

    @property
    def n_vars(self):
        return self.n_flow_vars + self.n_edges + 1

    def flow_matrix(self, point):
        """Extract the m-by-n flow matrix from a full solution vector."""
        return point[: self.n_flow_vars].reshape(self.n_vertices, self.n_edges).T


class LatencyKind(enum.Enum):
    LINEAR = "linear"
    INVERSE = "inverse"
    LOG = "log"


@dataclass(frozen=True)
class LatencyConfig:
    kind: LatencyKind = LatencyKind.LINEAR
    beta: float = 0.9
    alpha_c: float = 1e-6

    def __post_init__(self):
        if not (0 < self.beta <= 1):
            raise ValueError("beta must lie in (0, 1]")
        if not self.alpha_c > 0:
            raise ValueError("alpha_c must be positive")


@dataclass
class ThroughputSolution:
    lambda_star: float
    flows: np.ndarray
    tableau: SimplexTableau
    var_map: VariableMap
    pivot_count: int


@dataclass
class LatencySolution:
    latency: float
    flows: np.ndarray
    tableau: SimplexTableau
    var_map: VariableMap
    pivot_count: int


def build_throughput_tableau(net, demands, b_override=None):
    """Initial primal-feasible tableau of the maximal concurrent flow LP.

    Only sources with positive total outgoing demand get a commodity block
    (n_red balance rows, k non-basic flow columns), so the tableau has
    n_red * |active| + m rows and k * |active| + 1 columns.  Basic variables
    are the active sources' flows on a regular column subset of the reduced
    incidence matrix plus all capacity slacks; their remaining flows and the
    throughput variable are non-basic.  Inactive sources' flow variables keep
    their global indices but appear nowhere, so they read as zero.  The
    starting vertex has zero flow and slacks equal to the capacities.
    """
    if demands.is_zero:
        raise InfeasibleSystem("throughput requires at least one positive demand")
    inc = incidence_matrix(net)
    lap = demand_laplacian(demands)
    reduced = rank_reduce(inc, lap)
    if not reduced.feasible:
        raise InfeasibleSystem(
            "demand Laplacian is inconsistent with the incidence matrix "
            "(a demand pair lies in different connected components)"
        )
    n_red = reduced.reduced_incidence.shape[0]
    eta = independent_columns(reduced.reduced_incidence)
    if len(eta) < n_red:
        raise NoIndependentColumns("no regular column subset of the reduced incidence")
    m, n = net.n_edges, net.n_vertices
    eta = np.asarray(eta, dtype=int)
    eta_bar = np.setdiff1d(np.arange(m), eta)
    k = len(eta_bar)
    # a source with no outgoing demand has a zero Laplacian column: its block
    # could only carry circulations, so it is left out of the tableau
    active = np.flatnonzero(demands.entries.sum(axis=1) > 0)
    n_act = active.size
    sub = reduced.reduced_incidence[:, eta]
    w_block = np.linalg.solve(sub, reduced.reduced_incidence[:, eta_bar]) if k else np.zeros((n_red, 0))
    u_act = np.linalg.solve(sub, reduced.reduced_laplacian[:, active])

    caps = net.capacities if b_override is None else np.asarray(b_override, dtype=float)
    if caps.shape != (m,) or (caps < 0).any():
        raise ValueError("capacity vector must be non-negative with one entry per edge")

    vm = VariableMap(m, n)
    n_flow_rows = n_red * n_act
    n_rows = n_flow_rows + m
    n_cols = k * n_act + 1

    basic = np.concatenate([
        vm.flow_index(eta[None, :], active[:, None]).ravel(),
        vm.slack_index(eta),
        vm.slack_index(eta_bar),
    ])
    nonbasic = np.append(vm.flow_index(eta_bar[None, :], active[:, None]).ravel(),
                         vm.lambda_index)

    # rows: one n_red block per active source, then the slacks of eta, eta_bar
    body = np.zeros((n_rows, n_cols))
    body[:n_flow_rows, :-1] = np.kron(np.eye(n_act), w_block)
    body[:n_flow_rows, -1] = u_act.T.ravel()
    slack_rows = slice(n_flow_rows, n_flow_rows + len(eta))
    body[slack_rows, :-1] = np.tile(-w_block, n_act)
    body[slack_rows, -1] = -u_act.sum(axis=1)
    body[slack_rows.stop:, :-1] = np.tile(np.eye(k), n_act)
    rhs = np.zeros(n_rows)
    rhs[n_flow_rows:] = caps[np.concatenate([eta, eta_bar])]

    cost_row = np.zeros(n_cols)
    cost_row[-1] = -1.0
    tableau = SimplexTableau(
        basic, nonbasic, body, rhs, cost_row, 0.0,
        constraint_slacks={e: vm.slack_index(e) for e in range(m)},
        n_original=vm.n_vars,
    )
    return tableau, vm


def solve_throughput(net, demands, b_override=None, max_pivots=None):
    """Optimal value and flows of the maximal concurrent flow problem."""
    tableau, vm = build_throughput_tableau(net, demands, b_override)
    out = primal_simplex(tableau, max_pivots)
    if out.status is not Status.OPTIMAL:
        # finite capacities bound the throughput, so only the pivot cap remains
        raise SolverError(f"throughput solve ended with status {out.status.value}")
    point = out.tableau.solution_point()
    return ThroughputSolution(
        lambda_star=-out.objective,
        flows=vm.flow_matrix(point),
        tableau=out.tableau,
        var_map=vm,
        pivot_count=out.pivot_count,
    )


def load_balance_from_throughput(solution):
    """Optimal load balance from a throughput solution.

    The two problems are reciprocal: theta* = 1 / lambda* and the optimal
    flows scale by 1 / lambda*.
    """
    lam = solution.lambda_star
    if lam <= 1e-12:
        raise ZeroThroughput("load balance is undefined at zero throughput")
    return 1.0 / lam, solution.flows / lam


def pin_throughput_tableau(throughput, target, cost_full, max_pivots=None):
    """Optimal tableau of a flow LP with the throughput pinned to ``target``.

    Starts from the optimal tableau of ``throughput`` (a ``ThroughputSolution``),
    pins the throughput variable with two cut rows (lambda <= target, then
    lambda >= target) re-optimized by dual simplex, then swaps in
    ``cost_full`` and finishes with primal simplex.  Returns (tableau or
    None, pivots); None signals that ``target`` exceeds the maximal
    throughput, i.e. the pinned system is infeasible.  The pivots leave out
    the throughput solve itself.
    """
    pivots = 0
    if target > throughput.lambda_star + 1e-9:
        return None, pivots
    vm = throughput.var_map
    e_lambda = np.zeros(vm.n_vars)
    e_lambda[vm.lambda_index] = 1.0
    t = add_cut_row(throughput.tableau, e_lambda, target, constraint_id=LAMBDA_UPPER)
    out = dual_simplex(t, max_pivots)
    pivots += out.pivot_count
    if out.status is not Status.OPTIMAL:
        return None, pivots
    t = add_cut_row(out.tableau, -e_lambda, -target, constraint_id=LAMBDA_LOWER)
    out = dual_simplex(t, max_pivots)
    pivots += out.pivot_count
    if out.status is not Status.OPTIMAL:
        return None, pivots
    t = out.tableau
    t.set_cost(cost_full)
    out = primal_simplex(t, max_pivots)
    if out.status is not Status.OPTIMAL:
        raise SolverError(f"pinned flow solve ended with status {out.status.value}")
    return out.tableau, pivots + out.pivot_count


def latency_cost_vector(net, var_map):
    """Full cost vector charging each flow variable its edge delay."""
    cost = np.zeros(var_map.n_vars)
    delays = net.delays
    for s in range(var_map.n_vertices):
        cost[s * var_map.n_edges:(s + 1) * var_map.n_edges] = delays
    return cost


def solve_latency_linear(net, demands, cfg, throughput, max_pivots=None):
    """Minimal normalized average latency under the linear delay model.

    ``throughput`` is the optimal ``ThroughputSolution`` of the same network
    and demands, with lambda_max its optimal value; its tableau is the warm
    start.  Routes the fraction beta * lambda_max of all demands and divides
    the total delay by the total routed flow beta * lambda_max * sum(D).
    """
    if cfg.kind is not LatencyKind.LINEAR:
        raise ValueError("only the linear latency model is an LP")
    lambda_max = throughput.lambda_star
    denom = cfg.beta * lambda_max * demands.total()
    if not denom > 0:
        raise ZeroThroughput("latency normalization requires positive throughput and demand")
    target = cfg.beta * lambda_max
    vm = throughput.var_map
    cost = latency_cost_vector(net, vm)
    tableau, pivots = pin_throughput_tableau(throughput, target, cost, max_pivots)
    if tableau is None:
        # beta <= 1 with lambda_max from the throughput LP keeps this feasible
        raise InfeasibleSystem("latency target exceeds the maximal throughput")
    point = tableau.solution_point()[: vm.n_vars]
    # pivoting leaves float noise such as -2.7e-14 on flows that are zero
    point[np.abs(point) <= FEAS_TOL] = 0.0
    return LatencySolution(
        latency=tableau.objective / denom,
        flows=vm.flow_matrix(point),
        tableau=tableau,
        var_map=vm,
        pivot_count=pivots,
    )


def eval_latency(flows_per_edge, net, cfg):
    """Total delay of a per-edge flow vector under the configured model.

    The inverse model is pre-multiplied by the stabilization constant
    alpha_c; inverse and log both require strictly unsaturated edges.
    """
    f = np.asarray(flows_per_edge, dtype=float)
    if f.shape != (net.n_edges,):
        raise ValueError("flow vector must have one entry per edge")
    if (f < 0).any():
        raise ValueError("flows must be non-negative")
    caps = net.capacities
    delays = net.delays
    if cfg.kind is LatencyKind.LINEAR:
        return float(delays @ f)
    if (f >= caps).any():
        edge = int(np.nonzero(f >= caps)[0][0])
        raise SaturatedEdge(f"edge {edge} is saturated (flow {f[edge]} >= capacity {caps[edge]})")
    load = f / caps
    if cfg.kind is LatencyKind.INVERSE:
        return float(cfg.alpha_c * np.sum(delays * f / (1.0 - load)))
    return float(np.sum(delays * (1.0 - np.log(1.0 - load))))
