"""Nominal flow LPs: maximal concurrent throughput, load balance, and
average latency.

Both LPs are built from an explicitly constructed initial tableau with one
commodity block per source that emits demand; the other sources keep their
global variable indices and carry zero flow.  Each block's basic flows sit
on a spanning forest of the network and every capacity slack is basic.  The
throughput LP takes the lowest-index spanning forest for every source,
found by union-find: all flows zero and slacks at capacity is a feasible
vertex, so no phase-1 is ever needed.  (``network.rank_reduce`` finds the
same rows and columns by Gram-Schmidt; it is library API and the tests'
oracle, off the build path.)  The linear latency LP fixes the throughput
at its target and takes a shortest-delay forest per source, whose delay
potentials price every other edge non-negatively (Ahuja, Magnanti & Orlin
1993, ch. 9): the start is dual feasible, and the dual simplex method
routes the target from it.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from itertools import chain, cycle

import numpy as np

from .errors import InfeasibleSystem, SaturatedEdge, SolverError, ZeroThroughput
from .network import (
    demand_laplacian,
    incidence_matrix,
    rank_reduce,  # noqa: F401 -- flows.rank_reduce is a wrap point of perfbench's tracer
)
from .simplex import (
    FEAS_TOL,
    SimplexTableau,
    Status,
    add_cut_row,  # noqa: F401 -- flows.add_cut_row is a wrap point of perfbench's tracer
    dual_simplex,
    primal_simplex,
)

_SPLIT_DEMAND = ("demand Laplacian is inconsistent with the incidence matrix "
                 "(a demand pair lies in different connected components)")


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
        if not 0 < self.alpha_c < np.inf:
            raise ValueError("alpha_c must be finite and positive")


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


def _active_sources(net, demands):
    """Sources with positive total outgoing demand, the commodity blocks.

    A source with no outgoing demand has a zero Laplacian column: its block
    could only carry circulations, so it is left out of the tableau.
    """
    if demands.n != net.n_vertices:
        raise ValueError("demand matrix must have one row and column per vertex")
    if demands.is_zero:
        raise InfeasibleSystem("throughput requires at least one positive demand")
    return np.flatnonzero(demands.entries.sum(axis=1) > 0)


def _checked_capacities(net, b_override):
    caps = net.capacities if b_override is None else np.asarray(b_override, dtype=float)
    if caps.shape != (net.n_edges,) or (caps < 0).any():
        raise ValueError("capacity vector must be non-negative with one entry per edge")
    return caps


def _flow_tableau_parts(vm, active, trees, others, blocks, n_extra):
    """Variable partition and body of a flow tableau built on one spanning
    forest per active source.

    Source ``active[i]`` has its basic flows on the edges ``trees[i]`` (one
    row each, in order), its non-basic flows on ``others[i]`` (one column
    each) and the block ``blocks[i]``, the forest's representation of the
    ``others[i]`` columns of the incidence matrix.  All capacity slacks are
    basic, in the order ``trees[0]`` then ``others[0]``: slack e equals
    c_e minus every source's flow on e.  The body gets ``n_extra`` zero
    columns after the flow columns.  Returns (basic, nonbasic, body,
    slack edge order).
    """
    n_act, n_red = trees.shape
    m, k = vm.n_edges, others.shape[1]
    n_flow_rows = n_act * n_red
    order = np.concatenate([trees[0], others[0]])
    body = np.zeros((n_flow_rows + m, n_act * k + n_extra))
    for i, block in enumerate(blocks):
        body[i * n_red:(i + 1) * n_red, i * k:(i + 1) * k] = block
    # row e of slack_rows[i]: edge e's slack row over source i's columns
    slack_rows = np.zeros((n_act, m, k))
    source = np.arange(n_act)[:, None]
    slack_rows[source, trees] = -blocks
    slack_rows[source, others, np.arange(k)] = 1.0
    body[n_flow_rows:, :n_act * k] = slack_rows[:, order].transpose(1, 0, 2).reshape(m, -1)
    basic = np.concatenate([vm.flow_index(trees, active[:, None]).ravel(),
                            vm.slack_index(order)])
    nonbasic = vm.flow_index(others, active[:, None]).ravel()
    return basic, nonbasic, body, order


def _tableau(vm, basic, nonbasic, body, rhs, cost_row, cost_corner):
    return SimplexTableau(
        basic, nonbasic, body, rhs, cost_row, cost_corner,
        constraint_slacks={e: vm.slack_index(e) for e in range(vm.n_edges)},
        n_original=vm.n_vars,
    )


def _split_demand_check(demands, root_of):
    """Raise ``InfeasibleSystem`` when a demand pair's ends have different
    component roots ``root_of``."""
    sources, sinks = np.nonzero(demands.entries > 0)
    if (root_of[sources] != root_of[sinks]).any():
        raise InfeasibleSystem(_SPLIT_DEMAND)


def _index_forest(net):
    """Lowest-index spanning forest of the network, edge directions ignored.

    One union-find pass over the edges in index order keeps each edge that
    joins two trees (Kruskal 1956): the greedy basis of the graphic matroid,
    so the forest edges are the lowest-index independent columns of the
    incidence matrix.  Each union makes the higher root the root, so every
    vertex's root is the highest vertex of its weak component.  Returns the
    forest edges in index order and the root of every vertex.
    """
    parent = list(range(net.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for e, edge in enumerate(net.edges):
        a, b = find(edge.tail), find(edge.head)
        if a != b:
            parent[min(a, b)] = max(a, b)
            tree.append(e)
    return np.array(tree, dtype=int), np.array([find(v) for v in range(net.n_vertices)])


def build_throughput_tableau(net, demands, b_override=None):
    """Initial primal-feasible tableau of the maximal concurrent flow LP.

    Only sources with positive total outgoing demand get a commodity block
    (n_red balance rows, k non-basic flow columns), so the tableau has
    n_red * |active| + m rows and k * |active| + 1 columns.  Basic variables
    are the active sources' flows on the lowest-index spanning forest
    (``_index_forest``) plus all capacity slacks; their remaining flows and
    the throughput variable are non-basic.  The balance rows are those of
    every vertex but the highest of its weak component, the lowest-index
    independent rows of the incidence matrix, so an isolated vertex has
    none.  Inactive sources' flow variables keep their global indices but
    appear nowhere, so they read as zero.  The starting vertex has zero flow
    and slacks equal to the capacities.
    """
    active = _active_sources(net, demands)
    eta, root_of = _index_forest(net)
    _split_demand_check(demands, root_of)
    m, n = net.n_edges, net.n_vertices
    rows = np.flatnonzero(root_of != np.arange(n))
    reduced_incidence = incidence_matrix(net)[rows]
    n_red = rows.size
    outside = np.ones(m, dtype=bool)
    outside[eta] = False
    eta_bar = np.flatnonzero(outside)
    k = len(eta_bar)
    n_act = active.size
    sub = reduced_incidence[:, eta]
    w_block = np.linalg.solve(sub, reduced_incidence[:, eta_bar]) if k else np.zeros((n_red, 0))
    u_act = np.linalg.solve(sub, demand_laplacian(demands)[rows][:, active])
    caps = _checked_capacities(net, b_override)

    vm = VariableMap(m, n)
    basic, nonbasic, body, order = _flow_tableau_parts(
        vm, active, np.broadcast_to(eta, (n_act, n_red)),
        np.broadcast_to(eta_bar, (n_act, k)),
        np.broadcast_to(w_block, (n_act, n_red, k)), n_extra=1)
    n_flow_rows = n_red * n_act
    body[:n_flow_rows, -1] = u_act.T.ravel()
    body[n_flow_rows:n_flow_rows + n_red, -1] = -u_act.sum(axis=1)
    rhs = np.zeros(body.shape[0])
    rhs[n_flow_rows:] = caps[order]
    cost_row = np.zeros(body.shape[1])
    cost_row[-1] = -1.0
    return _tableau(vm, basic, np.append(nonbasic, vm.lambda_index), body, rhs,
                    cost_row, 0.0), vm


def _sweep(adjacency, sign, potential, labelled, parent_edges):
    """Label every unlabelled vertex that ``adjacency`` reaches from the
    ``labelled`` vertices, by one Dijkstra from all of them at once.

    Forward (``sign`` +1, out-edges) a vertex v gets the least pi_u + d_e
    over the edges u -> v; in reverse (``sign`` -1, in-edges) it gets the
    largest pi_u - d_e over the edges v -> u.  Equal keys go to the lowest
    edge index, and each vertex records the edge that labelled it.  Returns
    whether any vertex was labelled.
    """
    heap = [(sign * potential[u] + d, e, v) for u in labelled
            for e, v, d in adjacency[u] if potential[v] is None]
    heapq.heapify(heap)
    before = len(labelled)
    while heap:
        key, e, v = heapq.heappop(heap)
        if potential[v] is not None:
            continue
        potential[v] = sign * key
        labelled.append(v)
        parent_edges.append(e)
        for e, w, d in adjacency[v]:
            if potential[w] is None:
                heapq.heappush(heap, (key + d, e, w))
    return len(labelled) > before


def _delay_forest(n, out_edges, in_edges, source):
    """Spanning forest of shortest-delay trees, the first rooted at
    ``source`` and each further weak component at its lowest vertex.

    A component grows by alternating forward and reverse ``_sweep`` calls
    until neither labels a vertex, so one-way edges that leave vertices
    unreachable from the root still join them.  The potentials satisfy
    pi_head - pi_tail <= d_e on every edge with equality on the forest's,
    so the forest is a dual-feasible basis of the delay costs.  Returns the
    non-root vertices in labelling order, the forest edge that joined each,
    and the root of every vertex's component.
    """
    potential = [None] * n
    root_of = [0] * n
    vertices, parent_edges = [], []
    for root in chain([source], range(n)):
        if potential[root] is not None:
            continue
        potential[root] = 0.0
        labelled = [root]
        # after the first sweep, one that labels nothing leaves the component
        # closed both ways, since the sweep before it closed the other way
        sweeps = cycle(((out_edges, 1.0), (in_edges, -1.0)))
        _sweep(*next(sweeps), potential, labelled, parent_edges)
        while _sweep(*next(sweeps), potential, labelled, parent_edges):
            pass
        vertices += labelled[1:]
        for v in labelled:
            root_of[v] = root
    return vertices, parent_edges, root_of


def build_latency_tableau(net, demands, target, b_override=None):
    """Dual-feasible initial tableau of the linear latency LP that routes
    the fraction ``target`` of every demand at capacities ``b_override``.

    Each active source's basic flows sit on its ``_delay_forest``, all
    capacity slacks are basic, and the cost charges each flow its edge
    delay.  The basic flows route ``target`` times the demand along the
    forest, which may run edges backwards or over capacity: the rhs may be
    negative, the reduced costs never are.  The variable indices are those
    of the throughput LP, whose throughput variable is absent here.
    """
    active = _active_sources(net, demands)
    caps = _checked_capacities(net, b_override)
    m, n = net.n_edges, net.n_vertices
    delays = net.delays
    out_edges = [[] for _ in range(n)]
    in_edges = [[] for _ in range(n)]
    for e, edge in enumerate(net.edges):
        out_edges[edge.tail].append((e, edge.head, edge.delay))
        in_edges[edge.head].append((e, edge.tail, edge.delay))
    forests = [_delay_forest(n, out_edges, in_edges, int(s)) for s in active]
    _split_demand_check(demands, np.array(forests[0][2]))
    # the balance rows of the non-root vertices, one per forest edge
    rows = np.array([forest[0] for forest in forests], dtype=int).reshape(active.size, -1)
    trees = np.array([forest[1] for forest in forests], dtype=int).reshape(rows.shape)
    outside = np.ones((active.size, m), dtype=bool)
    outside[np.arange(active.size)[:, None], trees] = False
    others = np.nonzero(outside)[1].reshape(active.size, -1)
    k = others.shape[1]

    inc = incidence_matrix(net)
    balance = -target * demand_laplacian(demands)[rows, active[:, None]]
    solved = np.linalg.solve(
        inc[rows[:, :, None], trees[:, None, :]],
        np.concatenate([inc[rows[:, :, None], others[:, None, :]], balance[:, :, None]],
                       axis=2))
    blocks, tree_flows = solved[:, :, :k], solved[:, :, k]

    vm = VariableMap(m, n)
    basic, nonbasic, body, order = _flow_tableau_parts(vm, active, trees, others, blocks,
                                                       n_extra=0)
    load = np.bincount(trees.ravel(), weights=tree_flows.ravel(), minlength=m)
    rhs = np.concatenate([tree_flows.ravel(), (caps - load)[order]])
    tree_delays = delays[trees]
    cost_row = (delays[others] - np.einsum("ir,irk->ik", tree_delays, blocks)).ravel()
    return _tableau(vm, basic, nonbasic, body, rhs, cost_row,
                    -float(np.sum(tree_delays * tree_flows))), vm


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


def pin_throughput_tableau(net, demands, target, b_override=None, max_pivots=None):
    """Optimal tableau of the linear latency LP with the throughput fixed at
    ``target``, at capacities ``b_override``.

    Builds the dual-feasible ``build_latency_tableau`` and solves it by dual
    simplex.  Returns (tableau or None, pivots); None signals that no flow
    routes ``target`` times the demand, e.g. because ``target`` exceeds the
    maximal throughput.
    """
    tableau, _ = build_latency_tableau(net, demands, target, b_override)
    out = dual_simplex(tableau, max_pivots)
    if out.status is Status.INFEASIBLE:
        return None, out.pivot_count
    if out.status is not Status.OPTIMAL:
        raise SolverError(f"latency solve ended with status {out.status.value}")
    return out.tableau, out.pivot_count


def solve_latency_linear(net, demands, cfg, throughput, max_pivots=None):
    """Minimal normalized average latency under the linear delay model.

    ``throughput`` is the optimal ``ThroughputSolution`` of the same network
    and demands, with lambda_max its optimal value.  Routes the fraction
    beta * lambda_max of all demands, from shortest-delay trees by dual
    simplex (``pin_throughput_tableau``), and divides the total delay by the
    total routed flow beta * lambda_max * sum(D).
    """
    if cfg.kind is not LatencyKind.LINEAR:
        raise ValueError("only the linear latency model is an LP")
    lambda_max = throughput.lambda_star
    denom = cfg.beta * lambda_max * demands.total()
    if not denom > 0:
        raise ZeroThroughput("latency normalization requires positive throughput and demand")
    target = cfg.beta * lambda_max
    vm = throughput.var_map
    tableau, pivots = pin_throughput_tableau(net, demands, target, max_pivots=max_pivots)
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
        with np.errstate(over="ignore"):
            total = cfg.alpha_c * np.sum(delays * f / (1.0 - load))
        if not np.isfinite(total):
            raise ValueError("the inverse latency overflows the float range; lower alpha_c")
        return float(total)
    return float(np.sum(delays * (1.0 - np.log(1.0 - load))))
