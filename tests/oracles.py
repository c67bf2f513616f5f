"""Test oracles independent of robustflow's warm-started production paths:
a phase-1/phase-2 standard-form LP solver, max-flow edge connectivity, and
the throughput tableau built by Gram-Schmidt rank reduction."""

from dataclasses import dataclass

import networkx as nx
import numpy as np

from robustflow.errors import DataError, DimensionMismatch, InfeasibleSystem, SingularBasis
from robustflow.flows import (
    VariableMap,
    _active_sources,
    _checked_capacities,
    _flow_tableau_parts,
    _tableau,
)
from robustflow.network import (
    demand_laplacian,
    incidence_matrix,
    independent_columns,
    rank_reduce,
)
from robustflow.simplex import (
    PIVOT_TOL,
    SimplexTableau,
    SolveOutcome,
    Status,
    primal_simplex,
)


class NoDemand(DataError):
    """The demand matrix is identically zero."""


@dataclass
class StandardFormLP:
    """min <cost, x> subject to eq_matrix @ x = eq_rhs, x >= 0."""

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        k, nv = self.eq_matrix.shape
        if self.cost.shape != (nv,):
            raise DimensionMismatch("cost length does not match the column count")
        if self.eq_rhs.shape != (k,):
            raise DimensionMismatch("rhs length does not match the row count")


def tableau_from_basis(lp, basic_vars):
    """Build the dictionary tableau of ``lp`` for a given basis."""
    k, nv = lp.eq_matrix.shape
    basic_vars = np.asarray(basic_vars, dtype=int)
    if basic_vars.size != k:
        raise DimensionMismatch("basis size must equal the row count")
    mask = np.ones(nv, dtype=bool)
    mask[basic_vars] = False
    nonbasic_vars = np.nonzero(mask)[0]
    basis = lp.eq_matrix[:, basic_vars]
    try:
        body = np.linalg.solve(basis, lp.eq_matrix[:, nonbasic_vars])
        rhs = np.linalg.solve(basis, lp.eq_rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularBasis(str(exc)) from exc
    c_b = lp.cost[basic_vars]
    cost_row = lp.cost[nonbasic_vars] - c_b @ body
    cost_corner = -float(c_b @ rhs)
    return SimplexTableau(basic_vars, nonbasic_vars, body, rhs, cost_row, cost_corner)


def set_cost(tableau, full_cost):
    """Replace the objective of ``tableau`` by ``full_cost`` over the global
    variables, in place.

    Variables beyond ``len(full_cost)`` (slacks of later cut rows) get zero
    cost.  Reduced costs and the corner are recomputed for the current
    basis; feasibility of the vertex is unaffected.
    """
    full_cost = np.asarray(full_cost, dtype=float)
    c = np.zeros(tableau._n_vars())
    c[: len(full_cost)] = full_cost
    c_b = c[tableau.basic_vars]
    tableau.tab[-1, :-1] = c[tableau.nonbasic_vars] - c_b @ tableau.body
    tableau.tab[-1, -1] = -float(c_b @ tableau.rhs)


def solve_standard_form(lp, max_pivots=None):
    """Cold-solve a standard-form LP: artificial-variable phase 1, then phase 2.

    Independent of the warm-started production paths, which start from
    constructively feasible or dual-feasible tableaus.
    """
    a_mat = lp.eq_matrix.copy()
    b = lp.eq_rhs.copy()
    flip = b < 0
    a_mat[flip] *= -1.0
    b[flip] *= -1.0
    k, nv = a_mat.shape
    artificials = nv + np.arange(k)
    t = SimplexTableau(
        basic_vars=artificials,
        nonbasic_vars=np.arange(nv),
        body=a_mat,
        rhs=b,
        cost_row=-a_mat.sum(axis=0),
        cost_corner=-float(b.sum()),
        n_original=nv,
    )
    out = primal_simplex(t, max_pivots)
    pivots = out.pivot_count
    if out.status is not Status.OPTIMAL:
        return SolveOutcome(out.status, out.tableau, out.objective, pivots)
    if out.objective > 1e-7:
        return SolveOutcome(Status.INFEASIBLE, out.tableau, out.objective, pivots)
    t = out.tableau
    # drive remaining artificials out of the basis, dropping redundant rows
    row = 0
    while row < t.n_rows:
        if t.basic_vars[row] < nv:
            row += 1
            continue
        real = np.nonzero(
            (t.nonbasic_vars < nv) & (np.abs(t.body[row]) > PIVOT_TOL)
        )[0]
        if real.size:
            t.pivot(row, int(real[0]))
            pivots += 1
            row += 1
        else:
            t = SimplexTableau(np.delete(t.basic_vars, row), t.nonbasic_vars,
                               np.delete(t.body, row, axis=0), np.delete(t.rhs, row),
                               t.cost_row, t.cost_corner, n_original=nv)
    keep = t.nonbasic_vars < nv
    t = SimplexTableau(t.basic_vars, t.nonbasic_vars[keep], t.body[:, keep], t.rhs,
                       t.cost_row[keep], t.cost_corner, n_original=nv)
    set_cost(t, lp.cost)
    out = primal_simplex(t, max_pivots)
    return SolveOutcome(out.status, out.tableau, out.objective, pivots + out.pivot_count)


def demand_edge_connectivity(net, demands):
    """Minimum number of edge deletions disconnecting some demand pair.

    Unit capacities are used (whole edges are deleted regardless of their
    capacity); parallel edges each count once.
    """
    if demands.is_zero:
        raise NoDemand("demand matrix is all zeros")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.n_vertices))
    for e in net.edges:
        if graph.has_edge(e.tail, e.head):
            graph[e.tail][e.head]["capacity"] += 1
        else:
            graph.add_edge(e.tail, e.head, capacity=1)
    best = None
    for s, t, _ in demands.pairs():
        value = nx.maximum_flow_value(graph, s, t)
        best = value if best is None else min(best, value)
    return int(round(best))


def rank_reduced_throughput_tableau(net, demands, b_override=None):
    """The throughput LP's initial tableau with its spanning forest found by
    linear algebra: the balance rows ``rank_reduce`` keeps and the
    lowest-index independent columns of the reduced incidence matrix, both
    by Gram-Schmidt.  ``flows.build_throughput_tableau`` must equal it."""
    active = _active_sources(net, demands)
    reduced = rank_reduce(incidence_matrix(net), demand_laplacian(demands))
    if not reduced.feasible:
        raise InfeasibleSystem("a demand pair lies in different connected components")
    n_red = reduced.reduced_incidence.shape[0]
    eta = np.asarray(independent_columns(reduced.reduced_incidence), dtype=int)
    assert eta.size == n_red
    m, n = net.n_edges, net.n_vertices
    outside = np.ones(m, dtype=bool)
    outside[eta] = False
    eta_bar = np.flatnonzero(outside)
    k = len(eta_bar)
    n_act = active.size
    sub = reduced.reduced_incidence[:, eta]
    w_block = np.linalg.solve(sub, reduced.reduced_incidence[:, eta_bar]) if k else np.zeros((n_red, 0))
    u_act = np.linalg.solve(sub, reduced.reduced_laplacian[:, active])
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
                    cost_row, 0.0)
