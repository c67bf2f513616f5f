"""Directed multigraph model, incidence matrix, demand Laplacian, rank
reduction of the balance equations, and connectivity diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDemand

RANK_TOL = 1e-9


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    capacity: float
    delay: float = 0.0


@dataclass(frozen=True)
class Network:
    """Directed multigraph with per-edge capacities and delay coefficients.

    Parallel edges are permitted and kept distinct by index; self-loops are
    rejected because they contribute nothing to any balance equation.
    """

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in self.edges
        ))
        if self.n_vertices < 1:
            raise ValueError("network needs at least one vertex")
        for i, e in enumerate(self.edges):
            if not (0 <= e.tail < self.n_vertices and 0 <= e.head < self.n_vertices):
                raise ValueError(f"edge {i} references a vertex out of range")
            if e.tail == e.head:
                raise ValueError(f"edge {i} is a self-loop")
            if not e.capacity > 0:
                raise ValueError(f"edge {i} must have a strictly positive capacity")
            if e.delay < 0:
                raise ValueError(f"edge {i} has a negative delay coefficient")

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def capacities(self):
        return np.array([e.capacity for e in self.edges], dtype=float)

    @property
    def delays(self):
        return np.array([e.delay for e in self.edges], dtype=float)


class DemandMatrix:
    """Non-negative n-by-n demand matrix with zero diagonal."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("demand matrix must be square")
        if (entries < 0).any():
            raise ValueError("demands must be non-negative")
        if np.abs(np.diag(entries)).max(initial=0.0) > 0:
            raise ValueError("demand matrix must have a zero diagonal")
        self.entries = entries

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def is_zero(self):
        return not (self.entries > 0).any()

    def total(self):
        return float(self.entries.sum())

    def pairs(self):
        """Ordered (source, target, value) triples with positive demand."""
        rows, cols = np.nonzero(self.entries > 0)
        return [(int(s), int(t), float(self.entries[s, t])) for s, t in zip(rows, cols)]


@dataclass(frozen=True)
class ReducedSystem:
    """Full-row-rank restriction of the balance equations."""

    row_indices: tuple
    reduced_incidence: np.ndarray
    reduced_laplacian: np.ndarray
    feasible: bool


def incidence_matrix(net):
    """n-by-m incidence matrix: +1 at the head, -1 at the tail of each edge.

    With this sign convention (N @ F)[i, s] is the in-minus-out balance of
    source s at vertex i, so the demand constraints read N @ F = -L_D.
    """
    mat = np.zeros((net.n_vertices, net.n_edges))
    for j, e in enumerate(net.edges):
        mat[e.head, j] = 1.0
        mat[e.tail, j] = -1.0
    return mat


def demand_laplacian(demands):
    """Laplacian of the demand matrix (not symmetric in general).

    Diagonal entry (s, s) is the total demand emitted by s; off-diagonal
    entry (i, s) is -d_si.  Every column sums to zero.
    """
    d = demands.entries
    return np.diag(d.sum(axis=1)) - d.T


def _greedy_independent_rows(mat, tol=RANK_TOL):
    """Lowest-index maximal set of linearly independent rows (Gram-Schmidt)."""
    kept = []
    basis = []
    for i, row in enumerate(mat):
        residual = row.astype(float).copy()
        for q in basis:
            residual -= (q @ residual) * q
        norm = np.linalg.norm(residual)
        if norm > tol * max(1.0, np.linalg.norm(row)):
            basis.append(residual / norm)
            kept.append(i)
    return kept


def rank_reduce(incidence, laplacian):
    """Drop linearly dependent balance rows; flag infeasible demand data.

    Keeps the lowest-index independent rows of the incidence matrix.  The
    system is feasible iff every left-kernel vector of the incidence matrix
    annihilates the Laplacian, which holds iff stacking the Laplacian next
    to the incidence matrix does not raise the row rank.
    """
    incidence = np.asarray(incidence, dtype=float)
    laplacian = np.asarray(laplacian, dtype=float)
    kept = _greedy_independent_rows(incidence)
    augmented_rank = len(_greedy_independent_rows(np.hstack([incidence, laplacian])))
    return ReducedSystem(
        row_indices=tuple(kept),
        reduced_incidence=incidence[kept],
        reduced_laplacian=laplacian[kept],
        feasible=(augmented_rank == len(kept)),
    )


def independent_columns(mat, tol=RANK_TOL):
    """Lowest-index maximal set of linearly independent columns."""
    return _greedy_independent_rows(np.asarray(mat, dtype=float).T, tol)


def demand_edge_connectivity(net, demands):
    """Minimum number of edge deletions disconnecting some demand pair.

    Unit capacities are used (whole edges are deleted regardless of their
    capacity); parallel edges each count once.
    """
    import networkx as nx  # deferred: only this diagnostic needs it

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
