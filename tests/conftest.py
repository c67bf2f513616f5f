"""Shared corpus instances and independent oracles."""

from itertools import combinations

import numpy as np
import pytest

from robustflow import DemandMatrix, Network, StandardFormLP
from robustflow.network import demand_laplacian, incidence_matrix, rank_reduce
from robustflow.simplex import Status, solve_standard_form


# --- corpus ---------------------------------------------------------------

@pytest.fixture
def net_a():
    """Two parallel edges 0->1 with capacities 3 and 2."""
    return Network(2, [(0, 1, 3.0, 0.0), (0, 1, 2.0, 0.0)])


@pytest.fixture
def net_b():
    """Single edge 0->1 with capacity 3 and delay 2."""
    return Network(2, [(0, 1, 3.0, 2.0)])


@pytest.fixture
def net_c():
    """Triangle: direct edge 0->1 plus the path 0->2->1, unit capacities."""
    return Network(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 10.0), (2, 1, 1.0, 10.0)])


@pytest.fixture
def demand_ab():
    return DemandMatrix([[0.0, 4.0], [0.0, 0.0]])


@pytest.fixture
def demand_c():
    return DemandMatrix([[0.0, 2.0, 0.0], [0.0] * 3, [0.0] * 3])


def random_network(rng, n_max=6, m_max=9):
    """Random instance with a feasible (weakly connected) demand pair."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        edges = []
        for _ in range(m):
            tail = int(rng.integers(0, n))
            head = int(rng.integers(0, n))
            if tail == head:
                head = (head + 1) % n
            edges.append((tail, head, float(rng.integers(1, 6)), float(rng.integers(0, 4))))
        net = Network(n, edges)
        entries = np.zeros((n, n))
        for _ in range(int(rng.integers(1, 4))):
            s = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            if s != t:
                entries[s, t] += float(rng.integers(1, 5))
        if not (entries > 0).any():
            continue
        demands = DemandMatrix(entries)
        reduced = rank_reduce(incidence_matrix(net), demand_laplacian(demands))
        if reduced.feasible:
            return net, demands


def random_corpus(seed=20240817, count=20, n_max=6, m_max=9):
    rng = np.random.default_rng(seed)
    return [random_network(rng, n_max, m_max) for _ in range(count)]


def ring_chords_instance(n, seed):
    """Ring of n vertices (n even) plus n/2 chords forming a perfect matching
    that avoids ring neighbours, so every vertex has degree 3.  Each link is
    two opposite directed edges with the same integer capacity in [20, 40]
    and delay in [1, 3]; n distinct demand pairs carry integers in [1, 10].
    The integer data is degenerate on purpose, like real SNDlib data."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n)
        chords = [tuple(sorted(int(v) for v in order[i:i + 2])) for i in range(0, n, 2)]
        if all((b - a) not in (1, n - 1) for a, b in chords):
            break
    edges = []
    for u, v in [(i, (i + 1) % n) for i in range(n)] + sorted(chords):
        cap, delay = float(rng.integers(20, 41)), float(rng.integers(1, 4))
        edges += [(u, v, cap, delay), (v, u, cap, delay)]
    entries = np.zeros((n, n))
    while np.count_nonzero(entries) < n:
        s, t = (int(v) for v in rng.integers(0, n, size=2))
        if s != t and entries[s, t] == 0:
            entries[s, t] = float(rng.integers(1, 11))
    return Network(n, edges), DemandMatrix(entries)


# --- independent standard-form construction of the throughput LP ----------

def throughput_standard_form(net, demands, caps=None):
    """Explicit standard-form matrices of the throughput LP.

    Built directly from the reduced balance equations; used by tests as a
    solve path independent of the warm-started tableau machinery.
    """
    inc = incidence_matrix(net)
    lap = demand_laplacian(demands)
    reduced = rank_reduce(inc, lap)
    assert reduced.feasible
    n, m = net.n_vertices, net.n_edges
    n_red = reduced.reduced_incidence.shape[0]
    caps = net.capacities if caps is None else np.asarray(caps, dtype=float)
    nv = m * n + m + 1
    rows = n_red * n + m
    a_mat = np.zeros((rows, nv))
    b_vec = np.zeros(rows)
    for s in range(n):
        a_mat[s * n_red:(s + 1) * n_red, s * m:(s + 1) * m] = reduced.reduced_incidence
        a_mat[s * n_red:(s + 1) * n_red, -1] = reduced.reduced_laplacian[:, s]
    for e in range(m):
        r = n_red * n + e
        for s in range(n):
            a_mat[r, s * m + e] = 1.0
        a_mat[r, m * n + e] = 1.0
        b_vec[r] = caps[e]
    cost = np.zeros(nv)
    cost[-1] = -1.0
    return StandardFormLP(cost, a_mat, b_vec)


def cold_throughput(net, demands, caps=None):
    """Throughput by phase-1/phase-2 on the explicit standard form."""
    lp = throughput_standard_form(net, demands, caps)
    out = solve_standard_form(lp)
    assert out.status is Status.OPTIMAL
    return -out.objective


def cold_latency(net, demands, target, caps=None):
    """Minimal total delay at throughput ``target``, solved cold.

    The throughput column of the explicit standard form moves to the
    right-hand side and the flows are charged their edge delays.
    """
    lp = throughput_standard_form(net, demands, caps)
    n, m = net.n_vertices, net.n_edges
    pinned_rhs = lp.eq_rhs - target * lp.eq_matrix[:, -1]
    cost = np.zeros(m * n + m)
    cost[: m * n] = np.tile(net.delays, n)
    out = solve_standard_form(StandardFormLP(cost, lp.eq_matrix[:, :-1], pinned_rhs))
    assert out.status is Status.OPTIMAL
    return out.objective


# --- brute-force LP oracle -------------------------------------------------

def _bfs_minimum(cost, a_mat, b_vec, tol=1e-9):
    """Minimum objective over all basic feasible solutions; None if none."""
    k, nv = a_mat.shape
    best = None
    for cols in combinations(range(nv), k):
        basis = a_mat[:, cols]
        if abs(np.linalg.det(basis)) < tol:
            continue
        x = np.linalg.solve(basis, b_vec)
        if (x >= -1e-9).all():
            value = float(cost[list(cols)] @ x)
            best = value if best is None else min(best, value)
    return best


def brute_force_lp(lp, tol=1e-9):
    """Solve a standard-form LP by exhaustive enumeration.

    Returns (status, value): the optimum over basic feasible solutions,
    'infeasible' when no basis is feasible, or 'unbounded' when a feasible
    recession direction with negative cost exists (found by enumerating the
    basic solutions of the normalized recession cone).
    """
    value = _bfs_minimum(lp.cost, lp.eq_matrix, lp.eq_rhs, tol)
    if value is None:
        return "infeasible", None
    k, nv = lp.eq_matrix.shape
    ray_mat = np.vstack([lp.eq_matrix, np.ones(nv)])
    ray_rhs = np.append(np.zeros(k), 1.0)
    ray_value = _bfs_minimum(lp.cost, ray_mat, ray_rhs, tol)
    if ray_value is not None and ray_value < -1e-9:
        return "unbounded", None
    return "optimal", value


def random_standard_form(rng, max_vars=6, max_rows=4):
    """Random full-row-rank integer standard-form LP."""
    while True:
        k = int(rng.integers(1, max_rows + 1))
        nv = int(rng.integers(k + 1, max_vars + 1))
        a_mat = rng.integers(-5, 6, size=(k, nv)).astype(float)
        if np.linalg.matrix_rank(a_mat) < k:
            continue
        b_vec = rng.integers(-5, 6, size=k).astype(float)
        cost = rng.integers(-5, 6, size=nv).astype(float)
        return StandardFormLP(cost, a_mat, b_vec)
