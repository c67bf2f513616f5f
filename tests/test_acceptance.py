"""Acceptance suite: one test per criterion, each printing a PASS line.

Oracles are independent of the warm-started production paths: brute-force
basis enumeration for LPs, explicit standard-form rebuilds for cold solves,
closed-form grid search for the budget allocation, and finite differences
for sensitivities.
"""

import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from robustflow import (
    DemandMatrix,
    Network,
    Status,
    load_balance_from_throughput,
    parse_json_instance,
    parse_sndlib_native,
    rhs_sensitivity,
    robust_throughput,
    robustify_throughput_cutting_plane,
    robustify_throughput_subgradient,
    serialize_instance,
    solve_throughput,
)
from robustflow.errors import InfeasibleSystem
from robustflow.flows import build_throughput_tableau
from robustflow.robust import bench_robust_throughput
from robustflow.simplex import primal_simplex

from conftest import (
    brute_force_lp,
    cold_throughput,
    random_corpus,
    random_standard_form,
    throughput_standard_form,
)
from oracles import demand_edge_connectivity, solve_standard_form

DATA = Path(__file__).parent / "data"


def corpus_with_random(count=20):
    net_a = Network(2, [(0, 1, 3.0, 0.0), (0, 1, 2.0, 0.0)])
    net_b = Network(2, [(0, 1, 3.0, 2.0)])
    net_c = Network(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 10.0), (2, 1, 1.0, 10.0)])
    d_ab = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
    d_c = DemandMatrix([[0.0, 2.0, 0.0], [0.0] * 3, [0.0] * 3])
    fixed = [(net_a, d_ab), (net_b, d_ab), (net_c, d_c)]
    return fixed + random_corpus(count=count)


def test_criterion_1_simplex_oracle_equivalence():
    """500 random standard-form LPs match brute-force enumeration to 1e-9."""
    rng = np.random.default_rng(20240901)
    began = time.perf_counter()
    for i in range(500):
        lp = random_standard_form(rng)
        out = solve_standard_form(lp)
        status, value = brute_force_lp(lp)
        assert out.status.value == status, f"LP {i}: {out.status.value} != {status}"
        if status == "optimal":
            assert abs(out.objective - value) <= 1e-9, f"LP {i}"
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 500 LPs matched brute force in {elapsed:.1f}s")


def test_criterion_2_warm_start_equivalence():
    """Warm-started scenario values equal independent cold solves to 1e-9."""
    checked = 0
    for net, demands in corpus_with_random():
        for q in range(0, min(2, net.n_edges) + 1):
            report = robust_throughput(net, demands, q)
            for scenario, warm in report.per_scenario_values.items():
                caps = net.capacities
                caps[list(scenario)] = 0.0
                cold = cold_throughput(net, demands, caps)
                assert abs(warm - cold) <= 1e-9, (scenario, warm, cold)
                checked += 1
    print(f"\nACCEPTANCE 2 PASS: {checked} scenarios warm == cold")


def test_criterion_3_lemma_product():
    """lambda* times theta* equals 1 on every corpus instance with b > 0, D != 0."""
    checked = 0
    for net, demands in corpus_with_random():
        sol = solve_throughput(net, demands)
        if sol.lambda_star <= 1e-12:
            continue  # no directed route; load balance undefined
        theta, _ = load_balance_from_throughput(sol)
        assert abs(sol.lambda_star * theta - 1.0) <= 1e-9
        checked += 1
    assert checked >= 3
    print(f"\nACCEPTANCE 3 PASS: lambda*theta == 1 on {checked} instances")


def _basis_stays_feasible(tableau, edge, h):
    """Whether the optimal basis survives a +/-h capacity perturbation."""
    slack = tableau.constraint_slacks[edge]
    row = tableau.basic_row_of(slack)
    for sign in (h, -h):
        rhs = tableau.rhs.copy()
        if row is not None:
            rhs[row] += sign
        else:
            col = tableau.nonbasic_col_of(slack)
            rhs += sign * tableau.body[:, col]
        # degenerate zeros are fine as long as no entry is pushed negative
        if rhs.min() < -1e-9:
            return False
    return True


def test_criterion_4_sensitivity_finite_differences():
    """rhs_sensitivity matches central differences where the basis is stable."""
    h = 1e-6
    checked = 0
    instances = corpus_with_random() + random_corpus(seed=20240902, count=10)
    for net, demands in instances:
        tableau, _ = build_throughput_tableau(net, demands)
        out = primal_simplex(tableau)
        assert out.status is Status.OPTIMAL
        for e in range(net.n_edges):
            if not _basis_stays_feasible(out.tableau, e, h):
                continue
            reported = rhs_sensitivity(out.tableau, e)
            caps_hi = net.capacities
            caps_hi[e] += h
            caps_lo = net.capacities
            caps_lo[e] -= h
            value_hi = -cold_throughput(net, demands, caps_hi)
            value_lo = -cold_throughput(net, demands, caps_lo)
            central = (value_hi - value_lo) / (2 * h)
            assert abs(reported - central) <= 1e-5, (e, reported, central)
            checked += 1
    assert checked >= 100
    print(f"\nACCEPTANCE 4 PASS: {checked} sensitivity pairs matched")


def _robust_or_zero(net, demands, q):
    try:
        return robust_throughput(net, demands, q,
                                 keep_per_scenario=False).worst_value
    except InfeasibleSystem:
        # demand pair in a different weak component: nothing can be routed
        return 0.0


def _zero_law_holds(net, demands, q):
    conn = demand_edge_connectivity(net, demands)
    value = _robust_or_zero(net, demands, q)
    return (value <= 1e-9) == (conn <= q)


def test_criterion_5_connectivity_zero_law():
    """robust throughput is zero iff connectivity <= q.

    Exhaustive over every 3-vertex graph (all subsets of the 6 possible
    directed edges) with every single-pair demand; larger sizes (4-5
    vertices, <= 7 edges) are covered by a seeded sample.
    """
    checked = 0
    pairs3 = [(s, t) for s in range(3) for t in range(3) if s != t]
    for mask in range(1, 2 ** 6):
        edges = [(u, v, 1.0, 0.0) for i, (u, v) in enumerate(pairs3)
                 if mask >> i & 1]
        net = Network(3, edges)
        for s, t in pairs3:
            entries = np.zeros((3, 3))
            entries[s, t] = 1.0
            demands = DemandMatrix(entries)
            for q in (1, 2):
                if q > net.n_edges:
                    continue
                assert _zero_law_holds(net, demands, q), (mask, s, t, q)
                checked += 1

    rng = np.random.default_rng(77)
    for _ in range(150):
        n = int(rng.integers(4, 6))
        m = int(rng.integers(1, 8))
        edges = []
        for _ in range(m):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                v = (v + 1) % n
            edges.append((u, v, float(rng.integers(1, 4)), 0.0))
        net = Network(n, edges)
        s = int(rng.integers(0, n))
        t = (s + int(rng.integers(1, n))) % n
        entries = np.zeros((n, n))
        entries[s, t] = 1.0
        demands = DemandMatrix(entries)
        for q in (1, 2):
            if q > net.n_edges:
                continue
            assert _zero_law_holds(net, demands, q), (edges, s, t, q)
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: zero-law held on {checked} cases")


# --- robustification oracle instances --------------------------------------

def _grid_points(m, budget, res=0.01):
    """All points with non-negative entries summing to the budget on a grid.

    Throughput is non-decreasing in every capacity, so the optimum over the
    full budget simplex is attained on this equality face.
    """
    k = int(round(budget / res))
    if m == 1:
        return np.array([[budget]])
    axes = [np.arange(k + 1)] * (m - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    stacked = np.stack([a.ravel() for a in mesh], axis=1)
    last = k - stacked.sum(axis=1)
    keep = last >= 0
    return np.column_stack([stacked[keep], last[keep]]).astype(float) * res


def _robustify_cases():
    """(name, net, demands, q, budget, closed_form) with closed forms over
    grids of capacity increments; all m <= 4, q <= 2."""
    net_a = Network(2, [(0, 1, 3.0, 0.0), (0, 1, 2.0, 0.0)])
    net_b = Network(2, [(0, 1, 3.0, 2.0)])
    net_c = Network(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 10.0), (2, 1, 1.0, 10.0)])
    net_a4 = Network(2, [(0, 1, 3.0, 0.0), (0, 1, 2.0, 0.0),
                         (0, 1, 2.0, 0.0), (0, 1, 1.0, 0.0)])
    d_ab = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
    d_c = DemandMatrix([[0.0, 2.0, 0.0], [0.0] * 3, [0.0] * 3])

    def parallel_form(caps, demand, q):
        caps = np.asarray(caps)

        def value(pts):
            totals = (caps + pts).sum(axis=1)
            ranked = np.sort(caps + pts, axis=1)
            worst = ranked[:, -q:].sum(axis=1)
            return (totals - worst) / demand

        return value

    def net_c_q1(pts):
        return np.min(1.0 + pts, axis=1) / 2.0

    return [
        ("NET-A q=1", net_a, d_ab, 1, 1.0, parallel_form([3.0, 2.0], 4.0, 1)),
        ("NET-A q=2", net_a, d_ab, 2, 1.0, parallel_form([3.0, 2.0], 4.0, 2)),
        ("NET-B q=1", net_b, d_ab, 1, 1.0, parallel_form([3.0], 4.0, 1)),
        ("NET-C q=1", net_c, d_c, 1, 0.3, net_c_q1),
        ("NET-C q=2", net_c, d_c, 2, 1.0, lambda pts: np.zeros(len(pts))),
        ("NET-A4 q=1", net_a4, d_ab, 1, 1.0,
         parallel_form([3.0, 2.0, 2.0, 1.0], 4.0, 1)),
        ("NET-A4 q=2", net_a4, d_ab, 2, 1.0,
         parallel_form([3.0, 2.0, 2.0, 1.0], 4.0, 2)),
    ]


@pytest.fixture(scope="module")
def robustify_runs():
    runs = []
    began = time.perf_counter()
    for name, net, demands, q, budget, closed_form in _robustify_cases():
        pts = _grid_points(net.n_edges, budget)
        pts = np.vstack([pts, np.zeros(net.n_edges)])
        grid_opt = float(closed_form(pts).max())
        _, model, cp_history = robustify_throughput_cutting_plane(
            net, demands, q, budget
        )
        _, sg_history = robustify_throughput_subgradient(
            net, demands, q, budget, steps=500,
            step_rule=lambda t, b=budget: b * 0.985 ** t,
        )
        runs.append({
            "name": name, "grid": grid_opt, "cp": cp_history[-1],
            "sg": sg_history[-1], "phi": list(model.phi_history),
        })
    return runs, time.perf_counter() - began


def test_criterion_6_robustification_oracle(net_a, demand_ab, robustify_runs):
    """Both methods hit the NET-A optimum and agree with grid search."""
    alloc_cp, _, cp_history = robustify_throughput_cutting_plane(
        net_a, demand_ab, 1, 1.0
    )
    alloc_sg, sg_history = robustify_throughput_subgradient(
        net_a, demand_ab, 1, 1.0, steps=500, step_rule=lambda t: 0.985 ** t
    )
    assert abs(cp_history[-1] - 0.75) <= 1e-3
    assert abs(sg_history[-1] - 0.75) <= 1e-3
    assert np.abs(alloc_cp.delta_b - [0.0, 1.0]).max() <= 0.02
    assert np.abs(alloc_sg.delta_b - [0.0, 1.0]).max() <= 0.02

    runs, elapsed = robustify_runs
    for run in runs:
        assert abs(run["cp"] - run["grid"]) <= 1e-3, run
        assert abs(run["sg"] - run["grid"]) <= 1e-3, run
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: {len(runs)} instances matched grid search "
          f"in {elapsed:.1f}s")


def test_criterion_7_cut_validity_master_monotonicity(robustify_runs):
    """Master values are non-decreasing and never exceed the true optimum."""
    runs, _ = robustify_runs
    for run in runs:
        phi = run["phi"]
        assert all(b >= a - 1e-9 for a, b in zip(phi, phi[1:])), run
        # phi lower-bounds the min-form optimum, which is -(grid maximum)
        assert all(p <= -run["grid"] + 1e-7 for p in phi), run
    print(f"\nACCEPTANCE 7 PASS: master bounds valid on {len(runs)} runs")


def test_criterion_8_warm_start_efficiency_trend():
    """Scenario-tree dual simplex uses no more pivots than cold solves."""
    doc = parse_sndlib_native((DATA / "ring6.txt").read_text())
    assert doc.network.n_edges >= 20  # at least 10 undirected links
    rows, totals = bench_robust_throughput(doc.network, doc.demands, 1)
    assert totals["warm_pivots"] <= totals["cold_pivots"], totals
    print(f"\nACCEPTANCE 8 PASS: warm {totals['warm_pivots']} <= "
          f"cold {totals['cold_pivots']} pivots over {len(rows)} scenarios")


def test_criterion_9_ingestion_round_trip():
    """JSON parse/serialize identity; SNDlib doubles the link count."""
    text = (DATA / "ring6.txt").read_text()
    doc = parse_sndlib_native(text)
    assert len(doc.link_pairs) == 10
    assert doc.network.n_edges == 2 * len(doc.link_pairs)

    canonical = serialize_instance(doc)
    assert serialize_instance(parse_json_instance(canonical)) == canonical

    minimal = (
        "NODES (\n a ( 0 0 )\n b ( 1 0 )\n)\n"
        "LINKS (\n l1 ( a b ) 5.0 0.0 1.0 0.0 ( )\n)\n"
        "DEMANDS (\n d1 ( a b ) 1 3.0\n)\n"
    )
    assert parse_sndlib_native(minimal).network.n_edges == 2
    print("\nACCEPTANCE 9 PASS: round trips and link doubling hold")
