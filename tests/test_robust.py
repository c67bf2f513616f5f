import numpy as np
import pytest

from robustflow import (
    DemandMatrix,
    LatencyConfig,
    LatencyKind,
    Network,
    enumerate_scenarios,
    robust_latency_linear,
    robust_throughput,
    solve_latency_linear,
    solve_throughput,
    worst_scenario_subgradient,
)
from robustflow import robust, simplex
from robustflow.errors import ScenarioInfeasible, ScenarioLimitExceeded, SolverError
from robustflow.robust import _TreeAccumulator, bench_robust_throughput

from conftest import cold_throughput, ring_chords_instance


class TestEnumerateScenarios:
    def test_singletons(self):
        assert list(enumerate_scenarios(3, 1)) == [(0,), (1,), (2,)]

    def test_pairs(self):
        assert list(enumerate_scenarios(3, 2)) == [(0, 1), (0, 2), (1, 2)]

    def test_q_zero_is_nominal(self):
        assert list(enumerate_scenarios(5, 0)) == [()]

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            list(enumerate_scenarios(3, 4))


class TestRobustThroughput:
    def test_net_a(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        assert report.worst_value == pytest.approx(0.5)
        assert report.worst_scenario == (0,)
        assert report.per_scenario_values[(0,)] == pytest.approx(0.5)
        assert report.per_scenario_values[(1,)] == pytest.approx(0.75)
        assert report.scenarios_evaluated == 2

    def test_net_b_disconnects(self, net_b, demand_ab):
        report = robust_throughput(net_b, demand_ab, 1)
        assert report.worst_value == pytest.approx(0.0, abs=1e-12)
        assert report.worst_scenario == (0,)

    def test_net_c(self, net_c, demand_c):
        report = robust_throughput(net_c, demand_c, 1)
        assert report.worst_value == pytest.approx(0.5)
        assert report.scenarios_evaluated == 3

    def test_q_zero_equals_nominal(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 0)
        nominal = solve_throughput(net_a, demand_ab).lambda_star
        assert report.worst_value == pytest.approx(nominal)
        assert report.worst_scenario == ()

    def test_monotone_in_q(self, net_a, demand_ab):
        values = [robust_throughput(net_a, demand_ab, q).worst_value
                  for q in range(3)]
        assert values[0] >= values[1] >= values[2]
        assert values[2] == pytest.approx(0.0, abs=1e-12)

    def test_tie_breaks_lexicographically(self, demand_ab):
        net = Network(2, [(0, 1, 2.0, 0.0), (0, 1, 2.0, 0.0)])
        report = robust_throughput(net, demand_ab, 1)
        assert report.per_scenario_values[(0,)] == report.per_scenario_values[(1,)]
        assert report.worst_scenario == (0,)

    def test_workers_do_not_change_output(self, net_c, demand_c):
        seq = robust_throughput(net_c, demand_c, 2, workers=1)
        par = robust_throughput(net_c, demand_c, 2, workers=4)
        assert seq.worst_value == par.worst_value
        assert seq.worst_scenario == par.worst_scenario
        assert seq.per_scenario_values == par.per_scenario_values

    def test_rejects_q_beyond_edge_count(self, net_b, demand_ab):
        with pytest.raises(ValueError):
            robust_throughput(net_b, demand_ab, 2)

    def test_scenario_gate(self, net_c, demand_c):
        with pytest.raises(ScenarioLimitExceeded):
            robust_throughput(net_c, demand_c, 2, max_scenarios=2)
        report = robust_throughput(net_c, demand_c, 2, max_scenarios=2,
                                   allow_large=True)
        assert report.scenarios_evaluated == 3

    def test_matches_cold_solves_exhaustively(self, net_c, demand_c):
        report = robust_throughput(net_c, demand_c, 1)
        for scenario, value in report.per_scenario_values.items():
            caps = net_c.capacities
            caps[list(scenario)] = 0.0
            assert value == pytest.approx(
                cold_throughput(net_c, demand_c, caps), abs=1e-9
            )


class TestRobustLatency:
    def wide_triangle(self):
        # triangle with enough slack that every single deletion stays feasible
        net = Network(3, [(0, 1, 10.0, 1.0), (0, 2, 10.0, 10.0),
                          (2, 1, 10.0, 10.0)])
        demands = DemandMatrix([[0.0, 2.0, 0.0], [0.0] * 3, [0.0] * 3])
        return net, demands

    def test_q_zero_equals_nominal(self):
        net, demands = self.wide_triangle()
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.3)
        thr = solve_throughput(net, demands)
        nominal = solve_latency_linear(net, demands, cfg, thr).latency
        report = robust_latency_linear(net, demands, 0, cfg)
        assert report.worst_value == pytest.approx(nominal, abs=1e-9)

    def test_worst_deletes_cheap_edge(self):
        net, demands = self.wide_triangle()
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.3)
        report = robust_latency_linear(net, demands, 1, cfg)
        assert report.worst_scenario == (0,)
        assert report.worst_value == pytest.approx(20.0, abs=1e-9)

    def test_monotone_in_q_where_feasible(self):
        net, demands = self.wide_triangle()
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.3)
        q0 = robust_latency_linear(net, demands, 0, cfg).worst_value
        q1 = robust_latency_linear(net, demands, 1, cfg).worst_value
        assert q1 >= q0 - 1e-12

    def test_disconnection_raises_with_scenarios(self, net_b, demand_ab):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        with pytest.raises(ScenarioInfeasible) as info:
            robust_latency_linear(net_b, demand_ab, 1, cfg)
        assert (0,) in info.value.scenarios

    def test_rejects_nonlinear_kind(self, net_b, demand_ab):
        with pytest.raises(ValueError):
            robust_latency_linear(net_b, demand_ab, 1,
                                  LatencyConfig(LatencyKind.LOG))


class TestSubgradient:
    def test_net_a_worst_scenario_gradient(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        grad = worst_scenario_subgradient(report.context, net_a.capacities)
        np.testing.assert_allclose(grad, [0.0, -0.25], atol=1e-12)

    def test_nominal_gradient(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 0)
        grad = worst_scenario_subgradient(report.context, net_a.capacities)
        np.testing.assert_allclose(grad, [-0.25, -0.25], atol=1e-12)

    def test_rejects_mismatched_capacities(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        with pytest.raises(ValueError):
            worst_scenario_subgradient(report.context, net_a.capacities + 1.0)

    def test_convexity_inequality(self, net_a, demand_ab):
        # min-form value(b') >= value(b) + <g, b' - b> for perturbed capacities
        base = net_a.capacities
        report = robust_throughput(net_a, demand_ab, 1)
        value_b = -report.worst_value
        grad = worst_scenario_subgradient(report.context, base)
        rng = np.random.default_rng(61)
        for _ in range(100):
            b2 = base + rng.uniform(-0.5, 0.5, size=base.size)
            b2 = np.maximum(b2, 0.1)
            value_b2 = -robust_throughput(net_a, demand_ab, 1,
                                          b_override=b2).worst_value
            assert value_b2 >= value_b + grad @ (b2 - base) - 1e-9


class TestBench:
    def test_values_match_robust_report(self, net_c, demand_c):
        rows, totals = bench_robust_throughput(net_c, demand_c, 1)
        report = robust_throughput(net_c, demand_c, 1)
        assert len(rows) == 3
        for row in rows:
            assert row["value"] == pytest.approx(
                report.per_scenario_values[row["scenario_edges"]]
            )
        assert totals["cold_pivots"] >= 0
        assert totals["warm_pivots"] == sum(
            report.per_scenario_pivots.values()
        )


class TestWarmStartPivots:
    @pytest.mark.parametrize("n", [12, 14, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_scenario_warm_exceeds_cold(self, n, seed):
        net, demands = ring_chords_instance(n, seed)
        rows, _ = bench_robust_throughput(net, demands, 1)
        worse = [(r["scenario_edges"], r["warm_pivots"], r["cold_pivots"])
                 for r in rows if r["warm_pivots"] > r["cold_pivots"]]
        assert not worse


class TestWorstScenarioTies:
    def best_of(self, sense, records):
        acc = _TreeAccumulator(sense, keep_values=False)
        for scenario, value in records:
            acc.record(scenario, value, None, 0)
        return acc.best[2]

    def test_float_noise_around_zero_ties(self):
        records = [((1, 8), -1.76e-16), ((0, 9), 1.6e-15)]
        assert self.best_of("min", records) == (0, 9)
        assert self.best_of("min", records[::-1]) == (0, 9)

    def test_equal_to_ten_digits_ties(self):
        records = [((15, 18), 2.5 * (1 + 1e-13)), ((4, 15), 2.5)]
        assert self.best_of("max", records) == (4, 15)
        assert self.best_of("min", records) == (4, 15)

    def test_distinct_values_still_decide(self):
        records = [((0,), 1.0), ((1,), 1.0 - 1e-8)]
        assert self.best_of("min", records) == (1,)
        assert self.best_of("max", records) == (0,)

    def test_equal_scenarios_report_the_smaller(self):
        net = Network(2, [(0, 1, 3.0, 1.0), (0, 1, 3.0, 1.0), (0, 1, 2.0, 1.0)])
        demands = DemandMatrix([[0.0, 1.0], [0.0, 0.0]])
        report = robust_throughput(net, demands, 1)
        assert report.per_scenario_values[(0,)] == pytest.approx(
            report.per_scenario_values[(1,)], abs=1e-12)
        assert report.worst_scenario == (0,)


class TestSolverError:
    def test_pivot_cap_on_nominal_solve(self, net_c, demand_c):
        with pytest.raises(SolverError) as info:
            solve_throughput(net_c, demand_c, max_pivots=0)
        assert info.value.scenario is None
        assert "iteration_limit" in str(info.value)

    def test_pivot_cap_names_the_scenario(self, net_c, demand_c, monkeypatch):
        def capped(tableau, max_pivots=None):
            return simplex.dual_simplex(tableau, max_pivots=0)

        monkeypatch.setattr(robust, "dual_simplex", capped)
        with pytest.raises(SolverError) as info:
            robust_throughput(net_c, demand_c, 1)
        assert info.value.scenario in {(0,), (1,), (2,)}
        assert str(info.value.scenario) in str(info.value)
