import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustflow import (
    DemandMatrix,
    LatencyConfig,
    LatencyKind,
    Network,
    project_budget_simplex,
    robust_throughput,
    robustify_latency_linear,
    robustify_throughput_cutting_plane,
    robustify_throughput_subgradient,
)
from robustflow import robustify
from robustflow.errors import ScenarioInfeasible


class TestProjection:
    def test_feasible_point_unchanged(self):
        v = np.array([0.2, 0.3])
        np.testing.assert_allclose(project_budget_simplex(v, 1.0), v)

    def test_overbudget_single_coordinate(self):
        np.testing.assert_allclose(
            project_budget_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0]
        )

    def test_negative_orthant_clamps_to_origin(self):
        np.testing.assert_allclose(
            project_budget_simplex(np.array([-1.0, -1.0]), 5.0), [0.0, 0.0]
        )

    def test_zero_budget(self):
        np.testing.assert_allclose(
            project_budget_simplex(np.array([3.0, -1.0]), 0.0), [0.0, 0.0]
        )

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.uniform(-2, 2, size=4)
            p = project_budget_simplex(v, 1.5)
            np.testing.assert_allclose(project_budget_simplex(p, 1.5), p,
                                       atol=1e-12)
            assert (p >= 0).all() and p.sum() <= 1.5 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.floats(0.1, 10),
    )
    def test_non_expansive(self, u, v, budget):
        size = min(len(u), len(v))
        u = np.array(u[:size])
        v = np.array(v[:size])
        pu = project_budget_simplex(u, budget)
        pv = project_budget_simplex(v, budget)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    def test_projection_is_nearest_feasible_point(self):
        # compare against a fine grid over the feasible set
        rng = np.random.default_rng(9)
        grid = np.array([
            (a, b) for a in np.linspace(0, 1, 101)
            for b in np.linspace(0, 1, 101) if a + b <= 1.0 + 1e-12
        ])
        for _ in range(10):
            v = rng.uniform(-1.5, 1.5, size=2)
            p = project_budget_simplex(v, 1.0)
            dists = np.linalg.norm(grid - v, axis=1)
            assert np.linalg.norm(p - v) <= dists.min() + 1e-6


class TestRobustifyThroughput:
    def test_net_a_subgradient(self, net_a, demand_ab):
        alloc, history = robustify_throughput_subgradient(
            net_a, demand_ab, 1, 1.0,
            steps=400, step_rule=lambda t: 0.98 ** t,
        )
        assert history[-1] == pytest.approx(0.75, abs=1e-3)
        np.testing.assert_allclose(alloc.delta_b, [0.0, 1.0], atol=0.02)

    def test_net_a_cutting_plane(self, net_a, demand_ab):
        alloc, model, history = robustify_throughput_cutting_plane(
            net_a, demand_ab, 1, 1.0
        )
        assert history[-1] == pytest.approx(0.75, abs=1e-7)
        np.testing.assert_allclose(alloc.delta_b, [0.0, 1.0], atol=1e-7)
        assert len(model.cuts) >= 2
        assert model.master_tableau is not None

    def test_zero_budget_returns_nominal(self, net_a, demand_ab):
        nominal = robust_throughput(net_a, demand_ab, 1).worst_value
        alloc, history = robustify_throughput_subgradient(net_a, demand_ab,
                                                          1, 0.0)
        np.testing.assert_allclose(alloc.delta_b, 0.0)
        assert history == [pytest.approx(nominal)]
        alloc, _, history = robustify_throughput_cutting_plane(net_a, demand_ab,
                                                               1, 0.0)
        np.testing.assert_allclose(alloc.delta_b, 0.0)
        assert history == [pytest.approx(nominal)]

    def test_histories_are_monotone(self, net_c, demand_c):
        _, history = robustify_throughput_subgradient(net_c, demand_c, 1, 1.0,
                                                      steps=50)
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        _, model, history = robustify_throughput_cutting_plane(net_c, demand_c,
                                                               1, 1.0)
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_cut_validity_on_random_points(self, net_a, demand_ab):
        _, model, _ = robustify_throughput_cutting_plane(net_a, demand_ab,
                                                         1, 1.0)
        rng = np.random.default_rng(17)
        base = net_a.capacities
        for _ in range(50):
            x = project_budget_simplex(rng.uniform(0, 1, size=2), 1.0)
            true = -robust_throughput(net_a, demand_ab, 1,
                                      b_override=base + x).worst_value
            for cut in model.cuts:
                model_value = cut.value + cut.subgradient @ (x - cut.point)
                assert true >= model_value - 1e-7

    def test_master_lower_bounds_are_monotone(self, net_a, demand_ab):
        _, model, _ = robustify_throughput_cutting_plane(net_a, demand_ab,
                                                         1, 1.0)
        phi = model.phi_history
        assert all(b >= a - 1e-9 for a, b in zip(phi, phi[1:]))
        # min-form optimum is -0.75; every master value stays below it
        assert all(p <= -0.75 + 1e-7 for p in phi)

    def test_one_master_value_per_cut_after_the_first(self, net_a, demand_ab):
        _, model, history = robustify_throughput_cutting_plane(net_a, demand_ab,
                                                               1, 1.0)
        assert len(model.cuts) == len(history) == len(model.phi_history) + 1
        assert robustify.CutModel().phi_history == []

    def test_more_budget_never_hurts(self, net_a, demand_ab):
        _, _, small = robustify_throughput_cutting_plane(net_a, demand_ab,
                                                         1, 1.0)
        _, _, large = robustify_throughput_cutting_plane(net_a, demand_ab,
                                                         1, 2.0)
        assert large[-1] >= small[-1] - 1e-7
        assert large[-1] == pytest.approx(0.875, abs=1e-7)

    def test_flat_objective_terminates_immediately(self, net_b, demand_ab):
        # deleting the only edge always gives 0: all subgradients vanish
        alloc, model, history = robustify_throughput_cutting_plane(
            net_b, demand_ab, 1, 1.0
        )
        np.testing.assert_allclose(alloc.delta_b, 0.0)
        assert history[-1] == pytest.approx(0.0, abs=1e-12)
        assert len(model.cuts) <= 2


class TestRobustifyLatency:
    def three_route_net(self):
        # cheap capacity-limited edge next to two expensive wide edges
        net = Network(2, [(0, 1, 1.0, 1.0), (0, 1, 10.0, 5.0),
                          (0, 1, 10.0, 5.0)])
        demands = DemandMatrix([[0.0, 2.0], [0.0, 0.0]])
        return net, demands

    def oracle_value(self, delta):
        # worst over single deletions of the minimal total delay at demand 2
        d0 = min(delta[0], 1.0)
        delete_cheap = 10.0
        delete_wide = 1.0 * (1.0 + d0) + 5.0 * (1.0 - d0)
        return max(delete_cheap, delete_wide)

    def test_cutting_plane_matches_closed_form(self):
        net, demands = self.three_route_net()
        cfg = LatencyConfig(LatencyKind.LINEAR)
        alloc, history = robustify_latency_linear(net, demands, 1, 1.0, cfg,
                                                  method="cutting-plane")
        assert history[-1] == pytest.approx(10.0, abs=1e-7)
        assert self.oracle_value(alloc.delta_b) == pytest.approx(10.0, abs=1e-6)

    def test_subgradient_approaches_closed_form(self):
        net, demands = self.three_route_net()
        cfg = LatencyConfig(LatencyKind.LINEAR)
        _, history = robustify_latency_linear(
            net, demands, 1, 1.0, cfg, method="subgradient",
            steps=300, step_rule=lambda t: 0.5 * 0.97 ** t,
        )
        assert history[-1] == pytest.approx(10.0, abs=5e-3)

    def test_zero_budget(self):
        net, demands = self.three_route_net()
        cfg = LatencyConfig(LatencyKind.LINEAR)
        alloc, history = robustify_latency_linear(net, demands, 1, 0.0, cfg)
        np.testing.assert_allclose(alloc.delta_b, 0.0)
        assert history[-1] == pytest.approx(self.oracle_value(np.zeros(3)))

    def two_cheap_routes_net(self):
        # two capacity-limited cheap edges and one wide expensive edge; the
        # optimal allocation splits the budget between the cheap edges
        net = Network(2, [(0, 1, 1.0, 1.0), (0, 1, 1.0, 2.0),
                          (0, 1, 10.0, 10.0)])
        demands = DemandMatrix([[0.0, 2.0], [0.0, 0.0]])
        return net, demands

    def test_cutting_plane_finds_interior_split(self):
        # worst case is max(12 - 8*d1, 11 - 9*d0, 3 - d0); with budget 1 the
        # two binding pieces equalize at d0 = 7/17, value 124/17
        net, demands = self.two_cheap_routes_net()
        cfg = LatencyConfig(LatencyKind.LINEAR)
        alloc, history = robustify_latency_linear(net, demands, 1, 1.0, cfg,
                                                  method="cutting-plane")
        assert history[-1] == pytest.approx(124.0 / 17.0, abs=1e-6)
        assert alloc.delta_b[0] == pytest.approx(7.0 / 17.0, abs=1e-5)
        assert alloc.delta_b[1] == pytest.approx(10.0 / 17.0, abs=1e-5)

    def test_zero_delays_stay_at_origin(self, demand_ab):
        # wide enough that every single-deletion scenario carries the demand
        net = Network(2, [(0, 1, 6.0, 0.0), (0, 1, 5.0, 0.0)])
        cfg = LatencyConfig(LatencyKind.LINEAR)
        alloc, history = robustify_latency_linear(net, demand_ab, 1, 1.0, cfg)
        np.testing.assert_allclose(alloc.delta_b, 0.0, atol=1e-9)
        assert history[-1] == pytest.approx(0.0, abs=1e-9)

    def test_disconnecting_scenario_raises(self, net_b, demand_ab):
        cfg = LatencyConfig(LatencyKind.LINEAR)
        with pytest.raises(ScenarioInfeasible):
            robustify_latency_linear(net_b, demand_ab, 1, 1.0, cfg)

    def test_rejects_nonlinear_kind(self, net_a, demand_ab):
        with pytest.raises(ValueError):
            robustify_latency_linear(net_a, demand_ab, 1, 1.0,
                                     LatencyConfig(LatencyKind.INVERSE))

    def test_rejects_unknown_method(self, net_a, demand_ab, monkeypatch):
        net, demands = self.three_route_net()
        evaluations = []
        monkeypatch.setattr(robustify, "_robust_latency",
                            lambda *args, **kwargs: evaluations.append(args))
        with pytest.raises(ValueError, match="unknown method"):
            robustify_latency_linear(net, demands, 1, 1.0,
                                     LatencyConfig(LatencyKind.LINEAR),
                                     method="newton")
        assert evaluations == []


def _latency(method):
    def run(net, demands, q, budget):
        return robustify_latency_linear(net, demands, q, budget,
                                        LatencyConfig(LatencyKind.LINEAR), method=method)
    return run


class TestRejectedBeforeEvaluation:
    """An invalid budget raises ValueError before the scenario tree runs."""

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("the scenario tree was evaluated")

        for name in ("robust_throughput", "_robust_latency"):
            monkeypatch.setattr(robustify, name, evaluated)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("method", [
        robustify_throughput_subgradient, robustify_throughput_cutting_plane,
        _latency("subgradient"), _latency("cutting-plane"),
    ], ids=["throughput-sg", "throughput-cp", "latency-sg", "latency-cp"])
    def test_non_finite_or_negative_budget(self, net_a, demand_ab, no_evaluation,
                                           method, budget):
        with pytest.raises(ValueError, match="budget must be finite and non-negative"):
            method(net_a, demand_ab, 1, budget)
