import dataclasses
import math

import networkx as nx
import numpy as np
import pytest

from robustflow import (
    DemandMatrix,
    LatencyConfig,
    LatencyKind,
    Network,
    Status,
    eval_latency,
    load_balance_from_throughput,
    robust_throughput,
    solve_latency_linear,
    solve_throughput,
)
from robustflow.errors import (
    InfeasibleSystem,
    SaturatedEdge,
    ScenarioInfeasible,
    ZeroThroughput,
)
from robustflow.flows import (
    _index_forest,
    build_latency_tableau,
    build_throughput_tableau,
    pin_throughput_tableau,
)
from robustflow.network import (
    demand_laplacian,
    incidence_matrix,
    independent_columns,
    rank_reduce,
)
from robustflow.robustify import robustify_latency_linear
from robustflow.simplex import primal_simplex

from conftest import (
    brute_force_lp,
    cold_latency,
    cold_throughput,
    random_corpus,
    ring_chords_instance,
    throughput_standard_form,
)
from oracles import rank_reduced_throughput_tableau


def silent_sources(demands):
    """Vertices that emit no demand."""
    return np.flatnonzero(demands.entries.sum(axis=1) == 0)


def silent_source_corpus(seed, count):
    """Random corpus networks with demands between reachable pairs only.

    Every vertex except vertex 0 sends demand to each vertex it can reach,
    so the throughput is positive, several sources emit, and vertex 0 (and
    any vertex that reaches nothing) emits none.  Instances where no vertex
    other than 0 reaches anything are skipped.
    """
    corpus = []
    for net, _ in random_corpus(seed=seed, count=count):
        n = net.n_vertices
        reach = np.zeros((n, n), dtype=bool)
        for e in net.edges:
            reach[e.tail, e.head] = True
        for _ in range(n):
            reach |= (reach.astype(int) @ reach.astype(int)) > 0
        np.fill_diagonal(reach, False)
        reach[0] = False
        if reach.any():
            values = 1.0 + np.add.outer(3 * np.arange(n), np.arange(n)) % 4
            corpus.append((net, DemandMatrix(np.where(reach, values, 0.0))))
    return corpus


def hand_built_cases():
    """(network, demands within one weak component, a demand pair split
    across two components or None).

    The networks have an isolated vertex first or last, several weak
    components with interleaved vertex indices, parallel edges and one-way
    edges.
    """
    def pairs(n, *triples):
        entries = np.zeros((n, n))
        for s, t, d in triples:
            entries[s, t] = d
        return DemandMatrix(entries)

    return [
        (Network(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 1.0)]),
         pairs(4, (0, 2, 1.0), (1, 0, 2.0)), pairs(4, (0, 3, 1.0))),
        (Network(4, [(1, 2, 2.0), (2, 3, 3.0), (3, 1, 1.0), (2, 1, 4.0)]),
         pairs(4, (1, 3, 1.0)), pairs(4, (0, 2, 1.0))),
        (Network(6, [(0, 3, 2.0), (1, 2, 1.0), (3, 5, 4.0), (2, 4, 3.0),
                     (5, 0, 1.0), (4, 1, 2.0), (1, 4, 5.0)]),
         pairs(6, (0, 5, 2.0), (2, 1, 1.0), (4, 2, 3.0)), pairs(6, (3, 4, 1.0))),
        (Network(7, [(6, 5, 1.0), (0, 2, 2.0), (5, 4, 3.0), (2, 0, 1.0), (1, 3, 2.0)]),
         pairs(7, (6, 4, 1.0), (0, 2, 2.0), (1, 3, 1.0)), pairs(7, (2, 3, 1.0))),
        (Network(3, [(0, 1, 3.0), (0, 1, 2.0), (1, 2, 1.0), (1, 2, 4.0), (0, 2, 1.0),
                     (0, 1, 1.0)]),
         pairs(3, (0, 2, 1.0), (0, 1, 2.0)), None),
        (Network(4, [(0, 1, 1.0), (2, 1, 2.0), (2, 3, 3.0), (0, 3, 1.0), (3, 0, 2.0)]),
         pairs(4, (1, 0, 1.0), (2, 3, 2.0), (0, 1, 1.0)), None),
    ]


class TestBuildThroughputTableau:
    def test_equals_the_rank_reduced_construction(self):
        corpus = [case for seed in range(1, 41) for case in random_corpus(seed=seed)]
        corpus += silent_source_corpus(seed=61, count=20)
        corpus += [ring_chords_instance(n, seed) for n in range(6, 16, 2) for seed in range(8)]
        corpus += [(net, demands) for net, demands, _ in hand_built_cases()]
        for net, demands in corpus:
            # the forest's balance rows and edges are rank_reduce's rows and
            # independent_columns' choice (dropping another row of a component
            # would give the same tableau in exact arithmetic)
            tree, root_of = _index_forest(net)
            reduced = rank_reduce(incidence_matrix(net), demand_laplacian(demands))
            assert tuple(np.flatnonzero(root_of != np.arange(net.n_vertices))) == reduced.row_indices
            assert list(tree) == independent_columns(reduced.reduced_incidence)
            want = rank_reduced_throughput_tableau(net, demands)
            got, _ = build_throughput_tableau(net, demands)
            assert np.array_equal(got.tab, want.tab)
            assert np.array_equal(got.basic_vars, want.basic_vars)
            assert np.array_equal(got.nonbasic_vars, want.nonbasic_vars)

    def test_split_demand_rejected_on_hand_built_networks(self):
        split = [(net, demands) for net, _, demands in hand_built_cases() if demands is not None]
        assert len(split) == 4
        for net, demands in split:
            with pytest.raises(InfeasibleSystem):
                rank_reduced_throughput_tableau(net, demands)
            with pytest.raises(InfeasibleSystem):
                build_throughput_tableau(net, demands)

    def test_net_b_layout(self, net_b, demand_ab):
        tableau, vm = build_throughput_tableau(net_b, demand_ab)
        # 2 flow variables + 1 slack + lambda; starting vertex F=0, slack=3
        assert vm.n_vars == 4
        assert tableau.is_primal_feasible()
        point = tableau.solution_point()
        assert np.abs(vm.flow_matrix(point)).max() == 0.0
        assert point[vm.slack_index(0)] == pytest.approx(3.0)

    def test_net_c_rhs_is_capacities(self, net_c, demand_c):
        tableau, vm = build_throughput_tableau(net_c, demand_c)
        point = tableau.solution_point()
        for e in range(3):
            assert point[vm.slack_index(e)] == pytest.approx(1.0)
        assert np.abs(vm.flow_matrix(point)).max() == 0.0

    def test_zero_demand_rejected(self, net_b):
        with pytest.raises(InfeasibleSystem):
            build_throughput_tableau(net_b, DemandMatrix(np.zeros((2, 2))))

    def test_disconnected_demand_rejected(self):
        net = Network(4, [(0, 1, 1.0, 0.0), (2, 3, 1.0, 0.0)])
        demands = DemandMatrix(
            [[0.0, 0.0, 1.0, 0.0], [0.0] * 4, [0.0] * 4, [0.0] * 4]
        )
        with pytest.raises(InfeasibleSystem):
            build_throughput_tableau(net, demands)

    @pytest.mark.parametrize("build", [
        build_throughput_tableau,
        lambda net, demands: build_latency_tableau(net, demands, target=1.0)])
    def test_demand_size_must_match_the_network(self, net_c, build):
        # one vertex short or over: neither may be read as another instance
        for n in (2, 4):
            entries = np.zeros((n, n))
            entries[0, 1] = 1.0
            with pytest.raises(ValueError, match="one row and column per vertex"):
                build(net_c, DemandMatrix(entries))

    def test_blocks_only_for_emitting_sources(self, net_c, demand_c):
        # only vertex 0 emits: one block of n_red=2 rows and k=1 column
        tableau, vm = build_throughput_tableau(net_c, demand_c)
        assert tableau.body.shape == (2 * 1 + 3, 1 * 1 + 1)
        assert tableau.n_original == vm.n_vars == 3 * 3 + 3 + 1
        for s in (1, 2):
            for e in range(3):
                assert vm.flow_index(e, s) not in tableau.basic_vars
                assert vm.flow_index(e, s) not in tableau.nonbasic_vars

    def test_shape_counts_active_sources(self):
        for net, demands in silent_source_corpus(seed=61, count=10):
            tableau, _ = build_throughput_tableau(net, demands)
            reduced = rank_reduce(incidence_matrix(net), demand_laplacian(demands))
            n_red = reduced.reduced_incidence.shape[0]
            k = net.n_edges - n_red
            n_act = net.n_vertices - len(silent_sources(demands))
            assert n_act < net.n_vertices
            assert tableau.body.shape == (n_red * n_act + net.n_edges, k * n_act + 1)

    def test_starting_vertex_never_needs_phase_one(self):
        for net, demands in random_corpus(seed=31, count=10):
            tableau, _ = build_throughput_tableau(net, demands)
            assert tableau.is_primal_feasible()
            assert primal_simplex(tableau).status is Status.OPTIMAL


class TestSolveThroughput:
    def test_corpus_values(self, net_a, net_b, net_c, demand_ab, demand_c):
        assert solve_throughput(net_b, demand_ab).lambda_star == pytest.approx(0.75)
        assert solve_throughput(net_a, demand_ab).lambda_star == pytest.approx(1.25)
        assert solve_throughput(net_c, demand_c).lambda_star == pytest.approx(1.0)

    def test_flows_satisfy_constraints(self, net_c, demand_c):
        sol = solve_throughput(net_c, demand_c)
        flows = sol.flows
        assert (flows >= -1e-8).all()
        assert (flows.sum(axis=1) <= net_c.capacities + 1e-8).all()
        balance = incidence_matrix(net_c) @ flows
        expected = -sol.lambda_star * demand_laplacian(demand_c)
        np.testing.assert_allclose(balance, expected, atol=1e-8)

    def test_matches_brute_force_on_small_corpus(self, net_a, net_b, net_c,
                                                 demand_ab, demand_c):
        for net, demands in [(net_a, demand_ab), (net_b, demand_ab),
                             (net_c, demand_c)]:
            status, value = brute_force_lp(throughput_standard_form(net, demands))
            assert status == "optimal"
            sol = solve_throughput(net, demands)
            assert sol.lambda_star == pytest.approx(-value, abs=1e-9)

    def test_silent_sources_carry_no_flow(self, net_c, demand_c):
        flows = solve_throughput(net_c, demand_c).flows
        assert flows.shape == (3, 3)
        assert (flows[:, 1:] == 0.0).all()
        for net, demands in silent_source_corpus(seed=71, count=10):
            sol = solve_throughput(net, demands)
            assert (sol.flows[:, silent_sources(demands)] == 0.0).all()
            # every emitting source's block carries its own commodity
            np.testing.assert_allclose(
                incidence_matrix(net) @ sol.flows,
                -sol.lambda_star * demand_laplacian(demands), atol=1e-8,
            )

    def test_silent_sources_match_full_block_reference(self):
        for net, demands in silent_source_corpus(seed=73, count=10):
            lam = solve_throughput(net, demands).lambda_star
            assert lam == pytest.approx(cold_throughput(net, demands), abs=1e-9)
            report = robust_throughput(net, demands, 1)
            assert len(report.per_scenario_values) == net.n_edges
            for (e,), value in report.per_scenario_values.items():
                caps = net.capacities.copy()
                caps[e] = 0.0
                assert value == pytest.approx(cold_throughput(net, demands, caps), abs=1e-9)

    def test_capacity_scaling(self):
        for net, demands in random_corpus(seed=41, count=6):
            base = solve_throughput(net, demands).lambda_star
            scaled = solve_throughput(net, demands,
                                      b_override=2.5 * net.capacities).lambda_star
            assert scaled == pytest.approx(2.5 * base, abs=1e-8)

    def test_demand_scaling(self):
        for net, demands in random_corpus(seed=43, count=6):
            base = solve_throughput(net, demands).lambda_star
            tripled = DemandMatrix(3.0 * demands.entries)
            assert solve_throughput(net, tripled).lambda_star == pytest.approx(
                base / 3.0, abs=1e-8
            )

    def test_zero_throughput_when_no_directed_path(self):
        # edge points away from the demand direction; weakly connected
        net = Network(2, [(1, 0, 1.0, 0.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        assert solve_throughput(net, demands).lambda_star == pytest.approx(0.0)


class TestLoadBalance:
    def test_net_a_theta(self, net_a, demand_ab):
        sol = solve_throughput(net_a, demand_ab)
        theta, _ = load_balance_from_throughput(sol)
        assert theta == pytest.approx(0.8)

    def test_lambda_one_is_fixed_point(self, net_c, demand_c):
        sol = solve_throughput(net_c, demand_c)
        theta, flows = load_balance_from_throughput(sol)
        assert theta == pytest.approx(1.0)
        np.testing.assert_allclose(flows, sol.flows)

    def test_net_b_flows_exceed_capacity(self, net_b, demand_ab):
        sol = solve_throughput(net_b, demand_ab)
        theta, flows = load_balance_from_throughput(sol)
        assert theta == pytest.approx(4.0 / 3.0)
        assert flows.sum() == pytest.approx(4.0)

    def test_zero_throughput_raises(self):
        net = Network(2, [(1, 0, 1.0, 0.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        sol = solve_throughput(net, demands)
        with pytest.raises(ZeroThroughput):
            load_balance_from_throughput(sol)

    def test_lemma_product_on_random_corpus(self):
        for net, demands in random_corpus(seed=47, count=8):
            sol = solve_throughput(net, demands)
            if sol.lambda_star <= 1e-12:
                continue
            theta, _ = load_balance_from_throughput(sol)
            assert sol.lambda_star * theta == pytest.approx(1.0, abs=1e-9)


class TestLatencyLinear:
    def test_net_b_single_path(self, net_b, demand_ab):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        thr = solve_throughput(net_b, demand_ab)
        sol = solve_latency_linear(net_b, demand_ab, cfg, thr)
        assert sol.latency == pytest.approx(2.0, abs=1e-9)

    def test_zero_delays_give_zero_latency(self, net_a, demand_ab):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        thr = solve_throughput(net_a, demand_ab)
        sol = solve_latency_linear(net_a, demand_ab, cfg, thr)
        assert sol.latency == pytest.approx(0.0, abs=1e-12)

    def test_net_c_splits_over_paths(self, net_c, demand_c):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        thr = solve_throughput(net_c, demand_c)
        sol = solve_latency_linear(net_c, demand_c, cfg, thr)
        assert sol.latency == pytest.approx(17.0 / 1.8, abs=1e-9)

    def test_flows_route_the_pinned_fraction(self, net_c, demand_c):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        thr = solve_throughput(net_c, demand_c)
        lam = thr.lambda_star
        sol = solve_latency_linear(net_c, demand_c, cfg, thr)
        balance = incidence_matrix(net_c) @ sol.flows
        expected = -cfg.beta * lam * demand_laplacian(demand_c)
        np.testing.assert_allclose(balance, expected, atol=1e-8)

    def test_beta_one_stays_feasible(self, net_a, demand_ab):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=1.0)
        thr = solve_throughput(net_a, demand_ab)
        sol = solve_latency_linear(net_a, demand_ab, cfg, thr)
        assert sol.latency >= -1e-12

    def test_rejects_nonlinear_kind(self, net_b, demand_ab):
        cfg = LatencyConfig(LatencyKind.INVERSE)
        with pytest.raises(ValueError):
            solve_latency_linear(net_b, demand_ab, cfg, solve_throughput(net_b, demand_ab))

    def test_matches_cold_solve_value(self, net_c, demand_c):
        # cross-check the pinned warm path against an independent LP solve
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        thr = solve_throughput(net_c, demand_c)
        lam = thr.lambda_star
        warm = solve_latency_linear(net_c, demand_c, cfg, thr)
        target = cfg.beta * lam
        denom = target * demand_c.total()
        cold = cold_latency(net_c, demand_c, target)
        assert warm.latency == pytest.approx(cold / denom, abs=1e-9)

    def test_matches_cold_solve_with_silent_sources(self):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.9)
        for net, demands in silent_source_corpus(seed=67, count=10):
            thr = solve_throughput(net, demands)
            lam = thr.lambda_star
            warm = solve_latency_linear(net, demands, cfg, thr)
            target = cfg.beta * lam
            cold = cold_latency(net, demands, target)
            assert warm.latency == pytest.approx(cold / (target * demands.total()), abs=1e-9)
            assert (warm.flows[:, silent_sources(demands)] == 0.0).all()
            np.testing.assert_allclose(incidence_matrix(net) @ warm.flows,
                                       -target * demand_laplacian(demands), atol=1e-8)


def latency_corpus():
    """random_corpus seeds 1-40 and four ring_chords_instance draws."""
    corpus = [case for seed in range(1, 41) for case in random_corpus(seed=seed)]
    return corpus + [ring_chords_instance(n, seed)
                     for n, seed in ((6, 0), (8, 1), (10, 5), (12, 2))]


class TestLatencyStart:
    def test_start_is_dual_feasible(self):
        one_way = split = 0
        for net, demands in latency_corpus():
            graph = nx.MultiDiGraph()
            graph.add_nodes_from(range(net.n_vertices))
            graph.add_edges_from((e.tail, e.head) for e in net.edges)
            split += nx.number_weakly_connected_components(graph) > 1
            one_way += any(
                len(nx.descendants(graph, s)) + 1 < len(nx.node_connected_component(
                    graph.to_undirected(as_view=True), s))
                for s in np.flatnonzero(demands.entries.sum(axis=1)))
            tableau, _ = build_latency_tableau(net, demands, target=1.0)
            assert tableau.is_dual_feasible()
        # the corpus exercises the reverse sweeps and the further components
        assert one_way > 50 and split > 50

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.0])
    def test_linear_latency_matches_lp_oracle(self, beta):
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=beta)
        checked = 0
        for net, demands in latency_corpus():
            thr = solve_throughput(net, demands)
            if thr.lambda_star <= 1e-9:
                continue
            target = beta * thr.lambda_star
            sol = solve_latency_linear(net, demands, cfg, thr)
            cold = cold_latency(net, demands, target)
            assert sol.latency * target * demands.total() == pytest.approx(cold, abs=1e-7)
            checked += 1
        assert checked > 400

    def test_target_above_the_maximum_is_infeasible(self, net_c, demand_c):
        thr = solve_throughput(net_c, demand_c)
        tableau, _ = pin_throughput_tableau(net_c, demand_c, 1.01 * thr.lambda_star)
        assert tableau is None
        inflated = dataclasses.replace(thr, lambda_star=2.0 * thr.lambda_star)
        with pytest.raises(InfeasibleSystem):
            solve_latency_linear(net_c, demand_c, LatencyConfig(LatencyKind.LINEAR, 0.9),
                                 inflated)

    def test_robustify_latency_needs_the_full_demand(self, net_b, demand_ab):
        # the maximal throughput is 0.75, so the full demand cannot be routed
        with pytest.raises(ScenarioInfeasible) as info:
            robustify_latency_linear(net_b, demand_ab, 0, 1.0)
        assert info.value.scenarios == [()]


def test_latency_flows_carry_no_float_noise():
    # the linear optimum of this instance carried flows of -1.7e-15
    net, demands = ring_chords_instance(8, 1)
    lat = solve_latency_linear(net, demands, LatencyConfig(LatencyKind.LINEAR, 0.5),
                               solve_throughput(net, demands))
    assert lat.flows.min() >= 0.0
    eval_latency(lat.flows.sum(axis=1), net, LatencyConfig(LatencyKind.LOG, 0.5))


class TestEvalLatency:
    def one_edge_net(self):
        return Network(2, [(0, 1, 2.0, 1.0)])

    def test_zero_flow_all_kinds(self):
        net = self.one_edge_net()
        f = np.zeros(1)
        assert eval_latency(f, net, LatencyConfig(LatencyKind.LINEAR)) == 0.0
        assert eval_latency(f, net, LatencyConfig(LatencyKind.INVERSE, alpha_c=1.0)) == 0.0
        assert eval_latency(f, net, LatencyConfig(LatencyKind.LOG)) == pytest.approx(1.0)

    def test_inverse_half_load(self):
        net = self.one_edge_net()
        cfg = LatencyConfig(LatencyKind.INVERSE, alpha_c=1.0)
        assert eval_latency(np.array([1.0]), net, cfg) == pytest.approx(2.0)

    def test_inverse_applies_alpha_c(self):
        net = self.one_edge_net()
        cfg = LatencyConfig(LatencyKind.INVERSE, alpha_c=1e-6)
        assert eval_latency(np.array([1.0]), net, cfg) == pytest.approx(2e-6)

    def test_log_half_load(self):
        net = self.one_edge_net()
        cfg = LatencyConfig(LatencyKind.LOG)
        expected = 1.0 - math.log(0.5)
        assert eval_latency(np.array([1.0]), net, cfg) == pytest.approx(expected)

    def test_saturated_edge_raises(self):
        net = self.one_edge_net()
        for kind in (LatencyKind.INVERSE, LatencyKind.LOG):
            with pytest.raises(SaturatedEdge):
                eval_latency(np.array([2.0]), net, LatencyConfig(kind))

    def test_linear_allows_saturation(self):
        net = self.one_edge_net()
        assert eval_latency(np.array([2.0]), net,
                            LatencyConfig(LatencyKind.LINEAR)) == pytest.approx(2.0)

    def test_monotone_in_flow(self):
        net = self.one_edge_net()
        grid = np.linspace(0.0, 1.9, 20)
        for kind, alpha in ((LatencyKind.LINEAR, 1.0), (LatencyKind.INVERSE, 1.0),
                            (LatencyKind.LOG, 1.0)):
            cfg = LatencyConfig(kind, alpha_c=alpha)
            values = [eval_latency(np.array([f]), net, cfg) for f in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_negative_flow(self):
        net = self.one_edge_net()
        for kind in LatencyKind:
            with pytest.raises(ValueError, match="non-negative"):
                eval_latency(np.array([-1e-3]), net, LatencyConfig(kind))

    def test_inverse_blows_up_near_capacity(self):
        net = self.one_edge_net()
        cfg = LatencyConfig(LatencyKind.INVERSE, alpha_c=1.0)
        assert eval_latency(np.array([2.0 - 1e-9]), net, cfg) > 1e8


class TestLatencyConfig:
    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            LatencyConfig(beta=0.0)
        with pytest.raises(ValueError):
            LatencyConfig(beta=1.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            LatencyConfig(alpha_c=0.0)


def test_warm_throughput_matches_cold_on_random_corpus():
    for net, demands in random_corpus(seed=53, count=6):
        warm = solve_throughput(net, demands).lambda_star
        assert warm == pytest.approx(cold_throughput(net, demands), abs=1e-9)
