import math
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from robustflow import (
    DemandMatrix,
    LatencyConfig,
    LatencyKind,
    Network,
    robust_latency_linear,
    robust_throughput,
    solve_latency_linear,
    solve_throughput,
    worst_scenario_subgradient,
)
from robustflow import cli, parse_sndlib_native, robust, serialize_report, simplex
from robustflow import robustify as robustify_module
from robustflow.errors import ScenarioInfeasible, ScenarioLimitExceeded, SolverError
from robustflow.robust import _TreeAccumulator, bench_robust_throughput

from conftest import cold_throughput, random_corpus, ring_chords_instance

RING6 = Path(__file__).parent / "data" / "ring6.txt"


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

    def test_equals_the_per_edge_sensitivities_bit_for_bit(self):
        # ring6 and the ring-plus-chords instances, over single edges and pairs
        signed_zeros = 0
        for (_, net, demands, pairs), kind in product(GROUP_CASES, ["throughput", "latency"]):
            for q, groups in ((1, None), (2, None), (1, pairs)):
                if kind == "throughput":
                    report = robust_throughput(net, demands, q, groups=groups)
                else:
                    try:
                        report = robust_latency_linear(net, demands, q,
                                                       LatencyConfig(beta=0.3), groups=groups)
                    except ScenarioInfeasible:
                        continue
                context = report.context
                assert context.deleted
                want = np.zeros(net.n_edges)
                for e in range(net.n_edges):
                    if e not in context.deleted:
                        want[e] = simplex.rhs_sensitivity(context.worst_tableau, e) / context.scale
                got = worst_scenario_subgradient(context, context.capacities)
                assert got.tobytes() == want.tobytes()
                signed_zeros += int(np.signbit(got[got == 0.0]).sum())
        assert signed_zeros > 0


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

    def test_recorded_values_snap_noise_to_zero(self):
        acc = _TreeAccumulator("min", keep_values=True)
        for scenario, value in [((0,), -8.881784197e-16), ((1,), 1e-9), ((2,), -0.0),
                                ((3,), 2e-9), ((4,), -2e-9)]:
            acc.record(scenario, value, None, 0)
        assert acc.values == {(0,): 0.0, (1,): 0.0, (2,): 0.0, (3,): 2e-9, (4,): -2e-9}
        for scenario in ((0,), (1,), (2,)):
            assert math.copysign(1.0, acc.values[scenario]) == 1.0
        assert acc.best[1:3] == (-2e-9, (4,))
        acc.record((5,), -5e-10, None, 0)
        assert acc.best[1:3] == (-2e-9, (4,))

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


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of every thread pool started, in order."""
    import concurrent.futures

    starts = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return starts


def _group_instances():
    """(name, network, demands, link pairs): ring6 and three ring-plus-chords
    instances, whose edges 2i and 2i+1 are the two directions of link i."""
    doc = parse_sndlib_native(RING6.read_text(), name="ring6")
    cases = [("ring6", doc.network, doc.demands, doc.link_pairs)]
    for seed in (1, 2, 3):
        net, demands = ring_chords_instance(8, seed)
        pairs = tuple((2 * i, 2 * i + 1) for i in range(net.n_edges // 2))
        cases.append((f"ring8-s{seed}", net, demands, pairs))
    return cases


GROUP_CASES = _group_instances()
# pivots_total of the singleton tree at q = 1 and q = 2
SINGLETON_PIVOTS = {"ring6": (52, 246), "ring8-s1": (108, 707),
                    "ring8-s2": (79, 468), "ring8-s3": (149, 808)}


class TestFailureGroups:
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("case", GROUP_CASES, ids=lambda c: c[0])
    def test_paired_values_match_cold_solves(self, case, q):
        _, net, demands, pairs = case
        report = robust_throughput(net, demands, q, groups=pairs)
        assert report.scenarios_evaluated == math.comb(len(pairs), q)
        cold = {}
        for chosen in combinations(pairs, q):
            scenario = tuple(sorted(sum(chosen, ())))
            caps = net.capacities
            caps[list(scenario)] = 0.0
            cold[scenario] = cold_throughput(net, demands, caps)
        assert set(report.per_scenario_values) == set(cold)
        for scenario, value in report.per_scenario_values.items():
            assert value == pytest.approx(cold[scenario], abs=1e-9)
        assert report.worst_value == pytest.approx(min(cold.values()), abs=1e-9)
        assert cold[report.worst_scenario] == pytest.approx(min(cold.values()), abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("case", GROUP_CASES, ids=lambda c: c[0])
    def test_workers_print_identical_output(self, case, q, pool_starts):
        _, net, demands, pairs = case
        for groups in (None, pairs):
            seq = robust_throughput(net, demands, q, groups=groups, workers=1)
            assert not pool_starts
            par = robust_throughput(net, demands, q, groups=groups, workers=2)
            # the first-level nodes and the leaves share one pool
            assert pool_starts.pop() == 2 and not pool_starts
            assert serialize_report(seq) == serialize_report(par)
            assert serialize_report(seq, "csv") == serialize_report(par, "csv")

    @pytest.mark.parametrize("case", GROUP_CASES, ids=lambda c: c[0])
    def test_singleton_groups_keep_pivot_totals(self, case):
        name, net, demands, _ = case
        singletons = [(e,) for e in range(net.n_edges)]
        for q, expected in zip((1, 2), SINGLETON_PIVOTS[name]):
            assert robust_throughput(net, demands, q).pivots_total == expected
            assert robust_throughput(net, demands, q,
                                     groups=singletons).pivots_total == expected

    def test_paired_q1_matches_per_scenario_solves(self):
        # a q=1 node tightens both directions from the nominal optimum, as
        # the former paired enumerator did
        _, net, demands, pairs = GROUP_CASES[0]
        assert robust_throughput(net, demands, 1, groups=pairs).pivots_total == 46

    def test_gate_counts_groups(self):
        _, net, demands, pairs = GROUP_CASES[0]
        with pytest.raises(ScenarioLimitExceeded):
            robust_throughput(net, demands, 2, groups=pairs, max_scenarios=44)
        report = robust_throughput(net, demands, 2, groups=pairs, max_scenarios=45)
        assert report.scenarios_evaluated == 45
        with pytest.raises(ValueError):
            robust_throughput(net, demands, 11, groups=pairs)

    def test_infeasible_completions_span_groups(self):
        # three parallel links of two edges each; losing any link leaves too
        # little capacity for the pinned latency load
        net = Network(2, [(0, 1, 1.0, 1.0)] * 6)
        demands = DemandMatrix([[0.0, 1.0], [0.0, 0.0]])
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=1.0)
        pairs = ((0, 1), (2, 3), (4, 5))
        with pytest.raises(ScenarioInfeasible) as info:
            robust_latency_linear(net, demands, 2, cfg, groups=pairs)
        assert info.value.scenarios == [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)]

    def test_bench_runs_over_the_recorded_scenarios(self):
        _, net, demands, pairs = GROUP_CASES[0]
        rows, totals = bench_robust_throughput(net, demands, 2, groups=pairs)
        report = robust_throughput(net, demands, 2, groups=pairs)
        assert [r["scenario_edges"] for r in rows] == sorted(report.per_scenario_values)
        assert totals["warm_pivots"] == report.pivots_total - solve_throughput(
            net, demands).pivot_count


# q=2 pivots_total when every first-level parent is re-solved before its leaves
RESOLVED_Q2_PIVOTS = {"ring6": 281, "ring6-paired": 194, "ring8-s1": 788,
                      "ring8-s2": 523, "ring8-s3": 933}
# q=3 pivots_total of ring_chords_instance(8, seed): (held, re-solved parents)
Q3_PIVOTS = {1: (4346, 5303), 2: (2549, 3185)}


def _q2_cases():
    """(name, network, demands, groups) of the pinned q=2 trees."""
    ring6 = GROUP_CASES[0]
    cases = [(name, net, demands, None) for name, net, demands, _ in GROUP_CASES]
    return cases + [("ring6-paired", ring6[1], ring6[2], ring6[3])]


def _assert_resolved_parents_match_held(net, demands, q, groups, monkeypatch):
    """(held, re-solved): the reports with every parent held and with none;
    each leaf has the same value and pivots in both."""
    held = robust_throughput(net, demands, q, groups=groups)
    # no room for the parents: each is re-solved from the root before its leaves
    monkeypatch.setattr(robust, "MAX_WARM_BYTES", 0)
    resolved = robust_throughput(net, demands, q, groups=groups)
    assert resolved.per_scenario_values == held.per_scenario_values
    assert resolved.per_scenario_pivots == held.per_scenario_pivots
    assert (resolved.worst_value, resolved.worst_scenario) == (held.worst_value,
                                                               held.worst_scenario)
    assert resolved.pivots_total > held.pivots_total
    return held, resolved


class TestParentChoice:
    @pytest.mark.parametrize("case", _q2_cases(), ids=lambda c: c[0])
    def test_q2_resolved_parents_match_the_held_parents(self, case, monkeypatch):
        name, net, demands, groups = case
        _, resolved = _assert_resolved_parents_match_held(net, demands, 2, groups,
                                                          monkeypatch)
        assert resolved.pivots_total == RESOLVED_Q2_PIVOTS[name]
        # every leaf from its lexicographic parent: all scores tie
        monkeypatch.setattr(robust._Parents, "score", lambda self, picked, tableau:
                            self.scores.update({picked: np.zeros(self.drops.shape[1])}))
        lexicographic = robust_throughput(net, demands, 2, groups=groups)
        assert resolved.pivots_total < lexicographic.pivots_total

    @pytest.mark.parametrize("seed", [1, 2])
    def test_q3_resolved_parents_match_the_held_parents(self, seed, monkeypatch):
        net, demands = ring_chords_instance(8, seed)
        held, resolved = _assert_resolved_parents_match_held(net, demands, 3, None,
                                                             monkeypatch)
        assert (held.pivots_total, resolved.pivots_total) == Q3_PIVOTS[seed]

    @pytest.mark.parametrize("q", [2, 3])
    def test_workers_print_identical_output_without_room(self, q, monkeypatch):
        _, net, demands, pairs = GROUP_CASES[1]
        monkeypatch.setattr(robust, "MAX_WARM_BYTES", 0)
        for groups in (None, pairs):
            seq = robust_throughput(net, demands, q, groups=groups, workers=1)
            par = robust_throughput(net, demands, q, groups=groups, workers=2)
            assert seq.per_scenario_pivots == par.per_scenario_pivots
            assert serialize_report(seq) == serialize_report(par)
            assert serialize_report(seq, "csv") == serialize_report(par, "csv")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("room", [True, False], ids=["chosen", "lexicographic"])
    def test_infeasible_leaves_match_the_lexicographic_walk(self, workers, room,
                                                             monkeypatch):
        # losing edge 2 alone, or edge 2 with any other, leaves too little
        # capacity for the pinned load of 4.2; (0, 2) and (1, 2) have a
        # feasible lexicographic parent and an infeasible other parent
        net = Network(2, [(0, 1, c, 1.0) for c in (1.0, 1.0, 3.0, 1.0, 1.0)])
        demands = DemandMatrix([[0.0, 1.0], [0.0, 0.0]])
        cfg = LatencyConfig(LatencyKind.LINEAR, beta=0.6)
        if not room:
            monkeypatch.setattr(robust, "MAX_WARM_BYTES", 0)
        with pytest.raises(ScenarioInfeasible) as info:
            robust_latency_linear(net, demands, 2, cfg, workers=workers)
        assert info.value.scenarios == [(0, 2), (1, 2), (2, 3), (2, 4)]


def _capacity_path(net, seed, steps=6):
    """Capacity vectors at or above the base capacities, stepping up and
    down and ending back at the base."""
    rng = np.random.default_rng(seed)
    x = np.zeros(net.n_edges)
    path = []
    for k in range(steps - 1):
        step = rng.uniform(0.0, 0.3, size=net.n_edges) * net.capacities
        step[rng.random(net.n_edges) < 0.5] = 0.0
        x = x + step if k % 2 == 0 else np.maximum(x - 2 * step, 0.0)
        path.append(net.capacities + x)
    return path + [net.capacities]


def _evaluator(kind, net, demands, q, groups):
    """evaluate(caps, warm=None, workers=1, keep=True): the report of one
    objective, throughput or latency with the throughput pinned at a fixed
    target, with per-scenario values when ``keep``."""
    if kind == "throughput":
        def evaluate(caps, warm=None, workers=1, keep=True):
            return robust_throughput(net, demands, q, b_override=caps, groups=groups,
                                     warm=warm, workers=workers, keep_per_scenario=keep)
        return evaluate
    target = 0.1 * solve_throughput(net, demands).lambda_star

    def evaluate(caps, warm=None, workers=1, keep=True):
        return robust._robust_latency(net, demands, q, target, 1.0, b_override=caps,
                                      groups=groups, warm=warm, workers=workers,
                                      keep_per_scenario=keep)
    return evaluate


def _walk_warm(case, q, paired, kind, workers=1, cold=True):
    """(warm outcomes, cold outcomes, warm start) along a capacity path; an
    outcome is a report, or the scenarios of a ScenarioInfeasible."""
    _, net, demands, pairs = case
    evaluate = _evaluator(kind, net, demands, q, pairs if paired else None)

    def outcome(*args):
        try:
            return evaluate(*args)
        except ScenarioInfeasible as err:
            return err.scenarios

    warm = robust.WarmStart()
    got, want = [], []
    for caps in _capacity_path(net, seed=q + 2 * paired):
        got.append(outcome(caps, warm, workers))
        if cold:
            want.append(outcome(caps))
    return got, want, warm


def _keep_first_level(monkeypatch, net, demands):
    """Make ``MAX_WARM_BYTES`` room for the first-level nodes of a q=2 tree
    over single edges or link pairs, and not for its leaves."""
    root = solve_throughput(net, demands).tableau
    size = root.body.nbytes + root.rhs.nbytes + root.cost_row.nbytes
    monkeypatch.setattr(robust, "MAX_WARM_BYTES", 2 * net.n_edges * size)


def _record_dual_solves(monkeypatch):
    """The ids of the tableaux that ``robust.dual_simplex`` solves, in order."""
    solved = []
    original = robust.dual_simplex

    def recorded(tableau, *args, **kwargs):
        solved.append(id(tableau))
        return original(tableau, *args, **kwargs)

    monkeypatch.setattr(robust, "dual_simplex", recorded)
    return solved


def _kept_leaves(warm):
    """The scenario of each tableau a warm start keeps, by the tableau's id."""
    groups = warm.tree[1]
    return {id(tableau): tuple(sorted(e for g in picked for e in groups[g]))
            for picked, tableau in warm.nodes.items()}


def _assert_same(got, want):
    if isinstance(want, list):
        assert got == want
        return
    assert got.scenarios_evaluated == want.scenarios_evaluated
    assert got.worst_value == pytest.approx(want.worst_value, abs=1e-9)
    assert got.worst_scenario == want.worst_scenario
    assert set(got.per_scenario_values) == set(want.per_scenario_values)
    for scenario, value in want.per_scenario_values.items():
        assert got.per_scenario_values[scenario] == pytest.approx(value, abs=1e-9)


def _cold_cases():
    """(name, network, demands, groups): the group cases over single edges
    and link pairs, and random corpus networks over single edges."""
    cases = [(f"{name}-{mode}", net, demands, groups)
             for name, net, demands, pairs in GROUP_CASES
             for mode, groups in (("single", None), ("paired", pairs))]
    return cases + [(f"random{k}", net, demands, None)
                    for k, (net, demands) in enumerate(random_corpus(seed=5, count=8))]


COLD_CASES = _cold_cases()
# (case, kind) where no leaf can be skipped: in ring8-s1 every solved
# leaf's flows load every other link, and in random5 the leaves that the
# root leaves unloaded tie the worst delay
NO_SKIP = {("ring8-s1-paired", "throughput"), ("random5", "latency")}


class TestColdWitnesses:
    """At q = 1 with no per-scenario values, the first evaluation solves the
    leaves in bound order, and a solved node's flows bound every leaf whose
    group they leave unloaded."""

    @pytest.mark.parametrize("kind", ["throughput", "latency"])
    @pytest.mark.parametrize("case", COLD_CASES, ids=lambda c: c[0])
    def test_skips_only_leaves_that_cannot_be_the_worst(self, case, kind, monkeypatch):
        _, net, demands, groups = case
        evaluate = _evaluator(kind, net, demands, 1, groups)
        caps = net.capacities
        try:
            want = evaluate(caps)
        except ScenarioInfeasible as err:
            with pytest.raises(ScenarioInfeasible) as info:
                evaluate(caps, robust.WarmStart(), keep=False)
            assert info.value.scenarios == err.scenarios
            return
        solved = _record_dual_solves(monkeypatch)
        warm = robust.WarmStart()
        got = evaluate(caps, warm, keep=False)
        assert got.worst_value == pytest.approx(want.worst_value, abs=1e-9)
        assert got.worst_scenario == want.worst_scenario
        assert got.scenarios_evaluated == want.scenarios_evaluated
        assert (worst_scenario_subgradient(got.context, caps).tobytes()
                == worst_scenario_subgradient(want.context, caps).tobytes())
        # the solved leaves keep their tableaux, the others a witness record
        assert sorted(map(id, warm.nodes.values())) == sorted(solved)
        assert sorted(warm.nodes.keys() | warm.records.keys()) == [
            (g,) for g in range(len(warm.tree[1]))]
        sense = "min" if kind == "throughput" else "max"
        worst = robust.scenario_key(got.worst_value, got.worst_scenario, sense)
        for picked, (_, loads, witness) in warm.records.items():
            scenario = tuple(sorted(warm.tree[1][picked[0]]))
            value = want.per_scenario_values[scenario]
            assert robust.scenario_key(value, scenario, sense) > worst
            # the witness, the root or a solved leaf, leaves the group unloaded
            assert witness == () or witness in warm.nodes
            assert (loads[list(scenario)] <= 0).all()
        # every leaf either is solved, or ties the worst on a bound from
        # the root, in these two cases
        assert warm.records or (case[0], kind) in NO_SKIP

    def test_a_recorded_leaf_is_rebuilt_from_the_kept_root(self, monkeypatch):
        solved = _record_dual_solves(monkeypatch)
        rebuilt = 0
        for (_, net, demands, pairs), paired, seed in product(GROUP_CASES, (False, True),
                                                              (3, 4)):
            groups = pairs if paired else None
            warm = robust.WarmStart()
            for caps in _capacity_path(net, seed=seed):
                recorded, root = set(warm.records), warm.root
                before = None if root is None else root[0].tab.copy()
                solved.clear()
                got = robust_throughput(net, demands, 1, b_override=caps, groups=groups,
                                        warm=warm, keep_per_scenario=False)
                want = robust_throughput(net, demands, 1, b_override=caps, groups=groups)
                assert got.worst_value == pytest.approx(want.worst_value, abs=1e-9)
                assert got.worst_scenario == want.worst_scenario
                for picked in recorded & warm.nodes.keys():
                    # solved on a copy of the root, which stays as it was
                    rebuilt += 1
                    assert id(warm.nodes[picked]) in solved
                    scenario = tuple(sorted(e for g in picked for e in warm.tree[1][g]))
                    assert -warm.nodes[picked].objective == pytest.approx(
                        want.per_scenario_values[scenario], abs=1e-9)
                if root is not None:
                    assert warm.root is root
                    np.testing.assert_array_equal(root[0].tab, before)
        assert rebuilt > 0


class TestWarmStart:
    @pytest.mark.parametrize("kind", ["throughput", "latency"])
    @pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("case", GROUP_CASES, ids=lambda c: c[0])
    def test_warm_matches_cold_along_a_capacity_path(self, case, q, paired, kind):
        got, want, warm = _walk_warm(case, q, paired, kind)
        for g, w in zip(got, want):
            _assert_same(g, w)
        if isinstance(want[0], list):
            return  # the scenarios that cannot carry the load, at every capacity
        assert warm.below == 0  # every leaf fits the memory constant
        # later evaluations skip the nominal solve and re-solve each leaf
        assert got[0].pivots_total == want[0].pivots_total
        assert sum(g.pivots_total for g in got[1:]) < sum(w.pivots_total for w in want[1:])

    @pytest.mark.parametrize("kind", ["throughput", "latency"])
    @pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("case", GROUP_CASES, ids=lambda c: c[0])
    def test_bounds_skip_only_leaves_that_cannot_be_the_worst(self, case, q, paired, kind,
                                                              monkeypatch):
        _, net, demands, pairs = case
        evaluate = _evaluator(kind, net, demands, q, pairs if paired else None)
        sense = "min" if kind == "throughput" else "max"
        solved = _record_dual_solves(monkeypatch)
        warm = robust.WarmStart()
        skipped, feasible = 0, 0
        for caps in _capacity_path(net, seed=q + 2 * paired):
            kept = {} if warm.caps is None else _kept_leaves(warm)
            solved.clear()
            try:
                got = evaluate(caps, warm, keep=False)
            except ScenarioInfeasible as err:
                got = err.scenarios
            resolved = set(solved)
            try:
                want = evaluate(caps)
            except ScenarioInfeasible as err:
                assert got == err.scenarios
                continue
            feasible += 1
            assert got.scenarios_evaluated == want.scenarios_evaluated
            assert got.worst_value == pytest.approx(want.worst_value, abs=1e-9)
            assert got.worst_scenario == want.worst_scenario
            worst = robust.scenario_key(got.worst_value, got.worst_scenario, sense)
            for tableau_id, scenario in kept.items():
                if tableau_id not in resolved:
                    skipped += 1
                    value = want.per_scenario_values[scenario]
                    assert robust.scenario_key(value, scenario, sense) > worst
        # unless some scenario cannot carry the load at any capacity
        assert skipped > 0 or not feasible

    def test_a_leaf_is_skipped_on_its_scaled_flows(self, monkeypatch):
        # one demand over three parallel edges; deleting edge 0 leaves flows
        # of 10 and 12 on edges 1 and 2, which no longer fit once edge 2
        # drops to 10: scaled by 10/12 they still carry 18.3, above the
        # worst case 11, though the leaf's value falls from 22 to 20
        net = Network(2, [(0, 1, c, 1.0) for c in (1.0, 10.0, 12.0)])
        demands = DemandMatrix([[0.0, 1.0], [0.0, 0.0]])
        solved = _record_dual_solves(monkeypatch)
        warm = robust.WarmStart()
        path = [np.array(caps) for caps in ((1.0, 10.0, 12.0), (1.0, 10.0, 10.0),
                                            (1.0, 1.0, 1.0))]
        reports = []
        for caps in path:
            leaf = warm.nodes.get((0,))
            solved.clear()
            reports.append(robust_throughput(net, demands, 1, b_override=caps, warm=warm,
                                             keep_per_scenario=False))
            want = robust_throughput(net, demands, 1, b_override=caps)
            assert (reports[-1].worst_value, reports[-1].worst_scenario) == (
                want.worst_value, want.worst_scenario)
            if leaf is not None:
                assert (id(leaf) in solved) == (caps is path[2])
            if caps is path[1]:
                # the skipped leaf stays optimal at the first capacities
                assert [id(warm.caps[(g,)]) for g in range(3)] == [
                    id(path[0]), id(path[1]), id(path[1])]
        assert [(r.worst_value, r.worst_scenario) for r in reports] == [
            (11.0, (2,)), (11.0, (1,)), (2.0, (0,))]
        assert [r.scenarios_evaluated for r in reports] == [3, 3, 3]
        # the third evaluation shifts the skipped leaf by its own change
        # since the first, and every kept leaf is now optimal at the last caps
        assert all(caps is path[2] for caps in warm.caps.values())

    def test_a_latency_leaf_whose_flows_no_longer_fit_is_resolved(self):
        # 8 units over edges of delay 1, 5 and 10: once edge 0 drops to
        # capacity 2, the leaves that routed all 8 on it have no bound, and
        # deleting edge 1 becomes the worst case at 2 * 1 + 6 * 10
        net = Network(2, [(0, 1, 10.0, delay) for delay in (1.0, 5.0, 10.0)])
        demands = DemandMatrix([[0.0, 1.0], [0.0, 0.0]])
        warm = robust.WarmStart()
        worst = []
        for caps in (np.array([10.0, 10.0, 10.0]), np.array([2.0, 10.0, 10.0])):
            report = robust._robust_latency(net, demands, 1, 8.0, 1.0, b_override=caps,
                                            warm=warm, keep_per_scenario=False)
            worst.append((pytest.approx(report.worst_value), report.worst_scenario))
        assert worst == [(40.0, (0,)), (62.0, (1,))]

    @pytest.mark.parametrize("extra", [[], ["--paired-failure"],
                                       ["--method", "subgradient", "--max-iters", "4"]])
    @pytest.mark.parametrize("command", ["robustify-throughput", "robustify-latency"])
    def test_robustify_workers_print_identical_output(self, command, extra, capsys,
                                                      pool_starts):
        argv = [command, "--network", str(RING6), "--q", "1", "--budget", "10", *extra]
        assert cli.main(argv) == 0
        seq = capsys.readouterr().out
        assert not pool_starts
        assert cli.main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == seq
        # at q = 1 every evaluation visits the leaves serially in bound order
        assert pool_starts == []

    @pytest.mark.parametrize("kind", ["throughput", "latency"])
    @pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
    @pytest.mark.parametrize("q, level", [(1, 0), (2, 0), (2, 1)])
    @pytest.mark.parametrize("case", GROUP_CASES[:2], ids=lambda c: c[0])
    def test_memory_constant_picks_the_kept_level(self, case, q, level, paired, kind,
                                                  monkeypatch):
        _, net, demands, pairs = case
        n_groups = len(pairs) if paired else net.n_edges
        root = solve_throughput(net, demands).tableau
        size = root.body.nbytes + root.rhs.nbytes + root.cost_row.nbytes
        # level 1 fits, level 2 does not (the latency tableau has two more rows)
        monkeypatch.setattr(robust, "MAX_WARM_BYTES", 0 if level == 0 else 2 * n_groups * size)
        got, want, warm = _walk_warm(case, q, paired, kind)
        assert not isinstance(want[0], list)
        assert warm.below == q - level
        # every first-level node is a parent that the q=2 leaves choose from
        assert len(warm.nodes) == (1 if level == 0 else n_groups)
        for g, w in zip(got, want):
            _assert_same(g, w)

    @pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_q3_resolves_parents_from_the_kept_nodes(self, level, paired, monkeypatch):
        # the second-level parents never fit: each evaluation re-solves them
        # from the kept root or first-level nodes
        case = GROUP_CASES[0]
        if level:
            _keep_first_level(monkeypatch, case[1], case[2])
        else:
            monkeypatch.setattr(robust, "MAX_WARM_BYTES", 0)
        got, want, warm = _walk_warm(case, 3, paired, "throughput")
        assert warm.below == 3 - level
        # every first-level node that a second group can follow
        n_groups = len(case[3]) if paired else case[1].n_edges
        assert len(warm.nodes) == (1 if level == 0 else n_groups - 1)
        for g, w in zip(got, want):
            _assert_same(g, w)

    @pytest.mark.parametrize("method", ["cutting-plane", "subgradient"])
    @pytest.mark.parametrize("case", GROUP_CASES[:2], ids=lambda c: c[0])
    def test_robustify_with_level_one_kept_matches_cold(self, case, method, monkeypatch):
        _, net, demands, _ = case
        _keep_first_level(monkeypatch, net, demands)
        original = robustify_module.robust_throughput
        kept = []

        def checked(*args, warm=None, **kwargs):
            got = original(*args, warm=warm, **kwargs)
            want = original(*args, **kwargs)
            kept.append((warm.below, len(warm.nodes)))
            assert got.scenarios_evaluated == want.scenarios_evaluated
            assert got.worst_value == pytest.approx(want.worst_value, abs=1e-9)
            assert got.worst_scenario == want.worst_scenario
            return got

        monkeypatch.setattr(robustify_module, "robust_throughput", checked)
        if method == "cutting-plane":
            robustify_module.robustify_throughput_cutting_plane(net, demands, 2, 40.0,
                                                                max_iters=4)
        else:
            robustify_module.robustify_throughput_subgradient(net, demands, 2, 40.0, steps=4)
        assert len(kept) >= 3
        assert set(kept) == {(1, net.n_edges)}

    @pytest.mark.parametrize("kind", ["throughput", "latency"])
    @pytest.mark.parametrize("q, level", [pytest.param(1, 1, id="1"), pytest.param(2, 2, id="2"),
                                          pytest.param(2, 1, id="2-level1")])
    @pytest.mark.parametrize("case", GROUP_CASES, ids=lambda c: c[0])
    def test_workers_print_identical_output(self, case, q, level, kind, pool_starts,
                                            monkeypatch):
        if level < q:
            # every evaluation builds the leaves from the kept first level
            _keep_first_level(monkeypatch, case[1], case[2])
        for paired in (False, True):
            seq, _, _ = _walk_warm(case, q, paired, kind, workers=1, cold=False)
            par, _, warm = _walk_warm(case, q, paired, kind, workers=2, cold=False)
            assert warm.below == q - level
            # one pool per evaluation, whatever its phases
            assert pool_starts == [2] * len(par)
            pool_starts.clear()
            for a, b in zip(seq, par):
                if isinstance(a, list):
                    assert a == b
                    continue
                assert serialize_report(a) == serialize_report(b)
                assert serialize_report(a, "csv") == serialize_report(b, "csv")

    def test_threads_keep_every_node(self):
        # the threads of one evaluation pop and store kept nodes in shared dicts
        _, net, demands, _ = GROUP_CASES[1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            warm, seq = robust.WarmStart(), robust.WarmStart()
            for caps in _capacity_path(net, seed=5, steps=4):
                got = robust_throughput(net, demands, 1, b_override=caps, warm=warm, workers=4)
                want = robust_throughput(net, demands, 1, b_override=caps, warm=seq)
                assert sorted(warm.nodes) == sorted(seq.nodes)
                assert len(warm.nodes) == net.n_edges
                assert serialize_report(got) == serialize_report(want)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_hold_every_parent(self, monkeypatch):
        # the threads of one evaluation store the held parents (here also the
        # kept nodes) in shared dicts, then build the leaves from them
        _, net, demands, _ = GROUP_CASES[1]
        _keep_first_level(monkeypatch, net, demands)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            warm, seq = robust.WarmStart(), robust.WarmStart()
            for caps in _capacity_path(net, seed=6, steps=3):
                got = robust_throughput(net, demands, 2, b_override=caps, warm=warm, workers=4)
                want = robust_throughput(net, demands, 2, b_override=caps, warm=seq)
                assert sorted(warm.nodes) == sorted(seq.nodes)
                assert len(warm.nodes) == net.n_edges
                assert serialize_report(got) == serialize_report(want)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_resolve_every_parent(self, monkeypatch):
        # no second-level parent is held: the threads of one evaluation
        # re-solve them from the shared kept first-level nodes
        _, net, demands, pairs = GROUP_CASES[0]
        _keep_first_level(monkeypatch, net, demands)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            warm, seq = robust.WarmStart(), robust.WarmStart()
            for caps in _capacity_path(net, seed=7, steps=3):
                got = robust_throughput(net, demands, 3, b_override=caps, groups=pairs,
                                        warm=warm, workers=4)
                want = robust_throughput(net, demands, 3, b_override=caps, groups=pairs,
                                         warm=seq)
                assert warm.below == 2 and sorted(warm.nodes) == sorted(seq.nodes)
                assert got.per_scenario_pivots == want.per_scenario_pivots
                assert serialize_report(got) == serialize_report(want)
        finally:
            sys.setswitchinterval(interval)

    def test_kept_nodes_are_resolved_through_the_robust_module(self, monkeypatch):
        _, net, demands, _ = GROUP_CASES[1]
        warm = robust.WarmStart()
        robust_throughput(net, demands, 1, warm=warm)
        calls = []
        original = robust.dual_simplex

        def counted(tableau, *args, **kwargs):
            calls.append(tableau)
            return original(tableau, *args, **kwargs)

        monkeypatch.setattr(robust, "dual_simplex", counted)
        kept = list(warm.nodes.values())
        robust_throughput(net, demands, 1, b_override=net.capacities + 1.0, warm=warm)
        assert len(calls) == len(kept) == net.n_edges
        assert all(a is b for a, b in zip(calls, kept))

    def test_reports_are_not_changed_by_later_evaluations(self):
        _, net, demands, _ = GROUP_CASES[1]
        warm = robust.WarmStart()
        first = robust_throughput(net, demands, 1, warm=warm)
        kept = {id(tableau) for tableau in warm.nodes.values()}
        assert id(first.context.worst_tableau) not in kept
        before = first.context.worst_tableau.copy()
        robust_throughput(net, demands, 1, b_override=net.capacities + 5.0, warm=warm)
        after = first.context.worst_tableau
        np.testing.assert_array_equal(after.rhs, before.rhs)
        np.testing.assert_array_equal(after.basic_vars, before.basic_vars)
        assert after.cost_corner == before.cost_corner

    def test_rejects_another_tree(self):
        _, net, demands, pairs = GROUP_CASES[0]
        warm = robust.WarmStart()
        robust_throughput(net, demands, 1, warm=warm)
        for q, groups in ((2, None), (1, pairs)):
            with pytest.raises(ValueError):
                robust_throughput(net, demands, q, groups=groups, warm=warm)

    def test_failed_evaluation_restarts_cold(self, net_c, demand_c, monkeypatch):
        warm = robust.WarmStart()
        robust_throughput(net_c, demand_c, 1, warm=warm)

        def failing(tableau, max_pivots=None):
            raise SolverError("pivot cap")

        caps = net_c.capacities + np.arange(net_c.n_edges)
        with monkeypatch.context() as patch:
            patch.setattr(robust, "dual_simplex", failing)
            with pytest.raises(SolverError):
                robust_throughput(net_c, demand_c, 1, b_override=caps, warm=warm)
        assert warm.caps is None
        _assert_same(robust_throughput(net_c, demand_c, 1, b_override=caps, warm=warm),
                     robust_throughput(net_c, demand_c, 1, b_override=caps))
