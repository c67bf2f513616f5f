from pathlib import Path

import numpy as np
import pytest

from robustflow import (
    DemandMatrix,
    Network,
    SimplexTableau,
    Status,
    add_cut_row,
    dual_simplex,
    primal_simplex,
    rhs_sensitivity,
    shift_rhs,
    tighten_rhs,
)
from robustflow.errors import (
    DimensionMismatch,
    NotDualFeasible,
    NotPrimalFeasible,
    SingularBasis,
    UnknownConstraint,
)
from robustflow import parse_sndlib_native, robust_throughput, simplex, solve_throughput
from robustflow.flows import build_throughput_tableau

from conftest import (
    brute_force_lp,
    random_corpus,
    random_standard_form,
    ring_chords_instance,
)
from oracles import StandardFormLP, set_cost, solve_standard_form, tableau_from_basis


def single_row_tableau(coeff, rhs, cost, constraint_id=None):
    """One inequality coeff*x <= rhs with the slack basic: min cost*x."""
    slacks = {constraint_id: 1} if constraint_id is not None else None
    return SimplexTableau(
        basic_vars=[1], nonbasic_vars=[0], body=[[coeff]], rhs=[rhs],
        cost_row=[cost], constraint_slacks=slacks,
    )


class TestPrimalSimplex:
    def test_single_edge_throughput(self):
        # min -lam subject to 4*lam + slack = 3
        t = single_row_tableau(4.0, 3.0, -1.0)
        out = primal_simplex(t)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.75, abs=1e-12)
        assert out.pivot_count == 1

    def test_zero_cost_is_immediately_optimal(self):
        t = single_row_tableau(4.0, 3.0, 0.0)
        out = primal_simplex(t)
        assert out.status is Status.OPTIMAL
        assert out.objective == 0.0
        assert out.pivot_count == 0

    def test_unbounded_ray(self):
        # min -x subject to x - s = 0, i.e. x free to grow with s
        t = SimplexTableau([1], [0], [[-1.0]], [0.0], [-1.0])
        out = primal_simplex(t)
        assert out.status is Status.UNBOUNDED

    def test_rejects_primal_infeasible_start(self):
        t = SimplexTableau([1], [0], [[1.0]], [-1.0], [1.0])
        with pytest.raises(NotPrimalFeasible):
            primal_simplex(t)

    def test_optimal_tableau_is_primal_and_dual_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lp = random_standard_form(rng)
            out = solve_standard_form(lp)
            if out.status is Status.OPTIMAL:
                assert out.tableau.is_primal_feasible()
                assert out.tableau.is_dual_feasible()


class TestDualSimplex:
    def test_already_optimal_unchanged(self):
        t = single_row_tableau(4.0, 3.0, 1.0)
        out = dual_simplex(t)
        assert out.status is Status.OPTIMAL
        assert out.pivot_count == 0
        np.testing.assert_array_equal(out.tableau.rhs, t.rhs)
        np.testing.assert_array_equal(out.tableau.basic_vars, t.basic_vars)

    def test_rejects_dual_infeasible_start(self):
        t = single_row_tableau(4.0, 3.0, -1.0)
        with pytest.raises(NotDualFeasible):
            dual_simplex(t)

    def test_infeasible_certificate_row(self):
        # x + s = -1 with x, s >= 0 is infeasible
        t = SimplexTableau([1], [0], [[1.0]], [-1.0], [1.0])
        out = dual_simplex(t)
        assert out.status is Status.INFEASIBLE
        row = int(np.argmin(out.tableau.rhs))
        assert out.tableau.rhs[row] < 0
        assert (out.tableau.body[row] >= 0).all()


class TestTightenRhs:
    def net_b_optimal(self):
        net = Network(2, [(0, 1, 3.0, 2.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        tableau, _ = build_throughput_tableau(net, demands)
        return primal_simplex(tableau).tableau

    def test_delta_zero_is_identity(self):
        t = self.net_b_optimal()
        t2 = tighten_rhs(t, 0, 0.0)
        np.testing.assert_array_equal(t2.rhs, t.rhs)
        np.testing.assert_array_equal(t2.body, t.body)
        np.testing.assert_array_equal(t2.basic_vars, t.basic_vars)
        assert t2.cost_corner == t.cost_corner

    def test_net_b_cap_3_to_2(self):
        t = tighten_rhs(self.net_b_optimal(), 0, 1.0)
        out = dual_simplex(t)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.5, abs=1e-12)

    def test_net_b_cap_to_zero_forces_zero_throughput(self):
        t = tighten_rhs(self.net_b_optimal(), 0, 3.0)
        out = dual_simplex(t)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(0.0, abs=1e-12)

    def test_net_a_tighten_large_edge(self):
        net = Network(2, [(0, 1, 3.0, 0.0), (0, 1, 2.0, 0.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        tableau, _ = build_throughput_tableau(net, demands)
        opt = primal_simplex(tableau).tableau
        out = dual_simplex(tighten_rhs(opt, 0, 3.0))
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.5, abs=1e-12)

    def test_basic_slack_shrinks_without_pivots(self):
        # min x subject to x + s = 5: slack basic at 5, still optimal after -2
        t = SimplexTableau([1], [0], [[1.0]], [5.0], [1.0],
                           constraint_slacks={"cap": 1})
        t2 = tighten_rhs(t, "cap", 2.0)
        assert t2.is_primal_feasible() and t2.is_dual_feasible()
        assert t2.rhs[0] == pytest.approx(3.0)

    def test_unknown_constraint(self):
        t = self.net_b_optimal()
        with pytest.raises(UnknownConstraint):
            tighten_rhs(t, "nope", 1.0)
        with pytest.raises(ValueError):
            tighten_rhs(t, 0, -1.0)


class TestShiftRhs:
    """Signed shifts of capacity rows, checked against cold solves."""

    def optimal(self, n=8, seed=1):
        net, demands = ring_chords_instance(n, seed)
        tableau = solve_throughput(net, demands).tableau
        slack_basic = {e: tableau.basic_row_of(tableau.constraint_slacks[e]) is not None
                       for e in range(net.n_edges)}
        return net, demands, tableau, slack_basic

    def resolved(self, tableau, increase):
        shifted = tableau.copy()
        shift_rhs(shifted, increase)
        np.testing.assert_array_equal(shifted.basic_vars, tableau.basic_vars)
        np.testing.assert_array_equal(shifted.cost_row, tableau.cost_row)
        out = dual_simplex(shifted)
        assert out.status is Status.OPTIMAL
        return out.objective

    @pytest.mark.parametrize("basic", [True, False])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_slack_matches_cold(self, basic, sign):
        net, demands, tableau, slack_basic = self.optimal()
        edges = [e for e, b in slack_basic.items() if b is basic]
        assert edges
        for e in edges:
            caps = net.capacities
            d = sign * 0.5 * caps[e]
            caps[e] += d
            cold = solve_throughput(net, demands, caps).lambda_star
            assert -self.resolved(tableau, {e: d}) == pytest.approx(cold, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_many_slacks_both_signs_match_cold(self, seed):
        net, demands, tableau, slack_basic = self.optimal(seed=seed)
        rng = np.random.default_rng(seed)
        assert len(set(slack_basic.values())) == 2  # basic and non-basic slacks
        for _ in range(5):
            d = rng.uniform(-0.9, 2.0, size=net.n_edges) * net.capacities
            d[rng.random(net.n_edges) < 0.3] = 0.0
            caps = net.capacities + d
            cold = solve_throughput(net, demands, caps).lambda_star
            increase = {e: d[e] for e in np.flatnonzero(d).tolist()}
            assert -self.resolved(tableau, increase) == pytest.approx(cold, abs=1e-9)

    def test_zero_and_empty_shifts_change_nothing(self):
        _, _, tableau, _ = self.optimal()
        for increase in ({}, {0: 0.0, 1: 0.0}):
            shifted = tableau.copy()
            shift_rhs(shifted, increase)
            np.testing.assert_array_equal(shifted.rhs, tableau.rhs)
            assert shifted.cost_corner == tableau.cost_corner

    @pytest.mark.parametrize("n, seed", [(8, 1), (8, 2), (10, 3)])
    def test_tighten_is_shift_by_minus_delta_bit_for_bit(self, n, seed):
        net, _, tableau, slack_basic = self.optimal(n, seed)
        assert len(set(slack_basic.values())) == 2
        for e in range(net.n_edges):
            for delta in (net.capacities[e], 0.37):
                tightened = tighten_rhs(tableau, e, delta)
                shifted = tableau.copy()
                shift_rhs(shifted, {e: -delta})
                for name in ("rhs", "body", "cost_row", "basic_vars", "nonbasic_vars"):
                    assert getattr(tightened, name).tobytes() == getattr(shifted, name).tobytes()
                assert tightened.cost_corner == shifted.cost_corner
                assert tableau.rhs.tobytes() != tightened.rhs.tobytes()

    def test_unknown_constraint(self):
        _, _, tableau, _ = self.optimal()
        before = tableau.rhs.copy()
        with pytest.raises(UnknownConstraint):
            shift_rhs(tableau, {0: 1.0, "nope": 1.0})
        np.testing.assert_array_equal(tableau.rhs, before)


class TestAddCutRow:
    def optimal_box(self):
        # min -x subject to x + s = 1; optimum x = 1
        t = SimplexTableau([1], [0], [[1.0]], [1.0], [-1.0], n_original=2)
        return primal_simplex(t).tableau

    def test_satisfied_cut_keeps_objective(self):
        t = self.optimal_box()
        t2 = add_cut_row(t, np.array([1.0, 0.0]), 2.0)
        assert t2.is_primal_feasible() and t2.is_dual_feasible()
        assert t2.objective == pytest.approx(t.objective)

    def test_violated_cut_needs_dual_simplex(self):
        t = self.optimal_box()
        t2 = add_cut_row(t, np.array([1.0, 0.0]), 0.5)
        assert t2.rhs[-1] == pytest.approx(-0.5)
        out = dual_simplex(t2)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.5)

    def test_vacuous_cut(self):
        t = self.optimal_box()
        t2 = add_cut_row(t, np.zeros(2), 1.0)
        assert t2.rhs[-1] == pytest.approx(1.0)
        assert np.abs(t2.body[-1]).max() == 0.0
        assert t2.basic_vars[-1] == 2  # fresh slack

    def test_dimension_mismatch(self):
        t = self.optimal_box()
        with pytest.raises(DimensionMismatch):
            add_cut_row(t, np.zeros(5), 1.0)

    def test_rejects_dual_infeasible_tableau(self):
        t = SimplexTableau([1], [0], [[1.0]], [1.0], [-1.0], n_original=2)
        with pytest.raises(NotDualFeasible):
            add_cut_row(t, np.zeros(2), 1.0)


class TestSensitivity:
    def throughput_optimum(self, net, demands):
        tableau, _ = build_throughput_tableau(net, demands)
        return primal_simplex(tableau).tableau

    def test_net_b_minus_quarter(self):
        net = Network(2, [(0, 1, 3.0, 0.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        t = self.throughput_optimum(net, demands)
        assert rhs_sensitivity(t, 0) == pytest.approx(-0.25, abs=1e-12)

    def test_net_a_both_active(self):
        net = Network(2, [(0, 1, 3.0, 0.0), (0, 1, 2.0, 0.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        t = self.throughput_optimum(net, demands)
        assert rhs_sensitivity(t, 0) == pytest.approx(-0.25, abs=1e-12)
        assert rhs_sensitivity(t, 1) == pytest.approx(-0.25, abs=1e-12)

    def test_inactive_constraint_is_zero(self):
        # series edges 0->1->2 with caps 3 and 5: edge 1 never binds
        net = Network(3, [(0, 1, 3.0, 0.0), (1, 2, 5.0, 0.0)])
        demands = DemandMatrix([[0.0, 0.0, 2.0], [0.0] * 3, [0.0] * 3])
        t = self.throughput_optimum(net, demands)
        assert rhs_sensitivity(t, 0) == pytest.approx(-0.5, abs=1e-12)
        assert rhs_sensitivity(t, 1) == 0.0

    def test_unknown_constraint(self):
        net = Network(2, [(0, 1, 3.0, 0.0)])
        demands = DemandMatrix([[0.0, 4.0], [0.0, 0.0]])
        t = self.throughput_optimum(net, demands)
        with pytest.raises(UnknownConstraint):
            rhs_sensitivity(t, 99)


class TestStandardFormSolver:
    def test_infeasible(self):
        lp = StandardFormLP([0.0], [[1.0]], [-1.0])
        assert solve_standard_form(lp).status is Status.INFEASIBLE

    def test_unbounded(self):
        lp = StandardFormLP([-1.0, 0.0], [[1.0, -1.0]], [0.0])
        assert solve_standard_form(lp).status is Status.UNBOUNDED

    def test_matches_brute_force_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            lp = random_standard_form(rng)
            out = solve_standard_form(lp)
            status, value = brute_force_lp(lp)
            assert out.status.value == status
            if status == "optimal":
                assert out.objective == pytest.approx(value, abs=1e-9)

    def test_redundant_rows_are_dropped(self):
        lp = StandardFormLP([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        out = solve_standard_form(lp)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(1.0)

    def test_set_cost_recomputes_reduced_costs(self):
        t = single_row_tableau(4.0, 3.0, -1.0)
        out = primal_simplex(t)
        opt = out.tableau
        set_cost(opt, np.array([0.0, 1.0]))
        # slack is the only non-basic variable; the vertex has slack 0
        assert opt.objective == pytest.approx(0.0)
        assert opt.is_dual_feasible()


class TestInPlace:
    """The solvers pivot the tableau they are given; tighten_rhs copies."""

    def test_primal_returns_its_argument(self):
        t = single_row_tableau(4.0, 3.0, -1.0)
        out = primal_simplex(t)
        assert out.tableau is t
        assert out.pivot_count == 1
        assert t.basic_vars.tolist() == [0]

    def test_dual_returns_its_argument(self):
        t = tighten_rhs(single_row_tableau(1.0, 5.0, 1.0, "cap"), "cap", 7.0)
        out = dual_simplex(t)
        assert out.tableau is t
        assert out.status is Status.INFEASIBLE
        assert t.rhs[0] == pytest.approx(-2.0)

    def test_tighten_rhs_copies_even_at_zero_delta(self):
        t = single_row_tableau(1.0, 5.0, 1.0, "cap")
        t2 = tighten_rhs(t, "cap", 0.0)
        assert t2 is not t
        assert not np.shares_memory(t2.tab, t.tab)

    def test_views_are_read_only(self):
        t = single_row_tableau(4.0, 3.0, -1.0)
        for view in (t.body, t.rhs, t.cost_row):
            assert np.shares_memory(view, t.tab)
            with pytest.raises(ValueError):
                view[...] = 0.0
        assert isinstance(t.cost_corner, float)

    @pytest.mark.parametrize("q, leaves, internal", [(1, 20, 0), (2, 190, 20)])
    def test_tree_copies_each_node_once(self, monkeypatch, q, leaves, internal):
        doc = parse_sndlib_native(
            (Path(__file__).parent / "data" / "ring6.txt").read_text(), name="ring6")
        copies = []
        original = SimplexTableau.copy

        def counted(tableau):
            copies.append(tableau)
            return original(tableau)

        monkeypatch.setattr(SimplexTableau, "copy", counted)
        report = robust_throughput(doc.network, doc.demands, q)
        assert report.scenarios_evaluated == leaves
        # one per tree node, one for the worst tableau the report keeps
        assert len(copies) == leaves + internal + 1


class TestTableauBasics:
    def test_pivot_rejects_tiny_element(self):
        t = SimplexTableau([1], [0], [[0.0]], [1.0], [1.0])
        with pytest.raises(SingularBasis):
            t.pivot(0, 0)

    def test_solution_point_solves_original_system(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lp = random_standard_form(rng)
            out = solve_standard_form(lp)
            if out.status is not Status.OPTIMAL:
                continue
            x = out.tableau.solution_point()[: lp.cost.size]
            np.testing.assert_allclose(lp.eq_matrix @ x, lp.eq_rhs, atol=1e-8)
            assert (x >= -1e-9).all()

    def test_tableau_from_basis_reproduces_vertex(self):
        lp = StandardFormLP([-1.0, 0.0], [[4.0, 1.0]], [3.0])
        t = tableau_from_basis(lp, [0])
        assert t.rhs[0] == pytest.approx(0.75)
        assert t.objective == pytest.approx(-0.75)


class TestWarmStartEquivalence:
    def test_tighten_then_dual_matches_cold(self):
        rng = np.random.default_rng(19)
        # inequality LPs: min <c,x> s.t. Ax <= b, x >= 0 built as tableaus
        for _ in range(40):
            k = int(rng.integers(1, 4))
            nv = int(rng.integers(1, 4))
            a_mat = rng.integers(0, 5, size=(k, nv)).astype(float)
            b = rng.integers(1, 6, size=k).astype(float)
            c = rng.integers(-4, 2, size=nv).astype(float)
            slacks = {i: nv + i for i in range(k)}
            t = SimplexTableau(
                basic_vars=nv + np.arange(k), nonbasic_vars=np.arange(nv),
                body=a_mat, rhs=b, cost_row=c, constraint_slacks=slacks,
            )
            out = primal_simplex(t)
            if out.status is not Status.OPTIMAL:
                continue
            i = int(rng.integers(0, k))
            delta = float(rng.uniform(0, b[i]))
            warm = dual_simplex(tighten_rhs(out.tableau, i, delta))
            if warm.status is not Status.OPTIMAL:
                continue
            b2 = b.copy()
            b2[i] -= delta
            cold_lp = StandardFormLP(
                np.concatenate([c, np.zeros(k)]),
                np.hstack([a_mat, np.eye(k)]), b2,
            )
            cold = solve_standard_form(cold_lp)
            assert cold.status is Status.OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def beale_tableau():
    """Beale's (1955) LP, on which simplex with a poor tie rule cycles:
    min -3/4 x3 + 150 x4 - 1/50 x5 + 6 x6 with the slacks x0, x1, x2 basic
    at a degenerate vertex.  The optimum is -1/20 at x3 = 1/25, x5 = 1."""
    return SimplexTableau(
        basic_vars=[0, 1, 2], nonbasic_vars=[3, 4, 5, 6],
        body=[[0.25, -60.0, -0.04, 9.0],
              [0.5, -90.0, -0.02, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        rhs=[0.0, 0.0, 1.0], cost_row=[-0.75, 150.0, -0.02, 6.0],
    )


def relabelled_beale_tableau():
    """Beale's LP with every variable k renamed 6 - k, so that ties going to
    the largest index make the same choices that cycle on the original."""
    t = beale_tableau()
    return SimplexTableau(6 - t.basic_vars, 6 - t.nonbasic_vars, t.body, t.rhs,
                          t.cost_row)


def force_bland(monkeypatch):
    """Price every pivot of both solvers by Bland's rule."""
    choose = simplex._choose
    monkeypatch.setattr(simplex, "_choose",
                        lambda values, lines, labels, bland: choose(values, lines, labels, True))


class TestPricing:
    @pytest.mark.parametrize("forced", [False, True], ids=["priced", "bland"])
    def test_beale_terminates_at_optimum(self, monkeypatch, forced):
        if forced:
            force_bland(monkeypatch)
        out = primal_simplex(beale_tableau())
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.05, abs=1e-12)
        point = out.tableau.solution_point()
        np.testing.assert_allclose(point[[3, 5]], [0.04, 1.0], atol=1e-12)

    def test_repeated_basis_ends_dantzig_cycling(self, monkeypatch):
        # Dantzig's most negative reduced cost cycles on the relabelled LP
        # under largest-index ties; the recurring basis must switch to Bland
        calls = []
        choose = simplex._choose

        def dantzig(values, lines, labels, bland):
            calls.append(bland)
            if bland:
                return choose(values, lines, labels, bland)
            eligible = values < -simplex.FEAS_TOL
            return int(np.argmin(np.where(eligible, values, 0.0))) if eligible.any() else None

        monkeypatch.setattr(simplex, "_choose", dantzig)
        out = primal_simplex(relabelled_beale_tableau(), max_pivots=100)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.05, abs=1e-12)
        point = out.tableau.solution_point()
        np.testing.assert_allclose(point[[3, 1]], [0.04, 1.0], atol=1e-12)
        assert any(calls)

    def test_ring_chords_22_q1_without_stalling(self):
        # smallest-index ties and a 200-pivot Bland fallback took 10 742
        net, demands = ring_chords_instance(22, 3)
        report = robust_throughput(net, demands, 1)
        assert report.worst_value == pytest.approx(2.534883721, abs=1e-9)
        assert report.worst_scenario == (60,)
        assert report.pivots_total <= 5000

    def test_forced_fallback_gives_same_optima(self, monkeypatch):
        # Bland's rule prices every pivot in both solvers; the ring instance
        # is large enough for the two rules to pivot differently
        corpus = random_corpus(count=12) + [ring_chords_instance(8, 1)]

        def solve_all():
            values, pivots = [], 0
            for net, demands in corpus:
                sol = solve_throughput(net, demands)
                report = robust_throughput(net, demands, 1)
                values.append(sol.lambda_star)
                values.extend(report.per_scenario_values[s]
                              for s in sorted(report.per_scenario_values))
                pivots += report.pivots_total
            return np.array(values), pivots

        priced, priced_pivots = solve_all()
        force_bland(monkeypatch)
        bland, bland_pivots = solve_all()
        np.testing.assert_allclose(bland, priced, rtol=0, atol=1e-9)
        assert bland_pivots != priced_pivots  # the fallback was really taken

    def test_forced_fallback_matches_brute_force(self, monkeypatch):
        force_bland(monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(30):
            lp = random_standard_form(rng)
            status, value = brute_force_lp(lp)
            out = solve_standard_form(lp)
            assert out.status.value == status
            if status == "optimal":
                assert out.objective == pytest.approx(value, abs=1e-7)
