import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from robustflow import cli, parse_sndlib_native, robust, robust_throughput, simplex
from robustflow.cli import main
from robustflow.robust import RobustReport

from conftest import ring_chords_instance

DATA = Path(__file__).parent / "data"
RING6 = str(DATA / "ring6.txt")

NET_A = {
    "name": "net-a",
    "n_vertices": 2,
    "edges": [
        {"tail": 0, "head": 1, "capacity": 3.0, "delay": 0.0},
        {"tail": 0, "head": 1, "capacity": 2.0, "delay": 0.0},
    ],
    "demands": [{"from": 0, "to": 1, "value": 4.0}],
}

NET_B = {
    "name": "net-b",
    "n_vertices": 2,
    "edges": [{"tail": 0, "head": 1, "capacity": 3.0, "delay": 2.0}],
    "demands": [{"from": 0, "to": 1, "value": 4.0}],
}

DISCONNECTED = {
    "name": "split",
    "n_vertices": 4,
    "edges": [
        {"tail": 0, "head": 1, "capacity": 1.0, "delay": 0.0},
        {"tail": 2, "head": 3, "capacity": 1.0, "delay": 0.0},
    ],
    "demands": [{"from": 0, "to": 2, "value": 1.0}],
}


@pytest.fixture
def net_a_path(tmp_path):
    path = tmp_path / "neta.json"
    path.write_text(json.dumps(NET_A))
    return str(path)


@pytest.fixture
def net_b_path(tmp_path):
    path = tmp_path / "netb.json"
    path.write_text(json.dumps(NET_B))
    return str(path)


def _json_instance(name, net, demands):
    return {
        "name": name,
        "n_vertices": net.n_vertices,
        "edges": [{"tail": e.tail, "head": e.head, "capacity": e.capacity,
                   "delay": e.delay} for e in net.edges],
        "demands": [{"from": s, "to": t, "value": v} for s, t, v in demands.pairs()],
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_throughput(self, capsys, net_a_path):
        code, out, _ = run(capsys, "throughput", "--network", net_a_path)
        assert code == 0
        assert json.loads(out)["lambda"] == 1.25

    def test_load_balance(self, capsys, net_a_path):
        code, out, _ = run(capsys, "load-balance", "--network", net_a_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == 0.8
        assert payload["lambda"] == 1.25

    def test_latency_linear(self, capsys, net_b_path):
        code, out, _ = run(capsys, "latency", "--network", net_b_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["latency_linear"] == 2.0
        assert payload["beta"] == 0.9

    def test_latency_float_noise_is_not_a_usage_error(self, capsys, tmp_path):
        # the linear optimum of this instance carried flows of -1.7e-15,
        # which the nonlinear evaluation rejected as negative input
        net, demands = ring_chords_instance(8, 1)
        path = tmp_path / "ring8.json"
        path.write_text(json.dumps(_json_instance("ring8-s1", net, demands)))
        code, out, err = run(capsys, "latency", "--network", str(path),
                             "--latency-kind", "log", "--beta", "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out)["latency_log_evaluated"] > 0

    def test_throughput_noise_prints_as_zero(self, capsys, tmp_path):
        # one q=2 scenario of this instance disconnects a demand pair, and its
        # optimal tableau read the throughput as -1.5e-15
        net, demands = ring_chords_instance(10, 5)
        path = tmp_path / "ring10.json"
        path.write_text(json.dumps(_json_instance("ring10-s5", net, demands)))
        code, out, _ = run(capsys, "robust-throughput", "--network", str(path), "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_value"] == 0.0
        zeros = [v for v in payload["per_scenario"].values() if abs(v) <= 1e-9]
        assert zeros and all(v == 0.0 for v in zeros)
        assert "-0" not in out.replace("-0.", "")

    def test_latency_nonlinear_evaluated(self, capsys, net_b_path):
        code, out, _ = run(capsys, "latency", "--network", net_b_path,
                           "--latency-kind", "log")
        assert code == 0
        assert "latency_log_evaluated" in json.loads(out)


class TestRobustCommands:
    def test_robust_throughput_json(self, capsys, net_a_path):
        code, out, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                           "--q", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_value"] == 0.5
        assert payload["worst_scenario"] == [0]

    def test_robust_throughput_csv(self, capsys, net_a_path):
        code, out, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                           "--q", "1", "--output", "csv")
        assert code == 0
        assert out.strip().splitlines() == [
            "scenario_edges,value", "0,0.5", "1,0.75", "worst:0,0.5",
        ]

    def test_disconnecting_scenario_reported(self, capsys, net_b_path):
        code, out, _ = run(capsys, "robust-throughput", "--network", net_b_path,
                           "--q", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_value"] == 0.0
        assert payload["worst_scenario"] == [0]

    def test_workers_do_not_change_output(self, capsys, net_a_path):
        _, seq, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                        "--q", "1", "--workers", "1")
        _, par, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                        "--q", "1", "--workers", "4")
        assert seq == par

    def test_repeat_run_is_byte_identical(self, capsys, net_a_path):
        _, first, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                          "--q", "1", "--output", "csv")
        _, second, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                           "--q", "1", "--output", "csv")
        assert first == second

    def test_robust_latency(self, capsys, tmp_path):
        doc = {
            "name": "wide-triangle",
            "n_vertices": 3,
            "edges": [
                {"tail": 0, "head": 1, "capacity": 10.0, "delay": 1.0},
                {"tail": 0, "head": 2, "capacity": 10.0, "delay": 10.0},
                {"tail": 2, "head": 1, "capacity": 10.0, "delay": 10.0},
            ],
            "demands": [{"from": 0, "to": 1, "value": 2.0}],
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "robust-latency", "--network", str(path),
                           "--q", "1", "--beta", "0.3")
        assert code == 0
        assert json.loads(out)["worst_value"] == 20.0

    def test_scenario_gate_env_override(self, capsys, net_a_path, monkeypatch):
        monkeypatch.setenv("ROBUSTFLOW_MAX_SCENARIOS", "1")
        code, _, err = run(capsys, "robust-throughput", "--network", net_a_path,
                           "--q", "1")
        assert code == 2
        assert "gate" in err
        code, out, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                           "--q", "1", "--allow-large")
        assert code == 0

    def test_paired_failure_on_sndlib(self, capsys):
        code, out, _ = run(capsys, "robust-throughput", "--network",
                           str(DATA / "ring6.txt"), "--q", "1",
                           "--paired-failure")
        assert code == 0
        payload = json.loads(out)
        # paired deletion removes both directions: 10 scenarios, even edges
        assert payload["scenarios_evaluated"] == 10
        assert len(payload["worst_scenario"]) == 2

    def test_paired_failure_requires_sndlib(self, capsys, net_a_path):
        code, _, err = run(capsys, "robust-throughput", "--network", net_a_path,
                           "--q", "1", "--paired-failure")
        assert code == 2

    def test_paired_q_beyond_link_count_is_usage_error(self, capsys):
        code, out, err = run(capsys, "robust-throughput", "--network", RING6,
                             "--q", "11", "--paired-failure")
        assert code == 2
        assert out == "" and "q must lie in [0, 10]" in err

    def test_paired_gate_overflow(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBUSTFLOW_MAX_SCENARIOS", "44")
        code, _, err = run(capsys, "robust-throughput", "--network", RING6,
                           "--q", "2", "--paired-failure")
        assert code == 2
        assert "C(10,2) = 45 scenarios exceeds the gate of 44" in err


class TestRobustifyCommands:
    def test_robustify_throughput_cutting_plane(self, capsys, net_a_path):
        code, out, _ = run(capsys, "robustify-throughput", "--network",
                           net_a_path, "--q", "1", "--budget", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["robust_lambda"] == 0.75
        assert payload["delta_b"] == [0.0, 1.0]
        assert payload["method"] == "cutting-plane"

    def test_robustify_throughput_subgradient(self, capsys, net_a_path):
        code, out, _ = run(capsys, "robustify-throughput", "--network",
                           net_a_path, "--q", "1", "--budget", "1",
                           "--method", "subgradient", "--max-iters", "400")
        assert code == 0
        payload = json.loads(out)
        assert payload["robust_lambda"] == pytest.approx(0.75, abs=5e-3)

    def test_robustify_latency(self, capsys, tmp_path):
        doc = {
            "name": "three-route",
            "n_vertices": 2,
            "edges": [
                {"tail": 0, "head": 1, "capacity": 1.0, "delay": 1.0},
                {"tail": 0, "head": 1, "capacity": 10.0, "delay": 5.0},
                {"tail": 0, "head": 1, "capacity": 10.0, "delay": 5.0},
            ],
            "demands": [{"from": 0, "to": 1, "value": 2.0}],
        }
        path = tmp_path / "routes.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "robustify-latency", "--network", str(path),
                           "--q", "1", "--budget", "1")
        assert code == 0
        assert json.loads(out)["robust_latency"] == 10.0


def _delta(**entries):
    """A ring6 ``delta_b``: zero except at the edges given as ``e<index>``."""
    delta = [0.0] * 20
    for name, value in entries.items():
        delta[int(name[1:])] = value
    return delta


class TestRing6RobustifyOutputs:
    """The ring6 allocations of both robustify commands under both methods."""

    @pytest.mark.parametrize("command, extra, expected", [
        ("robustify-throughput", [], {
            "method": "cutting-plane", "iterations": 4, "robust_lambda": 5.0,
            "delta_b": _delta(e12=10.0, e14=20.0, e16=10.0)}),
        ("robustify-throughput", ["--method", "subgradient", "--max-iters", "6"], {
            "method": "subgradient", "iterations": 7, "robust_lambda": 4.32305773641,
            "delta_b": _delta(e4=5.59987528668, e12=5.59987528668,
                              e14=5.59987528668, e16=5.59987528668)}),
        ("robustify-latency", [], {
            "method": "cutting-plane", "robust_latency": 103.0, "delta_b": _delta()}),
        ("robustify-latency", ["--method", "subgradient", "--max-iters", "6"], {
            "method": "subgradient", "robust_latency": 103.0, "delta_b": _delta()}),
    ])
    def test_printed_allocation(self, capsys, command, extra, expected):
        code, out, err = run(capsys, command, "--network", RING6, "--q", "1",
                             "--budget", "40", *extra)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"command": command, "instance": "ring6.txt",
                                   "q": 1, "budget": 40.0, **expected}

    @pytest.mark.parametrize("budget, joint_lp", [
        ("1e7", 137680.14184397), ("1e8", 1376728.9528577),
        ("1e9", 13767217.062995), ("1e10", 137672098.16437)])
    def test_large_budgets_match_the_joint_lp(self, capsys, budget, joint_lp):
        # robust lambda of HiGHS on the joint LP over every scenario's flows
        code, out, err = run(capsys, "robustify-throughput", "--network", RING6, "--q", "1",
                             "--budget", budget)
        assert (code, err) == (0, "")
        assert json.loads(out)["robust_lambda"] == pytest.approx(joint_lp, rel=1e-9)

    @pytest.mark.parametrize("budget", ["1e11", "1e12"])
    def test_largest_tested_budgets_exit_zero(self, capsys, budget):
        code, out, err = run(capsys, "robustify-throughput", "--network", RING6, "--q", "1",
                             "--budget", budget)
        assert (code, err) == (0, "")
        assert json.loads(out)["robust_lambda"] > 0

    @pytest.mark.parametrize("budget", ["1e200", "1e300"])
    @pytest.mark.parametrize("method", ["cutting-plane", "subgradient"])
    def test_huge_budgets_exit_zero_without_overflow(self, capsys, method, budget):
        # every warning is an error here, so an overflow in pricing fails the run
        code, out, err = run(capsys, "robustify-throughput", "--network", RING6, "--q", "1",
                             "--budget", budget, "--method", method)
        assert (code, err) == (0, "")
        # the joint LP's robust lambda grows by this much per unit of budget
        # (from its values at 1e9 and 1e10), which dwarfs the rest here
        asymptote = 0.013767209011263888 * float(budget)
        robust_lambda = json.loads(out)["robust_lambda"]
        if method == "cutting-plane":
            assert robust_lambda == pytest.approx(asymptote, rel=1e-9)
        else:
            assert 0.9 * asymptote < robust_lambda <= asymptote

    def test_cutting_plane_allocation_is_worth_its_value_cold(self, capsys):
        # the allocation is one of several optima; any of them must give 5.0
        _, out, _ = run(capsys, "robustify-throughput", "--network", RING6, "--q", "1",
                        "--budget", "40")
        doc = parse_sndlib_native(Path(RING6).read_text(), name="ring6")
        caps = doc.network.capacities + json.loads(out)["delta_b"]
        report = robust_throughput(doc.network, doc.demands, 1, b_override=caps)
        assert report.worst_value == pytest.approx(5.0, abs=1e-9)


class TestBenchCommand:
    def test_bench_csv(self, capsys, net_a_path):
        code, out, _ = run(capsys, "bench", "--network", net_a_path, "--q", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("scenario_edges,value,warm_pivots,cold_pivots")
        assert lines[-1].startswith("TOTAL,")
        assert len(lines) == 4  # header + 2 scenarios + totals


class TestRing6PivotCounts:
    """Pivot counts printed on ring6.  They are deterministic, so any change
    in the primal or the dual pivot sequence moves them."""

    @pytest.mark.parametrize("argv, key, pivots", [
        (["throughput"], "pivots", 17),
        (["robust-throughput", "--q", "1"], "pivots_total", 52),
        (["robust-throughput", "--q", "2"], "pivots_total", 246),
        (["robust-throughput", "--q", "1", "--paired-failure"], "pivots_total", 46),
        (["robust-throughput", "--q", "2", "--paired-failure"], "pivots_total", 165),
        (["robust-latency", "--q", "1", "--beta", "0.3"], "pivots_total", 10),
    ])
    def test_printed_pivots(self, capsys, argv, key, pivots):
        code, out, _ = run(capsys, argv[0], "--network", RING6, *argv[1:])
        assert code == 0
        assert json.loads(out)[key] == pivots

    def test_bench_total_pivots(self, capsys):
        code, out, _ = run(capsys, "bench", "--network", RING6)
        assert code == 0
        label, _, warm, cold = out.splitlines()[-1].split(",")[:4]
        assert (label, warm, cold) == ("TOTAL", "35", "352")


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "throughput", "--network", "/nope.json")
        assert code == 2
        assert "error" in err

    def test_infeasible_data_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(DISCONNECTED))
        code, _, err = run(capsys, "throughput", "--network", str(path))
        assert code == 1

    def test_negative_q_is_usage_error(self, capsys, net_a_path):
        code, _, _ = run(capsys, "robust-throughput", "--network", net_a_path,
                         "--q", "-1")
        assert code == 2

    def test_bad_schema_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, _ = run(capsys, "throughput", "--network", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["throughput", "robust-throughput",
                                         "robust-throughput --paired-failure",
                                         "robust-latency", "bench"])
    def test_pivot_cap_is_exit_three(self, capsys, monkeypatch, command):
        monkeypatch.setattr(simplex, "default_max_pivots", lambda tableau: 0)
        code, out, err = run(capsys, *command.split(), "--network", str(DATA / "ring6.txt"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "iteration_limit" in err

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("method", ["cutting-plane", "subgradient"])
    @pytest.mark.parametrize("command", ["robustify-throughput", "robustify-latency"])
    def test_bad_budget_is_usage_error(self, capsys, command, method, budget):
        code, out, err = run(capsys, command, "--network", RING6, "--q", "1",
                             "--method", method, "--budget", budget)
        assert (code, out) == (2, "")
        assert err == "error: budget must be finite and non-negative\n"

    @pytest.mark.parametrize("tol, message", [
        ("nan", "tolerance must be finite and positive"),
        ("inf", "tolerance must be finite and positive"),
        ("0", "tolerance must be finite and positive"),
        ("1e-3 --method subgradient", "--tol applies only to --method cutting-plane"),
    ])
    @pytest.mark.parametrize("command", ["robustify-throughput", "robustify-latency"])
    def test_bad_tol_is_usage_error(self, capsys, command, tol, message):
        code, out, err = run(capsys, command, "--network", RING6, "--q", "1",
                             "--budget", "1", "--tol", *tol.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    @pytest.mark.parametrize("method", ["cutting-plane", "subgradient"])
    @pytest.mark.parametrize("command", ["robustify-throughput", "robustify-latency"])
    def test_max_iters_below_one_is_usage_error(self, capsys, command, method, max_iters):
        code, out, err = run(capsys, command, "--network", RING6, "--q", "1", "--budget", "5",
                             "--method", method, "--max-iters", max_iters)
        assert (code, out, err) == (2, "", "error: max-iters must be at least 1\n")

    @pytest.mark.parametrize("alpha, message", [
        ("inf", "alpha_c must be finite and positive"),
        ("1e308", "the inverse latency overflows the float range; lower alpha_c"),
    ])
    def test_unbounded_alpha_c_is_usage_error(self, capsys, alpha, message):
        code, out, err = run(capsys, "latency", "--network", RING6, "--latency-kind",
                             "inverse", "--beta", "0.3", "--alpha-c", alpha)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("suffix, old, new", [
        (".json", '"capacity": 3.0', '"capacity": Infinity'),
        (".json", '"delay": 0.0', '"delay": NaN'),
        (".json", '"value": 4.0', '"value": Infinity'),
        (".txt", "40.0 0.0 1.0", "inf 0.0 1.0"),
        (".txt", "40.0 0.0 1.0", "40.0 0.0 nan"),
        (".txt", "1 12.0", "1 nan"),
    ])
    @pytest.mark.parametrize("command", ["throughput", "latency", "robust-throughput"])
    def test_non_finite_input_is_rejected(self, capsys, tmp_path, command, suffix, old, new):
        text = json.dumps(NET_A) if suffix == ".json" else (DATA / "ring6.txt").read_text()
        assert old in text
        path = tmp_path / f"bad{suffix}"
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, command, "--network", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["throughput", "robust-throughput"])
    def test_non_finite_output_is_solver_error(self, capsys, monkeypatch, command):
        nan = float("nan")
        monkeypatch.setattr(cli, "solve_throughput",
                            lambda *args: SimpleNamespace(lambda_star=nan, pivot_count=0))
        monkeypatch.setattr(cli, "robust_throughput",
                            lambda *args, **kwargs: RobustReport(nan, (0,), None, 0, 1))
        code, out, err = run(capsys, command, "--network", RING6)
        assert (code, out) == (3, "")
        assert err == "error: result holds a non-finite number, which JSON cannot carry\n"

    def test_master_lp_off_its_closed_form_is_exit_three(self, capsys, monkeypatch):
        from robustflow import robustify
        solve = robustify.dual_simplex

        def shifted(tableau, *args, **kwargs):
            # a master LP whose phi lies 1.0 above its closed form
            out = solve(tableau, *args, **kwargs)
            out.tableau.tab[out.tableau.basic_row_of(0), -1] += 1.0
            return out

        monkeypatch.setattr(robustify, "dual_simplex", shifted)
        code, out, err = run(capsys, "robustify-throughput", "--network", RING6, "--q", "1",
                             "--budget", "40")
        assert (code, out) == (3, "")
        assert err.startswith("error: first master LP value ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sndlib_autodetected_by_extension(self, capsys):
        code, out, _ = run(capsys, "throughput", "--network",
                           str(DATA / "ring6.txt"))
        assert code == 0
        assert json.loads(out)["lambda"] > 0


class TestFailureGroupFlags:
    """Every robust subcommand honours --paired-failure and the scenario
    gate, and registers only the flags it uses."""

    def test_robust_latency_paired(self, capsys):
        code, out, _ = run(capsys, "robust-latency", "--network", RING6,
                           "--q", "1", "--beta", "0.3", "--paired-failure")
        assert code == 0
        payload = json.loads(out)
        assert payload["scenarios_evaluated"] == 10
        assert all(len(k.split(";")) == 2 for k in payload["per_scenario"])

    def test_robustify_latency_paired(self, capsys):
        values = {}
        for paired in ([], ["--paired-failure"]):
            code, out, _ = run(capsys, "robustify-latency", "--network", RING6,
                               "--q", "2", "--budget", "0", *paired)
            assert code == 0
            values[bool(paired)] = json.loads(out)["robust_latency"]
        # losing both directions of two links costs more than two edges
        assert values == {False: 115.0, True: 119.0}

    @pytest.mark.parametrize("command", [
        ["robustify-throughput", "--budget", "1"],
        ["robustify-throughput", "--budget", "1", "--method", "subgradient",
         "--max-iters", "3"],
        ["robustify-latency", "--budget", "1", "--max-iters", "3"],
        ["bench"],
    ])
    def test_gate_counts_failure_groups(self, capsys, monkeypatch, command):
        # ring6 has 20 edges in 10 links: only the paired tree fits a gate of 10
        monkeypatch.setenv("ROBUSTFLOW_MAX_SCENARIOS", "10")
        code, _, err = run(capsys, *command, "--network", RING6, "--q", "1")
        assert code == 2
        assert "C(20,1) = 20 scenarios exceeds the gate of 10" in err
        code, out, _ = run(capsys, *command, "--network", RING6, "--q", "1",
                           "--paired-failure")
        assert code == 0

    def test_bench_paired_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--network", RING6, "--q", "1",
                           "--paired-failure")
        assert code == 0
        rows = out.strip().splitlines()[1:-1]
        assert [r.split(",")[0] for r in rows] == [f"{2 * i};{2 * i + 1}" for i in range(10)]

    @pytest.mark.parametrize("command, flag", [
        ("bench", ["--workers", "2"]),
        ("bench", ["--output", "csv"]),
        ("robustify-throughput", ["--output", "csv"]),
        ("robustify-latency", ["--output", "csv"]),
        # robustify-latency routes the full demand under the linear model
        ("robustify-latency", ["--beta", "0.5"]),
        ("robustify-latency", ["--alpha-c", "1"]),
        ("robustify-latency", ["--latency-kind", "linear"]),
        # robust-latency is solvable for the linear model only
        ("robust-latency", ["--alpha-c", "1"]),
        ("robust-latency", ["--latency-kind", "linear"]),
    ])
    def test_unused_flags_are_not_registered(self, capsys, command, flag):
        argv = [command, "--network", RING6, "--q", "1", *flag]
        if command.startswith("robustify"):
            argv += ["--budget", "1"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_node_solves_go_through_the_robust_module(self, capsys, monkeypatch):
        calls = {}
        for module, name in ((robust, "dual_simplex"), (robust, "tighten_rhs"),
                             (simplex.SimplexTableau, "copy")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # one copy per node (tighten_rhs on the group's first edge), plus the
        # report's copy of the worst tableau; q=2 solves all ten first-level
        # nodes, the parents its 45 leaves choose from
        for q, nodes in (("1", 10), ("2", 10 + 45)):
            calls.update(dual_simplex=0, tighten_rhs=0, copy=0)
            code, _, _ = run(capsys, "robust-throughput", "--network", RING6,
                             "--q", q, "--paired-failure")
            assert code == 0
            assert calls == {"dual_simplex": nodes, "tighten_rhs": nodes,
                             "copy": nodes + 1}


class TestTracerCounting:
    """perfbench/tracer.py counts outer iterations and tree nodes by wrapping
    ``robustify.robust_throughput``/``robustify._robust_latency`` and
    ``robust.dual_simplex``; every evaluation must still pass through them."""

    def count(self, monkeypatch, module, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    # inner evaluations on ring6 at --budget 40: (cutting plane, subgradient
    # with 6 steps after the evaluation at zero)
    EVALUATIONS = {"robustify-throughput": (4, 7), "robustify-latency": (2, 7)}

    @pytest.mark.parametrize("command, inner, extra", [
        ("robustify-throughput", "robust_throughput", []),
        ("robustify-throughput", "robust_throughput",
         ["--method", "subgradient", "--max-iters", "6"]),
        ("robustify-latency", "_robust_latency", []),
        ("robustify-latency", "_robust_latency",
         ["--method", "subgradient", "--max-iters", "6"]),
    ])
    def test_one_inner_evaluation_per_outer_evaluation(self, capsys, monkeypatch,
                                                       command, inner, extra):
        from robustflow import flows, robustify
        evals = self.count(monkeypatch, robustify, [inner, "worst_scenario_subgradient"])
        builds = [self.count(monkeypatch, module, ["build_throughput_tableau"])
                  for module in (flows, robust)]
        solves = self.count(monkeypatch, robust, ["solve_throughput", "pin_throughput_tableau"])
        code, out, _ = run(capsys, command, "--network", RING6, "--q", "1",
                           "--budget", "40", *extra)
        assert code == 0
        count = self.EVALUATIONS[command][bool(extra)]
        assert evals[inner] == evals["worst_scenario_subgradient"] == count
        if command == "robustify-throughput":
            assert evals[inner] == json.loads(out)["iterations"]
        # one tableau build per run: the throughput LP's, or for latency the
        # latency LP's, with no throughput solve
        latency = command == "robustify-latency"
        assert solves["solve_throughput"] == 0
        assert sum(b["build_throughput_tableau"] for b in builds) == (not latency)
        assert solves["pin_throughput_tableau"] == latency

    def test_kept_nodes_are_resolved_through_the_robust_module(self, capsys,
                                                               monkeypatch):
        from robustflow import robustify
        calls = self.count(monkeypatch, robust, ["dual_simplex"])
        evals = self.count(monkeypatch, robustify, ["robust_throughput"])
        code, out, _ = run(capsys, "robustify-throughput", "--network", RING6,
                           "--q", "1", "--budget", "40")
        assert code == 0
        # the first evaluation solves 8 of the 20 leaves, the solved ones'
        # flows rule out the other 12; the three later ones solve 18 of
        # their 60, those that the leaves' bounds leave open
        assert evals["robust_throughput"] == json.loads(out)["iterations"] > 2
        assert calls["dual_simplex"] == 26


def _load_tracer():
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_wrap_point_resolves():
    """perfbench/tracer.py reports a metric as null when its wrap point is gone."""
    tracer = _load_tracer()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.WRAP_POINTS
               if not hasattr(importlib.import_module(f"robustflow.{mod}"), attr)]
    missing += [f"{mod}.{cls}.{meth}" for mod, cls, meth in tracer.METHOD_POINTS
                if not hasattr(getattr(importlib.import_module(f"robustflow.{mod}"),
                                       cls, None), meth)]
    assert not missing
