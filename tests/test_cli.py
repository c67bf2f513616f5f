import json
from pathlib import Path

import pytest

from robustflow import simplex
from robustflow.cli import main

DATA = Path(__file__).parent / "data"

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


class TestBenchCommand:
    def test_bench_csv(self, capsys, net_a_path):
        code, out, _ = run(capsys, "bench", "--network", net_a_path, "--q", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("scenario_edges,value,warm_pivots,cold_pivots")
        assert lines[-1].startswith("TOTAL,")
        assert len(lines) == 4  # header + 2 scenarios + totals


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
                                         "robust-latency", "bench"])
    def test_pivot_cap_is_exit_three(self, capsys, monkeypatch, command):
        monkeypatch.setattr(simplex, "default_max_pivots", lambda tableau: 0)
        code, out, err = run(capsys, command, "--network", str(DATA / "ring6.txt"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "iteration_limit" in err

    def test_sndlib_autodetected_by_extension(self, capsys):
        code, out, _ = run(capsys, "throughput", "--network",
                           str(DATA / "ring6.txt"))
        assert code == 0
        assert json.loads(out)["lambda"] > 0
