"""Workload definitions, reference answers and output checks.

Every workload is a batch: the same CLI commands on each of ``count``
seeded instances of size ``n``.  Instance j of a run with seed s is drawn
from ``random.Random(f"{name}/{s}/{j}/{attempt}")``.  An instance is redrawn
(next ``attempt``) only when a command of the workload is undefined on it
(robust-latency needs every scenario to carry the latency load,
robustify-latency needs every scenario to carry the full demand); the CLI
exits 1 on such data by design.  Stalls and slow instances are never
redrawn.
"""

from __future__ import annotations

import json
import sys

from gen import make_instance, to_sndlib
from oracle import Instance, OracleError

RTOL = 1e-6
BUDGET = 10

WORKLOADS = {
    "tree-q1": {
        "n": 10, "count": 78, "q": 1,
        "commands": [
            ["robust-throughput", "--q", "1"],
            ["robust-latency", "--q", "1", "--beta", "0.3"],
            ["robust-throughput", "--q", "1", "--paired-failure"],
        ],
    },
    "tree-q2": {
        "n": 8, "count": 40, "q": 2,
        "commands": [
            ["robust-throughput", "--q", "2"],
            ["robust-throughput", "--q", "2", "--paired-failure"],
        ],
    },
    "robustify": {
        "n": 8, "count": 34, "q": 1,
        "commands": [
            ["robustify-throughput", "--q", "1", "--budget", str(BUDGET)],
            ["robustify-latency", "--q", "1", "--budget", str(BUDGET)],
            ["robustify-throughput", "--q", "1", "--budget", str(BUDGET),
             "--method", "subgradient", "--max-iters", "10"],
        ],
    },
    "nominal": {
        "n": 10, "count": 180, "q": 0,
        "commands": [
            ["throughput"],
            ["load-balance"],
            ["latency", "--beta", "0.9"],
        ],
    },
}

MAX_ATTEMPTS = 50


def _key(scenario):
    return ";".join(str(e) for e in scenario)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def references(workload, inst):
    """Reference answers for every command of ``workload`` on ``inst``;
    None when a command is undefined on this instance."""
    ref = {"lambda": inst.throughput(inst.caps)[0]}
    try:
        for argv in WORKLOADS[workload]["commands"]:
            cmd = argv[0]
            q = int(_flag(argv, "--q", 0))
            if cmd == "robust-throughput":
                paired = "--paired-failure" in argv
                values = inst.robust_throughput(q, paired)
                ref[f"rt{q}{'p' if paired else ''}"] = {_key(s): v for s, v in values.items()}
            elif cmd == "robust-latency":
                beta = float(_flag(argv, "--beta"))
                values = inst.robust_latency(q, beta)
                ref[f"rl{q}"] = {_key(s): v for s, v in values.items()}
            elif cmd == "latency":
                beta = float(_flag(argv, "--beta"))
                target = beta * ref["lambda"]
                ref["latency"] = inst.delay(inst.caps, target)[0] / (target * inst.demand.sum())
            elif cmd == "robustify-throughput" and "thr_opt" not in ref:
                ref["thr_zero"] = inst.worst_throughput(q, inst.caps)
                ref["thr_opt"] = inst.robustify_throughput_optimum(q, BUDGET)
            elif cmd == "robustify-latency":
                if inst.worst_throughput(q, inst.caps) < 1.001:
                    return None
                ref["lat_zero"] = inst.worst_delay(q, inst.caps)
                ref["lat_opt"] = inst.robustify_latency_optimum(q, BUDGET)
    except OracleError:
        return None
    return ref


def slot(workload, seed, j):
    """Instance j of a run: (name, SNDlib text, (links, demands), references)."""
    spec = WORKLOADS[workload]
    for attempt in range(MAX_ATTEMPTS):
        links, demands = make_instance(spec["n"], f"{workload}/{seed}/{j}/{attempt}")
        ref = references(workload, Instance(spec["n"], links, demands))
        if ref is not None:
            name = f"{workload}-s{seed}-i{j:03d}"
            return name, to_sndlib(name, spec["n"], links, demands), (links, demands), ref
    raise OracleError(f"no valid instance for {workload} seed {seed} slot {j}")


# --- output checks -------------------------------------------------------

def _close(a, b):
    return abs(a - b) <= RTOL * max(1.0, abs(b))


def _check_scenarios(out, ref, sense):
    got = out.get("per_scenario", {})
    if set(got) != set(ref):
        return "scenario set differs from the reference"
    bad = [k for k in ref if not _close(got[k], ref[k])]
    if bad:
        return f"scenario {bad[0]}: {got[bad[0]]} vs reference {ref[bad[0]]}"
    if out["scenarios_evaluated"] != len(ref):
        return "scenarios_evaluated differs from the scenario count"
    best = min(ref.values()) if sense == "min" else max(ref.values())
    if not _close(out["worst_value"], best):
        return f"worst_value {out['worst_value']} vs reference {best}"
    if not _close(ref[_key(out["worst_scenario"])], best):
        return "worst_scenario is not a worst case"
    return None


def check(argv, stdout, ref, pivots, nominal_pivots, inst, reeval):
    """Compare one command's stdout with the references; returns an error
    message or None.  ``reeval(kind, delta)`` re-evaluates a robustify
    allocation with the oracle."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    cmd = argv[0]
    if cmd in ("throughput", "load-balance", "latency"):
        lam = out["lambda_max"] if cmd == "latency" else out["lambda"]
        if not _close(lam, ref["lambda"]):
            return f"lambda {lam} vs reference {ref['lambda']}"
        if cmd == "throughput" and out["pivots"] != pivots:
            return f"printed pivots {out['pivots']} but {pivots} counted"
        if cmd == "load-balance" and not _close(out["theta"], 1.0 / ref["lambda"]):
            return f"theta {out['theta']} vs reference {1.0 / ref['lambda']}"
        if cmd == "latency" and not _close(out["latency_linear"], ref["latency"]):
            return f"latency {out['latency_linear']} vs reference {ref['latency']}"
        return None
    if cmd in ("robust-throughput", "robust-latency"):
        q = int(_flag(argv, "--q"))
        if cmd == "robust-throughput":
            key, sense, expected = f"rt{q}{'p' if '--paired-failure' in argv else ''}", "min", pivots
        else:
            # the printed total leaves out the lambda_max throughput solve
            key, sense, expected = f"rl{q}", "max", pivots - nominal_pivots
        if out["pivots_total"] != expected:
            return f"printed pivots_total {out['pivots_total']} but {expected} counted"
        return _check_scenarios(out, ref[key], sense)
    if cmd in ("robustify-throughput", "robustify-latency"):
        delta = out["delta_b"]
        if len(delta) != inst.m or min(delta) < 0:
            return "delta_b must have one non-negative entry per edge"
        if sum(delta) > BUDGET * (1 + 1e-9):
            return f"delta_b sums to {sum(delta)} > budget {BUDGET}"
        if cmd == "robustify-throughput":
            value, zero, opt = out["robust_lambda"], ref["thr_zero"], ref["thr_opt"]
            if not _close(value, reeval("thr", delta)):
                return f"robust_lambda {value} vs oracle at the allocation {reeval('thr', delta)}"
            reference = opt if out["method"] == "cutting-plane" else zero
            if value < reference - RTOL * max(1.0, abs(reference)):
                return f"robust_lambda {value} is worse than the reference {reference}"
            if value > opt + RTOL * max(1.0, abs(opt)):
                return f"robust_lambda {value} beats the optimum {opt}"
        else:
            value, opt = out["robust_latency"], ref["lat_opt"]
            if not _close(value, reeval("lat", delta)):
                return f"robust_latency {value} vs oracle at the allocation {reeval('lat', delta)}"
            reference = opt if out["method"] == "cutting-plane" else ref["lat_zero"]
            if value > reference + RTOL * max(1.0, abs(reference)):
                return f"robust_latency {value} is worse than the reference {reference}"
            if value < opt - RTOL * max(1.0, abs(opt)):
                return f"robust_latency {value} beats the optimum {opt}"
        return None
    return f"no check for command {cmd}"


def main(argv):
    """Usage: workloads.py WORKLOAD SEED START STEP OUT_JSON

    Writes slots START, START+STEP, ... of a run to OUT_JSON; run.py starts
    one such process per core to compute the references in parallel."""
    workload, seed, start, step, out = argv[1], int(argv[2]), int(argv[3]), int(argv[4]), argv[5]
    slots = [slot(workload, seed, j) for j in range(start, WORKLOADS[workload]["count"], step)]
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(slots, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
