"""robustflow benchmark: seeded CLI workloads checked against an LP oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload tree-q1 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (``wall_s``, ``setup_s``, ``pivots_total``, ``peak_rss_mb``,
``ok_ratio``); with ``--trace 1`` it holds the per-layer metrics.  The
program is imported from ``src/`` of the checkout; each measurement runs in
a fresh process (worker.py).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from oracle import Instance
from workloads import WORKLOADS, check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, "_cache")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 5
OP_DEADLINE_S = 30.0
# every measurement must end this long after start, so the run exits in time
RUN_BUDGET_S = 140.0
ORACLE_PROCESSES = 2


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# --- instances and references --------------------------------------------

def _version():
    digest = hashlib.sha256()
    for name in ("gen.py", "oracle.py", "workloads.py"):
        with open(os.path.join(HERE, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _compute_slots(workload, seed, staging):
    """All instances of a run with references, from one process per core."""
    parts = [os.path.join(staging, f"part{k}.json") for k in range(ORACLE_PROCESSES)]
    procs = [subprocess.Popen([sys.executable, os.path.join(HERE, "workloads.py"), workload,
                               str(seed), str(k), str(ORACLE_PROCESSES), part], cwd=ROOT)
             for k, part in enumerate(parts)]
    try:
        codes = [proc.wait(timeout=RUN_BUDGET_S) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise RuntimeError(f"reference computation failed with exit codes {codes}")
    slots = []
    for part in parts:
        with open(part, encoding="utf-8") as handle:
            slots += json.load(handle)
        os.remove(part)
    return sorted(slots, key=lambda item: item[0])


def prepare(workload, seed):
    """Generate the run's instances and their references once per seed and
    version of the generator; returns the cache directory."""
    directory = os.path.join(CACHE, f"{workload}-{seed}")
    manifest = os.path.join(directory, "manifest.json")
    version = _version()
    if os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as handle:
            if json.load(handle).get("version") == version:
                return directory
    began = time.perf_counter()
    os.makedirs(CACHE, exist_ok=True)
    staging = tempfile.mkdtemp(dir=CACHE)
    try:
        slots = _compute_slots(workload, seed, staging)
        instances = []
        for name, text, (links, demands), ref in slots:
            with open(os.path.join(staging, name + ".txt"), "w", encoding="utf-8") as handle:
                handle.write(text)
            instances.append({"name": name, "links": links, "demands": demands, "ref": ref})
        with open(os.path.join(staging, "instances.json"), "w", encoding="utf-8") as handle:
            json.dump(instances, handle)
        with open(os.path.join(staging, "manifest.json"), "w", encoding="utf-8") as handle:
            json.dump({"version": version, "workload": workload, "seed": seed}, handle)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(staging, directory)
    log(f"generated {len(slots)} instances with references in {time.perf_counter() - began:.1f} s")
    return directory


def load_instances(directory):
    with open(os.path.join(directory, "instances.json"), encoding="utf-8") as handle:
        instances = json.load(handle)
    for item in instances:
        item["path"] = os.path.join(directory, item["name"] + ".txt")
    return instances


def batch_ops(workload, instances):
    ops = []
    for item in instances:
        for argv in WORKLOADS[workload]["commands"]:
            ops.append({"id": len(ops), "argv": argv + ["--network", item["path"]],
                        "instance": item["name"], "command": argv})
    return ops


# --- worker processes ----------------------------------------------------

def run_worker(spec, workdir, tag, stop_at):
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    timeout = max(10.0, stop_at - time.time() + 20.0)
    proc = subprocess.run([sys.executable, WORKER, spec_path, result_path],
                          cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def measure_setup(instances, workdir, stop_at):
    """Median fresh-process time of import + parse + initial tableaux.
    Runs after the measurement, so byte-compilation is not counted."""
    spec = {"mode": "setup", "instances": [i["path"] for i in instances]}
    times = [run_worker(spec, workdir, f"setup-{k}", stop_at)["setup_s"]
             for k in range(SETUP_REPEATS)]
    return statistics.median(times)


# --- checks --------------------------------------------------------------

class Checker:
    """Checks each op's stdout against the references, re-evaluating
    robustify allocations with the oracle (cached per allocation)."""

    def __init__(self, workload, instances, directory):
        self.spec = WORKLOADS[workload]
        self.by_name = {i["name"]: i for i in instances}
        self.path = os.path.join(directory, "reeval.json")
        self.cache = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.cache = json.load(handle)
        self.oracles = {}

    def oracle(self, name):
        if name not in self.oracles:
            item = self.by_name[name]
            self.oracles[name] = Instance(self.spec["n"], item["links"], item["demands"])
        return self.oracles[name]

    def errors(self, ops, records, nominal_pivots):
        """{op id: error} for every failed op of one pass."""
        errors = {}
        for op, rec in zip(ops, records):
            if rec["error"] or rec["rc"] != 0:
                errors[op["id"]] = rec["error"] or f"exit code {rec['rc']}"
                continue
            name = op["instance"]
            inst = self.oracle(name)

            def reeval(kind, delta, name=name, inst=inst):
                key = f"{name}|{kind}|{','.join(repr(v) for v in delta)}"
                if key not in self.cache:
                    caps = inst.caps + np.array(delta, dtype=float)
                    q = self.spec["q"]
                    self.cache[key] = (inst.worst_throughput(q, caps) if kind == "thr"
                                       else inst.worst_delay(q, caps))
                return self.cache[key]

            error = check(op["command"], rec["stdout"], self.by_name[name]["ref"],
                          rec["pivots"], nominal_pivots.get(self.by_name[name]["path"], 0),
                          inst, reeval)
            if error:
                errors[op["id"]] = error
        return errors

    def save(self):
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.cache, handle)


# --- runs ----------------------------------------------------------------

def warmup_argvs(ops):
    """The commands of the batch's first instance, run once before timing."""
    return [op["argv"] for op in ops if op["instance"] == ops[0]["instance"]]


def measure_spec(ops, seconds, stop_at):
    return {"mode": "measure", "ops": ops, "seconds": seconds, "warmup": warmup_argvs(ops),
            "op_deadline": OP_DEADLINE_S, "stop_at": stop_at,
            "nominal_pivots_for": sorted({o["argv"][-1] for o in ops
                                          if o["argv"][0] == "robust-latency"})}


def untraced(args, ops, instances, directory, workdir, stop_at):
    result = run_worker(measure_spec(ops, args.seconds, stop_at), workdir, "measure", stop_at)
    setup_s = measure_setup(instances, workdir, stop_at)
    passes = result["passes"]
    checker = Checker(args.workload, instances, directory)
    errors = checker.errors(ops, result["first_pass"], result["nominal_pivots"])
    checker.save()
    for op_id, error in sorted(errors.items())[:5]:
        log(f"op {op_id} ({' '.join(ops[op_id]['argv'][:-2])} on {ops[op_id]['instance']}): {error}")
    wrong = [i for i in errors if result["first_pass"][i]["rc"] == 0
             and not result["first_pass"][i]["error"]]
    consistent = (all(p["digest"] == passes[0]["digest"] for p in passes)
                  and all(p["pivots"] == passes[0]["pivots"] for p in passes))
    if not consistent:
        log("passes of the same batch printed different output or pivot counts")
    attempted = len(ops) * len(passes)
    failed = len(errors) + sum(len(p["failed"]) for p in passes[1:])
    walls = [p["wall_s"] for p in passes]
    log(f"{len(passes)} passes of {len(ops)} ops, wall {min(walls):.2f}-{max(walls):.2f} s")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "pivots_total": (passes[0]["pivots"], "count"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return not wrong and consistent, attempted, failed, metrics


def extras_ops(args, instances):
    """Side measurements of the traced run: each workload's first command
    with --workers 1 and 2 (alternating), and bench (warm vs cold)."""
    spec = WORKLOADS[args.workload]
    if spec["q"] == 0:
        return []
    ops = []
    first = spec["commands"][0]
    for _ in range(2):
        for item in instances[:4]:
            for workers in ("1", "2"):
                ops.append({"id": len(ops), "kind": f"w{workers}", "instance": item["name"],
                            "argv": first + ["--workers", workers, "--network", item["path"]]})
    for item in instances[:2]:
        ops.append({"id": len(ops), "kind": "bench", "instance": item["name"],
                    "argv": ["bench", "--q", str(spec["q"]), "--network", item["path"]]})
    return ops


def traced(args, ops, instances, directory, workdir, stop_at):
    plain = run_worker(measure_spec(ops, 0, stop_at), workdir, "untraced", stop_at)
    trace_path = os.path.join(directory, f"trace-{args.workload}-{args.seed}.jsonl")
    traced_result = run_worker({"mode": "traced", "ops": ops, "warmup": warmup_argvs(ops),
                                "op_deadline": OP_DEADLINE_S,
                                "stop_at": stop_at, "trace_path": trace_path},
                               workdir, "traced", stop_at)
    side = extras_ops(args, instances)
    side_result = run_worker(measure_spec(side, 0, stop_at), workdir, "side",
                             stop_at) if side else None

    checker = Checker(args.workload, instances, directory)
    errors = checker.errors(ops, plain["first_pass"], plain["nominal_pivots"])
    checker.save()
    same = [a["stdout"] == b["stdout"] for a, b in zip(plain["first_pass"], traced_result["first_pass"])]
    if not all(same):
        log(f"traced stdout differs from untraced stdout on {same.count(False)} ops")
    traced_failed = [r for r in traced_result["first_pass"] if r["rc"] != 0 or r["error"]]
    metrics = {}
    for name, (value, unit) in traced_result["metrics"].items():
        if value is None:
            log(f"warning: {name} is absent, its wrap point is gone: {traced_result['missing']}")
        metrics[name] = (value, unit)
    plain_wall = plain["passes"][0]["wall_s"]
    metrics["trace.overhead_ratio"] = (traced_result["wall_s"] / plain_wall, "ratio")

    speedup, warm_cold, side_ok = 0.0, 0.0, True
    if side_result:
        recs = side_result["first_pass"]
        side_ok = all(r["rc"] == 0 and not r["error"] for r in recs)
        by_kind = {}
        for op, rec in zip(side, recs):
            by_kind.setdefault(op["kind"], []).append((op, rec))
        w1 = sum(r["seconds"] for _, r in by_kind["w1"])
        w2 = sum(r["seconds"] for _, r in by_kind["w2"])
        speedup = w1 / w2 if w2 else 0.0
        outputs = {}
        for op, rec in by_kind["w1"] + by_kind["w2"]:
            outputs.setdefault(op["instance"], set()).add(rec["stdout"])
        if any(len(v) != 1 for v in outputs.values()):
            side_ok = False
            log("--workers 1 and --workers 2 printed different output")
        warm = cold = 0
        for _, rec in by_kind["bench"]:
            total = rec["stdout"].strip().splitlines()[-1].split(",")
            warm += int(total[2])
            cold += int(total[3])
        warm_cold = warm / cold if cold else 0.0
    metrics["robust.workers2_speedup"] = (speedup, "ratio")
    metrics["robust.warm_cold_pivot_ratio"] = (warm_cold, "ratio")

    attempted = 2 * len(ops) + len(side)
    failed = len(errors) + len(traced_failed) + (0 if side_ok else 1)
    wrong = [i for i in errors if plain["first_pass"][i]["rc"] == 0 and not plain["first_pass"][i]["error"]]
    log(f"traced {traced_result['spans']} spans; untraced pass {plain_wall:.2f} s, "
        f"traced pass {traced_result['wall_s']:.2f} s")
    return not wrong and all(same) and side_ok, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.time()
    stop_at = started + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "robustflow", "cli.py")):
        log(f"no robustflow sources under {os.path.join(ROOT, 'src')}")
        return 2

    directory = prepare(args.workload, args.seed)
    instances = load_instances(directory)
    ops = batch_ops(args.workload, instances)
    workdir = tempfile.mkdtemp(dir=CACHE, prefix="run-")
    try:
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(args, ops, instances, directory, workdir, stop_at)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        raise RuntimeError("metric set differs from BENCHMARK.json's")
    log(f"run took {time.time() - started:.1f} s")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
