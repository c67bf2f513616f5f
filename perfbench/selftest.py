"""Self-tests of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. The same seed gives byte-identical instance files (two independent
   generations, and the files a run cached).
2. ``pivots_total`` is identical across two untraced runs of one seed.
3. A traced run prints the same CLI stdout as an untraced pass: run.py
   reports ``correct: false`` otherwise, so the test requires ``correct``.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS, slot

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip(), flush=True)

    for workload in WORKLOADS:
        first = [slot(workload, SEED, j)[1] for j in range(3)]
        second = [slot(workload, SEED, j)[1] for j in range(3)]
        report(f"{workload}: same seed, byte-identical instances", first == second)

        runs = [bench(workload, 0) for _ in range(2)]
        cached = os.path.join(HERE, "_cache", f"{workload}-{SEED}")
        on_disk = []
        for j, text in enumerate(first):
            path = os.path.join(cached, f"{workload}-s{SEED}-i{j:03d}.txt")
            with open(path, encoding="utf-8") as handle:
                on_disk.append(handle.read() == text)
        report(f"{workload}: cached instance files match a fresh generation", all(on_disk))
        pivots = [r["metrics"]["pivots_total"]["value"] for r in runs]
        report(f"{workload}: pivots_total identical across runs", pivots[0] == pivots[1],
               f"({pivots[0]} vs {pivots[1]})")
        report(f"{workload}: untraced runs correct", all(r["correct"] for r in runs))

        traced = bench(workload, 1)
        report(f"{workload}: traced stdout equals untraced stdout", traced["correct"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
