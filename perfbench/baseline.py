"""Measure the benchmark's baseline and write perfbench/baseline.json.

Usage, from the repository root (about 30 minutes on 2 cores):

    python3 perfbench/baseline.py

Runs every workload once per seed 1..10 with tracing off and once with
tracing on (seed 1), each for BENCHMARK.json's run_seconds, then the known
failing inputs once each through the real CLI.  Records per workload the
median and quartiles of every end-to-end metric and its spread
(interquartile range over median), the fail ratio and the traced per-layer
counts, together with the commit, Python and numpy versions, the core
count and the thread-pool size.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, interval_spray, window_for_pairs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Inputs each too slow for a run's budget, kept out of the timed workloads:
# (ratios, pairs, outcome when last measured).
KNOWN_INPUTS = (
    ([0.5, 0.25 * (1 + 1e-6)], 5, "ConvergenceError (13 vs 15)"),
    ([0.5, 0.25 * (1 - 1e-6)], 10, "ConvergenceError (23 vs 25)"),
    ([0.5000423956875157, 0.25], 2, "succeeds after ~40 s and ~1.5 GB"),
)
KNOWN_TIMEOUT_S = 300
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": values}


def known_input(ratios, pairs, expected) -> dict:
    config = HERE / ".work" / f"known-{pairs}.json"
    config.parent.mkdir(exist_ok=True)
    config.write_text(json.dumps(interval_spray(ratios, 1.0)), encoding="utf-8")
    argv = ["czeros", str(config), "--T", repr(window_for_pairs(ratios, pairs))]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TUBEFORGE_THREADS", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "tubeforge", *argv], env=env,
                              capture_output=True, text=True, timeout=KNOWN_TIMEOUT_S)
        outcome = {"exit_code": proc.returncode, "error": proc.stderr.strip()}
    except subprocess.TimeoutExpired:
        outcome = {"exit_code": None, "error": f"timed out after {KNOWN_TIMEOUT_S} s"}
    finally:
        config.unlink(missing_ok=True)
    return {"ratios": ratios, "pairs": pairs, "argv": ["czeros", "<config>", *argv[2:]],
            "expected": expected, "seconds": time.perf_counter() - start, **outcome}


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    try:
        from tubeforge.parallel import thread_count
        pool = thread_count()
    except ImportError:
        pool = None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return {"commit": proc.stdout.strip() or None, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "pool_size": pool}


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    os.environ.pop("TUBEFORGE_THREADS", None)

    out = {**environment(), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        names = runs[0]["metrics"]
        traced = bench(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "fail_ratio": [r["failed"] / r["attempted"] for r in runs],
            "end_to_end": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
            "traced_seed_1": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        print(workload, {n: round(s["spread"], 3)
                         for n, s in out["workloads"][workload]["end_to_end"].items()},
              flush=True)
    out["known_inputs"] = [known_input(*known) for known in KNOWN_INPUTS]
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
