"""Alternating A/B pairs of the benchmark on two checkouts, and the gain rule.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR [--workloads W ...]
                              [--pairs 10] [--seconds S] [--seed N]

For each workload, runs ``perfbench/run.py --trace 0`` from each checkout
``--pairs`` times, alternating which side runs first, with the same seed and
run length on both sides.  Each run's end-to-end metrics go to stderr as it
ends.  Then, per workload and end-to-end metric of ``BENCHMARK.json`` (read
from this repository), stdout has each side's median and quartiles, the
pairs the change won (ties count for neither side), whether a gain may be
claimed (at least nine tenths of the pairs won and the medians further
apart than the parent's interquartile range) and the change of the median
against the metric's bound.  Failed jobs are totalled per side.  Standard
library only; nothing under either checkout's ``perfbench/`` is edited.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object run.py prints last, from a run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 20 * seconds, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> list:
    """First quartile, median and third quartile."""
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metric: dict, runs: dict) -> str:
    """One line: medians and quartiles, wins, the gain rule, the bound check."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [r["metrics"][name]["value"] for r in runs["parent"]]
    change = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = (pm - cm) if lower else (cm - pm)
    rule = wins >= 0.9 * len(parent) and gap > p3 - p1
    worse = -gap / pm
    return (f"  {name:<12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]"
            f"  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  wins {wins}/{len(parent)}"
            f"  gain rule {'met' if rule else 'not met'}  change {(cm - pm) / pm:+.1%}"
            f" ({'within' if worse <= metric['bound'] else 'BEYOND'}"
            f" the {metric['bound']:.0%} bound)")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                result = run_once(checkouts[side], workload, args.seed, args.seconds)
                runs[side].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} pair {pair + 1} {side}: {values} "
                      f"failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
        results[workload] = runs
    print(f"{args.pairs} alternating pairs, seed {args.seed}, --seconds {args.seconds:g}")
    for workload, runs in results.items():
        failed = {side: (sum(r["failed"] for r in runs[side]),
                         sum(r["attempted"] for r in runs[side])) for side in SIDES}
        print(f"{workload}: failed jobs parent {failed['parent'][0]}/{failed['parent'][1]}, "
              f"change {failed['change'][0]}/{failed['change'][1]}")
        for metric in benchmark["end_to_end"]:
            print(summarize(metric, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
