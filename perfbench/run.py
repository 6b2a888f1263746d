"""tubeforge benchmark: seeded CLI workloads, verified outputs, traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload (see ``workloads.py``) is a batch of CLI jobs generated from
the seed and written as config files under ``perfbench/.work``.  One client
runs the jobs in-process through ``tubeforge.cli.main(argv)`` with stdout
captured, each job starting when the previous one returns (a closed loop).
The batch is repeated until ``--seconds`` have passed: the first round
always completes, and a later round stops after the job during which the
time ran out, so a batch longer than ``--seconds`` runs once.  The only
threads are the workers of ``tubeforge.parallel.map_ordered`` (one per
core, ``TUBEFORGE_THREADS`` is removed from the environment).

After the timed rounds every job output is checked against independent
references (``reference.py``).  A job fails if it raises, exits non-zero,
its output fails the check, or its output differs from its first round.

The last line of stdout is one JSON object: ``correct`` (no job output
changed between rounds, traced or not), ``attempted`` and ``failed`` (jobs
of the batch, however many rounds ran; failed/attempted is the fail ratio)
and ``metrics``:

``--trace 0``, end to end, with tracing off:
    setup_s      median of 10 fresh processes timing import tubeforge+numpy and
                 loading and validating every config of the workload; half
                 run before the jobs and half after, so that they sample the
                 machine's speed over the whole run
    wall_s       first job start to last job end, mean of the complete rounds
    job_p50_s    median job latency (each job: the mean of its executions)
    job_tail_s   job latency with exactly 10 jobs above it (the maximum when
                 there are 10 jobs or fewer); the percentile is printed
    peak_rss_mb  peak resident memory of this process after the rounds

``--trace 1``, per layer: untraced and traced whole rounds alternate; see
``tracing.py`` for the counters and self times, reported as medians over
the traced rounds.  ``trace.overhead_s`` is traced minus untraced wall time.
Spans go to ``perfbench/out/spans-<workload>-s<seed>-trace.jsonl``.  Every
run records its generated inputs with per-job outcomes (and, traced, per-job
counters) in ``perfbench/out/<workload>-s<seed>[-trace].json``.

Exits 2 without a result when ``src/tubeforge`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import reference
from tracing import COUNTERS, SELF_TIMES, Tracer, write_spans
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5  # before the jobs, and as many after
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Execution:
    start: float
    end: float
    code: object  # exit code, or a description of what was raised
    out: str
    err: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Round:
    traced: bool
    executions: list
    complete: bool = True
    layers: dict = None
    spans: list = None

    @property
    def wall(self) -> float:
        return self.executions[-1].end - self.executions[0].start


class MissingProgram(Exception):
    pass


def import_cli():
    """tubeforge.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "tubeforge"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no tubeforge sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tubeforge.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"tubeforge imported from {cli.__file__}, not {package}")
    return cli


def measure_setup(config_paths) -> list:
    """Set-up seconds from fresh processes (see setup_probe.py)."""
    env = {k: v for k, v in os.environ.items() if k != "TUBEFORGE_THREADS"}
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, config_paths)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              env=env, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_job(cli, argv) -> Execution:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    except Exception as exc:  # a crash fails this job; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return Execution(start, end, code, out.getvalue(), err.getvalue())


def run_round(cli, argvs, tracer=None, deadline=None) -> Round:
    """One pass over the batch; untraced, it stops after the job that ends
    past ``deadline`` (a perf_counter time)."""
    if tracer is None:
        executions = []
        for argv in argvs:
            executions.append(run_job(cli, argv))
            if deadline is not None and executions[-1].end >= deadline:
                break
        return Round(False, executions, len(executions) == len(argvs))
    tracer.reset()
    tracer.install()
    executions = []
    try:
        for index, argv in enumerate(argvs):
            tracer.job = index
            execution = run_job(cli, argv)
            tracer.count("cli.out_bytes", len(execution.out.encode("utf-8")))
            executions.append(execution)
    finally:
        tracer.job = None
        tracer.uninstall()
    return Round(True, executions, True, tracer.metrics(), tracer.spans)


def run_rounds(cli, argvs, seconds: float, tracer=None) -> list:
    """Closed-loop rounds until ``seconds`` pass.  Untraced, the first round
    is whole and the last may be cut short; with a tracer, whole untraced and
    traced rounds alternate and at least one of each runs."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is None:
            rounds.append(run_round(cli, argvs, deadline=deadline if rounds else None))
        else:
            traced = len(rounds) % 2 == 1
            rounds.append(run_round(cli, argvs, tracer if traced else None))
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            return rounds


def job_failures(workload, rounds) -> list:
    """Per job: "" when its first output is right, else why it failed."""
    first = rounds[0].executions
    wanted = defaultdict(set)
    for job, execution in zip(workload.jobs, first):
        if execution.code == 0:
            wanted[job.spray].update(reference.needed_eps(job, execution.out))
    exact = {spray: reference.ExactTube(workload.sprays[spray]).values(eps)
             for spray, eps in wanted.items()}
    reasons = []
    for job, execution in zip(workload.jobs, first):
        if execution.code != 0:
            reasons.append(f"exit {execution.code}: {execution.err.strip()[-300:]}")
        else:
            reasons.append(reference.check_output(
                job, execution.out, workload.sprays[job.spray], exact.get(job.spray, {})))
    return reasons


def tail_latency(latencies):
    """(latency with TAIL_BEYOND jobs above it, its percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup_samples, rounds, rss_mb) -> tuple:
    timed = [r for r in rounds if not r.traced]
    # Means over the rounds, per job and for the batch.  On a shared machine
    # the speed drifts, and can halve for seconds at a time; a mean moves
    # smoothly with the share of the run spent slow, where a median or a
    # minimum jumps from one state to the other.
    latencies = [statistics.fmean(r.executions[i].seconds for r in timed
                                  if i < len(r.executions))
                 for i in range(len(timed[0].executions))]
    tail, percentile = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(r.wall for r in timed if r.complete),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "peak_rss_mb": rss_mb,
    }
    return metrics, latencies, percentile


def per_layer(rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    out = {name: statistics.median(r.layers[name] for r in traced)
           for name in (*COUNTERS, *SELF_TIMES)}
    traced_wall = statistics.median(r.wall for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(r.wall for r in untraced)
    return out


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one benchmark pass: (result line, record of inputs and outcomes, rounds)."""
    cli = import_cli()
    os.environ.pop("TUBEFORGE_THREADS", None)
    workload = generate(workload_name, seed)
    workdir = HERE / ".work" / f"{workload_name}-s{seed}-{os.getpid()}"
    try:
        paths = workload.write_configs(workdir)
        setup_samples = measure_setup(paths.values())
        argvs = [job.argv(paths[job.spray]) for job in workload.jobs]
        tracer = Tracer() if trace else None
        rounds = run_rounds(cli, argvs, seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_samples += measure_setup(paths.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons = job_failures(workload, rounds)
    first = rounds[0].executions
    changed = sorted({i for r in rounds for i, execution in enumerate(r.executions)
                      if (execution.code, execution.out) != (first[i].code, first[i].out)})
    for i in changed:
        reasons[i] = reasons[i] or "output differs between rounds"
    attempted = len(workload.jobs)
    failed = sum(bool(reason) for reason in reasons)

    e2e, latencies, percentile = end_to_end(setup_samples, rounds, rss_mb)
    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in per_layer(rounds).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    result = {"correct": not changed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = workload.record()
    record.update({
        "rounds": len(rounds),
        "complete_rounds": sum(r.complete for r in rounds),
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "tail_percentile": percentile,
        "fail_ratio": failed / attempted,
        "changed_jobs": changed,
        "absent_probes": tracer.absent if trace else [],
    })
    for i, entry in enumerate(record["jobs"]):
        entry["latency_s"] = latencies[i]
        entry["failure"] = reasons[i]
        if trace:
            entry["counters"] = dict(tracer.counters(job=i))
    return result, record, rounds


def report(record, result) -> None:
    """Human-readable summary lines, printed before the result line."""
    e2e = record["end_to_end"]
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['job_count']} jobs, repeated-spray share "
          f"{record['repeated_spray_share']:.3f}, {record['rounds']} rounds "
          f"({record['complete_rounds']} complete)")
    print(f"  why: {record['why']}")
    for name, value in e2e.items():
        print(f"  {name:12s} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  job_tail_s is the p{record['tail_percentile']:.1f} of {record['job_count']} jobs")
    print(f"  fail_ratio   {record['fail_ratio']:.4f} "
          f"({result['failed']} of {result['attempted']} jobs)")
    failures = [(j["argv"], j["failure"]) for j in record["jobs"] if j["failure"]]
    for argv, failure in failures[:5]:
        print(f"  failed: {' '.join(argv)}: {failure}")
    if len(failures) > 5:
        print(f"  ... {len(failures) - 5} more failed jobs")
    if record["absent_probes"]:
        print(f"  absent probes: {', '.join(record['absent_probes'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record, rounds = benchmark(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        write_spans(OUT / f"spans-{stem}.jsonl",
                    {n: r.spans for n, r in enumerate(rounds) if r.traced})
    report(record, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
