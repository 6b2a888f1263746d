"""Tests of the benchmark itself: generator, verifier and tracer."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS, Probe, Tracer  # noqa: E402

NONLATTICE = workloads.interval_spray([0.5, 0.3], 1.0)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def small_jobs(tmp_path):
    """One cheap job of every kind the workloads use, with their configs."""
    sprays = {"cantor": workloads.CANTOR, "square": workloads.SQUARE, "nl": NONLATTICE}
    jobs = [
        workloads._czeros_job("nl", NONLATTICE["ratios"], 2),
        workloads._czeros_job("cantor", workloads.CANTOR["ratios"], 20),
        workloads._scan_job("cantor", 1e-3, 0.15, 20, 50, 1e-2),
        workloads.Job("tube", "cantor", ("--eps", "0.05", "--method", "both", "--pairs", "50"),
                      {"kind": "both", "eps": 0.05, "tol_rel": 1e-2}),
        workloads.Job("tube", "square", ("--eps", repr(0.5 * 2.0**-8), "--method", "direct"),
                      {"kind": "direct", "eps": 0.5 * 2.0**-8}),
        workloads.Job("tube", "square", ("--eps", "0.125", "--method", "invmellin"),
                      {"kind": "invmellin", "eps": 0.125, "tol_abs": 1e-2}),
    ]
    workload = workloads.Workload("small", 0, "test", sprays, jobs)
    paths = workload.write_configs(tmp_path)
    return workload, [job.argv(paths[job.spray]) for job in jobs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_jobs(name):
    first = workloads.generate(name, 11).record()
    assert first == workloads.generate(name, 11).record()
    assert first != workloads.generate(name, 12).record()
    # Enough jobs for a tail latency above the median.
    assert first["job_count"] == len(first["jobs"]) > 2 * run.TAIL_BEYOND


@pytest.mark.parametrize("seed", [1, 2])
def test_job_cost_mix_does_not_depend_on_the_seed(seed):
    """The cost proxies the generator pins stay inside their strata."""
    deep = workloads.generate("direct-deep", seed)
    for job in deep.jobs:
        if job.spray != "square" and job.check["kind"] == "direct":
            ratios = deep.sprays[job.spray]["ratios"]
            count = workloads.count_vectors(ratios, job.check["k"], 10**6)
            assert min(abs(math.log(count / t)) for t in workloads._DEEP_VECTOR_TARGETS) < 0.5
    near = workloads.generate("near-lattice", seed)
    deltas = sorted(abs(s["ratios"][1] / 0.25 - 1) for s in near.sprays.values())
    assert 10**-4.42 <= deltas[len(deltas) // 2] <= 1e-4  # the median job: the cheap band
    zeros = workloads.generate("nonlattice-czeros", seed)
    kinds = sorted((s["dimension"], len(s["ratios"]), job.command)
                   for job in zeros.jobs if job.spray != "square"
                   for s in [zeros.sprays[job.spray]])
    assert kinds == sorted((n, j, c) for (n, j) in workloads._NONLATTICE_SMALLEST
                           for c in ("czeros",) * 3 + ("scan",))


def test_traced_and_untraced_stdout_identical(cli, small_jobs):
    workload, argvs = small_jobs
    plain = run.run_round(cli, argvs)
    traced = run.run_round(cli, argvs, Tracer())
    for a, b in zip(plain.executions, traced.executions):
        assert a.code == 0, a.err
        assert (a.code, a.out) == (b.code, b.out)
    assert run.job_failures(workload, [plain]) == [""] * len(argvs)


def test_rounds_after_the_first_stop_at_the_deadline(cli, small_jobs):
    _, argvs = small_jobs
    rounds = run.run_rounds(cli, argvs, 0.0)
    assert len(rounds) == 1 and rounds[0].complete
    cut = run.run_round(cli, argvs, deadline=time.perf_counter())
    assert len(cut.executions) == 1 and not cut.complete


def test_deterministic_counters_repeat_exactly(cli, small_jobs):
    _, argvs = small_jobs
    tracer = Tracer()
    first = run.run_round(cli, argvs, tracer).layers
    second = run.run_round(cli, argvs, tracer).layers
    assert tracer.absent == []
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    assert first["complexdims.route_nonlattice"] == 1
    assert first["complexdims.route_lattice"] == 3
    assert first["complexdims.f_nodes"] > 0 and first["complexdims.rect_counts"] > 0
    assert first["parallel.items"] == 20
    assert first["tubeformula.invmellin_calls"] == 1
    assert first["direct.vectors"] > 0 and first["summation.adds"] > 0
    assert first["cli.self_s"] > 0.0


def test_absent_probes_are_reported_not_fatal(cli, small_jobs, monkeypatch):
    _, argvs = small_jobs
    missing = (Probe("no_such_module", "f", calls="x.calls"), Probe("direct", "no_such_name"))
    monkeypatch.setattr(tracing, "PROBES", tracing.PROBES + missing)
    tracer = Tracer()
    traced = run.run_round(cli, argvs, tracer)
    assert tracer.absent == ["no_such_module.f", "direct.no_such_name"]
    assert traced.layers["direct.calls"] > 0


def test_verifier_flags_perturbed_values(cli, small_jobs):
    workload, argvs = small_jobs
    outputs = [e.out for e in run.run_round(cli, argvs).executions]
    zeros, _, scan, both, direct, _ = outputs

    def fails(index, text):
        job = workload.jobs[index]
        exact = reference.ExactTube(workload.sprays[job.spray]).values(
            reference.needed_eps(job, text))
        return reference.check_output(job, text, workload.sprays[job.spray], exact)

    records = json.loads(zeros)
    records[-1]["im"] += 1e-6
    assert fails(0, json.dumps(records))
    value = float(direct.split()[1])
    assert not fails(4, direct)
    assert fails(4, f"direct {value * (1 + 1e-11)!r}\n")
    rows = scan.splitlines()
    cells = rows[5].split(",")
    cells[2] = repr(float(cells[2]) * 1.1)
    assert fails(2, "\n".join(rows[:5] + [",".join(cells)] + rows[6:]) + "\n")
    residues = next(line for line in both.splitlines() if line.startswith("residues "))
    wrong = f"residues {float(residues.split()[1]) * 1.5!r}"
    assert not fails(3, both)
    assert fails(3, both.replace(residues, wrong))
    assert fails(5, "invmellin 0.5\n")


def test_exact_reference_matches_direct_oracle_at_shallow_depth(cli):
    from tubeforge import direct_tube_volume, spray_from_dict

    eps = [0.5 * 2.0**-k for k in range(1, 9)]
    exact = reference.ExactTube(workloads.SQUARE).values(eps)
    model = spray_from_dict(workloads.SQUARE)
    for e in eps:
        assert reference.rel_error(direct_tube_volume(model, e), exact[e]) < 1e-14


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
