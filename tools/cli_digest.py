"""Digest of the CLI output of perfbench workload jobs, for byte-identity checks.

    python3 tools/cli_digest.py OUT.json [--workloads W ...] [--seeds N ...]
                                [--against OLD.json]

Runs every job of each (workload, seed) batch of ``perfbench/workloads.py``
in-process through ``tubeforge.cli.main``, from a scratch directory holding
the batch's configs, with every warning shown, and writes {job: record},
plus the same record of ``tubeforge selftest`` under the key ``selftest``
and of each fixed invocation in ``PRESET_RUNS`` under ``preset <argv>``.  A
record holds the exit code and the sha256 of stdout and of stderr, the
numbers in stdout as written and the sha256 of stdout with each of them
replaced by ``#`` (its text); a run with ``-o FILE`` adds the sha256 of
FILE, or null if it wrote none.  Two commits print the same output exactly
when their files are equal.  With ``--against``, each key whose records
differ between OLD.json and OUT.json (or that is in only one of them) is
printed with how many numbers moved and the largest absolute and relative
move, and ``text`` when anything else changed; the exit status is 1 if any
key differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tubeforge import presets  # noqa: E402
from tubeforge.cli import main  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# Every command on the preset sprays, run from a directory holding cantor.json,
# square.json, broken.json (the Cantor string with a generator volume that
# breaks continuity at the inradius, so validation fails) and repeated.json
# (a lattice list whose polynomial 1 - 3z^2 - 2z^3 has the double root -1, so
# half of its zeros have multiplicity 2) and triple.json (b = 0.3: 1 - 6z^2 -
# 8z^3 - 3z^4 = (1 - 3z)(1 + z)^3 has the triple root -1).
PRESET_RUNS = (
    ["dim", "square.json"],
    ["validate", "cantor.json"],
    ["validate", "broken.json"],
    ["tube", "square.json", "--eps", "0.1", "--method", "residues", "--pairs", "20"],
    ["scan", "cantor.json", "--grid", "0.01:0.3:5:log", "--pairs", "20", "--format", "json"],
    ["czeros", "square.json", "--T", "20", "-o", "zeros.json"],
    ["tube", "cantor.json", "--eps", "0.1", "--method", "both", "-o", "tube.txt"],
    ["dim", "cantor.json", "-o", "dim.txt"],
    ["czeros", "repeated.json", "--T", "60"],
    ["tube", "repeated.json", "--eps", "0.05", "--method", "both"],
    ["scan", "repeated.json", "--grid", "0.01:0.2:5:log", "--pairs", "20"],
    ["czeros", "triple.json", "--T", "20"],
    ["tube", "triple.json", "--eps", "0.05", "--method", "both", "--pairs", "20"],
    ["scan", "triple.json", "--grid", "0.01:0.2:5:log", "--pairs", "20"],
    ["czeros", "square.json", "--T", "1e-13"],
    ["tube", "square.json", "--eps", "1e-100", "--method", "residues", "--pairs", "20"],
)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    record = {"exit": code, "stdout": sha256(stdout.encode()),
              "stderr": sha256(err.getvalue().encode()),
              "text": sha256(NUMBER.sub("#", stdout).encode()),
              "numbers": NUMBER.findall(stdout)}
    if "-o" in argv:
        written = Path(argv[argv.index("-o") + 1])
        record["file"] = sha256(written.read_bytes()) if written.exists() else None
        written.unlink(missing_ok=True)
    return record


def preset_config(model) -> dict:
    gen = model.generator
    return {"dimension": gen.dimension, "ratios": list(model.ratios.ratios),
            "generator": {"kappa": list(gen.kappa), "inradius": gen.inradius,
                          "volume": gen.volume}}


def preset_digest() -> dict:
    configs = {"cantor": preset_config(presets.cantor_spray()),
               "square": preset_config(presets.square_spray())}
    configs["broken"] = dict(configs["cantor"],
                             generator=dict(configs["cantor"]["generator"], volume=0.5))
    configs["repeated"] = {"dimension": 1, "ratios": [0.16, 0.16, 0.16, 0.064, 0.064],
                           "generator": {"kappa": [2.0], "inradius": 0.25, "volume": 0.5}}
    configs["triple"] = dict(configs["repeated"], ratios=[0.09] * 6 + [0.027] * 8 + [0.0081] * 3)
    result, home = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, config in configs.items():
            Path(work, f"{name}.json").write_text(json.dumps(config))
        os.chdir(work)
        try:
            for argv in PRESET_RUNS:
                result[f"preset {' '.join(argv)}"] = run(argv)
        finally:
            os.chdir(home)
    return result


def digest(names, seeds) -> dict:
    warnings.simplefilter("always")
    result, home = {}, os.getcwd()
    for name in names:
        for seed in seeds:
            workload = generate(name, seed)
            with tempfile.TemporaryDirectory() as work:
                workload.write_configs(work)
                os.chdir(work)  # relative config paths: no directory in any message
                try:
                    for index, job in enumerate(workload.jobs):
                        argv = job.argv(f"{job.spray}.json")
                        result[f"{name}/{seed}/{index} {' '.join(argv)}"] = run(argv)
                finally:
                    os.chdir(home)
    result["selftest"] = run(["selftest"])
    return result | preset_digest()


def differing(old: dict, new: dict) -> list:
    """Keys whose records differ, or that only one digest has, sorted."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def moves(old: dict, new: dict) -> str:
    """How two records of one key differ: the numbers of stdout that moved,
    the largest absolute and relative move, and ``text`` when anything else
    changed (exit code, stderr, a written file, or stdout around its
    numbers)."""
    if old is None or new is None:
        return "only in " + ("OUT" if old is None else "OLD")
    text = any(old.get(field) != new.get(field) for field in ("exit", "stderr", "file", "text"))
    moved = [(float(a), float(b)) for a, b in zip(old["numbers"], new["numbers"]) if a != b]
    line = f"{len(moved)} numbers moved"
    if moved:
        line += (f", max abs {max(abs(b - a) for a, b in moved):.3g}, max rel "
                 f"{max(abs(b - a) / (max(abs(a), abs(b)) or 1.0) for a, b in moved):.3g}")
    return line + (", text" if text else "")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--against", metavar="OLD.json",
                        help="compare with an earlier digest; exit 1 if any key differs")
    args = parser.parse_args()
    result = digest(args.workloads, args.seeds)
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    if args.against:
        old = json.loads(Path(args.against).read_text())
        keys = differing(old, result)
        for key in keys:
            print(f"{key}: {moves(old.get(key), result.get(key))}")
        print(f"{len(keys)} keys differ from {args.against}")
        sys.exit(1 if keys else 0)
