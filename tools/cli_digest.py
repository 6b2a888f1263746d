"""Digest of the CLI output of perfbench workload jobs, for byte-identity checks.

    python3 tools/cli_digest.py OUT.json [--workloads W ...] [--seeds N ...]

Runs every job of each (workload, seed) batch of ``perfbench/workloads.py``
in-process through ``tubeforge.cli.main``, from a scratch directory holding
the batch's configs, with every warning shown, and writes {job: [exit code,
sha256 of stdout, sha256 of stderr]}, plus the same record of
``tubeforge selftest`` under the key ``selftest``: two commits print the
same output exactly when their files are equal.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tubeforge.cli import main  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]


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
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args()
    Path(args.output).write_text(json.dumps(digest(args.workloads, args.seeds), indent=1) + "\n")
