"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
criteria that need only the library are rows of
``tubeforge.cli.acceptance_checks()``, the table ``tubeforge selftest`` runs;
their tests here run the row and add the criterion's time bound.  Criterion
6 needs scipy, criterion 9 is expected red and criterion 11 runs the
selftest, so those three are test-only.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tubeforge import (
    mellin_numerator,
    scaling_exponent_fit,
    similarity_dimension,
)
from tubeforge.cli import acceptance_checks

from test_tubeformula import quadrature_numerator

ROWS = {number: (label, check) for number, label, check in acceptance_checks()}


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_row(number, seconds=None):
    """Report the table row of a criterion, failing it past `seconds`."""
    label, check = ROWS[number]
    t0 = time.perf_counter()
    ok, detail = check()
    elapsed = time.perf_counter() - t0
    if seconds is not None:
        ok = ok and elapsed < seconds
        detail += f", {elapsed:.2f} s"
    report(number, label, ok, detail)


def test_01_moran_closed_forms():
    label, check = ROWS[1]
    check()  # warm-up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        ok, detail = check()
        best = min(best, time.perf_counter() - t0)
    # Both closed forms in one timed call, so each is under the bound too.
    report(1, label, ok and best < 1e-3,
           f"{detail}, runtime {best * 1e3:.3f} ms for both lists")


def test_02_lattice_zeros_exact():
    run_row(2)


def test_03_winding_completeness():
    run_row(3, seconds=10.0)


def test_04_functional_equation():
    run_row(4)


def test_05_constant_regime():
    run_row(5)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_06_mellin_numerator_quadrature(cantor, square):
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for model in (cantor, square):
        gen = model.generator
        n = gen.dimension
        for _ in range(10):
            s = complex(rng.uniform(n - 1 + 0.05, n - 0.05), rng.uniform(-3, 3))
            worst = max(worst, abs(mellin_numerator(gen, s)
                                   - quadrature_numerator(gen, s)))
    elapsed = time.perf_counter() - t0
    report(6, "Mellin numerator quadrature", worst < 1e-7 and elapsed < 5.0,
           f"worst error {worst:.3e} at 20 strip points, {elapsed:.2f} s")


def test_07_residue_agreement_cantor():
    run_row(7, seconds=30.0)


def test_08_residue_agreement_nonlattice():
    run_row(8)


def test_09_scaling_slope(cantor, square):
    details = []
    ok = True
    for model, name in ((cantor, "Cantor"), (square, "square")):
        slope = scaling_exponent_fit(model, 30)
        target = model.generator.dimension - similarity_dimension(model.ratios).value
        good = abs(slope - target) <= 0.05
        ok = ok and good
        details.append(f"{name}: slope {slope:.4f} vs n-D {target:.4f}")
    report(9, "scaling slope fit", ok, "; ".join(details))


def test_10_inversion_cross_check():
    run_row(10)


def test_11_selftest_determinism():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "tubeforge", "selftest"],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stdout.decode()
        runs.append(proc.stdout)
    report(11, "selftest determinism", runs[0] == runs[1],
           "byte-identical across two fresh processes")
