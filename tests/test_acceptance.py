"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from tubeforge import (
    RatioList,
    count_zeros_rectangle,
    direct_tube_volume,
    find_complex_dimensions,
    functional_equation_residual,
    inverse_mellin_numeric,
    mellin_numerator,
    scaling_exponent_fit,
    similarity_dimension,
    total_spray_volume,
    tube_volume_residues,
    window_for_pairs,
)
from tubeforge.complexdims import zero_free_abscissa
from tubeforge.model import generator_tube_volume

from test_tubeformula import quadrature_numerator

CANTOR_D = math.log(2) / math.log(3)


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_01_moran_closed_forms():
    checks = [
        (RatioList([1 / 3, 1 / 3]), CANTOR_D),
        (RatioList([0.5, 0.25]), math.log2((1 + math.sqrt(5)) / 2)),
    ]
    worst_err = 0.0
    worst_time = 0.0
    for ratios, ref in checks:
        similarity_dimension(ratios)  # warm-up
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            dim = similarity_dimension(ratios)
            best = min(best, time.perf_counter() - t0)
        worst_err = max(worst_err, abs(dim.value - ref))
        worst_time = max(worst_time, best)
    report(1, "Moran closed forms", worst_err < 1e-10 and worst_time < 1e-3,
           f"max error {worst_err:.3e}, max runtime {worst_time * 1e3:.3f} ms")


def test_02_lattice_zeros_exact(cantor):
    zeros = find_complex_dimensions(cantor, 30.0)
    period = 2 * math.pi / math.log(3)
    ok = len(zeros) == 11
    worst = math.inf
    if ok:
        worst = max(
            abs(w - complex(CANTOR_D, k * period))
            for w, k in zip(zeros.omega.tolist(), range(-5, 6))
        )
        ok = worst < 1e-9
    report(2, "lattice zeros exact", ok,
           f"count {len(zeros)} (want 11), worst deviation {worst:.3e}")


def test_03_winding_completeness(half_third_model):
    t0 = time.perf_counter()
    zeros = find_complex_dimensions(half_third_model, 20.0)
    ratios = half_third_model.ratios
    window = (zero_free_abscissa(ratios),
              similarity_dimension(ratios).value + 0.5, -20.0, 20.0)
    total = count_zeros_rectangle(ratios, window)
    elapsed = time.perf_counter() - t0
    mult = int(zeros.multiplicity.sum())
    worst = max(zeros.residual.tolist())
    ok = mult == total and worst < 1e-10 and elapsed < 10.0
    report(3, "winding completeness", ok,
           f"multiplicity {mult} vs winding {total}, worst residual "
           f"{worst:.3e}, {elapsed:.2f} s")


def test_04_functional_equation(cantor, square):
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for model in (cantor, square):
        g = model.generator.inradius
        for eps in rng.uniform(1e-6, 10.0 * g, size=100):
            eps = float(eps)
            rel = abs(functional_equation_residual(model, eps))
            rel /= direct_tube_volume(model, eps)
            worst = max(worst, rel)
    report(4, "functional equation", worst < 1e-12,
           f"worst relative residual {worst:.3e}")


def test_05_constant_regime(cantor, square):
    worst = 0.0
    for model, ref in ((cantor, 1.0), (square, 144 / 83)):
        total = total_spray_volume(model)
        g = model.generator.inradius
        devs = [abs(direct_tube_volume(model, e) / total - 1.0)
                for e in (g, 2 * g, 5 * g, 100 * g)]
        devs.append(abs(total / ref - 1.0))
        worst = max(worst, max(devs))
    report(5, "constant regime", worst < 1e-12,
           f"worst relative deviation {worst:.3e}")


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


def test_07_residue_agreement_cantor(cantor):
    t0 = time.perf_counter()
    window = window_for_pairs(cantor.ratios, 500)
    zeros = find_complex_dimensions(cantor, window)
    g = cantor.generator.inradius
    refs = {0.1: 13 / 15, 1 / 18: 7 / 9}
    ok = True
    details = []
    for eps in (g / 2, g / 4, g / 8, 0.1, 1 / 18):
        ev = tube_volume_residues(cantor, eps, 500, window, zeros=zeros)
        if eps in refs:
            ok = ok and abs(ev.direct - refs[eps]) < 1e-12
        err_500 = abs(ev.partial_sums[500] - ev.direct)
        err_5 = abs(ev.partial_sums[5] - ev.direct)
        ok = ok and err_500 < 1e-3 and ev.imag_leakage < 1e-10 and err_500 < err_5
        details.append(f"eps={eps:.4g}: err {err_500:.2e} (K=5: {err_5:.2e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(7, "residue agreement (Cantor)", ok,
           "; ".join(details) + f"; {elapsed:.2f} s")


def test_08_residue_agreement_nonlattice(square, square_zeros_200_pairs):
    window, zeros = square_zeros_200_pairs
    g = square.generator.inradius
    worst = 0.0
    for eps in (g / 2, g / 8):
        ev = tube_volume_residues(square, eps, 200, window, zeros=zeros)
        worst = max(worst, ev.rel_error)
    report(8, "residue agreement (nonlattice square)", worst < 1e-2,
           f"worst relative error {worst:.3e} with K=200")


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


def test_10_inversion_cross_check(cantor, square):
    worst = 0.0
    for model in (cantor, square):
        g = model.generator.inradius
        for eps in (g / 2, g / 4, 2 * g):
            value = inverse_mellin_numeric(model, eps, half_length=200.0)
            worst = max(worst, abs(value - direct_tube_volume(model, eps)))
    report(10, "inverse Mellin cross-check", worst < 1e-2,
           f"worst |inversion - direct| {worst:.3e} at T=200")


def test_11_selftest_determinism():
    outputs = {}
    for threads in ("1", "8"):
        env = dict(os.environ, TUBEFORGE_THREADS=threads)
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "tubeforge", "selftest"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stdout.decode()
            runs.append(proc.stdout)
        outputs[threads] = runs
    ok = (outputs["1"][0] == outputs["1"][1] == outputs["8"][0] == outputs["8"][1])
    report(11, "selftest determinism", ok,
           "byte-identical across repeats and TUBEFORGE_THREADS=1/8")
