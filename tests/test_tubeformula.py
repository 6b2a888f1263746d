import math

import numpy as np
import pytest
from scipy.integrate import quad

from tubeforge import tubeformula
from tubeforge import (
    ConvergenceError,
    DomainError,
    MonophaseGenerator,
    PoleProximityError,
    RatioList,
    ResidueExpansion,
    SprayModel,
    StripError,
    WindowError,
    ZeroSet,
    compare,
    find_complex_dimensions,
    generator_tube_volume,
    inverse_mellin_numeric,
    mellin_numerator,
    tube_volume_residues,
    window_for_pairs,
    zero_residue,
)
from tubeforge.complexdims import dirichlet_poly, dirichlet_poly_deriv
from tubeforge.presets import square_spray
from tubeforge.summation import CompensatedSum

from conftest import unit_spray

CANTOR_D = math.log(2) / math.log(3)
# b = 0.4: 1 - 3z^2 - 2z^3 = -(1 + z)^2 (2z - 1), so a third of the zeros are double.
REPEATED_ROOT = [0.16, 0.16, 0.16, 0.064, 0.064]
# b = 0.3: 1 - 6z^2 - 8z^3 - 3z^4 = (1 - 3z)(1 + z)^3, with triple zeros above z = -1.
TRIPLE_ROOT = [0.09] * 6 + [0.027] * 8 + [0.0081] * 3
# D = 1.0323, next to the pole at 1 (n = 2): f(1) = -0.0338 and the two residues nearly cancel.
NEAR_POLE = [0.5536, 0.3378, 0.0757, 0.0667]


def contour_residue(model, center, radius, eps):
    """(1/2 pi i) times the integral of eps^(n-s) N(s)/f(s) around a circle.

    Periodic trapezoid from 128 nodes, doubled until two successive
    refinements agree to 1e-10 relative; exponentially convergent for an
    analytic integrand.  (Agreement to 1e-12 is never reached at the triple
    zeros of TRIPLE_ROOT: rounding stops the refinements converging.)
    """
    n = model.generator.dimension
    num, prev, prev_scale = 128, None, 0.0
    for _ in range(9):
        ring = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, num, endpoint=False))
        s = center + radius * ring
        values = (np.exp((n - s) * math.log(eps)) * mellin_numerator(model.generator, s)
                  / dirichlet_poly(model.ratios, s) * ring)
        estimate = radius * complex(np.mean(values))
        scale = radius * float(np.mean(np.abs(values)))
        if prev is not None and abs(estimate - prev) <= max(
                1e-10 * max(abs(estimate), abs(prev)), 1e-13 * max(scale, prev_scale)):
            return estimate
        num, prev, prev_scale = 2 * num, estimate, scale
    raise ConvergenceError(f"contour residue at {center!r} did not converge")


def oracle_radius(model, center, zeros):
    """0.4 times the distance from center to the nearest other pole of the
    integrand, at most 0.1: a much smaller circle loses digits to
    cancellation at a multiple zero (~1e-9 at radius 1e-3 and a double one)."""
    gen = model.generator
    poles = [complex(i) for i in range(gen.dimension + 1) if gen.kappa_extended(i) != 0.0]
    dists = [abs(center - c) for c in poles + zeros.omega.tolist() if abs(center - c) > 1e-9]
    return min(0.4 * min(dists, default=0.25), 0.1)


def pole_residue(model, i, eps):
    """eps^(n-i) kappa_i/f(i), the residue at the integer pole i, with f(i)
    from ``math.fsum``."""
    f = 1.0 - math.fsum(r**i for r in model.ratios.ratios)
    return eps ** (model.generator.dimension - i) * model.generator.kappa_extended(i) / f


def oracle_partial_sums(model, eps, pairs, zeros):
    """Residue partial sums, one ``zero_residue`` per zero and eps, summed by
    componentwise compensated accumulation in the order of the expansion."""
    re, im = CompensatedSum(), CompensatedSum()

    def add(value):
        re.add(value.real)
        im.add(value.imag)

    for i in range(model.generator.dimension):
        add(complex(pole_residue(model, i, eps)))
    for w, m in zip(zeros.omega[zeros.reals].tolist(),
                    zeros.multiplicity[zeros.reals].tolist()):
        add(zero_residue(model, w, m, eps))
    partials = [complex(re.value, im.value)]
    uppers = zip(zeros.omega[zeros.upper].tolist(), zeros.multiplicity[zeros.upper].tolist())
    for w, m in list(uppers)[:pairs]:
        add(zero_residue(model, w, m, eps))
        add(zero_residue(model, w.conjugate(), m, eps))
        partials.append(complex(re.value, im.value))
    return partials


def assert_matches_oracle(model, eps_values, pairs, window, zeros):
    expansion = ResidueExpansion.build(model, pairs, window, zeros)
    for eps in eps_values:
        sums = expansion.partial_sums(eps)
        oracle = oracle_partial_sums(model, eps, pairs, zeros)
        assert len(sums) == pairs + 1
        for got, want in zip(sums, oracle):
            assert abs(got - want.real) <= 1e-14 * abs(want.real)
        ev = expansion.evaluate(eps)
        assert ev.residue_value == sums[-1]
        assert ev.imag_leakage < 1e-10
    return expansion


def quadrature_numerator(gen, s):
    """Independent oracle for the Mellin numerator: adaptive quadrature of
    the generator tube volume against eps^(s-n-1), split at the inradius."""
    n, g = gen.dimension, gen.inradius

    def head(part):
        return quad(
            lambda e: part(generator_tube_volume(gen, e) * e ** (s - n - 1)),
            0.0, g, limit=400,
        )[0]

    def tail(part):
        # substitute u = g/eps; the saturated branch becomes an integral on (0,1)
        return quad(lambda u: part(u ** (n - s - 1)), 0.0, 1.0, limit=400)[0]

    head_val = complex(head(lambda z: z.real), head(lambda z: z.imag))
    tail_val = gen.volume * g ** (s - n) * complex(
        tail(lambda z: z.real), tail(lambda z: z.imag)
    )
    return head_val + tail_val


class TestMellinNumerator:
    def test_cantor_half(self, cantor):
        assert mellin_numerator(cantor.generator, 0.5) == pytest.approx(
            8 / math.sqrt(6), rel=1e-14
        )

    def test_residue_identity_at_poles(self, cantor, square):
        for gen in (cantor.generator, square.generator):
            for i in range(gen.dimension + 1):
                k = gen.kappa_extended(i)
                if k == 0.0:
                    continue
                s = i + 1e-6
                assert (s - i) * mellin_numerator(gen, s) == pytest.approx(k, rel=1e-5)

    def test_pole_proximity_error(self, cantor):
        with pytest.raises(PoleProximityError):
            mellin_numerator(cantor.generator, 1e-13)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_quadrature_identity(self, cantor, square):
        rng = np.random.default_rng(42)
        for model in (cantor, square):
            gen = model.generator
            n = gen.dimension
            for _ in range(10):
                s = complex(rng.uniform(n - 1 + 0.05, n - 0.05), rng.uniform(-3, 3))
                assert abs(mellin_numerator(gen, s) - quadrature_numerator(gen, s)) < 1e-7


def pole_rows(model, eps):
    """The integer-pole residues at eps from the pole rows of a ``ResidueExpansion``."""
    n = model.generator.dimension
    expansion = ResidueExpansion.build(model, 0, 1.0)
    assert expansion.omegas[:n].tolist() == list(range(n))
    return tubeformula._residues(n, expansion.omegas[:n], expansion.coeffs[:n],
                                 eps, n).real.tolist()


class TestIntegerPoleResidue:
    """Hand values of the integer-pole residues in the pole rows."""

    def test_cantor(self, cantor):
        assert pole_rows(cantor, 0.1)[0] == pytest.approx(-0.2, rel=1e-14)

    def test_square(self, square):
        assert pole_rows(square, 0.01)[1] == pytest.approx(-0.48, rel=1e-12)

    def test_zero_coefficient(self, square):
        # V_G = eps^2: kappa_1 = 0, continuity at g = 1 with Vol = 1.
        model = SprayModel(square.ratios, MonophaseGenerator(2, [1.0, 0.0], 1.0, 1.0))
        assert pole_rows(model, 0.37)[1] == 0.0


class TestPoleTerms:
    """The pole rows of a ``ResidueExpansion`` against eps^(n-i) kappa_i/f(i)
    with f(i) from ``math.fsum``."""

    @pytest.mark.parametrize("ratios", [[0.5, 1 / 3, 0.25], NEAR_POLE],
                             ids=["square", "near-pole"])
    def test_within_16_ulps(self, square, ratios):
        model = SprayModel(RatioList(ratios), square.generator)
        for eps in (model.generator.inradius / 2, 1e-6, 1e-100):
            for i, got in enumerate(pole_rows(model, eps)):
                want = pole_residue(model, i, eps)
                assert abs(got - want) <= 16 * math.ulp(want)


class TestResiduePowers:
    def test_exp_at_the_zero_rows_is_np_power_bit_for_bit(self):
        # eps^(n - omega) as exp at every row after the integer poles: the
        # bits of np.power, also for eps near 1, where numpy's complex log
        # and math.log differ by an ulp.
        rng = np.random.default_rng(20261021)
        n, poles = 3, 3
        omegas = np.concatenate((np.arange(poles, dtype=complex),
                                 rng.uniform(-8.0, 3.0, 500)
                                 + 1j * rng.uniform(-3000.0, 3000.0, 500)))
        coeffs = (rng.standard_normal(omegas.size)
                  + 1j * rng.standard_normal(omegas.size))[:, None]
        for eps in np.concatenate((10.0 ** rng.uniform(-300.0, 0.0, 100),
                                   rng.uniform(0.4, 3.0, 100))).tolist():
            want = np.power(eps, n - omegas) * coeffs[:, 0]
            got = tubeformula._residues(n, omegas, coeffs, eps, poles)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestZeroResidue:
    def test_cantor_real_zero_closed_form(self, cantor):
        value = zero_residue(cantor, complex(CANTOR_D), 1, 0.1)
        # eps^(1-D) * N(D) / ln 3 with N(D) = 2 (1/6)^D / (D (1-D))
        expected = 0.1 ** (1 - CANTOR_D) * (
            2 * (1 / 6) ** CANTOR_D / (CANTOR_D * (1 - CANTOR_D))
        ) / math.log(3)
        assert value.real == pytest.approx(expected, rel=1e-13)
        assert abs(value.imag) < 1e-12 * abs(value.real)

    def test_conjugate_pair_values_conjugate(self, cantor):
        zeros = find_complex_dimensions(cantor, 10.0)
        ups = [(w, m) for w, m in zip(zeros.omega.tolist(), zeros.multiplicity.tolist())
               if w.imag > 0]
        for w, m in ups:
            a = zero_residue(cantor, w, m, 0.07)
            b = zero_residue(cantor, w.conjugate(), m, 0.07)
            assert a.real == pytest.approx(b.real, rel=1e-12)
            assert a.imag == pytest.approx(-b.imag, rel=1e-12)

    @pytest.mark.parametrize("multiplicity", [0, -1])
    def test_rejects_a_multiplicity_below_one(self, cantor, multiplicity):
        with pytest.raises(DomainError, match="multiplicity"):
            zero_residue(cantor, complex(CANTOR_D), multiplicity, 0.1)


class TestContourResidue:
    """The test oracle for residues at multiple zeros."""


    def test_matches_closed_form_at_dimension(self, cantor):
        closed = zero_residue(cantor, complex(CANTOR_D), 1, 0.1)
        ring = contour_residue(cantor, complex(CANTOR_D), 0.1, 0.1)
        assert abs(ring - closed) < 1e-9

    def test_matches_integer_pole(self, cantor):
        ring = contour_residue(cantor, 0j, 0.1, 0.1)
        assert abs(ring - pole_rows(cantor, 0.1)[0]) < 1e-9

    def test_empty_circle_is_zero(self, cantor):
        assert abs(contour_residue(cantor, 0.3 + 2.0j, 0.05, 0.1)) < 1e-12


class TestTubeVolumeResidues:
    def test_cantor_agreement(self, cantor):
        window = window_for_pairs(cantor.ratios, 500)
        zeros = find_complex_dimensions(cantor, window)
        for eps, ref in ((0.1, 13 / 15), (1 / 18, 7 / 9)):
            ev = tube_volume_residues(cantor, eps, 500, window, zeros=zeros)
            assert ev.direct == pytest.approx(ref, rel=1e-12)
            assert abs(ev.residue_value - ref) < 1e-3
            assert ev.imag_leakage < 1e-10

    def test_truncation_improves(self, cantor):
        expansion = ResidueExpansion.build(cantor, 500, window_for_pairs(cantor.ratios, 500))
        sums = expansion.partial_sums(0.1)
        assert len(sums) == 501
        assert abs(sums[500] - 13 / 15) < abs(sums[5] - 13 / 15)

    def test_rejects_eps_at_or_beyond_inradius(self, cantor):
        g = cantor.generator.inradius
        for eps in (g, 0.2):
            with pytest.raises(DomainError, match="eps < g"):
                tube_volume_residues(cantor, eps, 10, 100.0)

    def test_window_error(self, cantor):
        with pytest.raises(WindowError):
            tube_volume_residues(cantor, 0.1, 50, 10.0)

    def test_imag_leakage_bound(self, cantor):
        window = window_for_pairs(cantor.ratios, 100)
        ev = tube_volume_residues(cantor, 0.05, 100, window)
        assert ev.imag_leakage < 1e-10 * abs(ev.residue_value)

    def test_nonlattice_agreement(self, square, square_zeros_200_pairs):
        window, zeros = square_zeros_200_pairs
        g = square.generator.inradius
        for eps in (g / 2, g / 8):
            ev = tube_volume_residues(square, eps, 200, window, zeros=zeros)
            assert ev.rel_error < 1e-2
            assert ev.imag_leakage < 1e-10 * abs(ev.residue_value)


class TestWindowForPairs:
    def test_repeated_roots_widen_the_window(self):
        # 1 - 3z^2 - 2z^3 has degree 3 and two distinct roots.
        rl = RatioList([0.16, 0.16, 0.16, 0.064, 0.064])
        plain = 2.0 * math.pi * 12 / -math.log(0.064)
        assert window_for_pairs(rl, 10) == plain * 1.5

    @pytest.mark.parametrize("ratios", [
        [1 / 3, 1 / 3], [0.5, 1 / 3, 0.25], [0.5, 0.25], [0.4297, 0.4297**2, 0.4297**3],
    ])
    def test_simple_roots_keep_the_window(self, ratios):
        rl = RatioList(ratios)
        assert window_for_pairs(rl, 100) == 2.0 * math.pi * 102 / -math.log(min(ratios))


class TestResidueExpansion:
    @pytest.mark.parametrize("name, pairs, eps_fractions", [
        ("cantor", 500, (0.9, 0.6, 1 / 3, 0.1, 0.01)),
        ("half-quarter", 100, (0.9, 0.5, 0.1, 0.003)),
        ("geometric-0.4", 100, (0.8, 0.2, 0.02)),
        ("repeated-0.4", 100, (0.8, 0.2, 0.02)),
    ])
    def test_matches_per_zero_oracle_lattice(self, cantor, name, pairs, eps_fractions):
        model = {
            "cantor": cantor,
            "half-quarter": unit_spray([0.5, 0.25]),
            "geometric-0.4": unit_spray([0.4, 0.16, 0.064]),
            "repeated-0.4": unit_spray(REPEATED_ROOT),
        }[name]
        window = window_for_pairs(model.ratios, pairs)
        zeros = find_complex_dimensions(model, window)
        g = model.generator.inradius
        expansion = assert_matches_oracle(
            model, [f * g for f in eps_fractions], pairs, window, zeros)
        # the pole at 0, D, then the pairs
        assert expansion.coeffs.shape == (1 + 1 + pairs, zeros.multiplicity.max())

    def test_matches_per_zero_oracle_square(self, square, square_zeros_200_pairs):
        window, zeros = square_zeros_200_pairs
        g = square.generator.inradius
        assert_matches_oracle(square, [g / 2, g / 8, g / 100], 200, window, zeros)

    @pytest.mark.parametrize("ratios, pairs, multiplicity", [
        (REPEATED_ROOT, 50, 2), (REPEATED_ROOT, 200, 2), (REPEATED_ROOT, 500, 2),
        (TRIPLE_ROOT, 50, 3),
    ], ids=["double-50", "double-200", "double-500", "triple-50"])
    def test_multiple_zeros_match_the_contour_oracle(self, ratios, pairs, multiplicity):
        model = unit_spray(ratios)
        window = window_for_pairs(model.ratios, pairs)
        zeros = find_complex_dimensions(model, window)
        expansion = ResidueExpansion.build(model, pairs, window, zeros)
        kept = zeros.multiplicity[zeros.reals.start:zeros.upper.start + pairs]
        assert expansion.coeffs.shape == (1 + 1 + pairs, multiplicity)
        multiple = expansion.omegas[1:][kept == multiplicity].tolist()
        assert len(multiple) > pairs // 4
        g = model.generator.inradius
        for eps in (g / 2, g / 50):
            for w in multiple:
                want = contour_residue(model, w, oracle_radius(model, w, zeros), eps)
                assert abs(zero_residue(model, w, multiplicity, eps) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("name", ["cantor", "square"])
    def test_simple_zeros_take_n_over_fprime(self, cantor, square, square_zeros_200_pairs,
                                             name):
        if name == "cantor":
            model, pairs = cantor, 500
            window = window_for_pairs(cantor.ratios, pairs)
            zeros = find_complex_dimensions(cantor, window)
        else:
            model, pairs = square, 200
            window, zeros = square_zeros_200_pairs
        expansion = ResidueExpansion.build(model, pairs, window, zeros)
        n = model.generator.dimension
        omegas = expansion.omegas[n:]
        assert expansion.omegas[:n].tolist() == list(range(n))
        assert expansion.coeffs.shape == (n + 1 + pairs, 1)
        assert np.array_equal(expansion.coeffs[n:, 0],
                              mellin_numerator(model.generator, omegas)
                              / dirichlet_poly_deriv(model.ratios, omegas))

    def test_near_lattice_zeros_are_far_from_degenerate(self):
        """Why a simple zero needs no floor on |f'|: perturbing one ratio of
        the b = 0.4 list by up to 3e-9 relative keeps it lattice, with exact
        double zeros, while at 1e-7 the doubles split into simple zeros with
        |f'| near 1.9e-3 (5.9e-4 at 1e-8, where the search is far slower)."""
        for delta in (1e-9, 3e-9):
            zeros = find_complex_dimensions(
                unit_spray([0.16 * (1 + delta)] + REPEATED_ROOT[1:]), 4.0)
            assert zeros.multiplicity.tolist() == [2, 1, 2]
        model = unit_spray([0.16 * (1 + 1e-7)] + REPEATED_ROOT[1:])
        assert not model.ratios.lattice.is_lattice
        zeros = find_complex_dimensions(model, 4.0, re_floor=-0.25)  # all zeros: Re > -0.001
        assert zeros.multiplicity.tolist() == [1] * 5
        assert np.abs(dirichlet_poly_deriv(model.ratios, zeros.omega)).min() > 1e-3

    @pytest.mark.parametrize("omega", [1e-13, 1.0 - 5e-13])
    def test_zero_at_an_integer_pole(self, cantor, omega):
        zeros = ZeroSet.build(cantor.ratios, [complex(CANTOR_D), complex(omega)], [1, 1])
        with pytest.raises(PoleProximityError):
            tube_volume_residues(cantor, 0.1, 0, 10.0, zeros=zeros)

    def test_negative_pairs(self, cantor):
        with pytest.raises(DomainError, match="nonnegative"):
            ResidueExpansion.build(cantor, -1, 10.0)

    def test_coefficients_are_read_only(self, cantor):
        expansion = ResidueExpansion.build(cantor, 5, window_for_pairs(cantor.ratios, 5))
        with pytest.raises(ValueError):
            expansion.coeffs[0] = 0.0


class TestInverseMellin:
    def test_cantor_values(self, cantor):
        assert abs(inverse_mellin_numeric(cantor, 0.1, c=0.8) - 13 / 15) < 1e-2
        # valid beyond the inradius as well
        assert abs(inverse_mellin_numeric(cantor, 0.25, c=0.8) - 1.0) < 1e-2

    def test_default_abscissa(self, cantor):
        assert abs(inverse_mellin_numeric(cantor, 0.1) - 13 / 15) < 1e-2

    def test_strip_errors(self, cantor):
        with pytest.raises(StripError):
            inverse_mellin_numeric(cantor, 0.1, c=CANTOR_D)
        with pytest.raises(StripError):
            inverse_mellin_numeric(cantor, 0.1, c=1.0)

    @pytest.mark.parametrize("half_length", [math.inf, math.nan, 0.0])
    def test_rejects_a_nonfinite_or_empty_range(self, cantor, half_length):
        with pytest.raises(DomainError, match="half_length"):
            inverse_mellin_numeric(cantor, 0.1, half_length=half_length)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_eps_outside_zero_to_inf(self, cantor, eps):
        with pytest.raises(DomainError, match="0 < eps < inf"):
            inverse_mellin_numeric(cantor, eps)

    def test_large_eps_scales_the_absolute_tolerance(self, cantor, monkeypatch):
        """V/eps^n ~ 1e-50 at eps = 1e50, far below an absolute 1e-9: one
        doubling from 4,096 intervals must not pass for agreement."""
        monkeypatch.setattr(tubeformula, "_INVMELLIN_DOUBLINGS", 1)
        with pytest.raises(ConvergenceError, match="8192 intervals"):
            inverse_mellin_numeric(cantor, 1e50)

    def test_no_agreement_raises_instead_of_returning(self, cantor, monkeypatch):
        monkeypatch.setattr(tubeformula, "_INVMELLIN_ATOL", 0.0)
        monkeypatch.setattr(tubeformula, "_INVMELLIN_RTOL", 0.0)
        monkeypatch.setattr(tubeformula, "_INVMELLIN_DOUBLINGS", 2)
        with pytest.raises(ConvergenceError, match="16384 intervals"):
            inverse_mellin_numeric(cantor, 0.1)


class TestCompare:
    def test_cantor_grid(self, cantor):
        g = cantor.generator.inradius
        grid = [g / 2**m for m in range(1, 6)]
        window = window_for_pairs(cantor.ratios, 500)
        entries = compare(cantor, grid, 500, window)
        assert len(entries) == 5
        assert max(e.rel_error for e in entries) < 1e-3
        assert all(e.error == "" for e in entries)

    def test_empty_grid(self, cantor):
        assert compare(cantor, [], 10, 100.0) == []

    def test_nonpositive_eps_raises_for_the_grid(self, cantor):
        with pytest.raises(DomainError, match="eps > 0, got 0.0"):
            compare(cantor, [0.05, 0.0], 20, 60.0)

    def test_window_error_raises_for_the_grid(self, cantor):
        g = cantor.generator.inradius
        with pytest.raises(WindowError, match="conjugate pairs requested"):
            compare(cantor, [g / 2, 2 * g], 50, 10.0)

    def test_coefficients_once_per_zero(self, cantor, monkeypatch):
        """A 200-eps grid evaluates N and f' once per kept real zero or
        conjugate pair in total."""
        nodes = {"mellin_numerator": 0, "dirichlet_poly_deriv": 0}

        def counting(name):
            original = getattr(tubeformula, name)

            def wrapper(first, s, *order):
                nodes[name] += int(getattr(s, "size", 1))
                return original(first, s, *order)

            return wrapper

        for name in nodes:
            monkeypatch.setattr(tubeformula, name, counting(name))
        g = cantor.generator.inradius
        grid = np.geomspace(g * 1e-3, 0.9 * g, 200)
        entries = compare(cantor, grid, 500, window_for_pairs(cantor.ratios, 500))
        assert all(e.error == "" and e.rel_error < 1e-2 for e in entries)
        kept = 500 + 1
        assert 0 < nodes["mellin_numerator"] <= kept
        assert 0 < nodes["dirichlet_poly_deriv"] <= kept

    def test_pole_coefficients_once_per_expansion(self, monkeypatch):
        """f(i) at the integer poles is summed once per expansion, not once
        per eps: the power_sum calls of a compare do not grow with the grid."""
        calls = []
        power_sum = RatioList.power_sum

        def counting(self, x):
            calls.append(x)
            return power_sum(self, x)

        monkeypatch.setattr(RatioList, "power_sum", counting)
        counts = []
        for size in (2, 200):
            model = square_spray()
            g = model.generator.inradius
            model.ratios.similarity_dimension  # Moran's solve, once per list
            calls.clear()
            entries = compare(model, np.geomspace(g * 1e-3, 0.9 * g, size), 20,
                              window_for_pairs(model.ratios, 20))
            assert all(e.error == "" for e in entries)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3

    def test_error_isolation(self, cantor):
        g = cantor.generator.inradius
        window = window_for_pairs(cantor.ratios, 20)
        entries = compare(cantor, [g / 2, 2 * g], 20, window)
        assert entries[0].error == "" and entries[0].rel_error < 1e-2
        assert entries[1].error != ""
        assert math.isnan(entries[1].residue_value)
        assert entries[1].direct == pytest.approx(1.0, rel=1e-12)
