import math
import random
import time
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tubeforge import (
    BoundaryProximityError,
    ConvergenceError,
    DomainError,
    MonophaseGenerator,
    RatioList,
    ResourceLimitError,
    SprayModel,
    count_zeros_rectangle,
    detect_lattice,
    find_complex_dimensions,
    ZeroSet,
    lattice_zeros,
    mellin_numerator,
    refine_zero,
    similarity_dimension,
    window_for_pairs,
)
from tubeforge import complexdims
from tubeforge.complexdims import (
    _argument_principle_zeros,
    dirichlet_poly,
    dirichlet_poly_deriv,
    zero_free_abscissa,
)
from tubeforge.presets import cantor_spray, square_spray

CANTOR_D = math.log(2) / math.log(3)
CANTOR_PERIOD = 2 * math.pi / math.log(3)
GOLDEN_RE = math.log((1 + math.sqrt(5)) / 2) / math.log(4)
# 0.16 = 0.4^2, 0.064 = 0.4^3: 1 - 3z^2 - 2z^3 has the double root z = -1.
REPEATED_ROOT = [0.16, 0.16, 0.16, 0.064, 0.064]


class TestSingleEvaluator:
    """f, f' and N have one body: a Python complex gives the bits the same
    point gives inside an ndarray."""

    @pytest.mark.parametrize("ratios", [
        [1 / 3, 1 / 3], [0.5, 0.3], [0.4, 0.16, 0.064], [0.6, 0.25, 0.25, 0.1],
    ])
    def test_scalar_equals_array_bit_for_bit(self, ratios):
        rl = RatioList(ratios)
        rng = np.random.default_rng(20261018)
        s = rng.uniform(-6.0, 3.0, 2000) + 1j * rng.uniform(-3000.0, 3000.0, 2000)
        gens = (cantor_spray().generator, square_spray().generator)
        evaluators = [lambda x: dirichlet_poly(rl, x), lambda x: dirichlet_poly_deriv(rl, x)]
        evaluators += [lambda x, gen=gen: mellin_numerator(gen, x) for gen in gens]
        for evaluate in evaluators:
            scalars = np.array([evaluate(x) for x in s.tolist()], dtype=np.complex128)
            assert np.array_equal(scalars.view(np.int64), evaluate(s).view(np.int64))

    def test_overflow_is_divergence_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                refine_zero(RatioList([0.5, 0.3]), complex(-800, 1))


def split_zero_set(omegas):
    """The split of a zero set into (reals, uppers by (Im, Re)) that the
    tube formula made before ``ZeroSet`` carried it."""
    reals = [w for w in omegas if abs(w.imag) <= 1e-9]
    uppers = sorted((w for w in omegas if w.imag > 1e-9), key=lambda w: (w.imag, w.real))
    return reals, uppers


class TestZeroSet:
    @pytest.mark.parametrize("route", ["lattice", "argument-principle"])
    @pytest.mark.parametrize("ratios, window", [
        ([1 / 3, 1 / 3], 30.0),
        ([0.25, 1 / 16], 20.0),
        ([0.4, 0.16, 0.064], 30.0),
    ])
    def test_invariants(self, route, ratios, window):
        rl = RatioList(ratios)
        if route == "lattice":
            zeros = lattice_zeros(detect_lattice(rl), rl, window)
        else:
            right = similarity_dimension(rl).value + 0.5
            zeros = _argument_principle_zeros(rl, zero_free_abscissa(rl), right, window)
        for a in (zeros.omega, zeros.multiplicity, zeros.residual):
            assert not a.flags.writeable
            assert len(a) == len(zeros)
        omegas = zeros.omega.tolist()
        reals, uppers = split_zero_set(omegas)
        assert zeros.omega[zeros.reals].tolist() == reals
        assert zeros.omega[zeros.upper].tolist() == uppers
        lowers = zeros.omega[zeros.lower].tolist()
        assert lowers == sorted((w.conjugate() for w in uppers), key=lambda w: (w.imag, w.real))
        assert lowers + reals + uppers == omegas
        assert zeros.residual.tolist() == [abs(dirichlet_poly(rl, w)) for w in omegas]

    @pytest.mark.parametrize("route, ratios", [
        ("lattice", [0.4297, 0.4297**2, 0.4297**3]),
        ("argument-principle", [0.5, 1 / 3]),
    ])
    def test_upper_half_builds_the_whole_set(self, route, ratios):
        rl = RatioList(ratios)
        window = window_for_pairs(rl, 30)
        if route == "lattice":
            zeros = lattice_zeros(detect_lattice(rl), rl, window)
        else:
            right = similarity_dimension(rl).value + 0.5
            zeros = _argument_principle_zeros(rl, zero_free_abscissa(rl), right, window)
        half = zeros.omega.imag >= 0.0
        assert not half.all()
        for built in (ZeroSet.build(rl, zeros.omega[half], zeros.multiplicity[half]),
                      ZeroSet.build(rl, zeros.omega, zeros.multiplicity)):
            for got, want in ((built.omega, zeros.omega),
                              (built.multiplicity, zeros.multiplicity),
                              (built.residual, zeros.residual)):
                assert got.tobytes() == want.tobytes()
            assert (built.lower, built.reals, built.upper) == (
                zeros.lower, zeros.reals, zeros.upper)

    def test_zero_within_dedup_distance_of_a_real_zero(self):
        rl = RatioList([1 / 3, 1 / 3])
        zeros = ZeroSet.build(rl, [complex(CANTOR_D), complex(CANTOR_D, 5e-9)], [1, 1])
        assert zeros.omega.tolist() == [complex(CANTOR_D)]

    def test_dedup_compares_with_the_last_zero_kept(self):
        rl = RatioList([1 / 3, 1 / 3])
        first = complex(CANTOR_D, CANTOR_PERIOD)
        chain = [first, first + 0.6e-8j, first + 1.2e-8j]
        zeros = ZeroSet.build(rl, [complex(CANTOR_D)] + chain, [1, 1, 1, 1])
        assert zeros.omega[zeros.upper].tolist() == [chain[0], chain[2]]

    def test_input_order_does_not_matter(self):
        rl = RatioList([0.4, 0.16, 0.064])
        zeros = lattice_zeros(detect_lattice(rl), rl, 30.0)
        order = np.random.default_rng(20261019).permutation(len(zeros))
        built = ZeroSet.build(rl, zeros.omega[order], zeros.multiplicity[order])
        for got, want in ((built.omega, zeros.omega),
                          (built.multiplicity, zeros.multiplicity),
                          (built.residual, zeros.residual)):
            assert got.tobytes() == want.tobytes()

    def test_re_floor_keeps_the_invariants(self):
        model = SprayModel(RatioList([0.25, 1 / 16]), MonophaseGenerator(1, [2.0], 0.25, 0.5))
        zeros = find_complex_dimensions(model, 5.0, re_floor=0.0)
        for a in (zeros.omega, zeros.multiplicity, zeros.residual):
            assert not a.flags.writeable
        kept = [w for w in find_complex_dimensions(model, 5.0).omega.tolist() if w.real >= 0.0]
        reals, uppers = split_zero_set(kept)
        assert zeros.omega[zeros.reals].tolist() == reals
        assert zeros.omega[zeros.upper].tolist() == uppers
        assert zeros.omega[zeros.lower].tolist() + reals + uppers == kept
        assert len(uppers) == 1


class TestDetectLattice:
    def test_cantor(self):
        st = detect_lattice(RatioList([1 / 3, 1 / 3]))
        assert st.is_lattice
        assert st.base == pytest.approx(1 / 3, abs=1e-12)
        assert st.exponents == (1, 1)
        assert st.period == pytest.approx(2 * math.pi / math.log(3), rel=1e-12)

    def test_quarter_sixteenth(self):
        st = detect_lattice(RatioList([0.25, 1 / 16]))
        assert st.is_lattice
        assert st.base == pytest.approx(0.25, abs=1e-12)
        assert st.exponents == (1, 2)
        assert st.period == pytest.approx(2 * math.pi / math.log(4), rel=1e-12)

    def test_half_third_nonlattice(self):
        assert not detect_lattice(RatioList([0.5, 1 / 3])).is_lattice

    def test_exponent_gcd_is_one(self):
        st = detect_lattice(RatioList([0.25, 1 / 16]))
        g = 0
        for k in st.exponents:
            g = math.gcd(g, k)
        assert g == 1


class TestLatticeZeros:
    def test_cantor_window_12(self):
        rl = RatioList([1 / 3, 1 / 3])
        zeros = lattice_zeros(detect_lattice(rl), rl, 12.0)
        assert len(zeros) == 5
        for w, m, res, k in zip(zeros.omega.tolist(), zeros.multiplicity.tolist(),
                                zeros.residual.tolist(), range(-2, 3)):
            assert w == pytest.approx(complex(CANTOR_D, k * CANTOR_PERIOD), abs=1e-10)
            assert m == 1
            assert res < 1e-10

    def test_quarter_sixteenth_two_families(self):
        rl = RatioList([0.25, 1 / 16])
        zeros = lattice_zeros(detect_lattice(rl), rl, 5.0)
        assert len(zeros) == 5
        period = 2 * math.pi / math.log(4)
        family_a = [w for w in zeros.omega.tolist() if w.real > 0]
        family_b = [w for w in zeros.omega.tolist() if w.real < 0]
        assert len(family_a) == 3 and len(family_b) == 2
        for w, k in zip(family_a, (-1, 0, 1)):
            assert w == pytest.approx(complex(GOLDEN_RE, k * period), abs=1e-10)
        for w, sign in zip(family_b, (-1, 1)):
            assert w == pytest.approx(
                complex(-GOLDEN_RE, sign * period / 2), abs=1e-10
            )

    def test_double_roots_carry_multiplicity_two(self):
        rl = RatioList(REPEATED_ROOT)
        zeros = lattice_zeros(detect_lattice(rl), rl, 60.0)
        mult = zeros.multiplicity.tolist()
        assert (mult.count(1), mult.count(2), len(mult)) == (17, 18, 35)
        doubles = zeros.omega[zeros.multiplicity == 2]
        assert np.allclose(doubles.real, 0.0, atol=1e-9)  # above z = -1: Re s = 0
        omegas = zeros.omega.tolist()
        assert zeros.residual.tolist() == [abs(dirichlet_poly(rl, w)) for w in omegas]
        sigma = zero_free_abscissa(rl)
        assert sum(mult) == count_zeros_rectangle(rl, (sigma, 1.3, -60.0, 60.0))

    @pytest.mark.parametrize("ratios, roots", [
        (REPEATED_ROOT, [(0.5, 1), (-1.0, 2)]),
        # b = 0.3: 1 - 6z^2 - 8z^3 - 3z^4 = (1 - 3z)(1 + z)^3
        ([0.09] * 6 + [0.027] * 8 + [0.0081] * 3, [(1 / 3, 1), (-1.0, 3)]),
        # b = 0.2: 1 - 10z^2 - 20z^3 - 15z^4 - 4z^5 = (1 - 4z)(1 + z)^4
        ([0.04] * 10 + [0.008] * 20 + [0.0016] * 15 + [0.00032] * 4, [(0.25, 1), (-1.0, 4)]),
    ])
    def test_exact_root_multiplicities(self, ratios, roots):
        """np.roots spreads the triple root -1 over 7e-6 and the quadruple one
        wider; the square-free factors have simple roots."""
        assert detect_lattice(RatioList(ratios)).roots == tuple(
            (complex(z), m) for z, m in roots)

    def test_triple_roots_carry_multiplicity_three(self):
        rl = RatioList([0.09] * 6 + [0.027] * 8 + [0.0081] * 3)
        zeros = lattice_zeros(detect_lattice(rl), rl, 20.0)
        mult = zeros.multiplicity.tolist()
        assert (mult.count(1), mult.count(3)) == (7, 8)
        triples = zeros.omega[zeros.multiplicity == 3].tolist()
        assert all(math.copysign(1.0, w.real) == 1.0 and w.real == 0.0 for w in triples)
        sigma = zero_free_abscissa(rl)
        assert sum(mult) == count_zeros_rectangle(rl, (sigma, 1.3, -20.0, 20.0))

    def test_triple_half_small_window(self):
        rl = RatioList([0.5, 0.5, 0.5])
        zeros = lattice_zeros(detect_lattice(rl), rl, 1.0)
        assert len(zeros) == 1
        assert complex(zeros.omega[0]) == pytest.approx(complex(math.log2(3), 0.0), abs=1e-12)

    def test_rejects_nonlattice(self):
        rl = RatioList([0.5, 1 / 3])
        with pytest.raises(DomainError):
            lattice_zeros(detect_lattice(rl), rl, 5.0)


class TestCountZerosRectangle:
    def test_cantor_full_band(self):
        assert count_zeros_rectangle(RatioList([1 / 3, 1 / 3]), (-1, 1, -6, 6)) == 3

    def test_cantor_empty_band(self):
        assert count_zeros_rectangle(RatioList([1 / 3, 1 / 3]), (-1, 1, 1, 5)) == 0

    def test_triple_half(self):
        assert count_zeros_rectangle(RatioList([0.5, 0.5, 0.5]), (1, 2, -1, 1)) == 1

    def test_edge_1e9_from_a_zero(self):
        # D sits 1e-9 below the bottom edge; the zero at i*period is inside.
        assert count_zeros_rectangle(RatioList([1 / 3, 1 / 3]), (-1, 1, 1e-9, 6)) == 1

    def test_random_rectangles_match_lattice_zeros(self):
        rl = RatioList([0.5, 0.25])
        zeros = lattice_zeros(detect_lattice(rl), rl, 60.0).omega.tolist()
        rng = random.Random(7)
        for _ in range(40):
            re_lo, re_hi = sorted(rng.uniform(-1.5, 1.5) for _ in range(2))
            im_lo, im_hi = sorted(rng.uniform(-50.0, 50.0) for _ in range(2))
            inside = sum(1 for w in zeros
                         if re_lo < w.real < re_hi and im_lo < w.imag < im_hi)
            assert count_zeros_rectangle(rl, (re_lo, re_hi, im_lo, im_hi)) == inside

    def test_shared_cache_gives_the_same_counts(self):
        rl = RatioList([0.5, 1 / 3])
        cache = {}
        rects = [(-1.0, 1.3, 0.5, 20.0), (-1.0, 1.3, 0.5, 10.25), (-1.0, 1.3, 10.25, 20.0)]
        counts = [count_zeros_rectangle(rl, rect, cache) for rect in rects]
        assert counts == [count_zeros_rectangle(rl, rect) for rect in rects]
        assert counts[0] == counts[1] + counts[2] > 0

    def test_a_zero_on_one_boundary_pushes_only_that_rectangle(self, monkeypatch):
        # The batch certification of the generation caches NaN for the pieces
        # that end at the node D + 0i; the clear rectangle is counted from
        # the batch, and only the touching one is pushed outward and
        # certified again.  The shared left edge is certified once, and no
        # arg change is taken of a piece that cannot be certified.
        rl = RatioList([1 / 3, 1 / 3])
        clear, touching = (-1.0, 0.5, -1.0, 1.0), (-1.0, CANTOR_D, -1.0, 1.0)
        with pytest.raises(BoundaryProximityError):
            count_zeros_rectangle(rl, touching)
        segments, nodes = [], [0]
        bisect, poly = complexdims._bisect, complexdims.dirichlet_poly

        def recorded_bisect(ratios, segs, cache):
            segments.append(len(segs))
            return bisect(ratios, segs, cache)

        def counted_poly(ratios, s):
            nodes[0] += np.size(s)
            return poly(ratios, s)

        monkeypatch.setattr(complexdims, "_bisect", recorded_bisect)
        monkeypatch.setattr(complexdims, "dirichlet_poly", counted_poly)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (n_clear, counted_clear), (n_touching, counted_touching) = (
                complexdims._count_generation(rl, [clear, touching], {}))
        assert (n_clear, counted_clear) == (0, clear)
        assert n_touching == 1 and counted_touching[1] > CANTOR_D
        assert counted_touching == complexdims._perturb(touching, 1)
        assert segments == [7, 4]
        assert nodes[0] == 119


class TestRefineZero:
    def test_real_seed_converges_to_dimension(self):
        rl = RatioList([1 / 3, 1 / 3])
        omega = refine_zero(rl, 0.6 + 0.1j)
        assert omega == pytest.approx(complex(CANTOR_D, 0.0), abs=1e-11)
        assert abs(dirichlet_poly(rl, omega)) < 1e-12

    def test_lattice_family_member(self):
        omega = refine_zero(RatioList([1 / 3, 1 / 3]), 0.6 + 5.5j)
        assert omega == pytest.approx(complex(CANTOR_D, CANTOR_PERIOD), abs=1e-10)

    def test_triple_half(self):
        omega = refine_zero(RatioList([0.5, 0.5, 0.5]), 1.5 + 0.2j)
        assert omega == pytest.approx(complex(math.log2(3), 0.0), abs=1e-11)


class TestFindComplexDimensions:
    def test_cantor_matches_lattice_closed_form(self, cantor):
        zeros = find_complex_dimensions(cantor, 12.0)
        assert len(zeros) == 5
        for w, k in zip(zeros.omega.tolist(), range(-2, 3)):
            assert abs(w - complex(CANTOR_D, k * CANTOR_PERIOD)) < 1e-9

    def test_quarter_sixteenth_model(self):
        model = SprayModel(
            RatioList([0.25, 1 / 16]),
            MonophaseGenerator(1, [2.0], 0.25, 0.5),
        )
        zeros = find_complex_dimensions(model, 5.0)
        assert len(zeros) == 5
        assert sum(1 for w in zeros.omega.tolist() if w.real < 0) == 2

    def test_half_third_window_20(self, half_third_model):
        zeros = find_complex_dimensions(half_third_model, 20.0)
        ratios = half_third_model.ratios
        total = count_zeros_rectangle(
            ratios,
            (zero_free_abscissa(ratios), similarity_dimension(ratios).value + 0.5,
             -20.0, 20.0),
        )
        assert sum(zeros.multiplicity.tolist()) == total
        assert all(res < 1e-10 for res in zeros.residual.tolist())
        reals = [w for w in zeros.omega.tolist() if w.imag == 0.0]
        assert len(reals) == 1
        assert reals[0].real == pytest.approx(0.7878849110258697, abs=1e-10)

    def test_conjugate_symmetry_is_exact(self, half_third_model):
        zeros = find_complex_dimensions(half_third_model, 20.0)
        omegas = set(zeros.omega.tolist())
        assert {w.conjugate() for w in omegas} == omegas

    def test_zeros_left_of_dimension(self, half_third_model):
        d = similarity_dimension(half_third_model.ratios).value
        zeros = find_complex_dimensions(half_third_model, 20.0)
        assert all(w.real <= d + 1e-9 for w in zeros.omega.tolist())
        assert all(abs(dirichlet_poly(half_third_model.ratios, w)) < 1e-10
                   for w in zeros.omega.tolist())

    def test_sorted_by_im_then_re(self, half_third_model):
        zeros = find_complex_dimensions(half_third_model, 20.0)
        keys = [(w.imag, w.real) for w in zeros.omega.tolist()]
        assert keys == sorted(keys)

    def test_lattice_periodicity(self, cantor):
        zeros = find_complex_dimensions(cantor, 30.0)
        period = detect_lattice(cantor.ratios).period
        omegas = zeros.omega.tolist()
        for w in omegas:
            if abs(w.imag + period) <= 30.0:
                assert any(abs(w + 1j * period - v) < 1e-9 for v in omegas)

    def test_re_floor_filter(self):
        model = SprayModel(
            RatioList([0.25, 1 / 16]),
            MonophaseGenerator(1, [2.0], 0.25, 0.5),
        )
        zeros = find_complex_dimensions(model, 5.0, re_floor=0.0)
        assert len(zeros) == 3
        assert all(w.real >= 0.0 for w in zeros.omega.tolist())

    @pytest.mark.parametrize("ratios", [
        [1 / 3, 1 / 3], [0.4297, 0.4297**2, 0.4297**3], [0.5, 1 / 3],
    ])
    def test_re_floor_right_of_d(self, ratios):
        # Right of D the window would miss the real zero: the floor is at
        # fault, not the spray.  At D itself the real zero is kept (the
        # lattice lift on the second list is D - 1 ulp).
        model = _interval_model(ratios)
        d = model.ratios.similarity_dimension.value
        for re_floor, edge in ((d + 0.25, "right of D:"), (d + 0.5, "right of D + 1/2:")):
            with pytest.raises(DomainError) as exc:
                find_complex_dimensions(model, 10.0, re_floor=re_floor)
            assert edge in str(exc.value) and f"D = {d!r}" in str(exc.value)
        zeros = find_complex_dimensions(model, 10.0, re_floor=d)
        (real,) = zeros.omega[zeros.reals].tolist()
        assert abs(real.real - d) <= 2 * math.ulp(d)

    @pytest.mark.parametrize("window", [1e-300, 1e-13, 1e-3, 0.99 * math.pi / math.log(4)])
    def test_window_below_the_zero_free_strip_holds_d_alone(self, square, window):
        # Im f > 0 for 0 < t < pi/ln(1/r_min), r_min = 1/4: the window is not
        # counted, so a rectangle too thin to certify is never pushed across
        # the real axis.
        zeros = find_complex_dimensions(square, window)
        assert zeros.omega.tolist() == [complex(square.ratios.similarity_dimension.value)]
        assert zeros.multiplicity.tolist() == [1]

    def test_rejects_nonpositive_window(self, cantor):
        with pytest.raises(DomainError):
            find_complex_dimensions(cantor, 0.0)

    @pytest.mark.parametrize("window, re_floor", [
        (math.inf, None), (math.nan, None), (20.0, math.nan), (20.0, -math.inf),
    ])
    def test_rejects_nonfinite_window_or_floor(self, cantor, half_third_model,
                                               window, re_floor):
        for model in (cantor, half_third_model):
            with pytest.raises(DomainError):
                find_complex_dimensions(model, window, re_floor=re_floor)
        if re_floor is None:
            with pytest.raises(DomainError):
                lattice_zeros(detect_lattice(cantor.ratios), cantor.ratios, window)

    def test_window_beyond_the_zero_cap_is_a_resource_error(self, cantor,
                                                            half_third_model):
        # The Cantor window |Im| <= T holds about T ln(3)/pi zeros.
        cap = complexdims.MAX_ZEROS * math.pi / math.log(3.0)
        for model in (cantor, half_third_model):
            for window in (1.01 * cap, 1e300):
                with pytest.raises(ResourceLimitError, match="zeros"):
                    find_complex_dimensions(model, window)


def moran_root(ratios, digits=50):
    """The real zero of 1 - sum(r_j^x) by Newton in ``digits``-digit decimal
    arithmetic, each r_j taken exactly, from Moran's D."""
    with localcontext() as ctx:
        ctx.prec = digits
        logs = [Decimal(r).ln() for r in ratios]
        x = Decimal(similarity_dimension(RatioList(ratios)).value)
        for _ in range(6):
            terms = [(x * lg).exp() for lg in logs]
            x -= (1 - sum(terms)) / -sum(t * lg for t, lg in zip(terms, logs))
        return x


class TestRealZero:
    """The one real zero is Moran's D on both routes."""

    @pytest.mark.parametrize("ratios", [
        [0.641773, 0.600734, 0.35059],  # 1.64e-12 off when the search refined it
        [0.45434, 0.417995, 0.307745, 0.237586],  # 1.0e-12 off
        [0.5536, 0.3378, 0.0757, 0.0667],
    ])
    def test_nonlattice_real_zero_is_moran(self, ratios):
        rl = RatioList(ratios)
        assert not rl.lattice.is_lattice
        d = rl.similarity_dimension.value
        zeros = find_complex_dimensions(_interval_model(ratios), window_for_pairs(rl, 5))
        assert zeros.omega[zeros.reals].tolist() == [complex(d)]
        assert abs(Decimal(d) - moran_root(ratios)) <= Decimal("1e-15")

    @pytest.mark.parametrize("ratios", [
        [1 / 3, 1 / 3], [0.5, 0.25], [0.4297, 0.4297**2, 0.4297**3],
    ])
    def test_lattice_real_lift_is_moran_to_two_ulps(self, ratios):
        rl = RatioList(ratios)
        d = rl.similarity_dimension.value
        zeros = lattice_zeros(rl.lattice, rl, 10.0)
        (real,) = zeros.omega[zeros.reals].tolist()
        assert real.imag == 0.0 and abs(real.real - d) <= 2 * math.ulp(d)

    def test_no_counted_rectangle_meets_the_real_axis(self, monkeypatch):
        rects = []
        original = complexdims.count_zeros_rectangle

        def recorded(ratios, rect, cache=None):
            rects.append(rect)
            return original(ratios, rect, cache)

        monkeypatch.setattr(complexdims, "count_zeros_rectangle", recorded)
        for ratios in ([0.5, 1 / 3], [0.641773, 0.600734, 0.35059], [0.5, 0.25 * (1 + 1e-5)]):
            model = _interval_model(ratios)
            find_complex_dimensions(model, window_for_pairs(model.ratios, 10))
        assert rects and min(im_lo for _, _, im_lo, _ in rects) > 0.0


class TestArgumentPrincipleRoute:
    """The argument-principle route, forced on lattice lists, reproduces the
    companion-matrix zero set."""

    @pytest.mark.parametrize("ratios, window", [
        ([1 / 3, 1 / 3], 30.0),
        ([0.5, 0.25], 40.0),
        ([0.4, 0.16, 0.064], 30.0),
    ])
    def test_matches_lattice_zeros(self, ratios, window):
        rl = RatioList(ratios)
        expected = lattice_zeros(detect_lattice(rl), rl, window)
        right = similarity_dimension(rl).value + 0.5
        got = _argument_principle_zeros(rl, zero_free_abscissa(rl), right, window)
        assert len(got) == len(expected)
        assert max(abs(a - b) for a, b in zip(got.omega.tolist(),
                                              expected.omega.tolist())) <= 1e-12

    def test_zero_column_on_the_left_edge(self):
        # Every count whose left edge runs through the column is retried on
        # a rectangle pushed outward, and the search covers what was counted.
        rl = RatioList([0.5, 0.25])
        structure = detect_lattice(rl)
        column = min(lattice_zeros(structure, rl, 40.0).omega.real.tolist())
        with pytest.raises(BoundaryProximityError):
            count_zeros_rectangle(rl, (column, 1.0, 1.0, 20.0))
        right = similarity_dimension(rl).value + 0.5
        got = _argument_principle_zeros(rl, column, right, 20.0)
        expected = lattice_zeros(structure, rl, 20.0)
        assert len(got) == len(expected)
        assert max(abs(a - b) for a, b in zip(got.omega.tolist(),
                                              expected.omega.tolist())) <= 1e-12


    @given(st.floats(min_value=0.2, max_value=0.7),
           st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_random_lattice_lists(self, base, exponents):
        # A fuzz of 1,000 such lists at 10 pairs gave at most 1.9e-12.
        # Zeros of two root families can share Im to rounding, so the sets
        # are matched by nearest neighbour, not by sorted position.
        rl = RatioList([base**k for k in exponents])
        window = window_for_pairs(rl, 10)
        expected = lattice_zeros(detect_lattice(rl), rl, window)
        right = similarity_dimension(rl).value + 0.5
        got = _argument_principle_zeros(rl, zero_free_abscissa(rl), right, window)
        assert len(got) == len(expected)
        assert int(got.multiplicity.sum()) == int(expected.multiplicity.sum())
        dist = np.abs(np.subtract.outer(got.omega, expected.omega))
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-11


class TestRandomNonlatticeLists:
    """Random nonlattice lists, J = 2..4: the search's total multiplicity is
    the full window's winding count, and the strip just above the real axis
    that holds no zero is counted empty."""

    @given(st.lists(st.floats(min_value=0.05, max_value=0.9), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_search_total_is_the_window_count(self, ratios):
        rl = RatioList(ratios)
        assume(not detect_lattice(rl).is_lattice)
        sigma = zero_free_abscissa(rl)
        right = similarity_dimension(rl).value + 0.5
        window = window_for_pairs(rl, 10)
        try:
            zeros = _argument_principle_zeros(rl, sigma, right, window)
            total = count_zeros_rectangle(rl, (sigma, right, -window, window))
        except BoundaryProximityError:
            assume(False)
        assert int(zeros.multiplicity.sum()) == total

        # Im f(sigma + it) > 0 for 0 < t < pi/ln(1/r_min).
        top = 0.9 * math.pi / -math.log(rl.ratios[-1])
        assert count_zeros_rectangle(rl, (sigma, right, 1e-3, top)) == 0


def _interval_model(ratios):
    return SprayModel(RatioList(ratios), MonophaseGenerator(1, [2.0], 0.5, 1.0))


class TestNearLatticeInputs:
    """Lists within 1e-6..1e-4 of the lattice list [0.5, 0.25], with windows
    from window_for_pairs whose edge passes close to a zero."""

    @pytest.mark.parametrize("ratios, window, count", [
        ([0.5, 0.25000025], 31.72654387864267, 13),
        ([0.5, 0.24999975], 54.388282469054005, 23),
        ([0.5000423956875157, 0.25], 18.129440567308777, 7),
    ])
    def test_window_near_a_zero(self, ratios, window, count):
        start = time.perf_counter()
        zeros = find_complex_dimensions(_interval_model(ratios), window)
        assert time.perf_counter() - start < 2.0
        assert len(zeros) == count
        assert all(res < 1e-10 for res in zeros.residual.tolist())
        assert all(abs(w.imag) <= window for w in zeros.omega.tolist())

        # The zero nearest the window edge lies just outside it.
        rl = RatioList([0.5, 0.25])
        seed = min(lattice_zeros(detect_lattice(rl), rl, 2 * window).omega.tolist(),
                   key=lambda w: abs(w.imag - window))
        assert refine_zero(RatioList(ratios), seed).imag > window


class TestNodeBudget:
    """Evaluation points of f per zero search; deterministic, unlike wall time."""

    @pytest.fixture
    def nodes(self, monkeypatch):
        count = [0]
        original = complexdims.dirichlet_poly

        def counted(ratios, s):
            count[0] += np.size(s)
            return original(ratios, s)

        monkeypatch.setattr(complexdims, "dirichlet_poly", counted)
        return count

    def test_square_100_pairs(self, nodes):
        model = square_spray()
        find_complex_dimensions(model, window_for_pairs(model.ratios, 100))
        assert nodes[0] <= 10_820  # measured 10,306

    def test_lattice_lifts_only_the_upper_half(self, nodes, monkeypatch):
        calls = [0]
        original = complexdims.refine_zero

        def counted(ratios, seed):
            calls[0] += 1
            return original(ratios, seed)

        monkeypatch.setattr(complexdims, "refine_zero", counted)
        b = 0.4297
        rl = RatioList([b, b**2, b**3])
        lattice_zeros(detect_lattice(rl), rl, window_for_pairs(rl, 500))
        assert nodes[0] <= 1_190  # measured 1,132
        assert calls[0] <= 15  # measured 15

    def test_half_third_window_20(self, nodes):
        # Pinned exactly: each node's f, rounding bound and |f'| bound come
        # from one evaluation, and the bisection must not move a node.
        find_complex_dimensions(_interval_model([0.5, 1 / 3]), 20.0)
        assert nodes[0] == 286

    def test_near_lattice_one_pair(self, nodes):
        model = _interval_model([0.5, 0.25 * (1 + 1e-5)])
        find_complex_dimensions(model, window_for_pairs(model.ratios, 1))
        assert nodes[0] <= 397  # measured 378
