import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from tubeforge import (
    DirectExpansion,
    DomainError,
    MonophaseGenerator,
    RatioList,
    ResidueExpansion,
    ResourceLimitError,
    SprayModel,
    compare,
    direct_tube_volume,
    factor_multiplicities,
    functional_equation_residual,
    generator_tube_volume,
    scaling_exponent_fit,
    similarity_dimension,
    total_spray_volume,
)
import tubeforge.direct as direct_mod
from tubeforge.presets import square_spray
from tubeforge.tubeformula import window_for_pairs


@dataclass(frozen=True)
class ScalingWord:
    """One word over the ratio list: factor, length, and letter indices."""

    factor: float
    depth: int
    letters: tuple


def enumerate_words(ratios: RatioList, threshold: float):
    """Brute-force oracle: all words (empty word included) with factor > threshold.

    Letters index into the canonical (descending) ratio tuple.  The result
    is sorted by descending factor, ties broken by depth then letters.
    """
    if not (threshold > 0.0):
        raise DomainError("threshold must be positive (the word set is infinite)")
    rs = ratios.ratios
    out = []

    def descend(factor, letters):
        if len(out) >= direct_mod.MAX_ENUMERATION:
            raise ResourceLimitError(
                f"word enumeration exceeded {direct_mod.MAX_ENUMERATION} words"
            )
        out.append(ScalingWord(factor, len(letters), tuple(letters)))
        for j, r in enumerate(rs):
            child = factor * r
            if child > threshold:
                letters.append(j)
                descend(child, letters)
                letters.pop()

    if 1.0 > threshold:
        descend(1.0, [])
    out.sort(key=lambda w: (-w.factor, w.depth, w.letters))
    return out


def vector_oracle(ratios: RatioList, threshold: float) -> dict:
    """Exponent vector -> (factor, exact multiplicity), by depth-first descent.

    Factors are multiplied in canonical ratio order, one ratio at a time.
    """
    distinct = ratios.distinct
    out = {}

    def descend(j, lam, exps):
        count = math.factorial(sum(exps))
        for (_, m), e in zip(distinct, exps):
            count = count // math.factorial(e) * m**e
        out[tuple(exps)] = (lam, count)
        for i in range(j, len(distinct)):
            child = lam * distinct[i][0]
            if child > threshold:
                exps[i] += 1
                descend(i, child, exps)
                exps[i] -= 1

    if 1.0 > threshold:
        descend(0, 1.0, [0] * len(distinct))
    return out


def exact_dyadic_volumes(model, ks) -> dict:
    """k -> exact V(g * 2^-k) as a Fraction, for each k in ks.

    Every float is a dyadic rational, so with the ratios, kappa and Vol(G)
    read as exact rationals each head term is an exact dyadic number; only
    1/(1 - sum m r^n) is a general Fraction.  A vector is in the head of k
    when its exact factor exceeds 2^-k.
    """
    gen = model.generator
    n = gen.dimension
    distinct = model.ratios.distinct
    parts = []
    for r, _ in distinct:
        num, den = r.as_integer_ratio()
        parts.append((num, den.bit_length() - 1))
    k_max = max(ks)
    heads = []  # (first k whose head holds the vector, mult, num, exp)

    def descend(j, mult, total, num, exp, exps):
        # lam = num / 2^exp > 2^-k  <=>  num > 2^(exp - k)
        bits = num.bit_length()
        power_of_two = num == 1 << (bits - 1)
        heads.append((exp - bits + (2 if power_of_two else 1), mult, num, exp))
        for i in range(j, len(distinct)):
            a, b = parts[i]
            if (num * a) << k_max > 1 << (exp + b):
                exps[i] += 1
                child_mult = mult * (total + 1) * distinct[i][1] // exps[i]
                descend(i, child_mult, total + 1, num * a, exp + b, exps)
                exps[i] -= 1

    descend(0, 1, 0, 1, 0, [0] * len(distinct))
    shift = n * max(exp for *_, exp in heads)
    # buckets[k][i]: sum of mult lam^i over the vectors entering at k, times 2^shift
    buckets = {}
    for k_first, mult, num, exp in heads:
        sums = buckets.setdefault(max(k_first, 0), [0] * (n + 1))
        for i in range(n + 1):
            sums[i] += mult * num**i << (shift - i * exp)
    power_sum = sum(m * Fraction(r) ** n for r, m in distinct)
    geometric = 1 / (1 - power_sum)
    kappa = [Fraction(c) for c in gen.kappa]
    head = [0] * (n + 1)
    out = {}
    for k in range(0, k_max + 1):
        head = [h + x for h, x in zip(head, buckets.get(k, [0] * (n + 1)))]
        if k in ks:
            eps = Fraction(gen.inradius) / 2**k
            h = [Fraction(x, 1 << shift) for x in head]
            value = sum(kappa[i] * eps ** (n - i) * h[i] for i in range(n))
            out[k] = value + Fraction(gen.volume) * (geometric - h[n])
    return out


def brute_force_volume(model, eps):
    """Independent oracle: explicit word-by-word DFS, no aggregation."""
    gen = model.generator
    n = gen.dimension
    threshold = eps / gen.inradius
    rs = model.ratios.ratios

    def rec(lam):
        head = lam**n * generator_tube_volume(gen, eps / lam)
        power = lam**n
        for r in rs:
            child = lam * r
            if child > threshold:
                h, p = rec(child)
                head += h
                power += p
        return head, power

    head, power = rec(1.0) if threshold < 1.0 else (0.0, 0.0)
    s_n = model.ratios.power_sum(float(n))
    return head + gen.volume * (1.0 / (1.0 - s_n) - power)


class TestEnumerateWords:
    def test_cantor_three_words(self):
        words = enumerate_words(RatioList([1 / 3, 1 / 3]), 0.2)
        assert [w.factor for w in words] == [1.0, 1 / 3, 1 / 3]

    def test_cantor_seven_words(self):
        words = enumerate_words(RatioList([1 / 3, 1 / 3]), 0.05)
        factors = [w.factor for w in words]
        assert len(words) == 7
        assert factors.count(1.0) == 1
        assert sum(1 for f in factors if abs(f - 1 / 3) < 1e-15) == 2
        assert sum(1 for f in factors if abs(f - 1 / 9) < 1e-15) == 4

    def test_half_third(self):
        words = enumerate_words(RatioList([0.5, 1 / 3]), 0.3)
        assert [w.factor for w in words] == [1.0, 0.5, 1 / 3]

    def test_descending_order_and_depths(self):
        words = enumerate_words(RatioList([0.5, 1 / 3]), 0.1)
        factors = [w.factor for w in words]
        assert factors == sorted(factors, reverse=True)
        for w in words:
            prod = 1.0
            for i in w.letters:
                prod *= (0.5, 1 / 3)[i]
            assert abs(prod - w.factor) <= 1e-15 * prod
            assert w.depth == len(w.letters)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(DomainError):
            enumerate_words(RatioList([0.5]), 0.0)

    def test_resource_guard(self, monkeypatch):
        monkeypatch.setattr(direct_mod, "MAX_ENUMERATION", 10)
        with pytest.raises(ResourceLimitError):
            enumerate_words(RatioList([0.9, 0.9]), 1e-3)
        with pytest.raises(ResourceLimitError):
            factor_multiplicities(RatioList([0.9, 0.8]), 1e-9)


def split_identity_error(factors, ratios, n, threshold):
    """Relative error of head + boundary / (1 - S) = 1 / (1 - S) at a threshold.

    The head is every vector of ``factors`` with lam > threshold; the
    boundary sums mult lam^n m_j r_j^n over the head vectors whose child
    over r_j is not in the head.
    """
    power = [m * r**n for r, m in ratios.distinct]
    s = math.fsum(power)
    head = factors.lam > threshold
    weight = factors.mult * factors.lam**n
    boundary = head[:, None] & (factors.child_lam <= threshold)
    tail = (weight[:, None] * np.array(power))[boundary]
    value = math.fsum(weight[head].tolist()) + math.fsum(tail.tolist()) / (1.0 - s)
    return abs(value * (1.0 - s) - 1.0)


def direct_terms(model, factors, eps):
    """The head and boundary terms of V(eps) from ``factors``, as floats.

    Head vector v contributes mult lam^n V_G(eps/lam); the boundary word
    v + e_j contributes Vol(G)/(1 - sum m r^n) mult lam^n m_j r_j^n.
    """
    gen = model.generator
    n = gen.dimension
    threshold = eps / gen.inradius
    head = factors.lam > threshold
    weight = factors.mult * factors.lam**n
    x = eps / factors.lam[head]
    tube = np.where(x >= gen.inradius, gen.volume, gen.polynomial_at(x))
    power = np.array([m * r**n for r, m in model.ratios.distinct])
    boundary = head[:, None] & (factors.child_lam <= threshold)
    tail = (total_spray_volume(model) * weight[:, None] * power)[boundary]
    return (weight[head] * tube).tolist() + tail.tolist()


class TestFactorMultiplicities:
    def test_matches_word_enumeration(self):
        rl = RatioList([0.5, 1 / 3, 0.5])
        threshold = 0.01
        words = enumerate_words(rl, threshold)
        aggregated = factor_multiplicities(rl, threshold)
        assert aggregated.mult.sum() == len(words)
        assert math.fsum(aggregated.mult * aggregated.lam) == pytest.approx(
            sum(w.factor for w in words), rel=1e-13
        )

    @pytest.mark.parametrize("ratios, threshold", [
        ([1 / 3, 1 / 3], 1e-6),
        ([0.5, 1 / 3, 0.25], 2.0**-30),
        ([0.4, 0.16, 0.064], 1e-9),
        ([0.5, 0.5, 0.3, 0.2, 0.2, 0.1], 1e-5),
        ([0.9], 1e-3),
        ([0.5], 2.0),
    ])
    def test_canonical_factors_multiplicities_and_children(self, ratios, threshold):
        rl = RatioList(ratios)
        oracle = vector_oracle(rl, threshold)
        factors = factor_multiplicities(rl, threshold)
        assert len(factors) == len(oracle)
        expected = []
        for exps, (lam, count) in oracle.items():
            children = []
            for j in range(len(exps)):
                child = list(exps)
                child[j] += 1
                children.append(oracle.get(tuple(child), (0.0,))[0])
            expected.append((lam, float(count), tuple(children)))
        got = zip(factors.lam.tolist(), factors.mult.tolist(),
                  map(tuple, factors.child_lam.tolist()))
        # Bit-identical factors and children; multiplicities exact below 2^53.
        assert sorted(got) == sorted(expected)

    def test_seeded_random_lists_match_descent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rl = RatioList(rng.uniform(0.05, 0.6, size=rng.integers(1, 6)))
            threshold = 10.0 ** -rng.uniform(1, 7)
            oracle = vector_oracle(rl, threshold)
            factors = factor_multiplicities(rl, threshold)
            assert sorted(factors.lam.tolist()) == sorted(v[0] for v in oracle.values())

    def test_arrays_are_read_only(self):
        factors = factor_multiplicities(RatioList([0.5, 0.25]), 1e-3)
        for a in (factors.lam, factors.mult, factors.child_lam):
            assert not a.flags.writeable

    def test_multiplicity_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResourceLimitError, match="overflows"):
                factor_multiplicities(RatioList([0.5] * 10), 1e-100)

    def test_limit_is_checked_per_level(self, monkeypatch):
        rl = RatioList([0.5, 0.3])
        count = len(factor_multiplicities(rl, 1e-4))
        monkeypatch.setattr(direct_mod, "MAX_ENUMERATION", count)
        assert len(factor_multiplicities(rl, 1e-4)) == count
        monkeypatch.setattr(direct_mod, "MAX_ENUMERATION", count - 1)
        with pytest.raises(ResourceLimitError):
            factor_multiplicities(rl, 1e-4)


class TestSplitIdentity:
    """Head plus positive boundary tail reproduces the geometric total."""

    @pytest.mark.parametrize("ratios, n", [
        ([1 / 3, 1 / 3], 1),
        ([0.5, 1 / 3, 0.25], 2),
        ([0.4, 0.16, 0.064], 1),
    ])
    def test_presets(self, ratios, n):
        rl = RatioList(ratios)
        factors = factor_multiplicities(rl, 1e-12)
        for threshold in (1e-12, 1e-9, 1e-5, 0.01, 0.3, 0.99):
            assert split_identity_error(factors, rl, n, threshold) <= 1e-14

    def test_seeded_random_sprays(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            count = int(rng.integers(1, 5))
            rs = rng.uniform(0.02, 0.7, size=count)
            rs *= min(1.0, 0.95 / np.sum(rs**n)) ** (1.0 / n)  # sum r^n < 1
            rl = RatioList(rs)
            threshold = 10.0 ** -rng.uniform(2, 8)
            factors = factor_multiplicities(rl, threshold)
            for t in (threshold, math.sqrt(threshold)):
                assert split_identity_error(factors, rl, n, t) <= 1e-14

    def test_threshold_equal_to_an_enumerated_factor(self):
        rl = RatioList([0.5, 1 / 3, 0.25])
        deep = factor_multiplicities(rl, 1e-6)
        for lam in np.sort(deep.lam)[[1, len(deep) // 3, len(deep) // 2]]:
            factors = factor_multiplicities(rl, float(lam))
            assert len(factors) == int(np.sum(deep.lam > lam))
            assert split_identity_error(factors, rl, 2, float(lam)) <= 1e-14
            assert split_identity_error(deep, rl, 2, float(lam)) <= 1e-14


class TestExactReference:
    def test_square_down_to_2_pow_minus_100(self, square):
        ks = range(1, 101)
        exact = exact_dyadic_volumes(square, ks)
        g = square.generator.inradius
        worst = 0.0
        for k in ks:
            value = direct_tube_volume(square, g * 2.0**-k)
            worst = max(worst, float(abs(Fraction(value) - exact[k]) / exact[k]))
        assert worst <= 1e-14

    def test_reference_matches_hand_values(self, cantor):
        # Cantor, g = 1/6: V(1/12) = 1/6 + 2/3 and V(1/24) = 1/12 + 1/6 + 4/9.
        exact = exact_dyadic_volumes(cantor, [1, 2])
        assert float(exact[1]) == pytest.approx(5 / 6, rel=1e-15)
        assert float(exact[2]) == pytest.approx(25 / 36, rel=1e-15)


class TestDirectExpansion:
    def test_equals_direct_tube_volume_bit_for_bit(self, cantor, square, half_third_model):
        for model in (cantor, square, half_third_model):
            g = model.generator.inradius
            eps = np.geomspace(1e-6 * g, 3 * g, 60)
            expansion = DirectExpansion.build(model, float(eps[0]))
            for e in eps:
                assert expansion.evaluate(float(e)) == direct_tube_volume(model, float(e))

    def test_rejects_eps_below_its_build(self, cantor):
        expansion = DirectExpansion.build(cantor, 0.01)
        with pytest.raises(DomainError):
            expansion.evaluate(0.005)
        with pytest.raises(DomainError):
            DirectExpansion.build(cantor, 0.0)

    def test_is_the_fsum_of_head_and_boundary_terms(self, square):
        g = square.generator.inradius
        expansion = DirectExpansion.build(square, g * 2.0**-100)
        factors = factor_multiplicities(square.ratios, 2.0**-100)
        sizes = set()
        for k in range(1, 101):
            eps = g * 2.0**-k
            terms = direct_terms(square, factors, eps)
            sizes.add(len(terms) >= direct_mod.BINNED_SUM_MIN_TERMS)
            assert expansion.evaluate(eps) == math.fsum(terms)
        assert sizes == {False, True}  # both sides of the size cut


class TestFsumArray:
    """``fsum_array`` is ``math.fsum`` over the list, bit for bit."""

    @staticmethod
    def check(x):
        def outcome(fsum, values):
            try:
                return repr(fsum(values))
            except (OverflowError, ValueError) as exc:
                return type(exc)

        x = np.asarray(x, dtype=float)
        assert outcome(direct_mod.fsum_array, x) == outcome(math.fsum, x.tolist())

    @pytest.mark.parametrize("size", [1, 2, 50, 999, 1000, 1001, 4096, 60_000])
    @pytest.mark.parametrize("span", [1, 60, 400, 1000])
    def test_seeded_random_nonnegative(self, size, span):
        rng = np.random.default_rng(size * 7919 + span)
        for _ in range(3):
            x = rng.uniform(0.5, 1.0, size) * 2.0 ** rng.integers(-span // 2, span // 2 + 1, size)
            self.check(x)

    def test_signed_terms_that_cancel(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(5000) * 2.0 ** rng.integers(-300, 300, 5000)
        self.check(np.concatenate((x, -x[:4000], [1e-300])))

    def test_single_term_and_zeros(self):
        for x in ([0.3], [0.0], [], np.zeros(3000), np.r_[np.zeros(2999), 2.0**-1000]):
            self.check(x)

    def test_equal_terms_carry_across_exponents(self):
        # Every mantissa bit set: the per-exponent totals carry many times.
        for value, count in ((1.0 - 2.0**-53, 1 << 20), (0.1, 3000), (2.0**-1021, 5000)):
            self.check(np.full(count, value))

    def test_subnormal_range(self):
        rng = np.random.default_rng(3)
        tiny = rng.uniform(0.5, 1.0, 4000) * 2.0 ** rng.integers(-1040, -1015, 4000)
        subnormal = rng.integers(1, 2**52, 4000) * 5e-324
        for x in (tiny, subnormal, np.r_[tiny, subnormal, 1.0], np.full(5000, 2.0**-1022 - 5e-324)):
            self.check(x)

    def test_near_overflow(self):
        rng = np.random.default_rng(4)
        big = rng.uniform(0.5, 1.0, 3000)
        for scale in (2.0**996, 2.0**1000, 2.0**1014):
            self.check(big * scale)
            self.check(np.r_[big * scale, -big * scale])  # partial sums overflow

    def test_non_finite_terms(self):
        finite = np.linspace(1.0, 2.0, 2000)
        for extra in ([math.inf], [-math.inf], [math.nan], [math.inf, math.nan],
                      [math.inf, -math.inf]):
            self.check(np.r_[finite, extra])

    def test_beyond_the_exact_term_count(self, monkeypatch):
        # Below 2^26 terms the totals of mantissa halves below 2^26 and of
        # fractions in 2^-27 below 1 keep within 53 bits; beyond, math.fsum.
        assert direct_mod.BINNED_SUM_MAX_TERMS <= 2**26
        monkeypatch.setattr(direct_mod, "BINNED_SUM_MAX_TERMS", 2000)
        self.check(np.full(4000, 1.0 - 2.0**-53))


class TestWorkBudget:
    """One exponent-vector enumeration per caller, counted by monkeypatching."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {"n": 0}
        original = direct_mod.factor_multiplicities

        def counting(ratios, threshold):
            counter["n"] += 1
            return original(ratios, threshold)

        monkeypatch.setattr(direct_mod, "factor_multiplicities", counting)
        return counter

    def test_compare_grid(self, cantor, calls):
        g = cantor.generator.inradius
        grid = np.geomspace(g * 1e-3, 2 * g, 200)
        entries = compare(cantor, grid, 50, window_for_pairs(cantor.ratios, 50))
        assert len(entries) == 200
        assert calls["n"] == 1

    def test_scaling_exponent_fit(self, square, calls):
        scaling_exponent_fit(square, 30)
        assert calls["n"] == 1

    def test_functional_equation_residual(self, square, calls):
        functional_equation_residual(square, 1e-3)
        assert calls["n"] == 1


class TestDirectTubeVolume:
    def test_cantor_hand_enumeration(self, cantor):
        assert direct_tube_volume(cantor, 1 / 18) == pytest.approx(7 / 9, rel=1e-13)
        assert direct_tube_volume(cantor, 0.1) == pytest.approx(13 / 15, rel=1e-13)

    def test_cantor_constant_regime(self, cantor):
        assert direct_tube_volume(cantor, 0.25) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_eps(self, cantor):
        with pytest.raises(DomainError):
            direct_tube_volume(cantor, 0.0)

    def test_against_brute_force(self, cantor, square, half_third_model):
        rng = np.random.default_rng(7)
        for model in (cantor, square, half_third_model):
            g = model.generator.inradius
            for eps in rng.uniform(0.02 * g, 3.0 * g, size=12):
                assert direct_tube_volume(model, float(eps)) == pytest.approx(
                    brute_force_volume(model, float(eps)), rel=1e-12
                )

    def test_monotone_in_eps(self, cantor, square):
        for model in (cantor, square):
            g = model.generator.inradius
            eps = np.geomspace(1e-4 * g, 4 * g, 200)
            vols = [direct_tube_volume(model, float(e)) for e in eps]
            assert all(a <= b * (1 + 1e-14) for a, b in zip(vols, vols[1:]))

    def test_homogeneity(self, square):
        gen = square.generator
        c = 2.7
        scaled = SprayModel(
            square.ratios,
            MonophaseGenerator(
                gen.dimension,
                [c**i * k for i, k in enumerate(gen.kappa)],
                c * gen.inradius,
                c**gen.dimension * gen.volume,
            ),
        )
        for eps in (0.01, 0.1, 0.3, 1.0):
            assert direct_tube_volume(scaled, c * eps) == pytest.approx(
                c**gen.dimension * direct_tube_volume(square, eps), rel=1e-12
            )

    def test_exactness_of_split(self, cantor):
        # Enumerating deeper than eps/g must not change the value: the
        # extra vectors only move boundary terms between head and tail.
        eps = 0.04
        g = cantor.generator.inradius
        for smallest in (eps, 0.01 * g, 0.001 * g):
            value = DirectExpansion.build(cantor, smallest).evaluate(eps)
            assert value == direct_tube_volume(cantor, eps)


class TestFunctionalEquation:
    def test_cantor_hand_arithmetic(self, cantor):
        assert direct_tube_volume(cantor, 1 / 18) == pytest.approx(7 / 9, rel=1e-13)
        assert direct_tube_volume(cantor, 1 / 6) == pytest.approx(1.0, rel=1e-13)
        assert functional_equation_residual(cantor, 1 / 18) == pytest.approx(0.0, abs=1e-14)

    def test_constant_regime_residual(self, cantor):
        assert functional_equation_residual(cantor, 10.0) == pytest.approx(0.0, abs=1e-14)

    def test_random_eps_property(self, cantor, square):
        rng = np.random.default_rng(123)
        for model in (cantor, square):
            g = model.generator.inradius
            for eps in rng.uniform(1e-3 * g, 10.0 * g, size=100):
                eps = float(eps)
                res = functional_equation_residual(model, eps)
                assert abs(res) < 1e-12 * direct_tube_volume(model, eps)


class TestScalingExponentFit:
    def test_cantor_slope(self, cantor):
        slope = scaling_exponent_fit(cantor, 30)
        target = 1 - math.log(2) / math.log(3)
        assert target - 0.05 < slope < target + 0.05

    def test_square_slope_frozen(self, square):
        # The square spray approaches its asymptote slowly; over the first
        # 30 dyadic scales the honest fitted slope is 0.8400, still well
        # below n - D = 0.9179.  Frozen from the brute-force-verified oracle.
        slope = scaling_exponent_fit(square, 30)
        assert slope == pytest.approx(0.8400440755325885, abs=1e-9)

    def test_square_slope_drifts_toward_limit(self, square):
        # Deeper windows move the fit toward n - D.
        d30 = scaling_exponent_fit(square, 30)
        g = square.generator.inradius
        ms = np.arange(20, 61)
        eps = g * 2.0 ** -ms
        vols = np.array([direct_tube_volume(square, float(e)) for e in eps])
        deep = float(np.polyfit(np.log(eps), np.log(vols), 1)[0])
        target = 2 - similarity_dimension(square.ratios).value
        assert abs(deep - target) < abs(d30 - target)

    def test_integer_pole_explains_the_square_slope(self, square):
        # The residue side with no conjugate pair, only the integer poles
        # and the real zero (V ~ 47.69 eps^(2-D) - 48 eps + 2 eps^2), fits
        # the direct slope: the -48 eps term of the pole at s = 1 keeps the
        # fit below n - D over m = 1..30, not the complex dimensions.
        expansion = ResidueExpansion.build(square, 0, 1.0)
        eps = square.generator.inradius * 2.0 ** -np.arange(1, 31)
        vols = [expansion.evaluate(float(e)).partial_sums[0] for e in eps]
        slope = float(np.polyfit(np.log(eps), np.log(vols), 1)[0])
        assert abs(slope - scaling_exponent_fit(square, 30)) < 1e-5  # measured 6.3e-7

    def test_depth_stability_cantor(self, cantor):
        assert abs(scaling_exponent_fit(cantor, 8) - scaling_exponent_fit(cantor, 30)) < 0.1

    def test_rejects_shallow_depth(self, cantor):
        with pytest.raises(DomainError):
            scaling_exponent_fit(cantor, 7)


class TestScalingBound:
    def test_bounded_oscillation(self, cantor, square):
        # V(eps) / eps^(n-D) stays within a factor 100 band over 40 octaves.
        for model in (cantor, square):
            n = model.generator.dimension
            d = similarity_dimension(model.ratios).value
            g = model.generator.inradius
            vals = []
            for m in range(1, 41):
                eps = g * 2.0**-m
                vals.append(direct_tube_volume(model, eps) / eps ** (n - d))
            assert max(vals) / min(vals) < 100.0
