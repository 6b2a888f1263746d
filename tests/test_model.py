import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tubeforge import (
    ConfigError,
    DivergenceError,
    DomainError,
    MonophaseGenerator,
    RatioList,
    SprayModel,
    direct_tube_volume,
    find_complex_dimensions,
    generator_tube_volume,
    inverse_mellin_numeric,
    load_spray,
    spray_from_dict,
    total_spray_volume,
    validate_spray,
    window_for_pairs,
)
from tubeforge import complexdims, moran
from tubeforge import model as model_module


def scaled_generator(gen, c):
    """g -> c*g, Vol -> c^n Vol, kappa_i -> c^i kappa_i."""
    return MonophaseGenerator(
        gen.dimension,
        [c**i * k for i, k in enumerate(gen.kappa)],
        c * gen.inradius,
        c**gen.dimension * gen.volume,
    )


class TestRatioList:
    def test_canonical_order(self):
        a = RatioList([0.5, 1 / 3, 0.25])
        b = RatioList([0.25, 0.5, 1 / 3])
        assert a == b
        assert a.ratios == (0.5, 1 / 3, 0.25)

    def test_duplicates_kept(self):
        r = RatioList([1 / 3, 1 / 3])
        assert r.count == 2
        assert r.distinct == ((1 / 3, 2),)
        assert r.distinct is r.distinct  # computed once per instance

    @pytest.mark.parametrize("ratios", [[1 / 3, 1 / 3], [0.5, 1 / 3]])
    def test_moran_and_lattice_test_run_once_per_list(self, monkeypatch, ratios):
        calls = []
        for module, name in ((moran, "similarity_dimension"),
                             (complexdims, "detect_lattice")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda rl, f=original, n=name: calls.append(n) or f(rl))
        model = SprayModel(RatioList(ratios), MonophaseGenerator(1, [2.0], 0.5, 1.0))
        assert validate_spray(model).ok
        window = window_for_pairs(model.ratios, 10)
        find_complex_dimensions(model, window)
        inverse_mellin_numeric(model, 0.1)
        assert sorted(calls) == ["detect_lattice", "similarity_dimension"]
        fresh = moran.similarity_dimension(RatioList(ratios))
        assert model.ratios.similarity_dimension == fresh

    @pytest.mark.parametrize("bad", [[], [0.0], [1.0], [-0.2], [0.5, 1.5], [float("nan")]])
    def test_rejects_bad_ratios(self, bad):
        with pytest.raises(ConfigError):
            RatioList(bad)


class TestGeneratorTubeVolume:
    def test_unit_square_quarter(self, square):
        assert generator_tube_volume(square.generator, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_saturated_returns_volume(self, square):
        assert generator_tube_volume(square.generator, 2.0) == 1.0

    def test_cantor_interval(self, cantor):
        assert generator_tube_volume(cantor.generator, 1 / 12) == pytest.approx(1 / 6, abs=1e-15)

    def test_rejects_nonpositive_eps(self, cantor):
        with pytest.raises(DomainError):
            generator_tube_volume(cantor.generator, 0.0)
        with pytest.raises(DomainError):
            generator_tube_volume(cantor.generator, -1.0)

    def test_continuous_at_inradius(self, cantor, square):
        for gen in (cantor.generator, square.generator):
            left = gen.polynomial_at(gen.inradius)
            assert abs(left - gen.volume) < 1e-12 * gen.volume

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=1e-3, max_value=5.0))
    def test_scaling_homogeneity(self, c, eps):
        gen = MonophaseGenerator(2, [-4.0, 4.0], 0.5, 1.0)
        scaled = scaled_generator(gen, c)
        lhs = generator_tube_volume(scaled, c * eps)
        rhs = c**2 * generator_tube_volume(gen, eps)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTotalSprayVolume:
    def test_cantor(self, cantor):
        assert total_spray_volume(cantor) == pytest.approx(1.0, rel=1e-12)

    def test_square(self, square):
        assert total_spray_volume(square) == pytest.approx(144 / 83, rel=1e-12)

    def test_divergent(self):
        model = SprayModel(RatioList([0.5, 0.5]), MonophaseGenerator(1, [2.0], 0.5, 1.0))
        with pytest.raises(DivergenceError):
            total_spray_volume(model)

    def test_matches_direct_oracle_beyond_inradius(self, cantor, square):
        for model in (cantor, square):
            total = total_spray_volume(model)
            g = model.generator.inradius
            for eps in (g, 1.5 * g, 7.0 * g):
                assert direct_tube_volume(model, eps) == pytest.approx(total, rel=1e-12)


class TestValidateSpray:
    def test_cantor_passes(self, cantor):
        report = validate_spray(cantor)
        assert report.ok and report.failures == ()

    def test_infinite_volume_fails(self):
        model = SprayModel(RatioList([0.5, 0.5]), MonophaseGenerator(1, [2.0], 0.5, 1.0))
        report = validate_spray(model)
        assert not report.ok
        assert any("infinite" in f for f in report.failures)

    def test_continuity_violation_fails(self):
        gen = MonophaseGenerator(1, [2.0], 1 / 6, 0.4)
        model = SprayModel(RatioList([1 / 3, 1 / 3]), gen)
        report = validate_spray(model)
        assert any("continuity" in f for f in report.failures)

    def test_decreasing_polynomial_fails(self):
        # V_G = 2 eps^2 - 0.5 eps is decreasing near 0.
        gen = MonophaseGenerator(2, [2.0, -0.5], 1.0, 1.5)
        model = SprayModel(RatioList([0.6, 0.25, 0.25]), gen)
        report = validate_spray(model)
        assert any("decreasing" in f for f in report.failures)
        assert validate_spray(model, check_monotonic=False).ok

    def test_dip_between_two_samples_fails(self):
        # p'(eps) = 3 (eps - a)^2 - 1e-7 dips below 0 only within 1.8e-4 of
        # a, which lies halfway between the samples 513/1025 and 514/1025.
        a = 513.5 / 1025
        gen = MonophaseGenerator(3, [1.0, -3 * a, 3 * a * a - 1e-7], 1.0,
                                 1.0 - 3 * a + 3 * a * a - 1e-7)
        (message,) = validate_spray(SprayModel(RatioList([0.5] * 7), gen)).failures
        prefix = "tube polynomial is decreasing inside (0, g], first bad sample eps = "
        assert message.startswith(prefix)
        assert float(message[len(prefix):]) == pytest.approx(a, abs=1e-12)

    def test_dip_check_survives_huge_coefficients(self):
        # 3 * 2 * 1e308 overflows: the roots of p'' come from p''/n^2.
        gen = MonophaseGenerator(4, [1.0, 1e308, 1.0, 1.0], 0.5, 1.0)
        report = validate_spray(SprayModel(RatioList([0.5, 0.5]), gen))
        assert any("continuity" in f for f in report.failures)

    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=4, max_size=4),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_first_bad_sample_matches_the_pointwise_scan(self, n, kappa, g):
        # The scan as a list comprehension, one scalar Horner per sample.
        gen = MonophaseGenerator(n, kappa[:n], g, 1.0)
        samples = model_module._MONOTONE_SAMPLES
        pts = [g * (k + 1) / (samples + 1) for k in range(samples)]
        pts.append(g)
        pts.insert(0, g / (4.0 * samples))
        bad = [e for e in pts if gen.polynomial_derivative_at(e) < 0.0]
        report = validate_spray(SprayModel(RatioList([0.5, 0.25]), gen))
        messages = [f for f in report.failures if "decreasing" in f]
        if bad:
            assert messages == ["tube polynomial is decreasing inside (0, g], first bad "
                                f"sample eps = {bad[0]!r}"]
        else:
            assert messages == []

    def test_dimension_window_fails(self):
        # D(ln2/ln3) < n - 1 = 1 for a 2d generator.
        gen = MonophaseGenerator(2, [-4.0, 4.0], 0.5, 1.0)
        model = SprayModel(RatioList([1 / 3, 1 / 3]), gen)
        report = validate_spray(model)
        assert any("similarity dimension" in f for f in report.failures)


class TestConfigParsing:
    def config(self):
        return {
            "dimension": 1,
            "ratios": [1 / 3, 1 / 3],
            "generator": {"kappa": [2.0], "inradius": 1 / 6, "volume": 1 / 3},
        }

    def test_roundtrip(self, tmp_path, cantor):
        path = tmp_path / "cantor.json"
        path.write_text(json.dumps(self.config()))
        assert load_spray(path) == cantor

    def test_missing_field(self):
        data = self.config()
        del data["ratios"]
        with pytest.raises(ConfigError):
            spray_from_dict(data)

    def test_missing_generator_field(self):
        data = self.config()
        del data["generator"]["inradius"]
        with pytest.raises(ConfigError):
            spray_from_dict(data)

    def test_non_finite_number(self):
        data = self.config()
        data["generator"]["volume"] = math.inf
        with pytest.raises(ConfigError):
            spray_from_dict(data)

    def test_kappa_length_mismatch(self):
        data = self.config()
        data["generator"]["kappa"] = [2.0, 1.0]
        with pytest.raises(ConfigError):
            spray_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spray(path)
