import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from tubeforge import RatioList, similarity_dimension

from conftest import moran_root, sprays


class TestRealDirichletSum:
    def test_at_zero_counts_ratios(self):
        assert RatioList([1 / 3, 1 / 3]).power_sum(0.0) == 2.0

    def test_at_one(self):
        assert RatioList([1 / 3, 1 / 3]).power_sum(1.0) == pytest.approx(2 / 3, abs=1e-15)
        assert RatioList([0.5, 1 / 3, 0.25]).power_sum(1.0) == pytest.approx(13 / 12, abs=1e-15)


class TestSimilarityDimension:
    def test_cantor_closed_form(self):
        dim = similarity_dimension(RatioList([1 / 3, 1 / 3]))
        assert abs(dim.value - math.log(2) / math.log(3)) < 1e-13
        assert dim.residual < 1e-13

    def test_golden_closed_form(self):
        dim = similarity_dimension(RatioList([0.5, 0.25]))
        assert abs(dim.value - math.log2((1 + math.sqrt(5)) / 2)) < 1e-13

    def test_three_ratio_value_from_bisection_oracle(self):
        ratios = [0.5, 1 / 3, 0.25]
        dim = similarity_dimension(RatioList(ratios))
        assert abs(Decimal(dim.value) - moran_root(ratios, dim.value)) <= Decimal("1e-15")
        # frozen from a 200-step bisection on the decreasing sum
        assert dim.value == pytest.approx(1.0821314981404186, abs=1e-12)

    def test_single_ratio_is_exactly_zero(self):
        for r in (0.1, 0.5, 0.93):
            assert similarity_dimension(RatioList([r])).value == 0.0

    @given(st.one_of(sprays().map(lambda spray: spray.model.ratios.ratios),
                     st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2,
                              max_size=6)))
    @settings(max_examples=100)
    def test_within_the_newton_stop_of_the_50_digit_root(self, ratios):
        # Moran's Newton stops once |sum r^D - 1| < 1e-13, so D lies within
        # 1e-13/f'(D) of the root, plus rounding.  Most lists are polished
        # to a few ulps; one whose bisection midpoint already meets the stop
        # keeps it: 812 ulps off on two ratios 0.5743491777358546.
        d = similarity_dimension(RatioList(ratios)).value
        slope = math.fsum(-(r**d) * math.log(r) for r in ratios)
        reach = 1e-13 / slope + 4 * math.ulp(d)
        assert abs(Decimal(d) - moran_root(ratios, d)) <= Decimal(reach)

    @given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=6))
    @settings(max_examples=200)
    def test_residual_property(self, ratios):
        rl = RatioList(ratios)
        dim = similarity_dimension(rl)
        assert abs(rl.power_sum(dim.value) - 1.0) < 1e-12
        assert dim.value > 0.0

    @given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=6),
           st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=200)
    def test_strictly_decreasing(self, ratios, x, step):
        rl = RatioList(ratios)
        assert rl.power_sum(x) > rl.power_sum(x + step)

    @given(st.permutations([0.5, 0.31, 0.17, 0.44]))
    @settings(max_examples=30)
    def test_permutation_invariance(self, perm):
        base = similarity_dimension(RatioList([0.5, 0.31, 0.17, 0.44]))
        assert similarity_dimension(RatioList(perm)).value == base.value
