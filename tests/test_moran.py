import math

import pytest
from hypothesis import given, settings, strategies as st

from tubeforge import RatioList, similarity_dimension


def bisection_oracle(ratios, steps=200):
    """Independent solver: plain bisection on the strictly decreasing sum."""
    lo, hi = 0.0, 1.0
    while sum(r**hi for r in ratios) >= 1.0:
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if sum(r**mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        assert dim.value == pytest.approx(bisection_oracle(ratios), abs=1e-12)
        # frozen from the oracle run
        assert dim.value == pytest.approx(1.0821314981404186, abs=1e-12)

    def test_single_ratio_is_exactly_zero(self):
        for r in (0.1, 0.5, 0.93):
            assert similarity_dimension(RatioList([r])).value == 0.0

    @given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, ratios):
        rl = RatioList(ratios)
        dim = similarity_dimension(rl)
        assert abs(rl.power_sum(dim.value) - 1.0) < 1e-12
        assert dim.value > 0.0

    @given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=6),
           st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, ratios, x, step):
        rl = RatioList(ratios)
        assert rl.power_sum(x) > rl.power_sum(x + step)

    @given(st.permutations([0.5, 0.31, 0.17, 0.44]))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        base = similarity_dimension(RatioList([0.5, 0.31, 0.17, 0.44]))
        assert similarity_dimension(RatioList(perm)).value == base.value
