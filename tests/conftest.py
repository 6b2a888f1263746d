import pytest

from tubeforge import (
    MonophaseGenerator,
    RatioList,
    SprayModel,
    find_complex_dimensions,
    window_for_pairs,
)
from tubeforge.presets import cantor_spray, square_spray


@pytest.fixture
def cantor():
    return cantor_spray()


@pytest.fixture
def square():
    return square_spray()


@pytest.fixture
def half_third_model():
    """Nonlattice {1/2, 1/3} with a unit-interval generator."""
    return SprayModel(
        RatioList([0.5, 1.0 / 3.0]),
        MonophaseGenerator(1, [2.0], 0.5, 1.0),
    )


@pytest.fixture(scope="session")
def square_zeros_200_pairs():
    """Complex dimensions of the square spray covering 200 conjugate pairs.

    The nonlattice zero search over a +-915 window evaluates f at ~20,000
    contour nodes; it is still shared across every test that needs it.
    """
    model = square_spray()
    window = window_for_pairs(model.ratios, 200)
    return window, find_complex_dimensions(model, window)
