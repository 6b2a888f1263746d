import os
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext

import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.errors import HypothesisWarning

from tubeforge import (
    MonophaseGenerator,
    RatioList,
    SprayModel,
    find_complex_dimensions,
    similarity_dimension,
    window_for_pairs,
)
from tubeforge.presets import cantor_spray, square_spray

# Every property runs the same examples on every run and stores none.
settings.register_profile("tubeforge", derandomize=True, deadline=None, database=None)
settings.load_profile("tubeforge")
# hypothesis also caches the constants it reads from local source files; a
# home directory that cannot be created keeps that cache from being written.
set_hypothesis_home_dir(os.devnull)


def pytest_sessionstart(session):
    # The header of `pytest -v` shows the default database, which warns that
    # it has no place in that home directory; the profile uses none.
    warnings.filterwarnings("ignore", "The database setting is not configured",
                            HypothesisWarning)


# Unit interval, square and cube: V_G(eps) = 1 - (1 - 2 eps)^n below g = 1/2.
GENERATORS = {
    1: MonophaseGenerator(1, [2.0], 0.5, 1.0),
    2: MonophaseGenerator(2, [-4.0, 4.0], 0.5, 1.0),
    3: MonophaseGenerator(3, [8.0, -12.0, 6.0], 0.5, 1.0),
}


def unit_spray(ratios, n=1):
    """The spray of a ratio list on the unit interval, square or cube."""
    return SprayModel(RatioList(ratios), GENERATORS[n])


def scaled_generator(gen, c):
    """g -> c*g, Vol -> c^n Vol, kappa_i -> c^i kappa_i."""
    return MonophaseGenerator(
        gen.dimension,
        [c**i * k for i, k in enumerate(gen.kappa)],
        c * gen.inradius,
        c**gen.dimension * gen.volume,
    )


@dataclass(frozen=True)
class Spray:
    """A drawn spray, and whether its list lies within 1e-5 of a lattice
    list with a multiple root, where the zero search takes 0.3-5 s."""

    model: SprayModel
    near_double: bool


@st.composite
def sprays(draw):
    """Valid sprays, n = 1..3 and J = 2..5, from four classes of ratio list:
    lattice (0.5^k_j, k_j = 1..4, a quarter of them k = (2, 2, 2, 3, 3),
    whose polynomial 1 - 3z^2 - 2z^3 has a double root), nonlattice,
    repeated (fewer distinct values than ratios) and near-lattice (a
    lattice list with its largest ratio raised by 10^-k, k = 4..8).  The
    drawn list is raised to the power D0/D, D0 its own Moran dimension and
    D drawn in (n - 0.9, n - 0.1), so that sum r^n < 1 < sum r^(n-1); the
    power keeps ln r_i/ln r_j, so each class survives it.  Distinct values
    of the other classes are at least 1.8% apart: a closer pair at the
    smallest ratio puts the zero-free abscissa past overflow."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["lattice", "nonlattice", "repeated", "near-lattice"]))
    near_double = False
    if kind in ("lattice", "near-lattice"):
        exponents = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
        if draw(st.integers(0, 3)) == 0:
            exponents = [2, 2, 2, 3, 3]
        raw = [0.5**k for k in exponents]
        if kind == "near-lattice":
            shift = 10.0 ** -draw(st.integers(4, 8))
            near_double = shift <= 1e-5 and any(
                m > 1 for _, m in RatioList(raw).lattice.roots)
            raw[exponents.index(min(exponents))] *= 1.0 + shift
    else:
        distinct = count if kind == "nonlattice" else draw(st.integers(1, count - 1))
        steps = draw(st.lists(st.integers(0, 997), min_size=distinct,
                              max_size=distinct, unique=True))
        raw = [0.05 + 0.9 * steps[i % distinct] / 997 for i in range(count)]
    power = similarity_dimension(RatioList(raw)).value / draw(st.floats(n - 0.9, n - 0.1))
    return Spray(unit_spray([r**power for r in raw], n), near_double)


def moran_root(ratios, start, digits=50):
    """The real zero of 1 - sum(r_j^x) by Newton in ``digits``-digit decimal
    arithmetic, each r_j taken exactly, from a float ``start`` near it."""
    with localcontext() as ctx:
        ctx.prec = digits
        logs = [Decimal(r).ln() for r in ratios]
        x = Decimal(start)
        for _ in range(2):  # from 13 digits or more: 26, then past 50
            terms = [(x * lg).exp() for lg in logs]
            x -= (1 - sum(terms)) / -sum(t * lg for t, lg in zip(terms, logs))
        return x


@pytest.fixture
def cantor():
    return cantor_spray()


@pytest.fixture
def square():
    return square_spray()


@pytest.fixture(scope="session")
def square_zeros_200_pairs():
    """Complex dimensions of the square spray covering 200 conjugate pairs.

    The nonlattice zero search over a +-915 window evaluates f at ~20,000
    contour nodes; it is still shared across every test that needs it.
    """
    model = square_spray()
    window = window_for_pairs(model.ratios, 200)
    return window, find_complex_dimensions(model, window)
