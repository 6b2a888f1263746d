import numpy as np
import pytest

from tubeforge.summation import CompensatedSum, compensated_cumsum


def loop_prefix_sums(values):
    """Reference: one componentwise CompensatedSum, read after every add."""
    re, im = CompensatedSum(), CompensatedSum()
    out = []
    for v in values:
        re.add(v.real)
        im.add(v.imag)
        out.append(complex(re.value, im.value))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_compensated_cumsum_equals_the_loop(seed):
    rng = np.random.default_rng(seed)
    size = 300
    scale = lambda: 10.0 ** rng.integers(-20, 20, size=size)  # noqa: E731
    values = rng.standard_normal(size) * scale() + 1j * rng.standard_normal(size) * scale()
    assert compensated_cumsum(values).tolist() == loop_prefix_sums(values)


def test_compensated_cumsum_recovers_cancelled_terms():
    values = np.array([1.0, 1e-16, 1e-16, -1.0])
    assert np.cumsum(values)[-1] == 0.0
    assert compensated_cumsum(values)[-1] == 2e-16
