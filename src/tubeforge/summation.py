"""Compensated (Neumaier-style) summation.

Used for the big accumulations in the direct tube evaluation and the
residue partial sums, so results are reproducible and cancellation-safe.
"""

from __future__ import annotations

import numpy as np


class CompensatedSum:
    """Neumaier variant of Kahan summation for real floats."""

    __slots__ = ("_sum", "_comp")

    def __init__(self):
        self._sum = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._comp += (self._sum - t) + x
        else:
            self._comp += (x - t) + self._sum
        self._sum = t

    @property
    def value(self) -> float:
        return self._sum + self._comp


def compensated_total(values) -> float:
    acc = CompensatedSum()
    for v in values:
        acc.add(v)
    return acc.value


def compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Every prefix sum of x, each equal to a ``CompensatedSum`` over it.

    The running sum's rounding error at each step is recovered exactly
    (Knuth's TwoSum) and the errors are summed back in, as the Neumaier
    correction does.
    """
    total = np.cumsum(x)
    before, after = total[:-1], total[1:]
    part = after - before
    err = (before - (after - part)) + (x[1:] - part)
    return total + np.concatenate((np.zeros(1, dtype=total.dtype), np.cumsum(err)))
