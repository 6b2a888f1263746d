"""Similarity dimension: the unique real root of sum(r_j^D) = 1.

The left-hand side is strictly decreasing in the exponent, so a bracket
always exists and bisection plus a Newton polish converges unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexdims import dirichlet_poly_deriv
from .model import RatioList

RESIDUAL_TOL = 1e-13
_BISECTION_STEPS = 30
_NEWTON_STEPS = 60


@dataclass(frozen=True)
class SimilarityDimension:
    value: float
    residual: float


def similarity_dimension(ratios: RatioList) -> SimilarityDimension:
    """Solve the Moran equation sum(r_j^D) = 1 for the unique real D.

    Bracketing by doubling, 30 bisection steps, then Newton polish down to
    |sum(r_j^D) - 1| < 1e-13.  A single ratio gives D = 0 exactly.
    """
    if ratios.count == 1:
        return SimilarityDimension(0.0, 0.0)

    lo = 0.0
    hi = 1.0
    while ratios.power_sum(hi) >= 1.0:  # ends: sum(r_j^x) -> 0 as x grows
        hi *= 2.0

    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if ratios.power_sum(mid) > 1.0:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (lo + hi)
    resid = ratios.power_sum(x) - 1.0
    for _ in range(_NEWTON_STEPS):
        if abs(resid) < RESIDUAL_TOL:
            break
        x += float(resid / dirichlet_poly_deriv(ratios, x))
        resid = ratios.power_sum(x) - 1.0

    return SimilarityDimension(x, abs(resid))
