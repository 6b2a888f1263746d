"""Exact direct evaluation of the spray's inner tube volume.

Every scaled copy whose factor lam satisfies lam > eps/g is still in its
polynomial regime (the head); every other copy contributes exactly its full
volume Vol(G) lam^n.  A word outside the head is a unique boundary word
(head word followed by one letter that leaves the head) times an arbitrary
word, so the tail is Vol(G)/(1 - sum m_j r_j^n) times a sum of positive
boundary terms.  No term cancels, and the value is exact up to rounding
at every eps.

Words are aggregated by exponent vector over the distinct ratios, with
multinomial multiplicities in float64, so the cost grows polynomially with
the depth even when the word count itself is astronomical.  The vectors
are enumerated once per smallest eps; a ``DirectExpansion`` then evaluates
any larger eps as one correctly rounded ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import SprayModel, RatioList, generator_tube_volume, total_spray_volume

# Guard against runaway enumeration (threshold far too small for the list).
MAX_ENUMERATION = 50_000_000


@dataclass(frozen=True, eq=False)
class FactorSet:
    """The exponent vectors with factor above a threshold, as parallel arrays.

    ``lam[v]`` is the factor of vector v, the product of its ratios taken in
    canonical (descending) order; ``mult[v]`` counts the words sharing the
    vector.  ``child_lam[v, j]`` is the factor of the vector v + e_j over the
    j-th distinct ratio, or 0 when that child is not in the set.
    """

    lam: np.ndarray
    mult: np.ndarray
    child_lam: np.ndarray

    def __len__(self) -> int:
        return len(self.lam)


def factor_multiplicities(ratios: RatioList, threshold: float) -> FactorSet:
    """Every exponent vector over the distinct ratios with factor > threshold.

    The vectors are built one distinct ratio at a time: each current vector
    is multiplied by r_i again and again while the factor stays above the
    threshold, so every factor is the same sequential float product a
    depth-first descent in canonical order computes.  Multiplicities follow
    mult(e + e_i) = mult(e) (|e| + 1) m_i / (e_i + 1).

    Child factors come from the same products: the child of e over r_i is
    lam(e) r_i while e has no ratio after r_i, and a vector's row of child
    factors is scaled by r_i along with it, which keeps every child factor
    the canonical product of that child.
    """
    if not (threshold > 0.0):
        raise DomainError("threshold must be positive (the factor set is infinite)")
    distinct = ratios.distinct
    size = 1 if 1.0 > threshold else 0
    lam = np.ones(size)
    mult = np.ones(size)
    depth = np.zeros(size, dtype=np.int64)
    child_lam = np.zeros((size, len(distinct)))
    count = size
    with np.errstate(over="ignore"):
        for i, (r, m) in enumerate(distinct):
            child_lam[:, i] = lam * r
            levels = [(lam, mult, depth, child_lam)]
            while True:
                _, mult_l, depth_l, child_l = levels[-1]
                kept = (child_l[:, i] > threshold).nonzero()[0]
                if kept.size == 0:
                    break
                count += kept.size
                if count > MAX_ENUMERATION:
                    raise ResourceLimitError(
                        f"factor enumeration exceeded {MAX_ENUMERATION} exponent vectors"
                    )
                depth_next = depth_l[kept] + 1
                levels.append((child_l[kept, i],
                               mult_l[kept] * (depth_next * m) / len(levels),
                               depth_next,
                               child_l[kept] * r))
            lam, mult, depth, child_lam = (np.concatenate(part) for part in zip(*levels))
            if not np.isfinite(mult).all():
                raise ResourceLimitError(
                    "word multiplicity overflows double precision; threshold too small"
                )
    child_lam[child_lam <= threshold] = 0.0
    for a in (lam, mult, child_lam):
        a.flags.writeable = False
    return FactorSet(lam, mult, child_lam)


@dataclass(frozen=True, eq=False)
class DirectExpansion:
    """The direct oracle for every eps >= ``eps``, from one enumeration.

    ``weight`` is mult lam^n per exponent vector and ``tail_weight[v, j]``
    is Vol(G)/(1 - sum m r^n) weight[v] m_j r_j^n, the tail volume behind
    the boundary word v + e_j.  Arrays are read-only.
    """

    model: SprayModel
    eps: float
    total: float
    lam: np.ndarray
    weight: np.ndarray
    child_lam: np.ndarray
    tail_weight: np.ndarray

    @classmethod
    def build(cls, model: SprayModel, eps: float) -> "DirectExpansion":
        """Enumerate the exponent vectors of the smallest eps to be evaluated."""
        if not (eps > 0.0):
            raise DomainError(f"tube volume needs eps > 0, got {eps!r}")
        gen = model.generator
        n = gen.dimension
        total = total_spray_volume(model)  # raises on infinite volume
        factors = factor_multiplicities(model.ratios, eps / gen.inradius)
        weight = factors.mult * factors.lam**n
        child_power = np.array([m * r**n for r, m in model.ratios.distinct])
        tail_weight = total * weight[:, None] * child_power
        for a in (weight, tail_weight):
            a.flags.writeable = False
        return cls(model, eps, total, factors.lam, weight, factors.child_lam, tail_weight)

    def evaluate(self, eps: float) -> float:
        """Inner tube volume at one eps >= the build eps, exact up to rounding."""
        if not (eps >= self.eps):
            raise DomainError(
                f"direct expansion built for eps >= {self.eps!r}, got {eps!r}"
            )
        gen = self.model.generator
        threshold = eps / gen.inradius
        if threshold >= 1.0:
            return self.total  # constant regime: every copy is saturated
        head = self.lam > threshold
        x = eps / self.lam[head]
        tube = np.where(x >= gen.inradius, gen.volume, gen.polynomial_at(x))
        boundary = head[:, None] & (self.child_lam <= threshold)
        terms = np.concatenate((self.weight[head] * tube, self.tail_weight[boundary]))
        return math.fsum(terms.tolist())


def direct_tube_volume(model: SprayModel, eps: float) -> float:
    """Inner tube volume of the whole spray, exact up to rounding."""
    return DirectExpansion.build(model, eps).evaluate(eps)


def functional_equation_residual(model: SprayModel, eps: float) -> float:
    """V(eps) - sum(r_j^n V(eps/r_j)) - V_G(eps); zero up to rounding."""
    if not (eps > 0.0):
        raise DomainError(f"residual needs eps > 0, got {eps!r}")
    n = model.generator.dimension
    expansion = DirectExpansion.build(model, eps)
    terms = [expansion.evaluate(eps), -generator_tube_volume(model.generator, eps)]
    terms += [-m * r**n * expansion.evaluate(eps / r) for r, m in model.ratios.distinct]
    return math.fsum(terms)


def scaling_exponent_fit(model: SprayModel, depth: int) -> float:
    """Least-squares slope of log V against log eps on eps = g * 2^-m.

    m runs 1..depth; the slope estimates n - D.
    """
    if depth < 8:
        raise DomainError("depth must be at least 8 for a stable fit")
    g = model.generator.inradius
    eps = g * 2.0 ** -np.arange(1, depth + 1)
    expansion = DirectExpansion.build(model, float(eps[-1]))
    vols = np.array([expansion.evaluate(float(e)) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(vols), 1)[0]
    return float(slope)
