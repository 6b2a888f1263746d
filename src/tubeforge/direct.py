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
are enumerated once per smallest eps, level by level in prefix slices of
one sort per ratio; a ``DirectExpansion`` then evaluates any larger eps as
one correctly rounded sum of its terms, totalled exactly per binary
exponent in arrays (``fsum_array``) and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import SprayModel, RatioList, generator_tube_volume, total_spray_volume

# Guard against runaway enumeration (threshold far too small for the list).
MAX_ENUMERATION = 50_000_000
# Below this many terms math.fsum over a list beats the binned sum, whose
# fixed cost is ~15 us; above it the list conversion dominates.
BINNED_SUM_MIN_TERMS = 1000
# Mantissa halves of 26 and 27 bits total exactly over fewer terms than this.
BINNED_SUM_MAX_TERMS = 2**26


@dataclass(frozen=True, eq=False)
class FactorSet:
    """The exponent vectors with factor above a threshold, as parallel arrays.

    ``lam[v]`` is the factor of vector v, the product of its ratios taken in
    canonical (descending) order; ``mult[v]`` counts the words sharing the
    vector.  ``child_lam[v, j]`` is the factor of the vector v + e_j over the
    j-th distinct ratio, or 0 when that child is not in the set.  The order
    of the vectors is unspecified.
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

    Before the levels of r_i the current vectors are sorted once by
    descending factor times r_i.  Multiplying by r_i > 0 is monotone in
    IEEE arithmetic, so the vectors still above the threshold at each later
    level are a prefix of that order, and a level is a count and slices.

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
            order = np.argsort(-child_lam[:, i], kind="stable")
            levels = [(lam[order], mult[order], depth[order], child_lam[order])]
            while True:
                _, mult_l, depth_l, child_l = levels[-1]
                kept = np.count_nonzero(child_l[:, i] > threshold)
                if kept == 0:
                    break
                count += kept
                if count > MAX_ENUMERATION:
                    raise ResourceLimitError(
                        f"factor enumeration exceeded {MAX_ENUMERATION} exponent vectors"
                    )
                depth_next = depth_l[:kept] + 1
                levels.append((child_l[:kept, i],
                               mult_l[:kept] * (depth_next * m) / len(levels),
                               depth_next,
                               child_l[:kept] * r))
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

    ``weight`` is mult lam^n per exponent vector and ``child_power[j]`` is
    m_j r_j^n, so the tail volume behind the boundary word v + e_j is
    ``total * weight[v] * child_power[j]``.  Arrays are read-only.
    """

    model: SprayModel
    eps: float
    total: float
    lam: np.ndarray
    weight: np.ndarray
    child_lam: np.ndarray
    child_power: np.ndarray

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
        for a in (weight, child_power):
            a.flags.writeable = False
        return cls(model, eps, total, factors.lam, weight, factors.child_lam, child_power)

    def evaluate(self, eps: float) -> float:
        """Inner tube volume at one eps >= the build eps, exact up to rounding.

        The head and boundary terms are positive and summed with one
        correct rounding by ``fsum_array``, so the value is ``math.fsum``
        of the terms, whatever their order.
        """
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
        rows, cols = np.nonzero(head[:, None] & (self.child_lam <= threshold))
        tail = self.total * self.weight[rows] * self.child_power[cols]
        terms = np.concatenate((self.weight[head] * tube, tail))
        return fsum_array(terms)


def fsum_array(terms: np.ndarray) -> float:
    """``math.fsum(terms.tolist())`` bit for bit: the correctly rounded sum.

    Large arrays are summed without Python floats, binned by binary
    exponent (Demmel and Hida's accurate summation): with frexp's
    mantissa m and exponent e, a term is (h + l) 2^(e-26), where h =
    floor(m 2^26) (|h| <= 2^26) and l = m 2^26 - h (a multiple of 2^-27 in
    [0, 1)).  Per exponent the h and the l are totalled by
    ``np.bincount``; over fewer than 2^26 terms every partial total is an
    integer below 2^52 or a multiple of 2^-27 below 2^26, so it is exact.
    Every piece, and so every total, is a multiple of the term's last bit
    and of 2^-1074, so ``ldexp`` scales the totals back exactly, subnormal
    or not.  ``math.fsum`` rounds the exact totals once, which is the
    correct rounding of the sum of the terms.  Small arrays, too many
    terms, exponents above 997 (where partial sums could overflow) and nan
    or infinite terms go to ``math.fsum`` over the terms.
    """
    if not BINNED_SUM_MIN_TERMS <= terms.size < BINNED_SUM_MAX_TERMS:
        return math.fsum(terms.tolist())
    mant, exp = np.frexp(terms)
    lo_exp, hi_exp = int(exp.min()), int(exp.max())
    mant *= 2.0**26
    high = np.floor(mant)
    bins = np.subtract(exp, lo_exp, dtype=np.intp)
    scale = np.arange(lo_exp - 26, hi_exp - 25)
    with np.errstate(invalid="ignore", over="ignore"):
        mant -= high
        parts = np.ldexp(np.concatenate((np.bincount(bins, high), np.bincount(bins, mant))),
                         np.concatenate((scale, scale)))
    # frexp gives a nan or infinite term exponent 0, and its totals are not finite.
    if hi_exp > 997 or not np.isfinite(parts).all():
        return math.fsum(terms.tolist())
    return math.fsum(parts.tolist())


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
