"""Input data model: ratio lists, monophase generators, spray models.

Also houses the closed-form quantities that need no analysis: the
generator's inner tube polynomial and the total spray volume.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .summation import compensated_total

# Relative tolerance for the continuity constraint at the inradius.
CONTINUITY_RTOL = 1e-12

# Sample count for the monotonicity spot-check of the tube polynomial.
_MONOTONE_SAMPLES = 1024


@dataclass(frozen=True)
class RatioList:
    """Scaling ratios r_1..r_J, each strictly inside (0, 1).

    Duplicates are kept as multiplicities; they matter for both the
    similarity dimension and the Dirichlet polynomial.  The stored order
    is canonical (descending), so any permutation of the input produces
    an identical object.
    """

    ratios: tuple

    def __init__(self, ratios):
        rs = tuple(sorted((float(r) for r in ratios), reverse=True))
        if len(rs) < 1:
            raise ConfigError("ratio list must contain at least one ratio")
        for r in rs:
            if not math.isfinite(r) or not (0.0 < r < 1.0):
                raise ConfigError(f"ratio {r!r} outside the open interval (0, 1)")
        object.__setattr__(self, "ratios", rs)

    @property
    def count(self) -> int:
        """J, the number of ratios counted with multiplicity."""
        return len(self.ratios)

    @functools.cached_property
    def distinct(self):
        """Distinct ratios with multiplicities, descending: ((r, m), ...)."""
        out = []
        for r in self.ratios:
            if out and out[-1][0] == r:
                out[-1][1] += 1
            else:
                out.append([r, 1])
        return tuple((r, m) for r, m in out)

    @functools.cached_property
    def logs(self):
        """ln r_j of each distinct ratio, aligned with ``distinct``."""
        return tuple(math.log(r) for r, _ in self.distinct)

    def power_sum(self, x: float) -> float:
        """Sum of r_j^x over all ratios with multiplicity."""
        return compensated_total(m * r**x for r, m in self.distinct)

    # Kept on the list, so validation, the window default and the zero
    # search share one solve.  Deferred imports: both modules build on this.
    @functools.cached_property
    def similarity_dimension(self):
        """The ``SimilarityDimension`` of the list, solved on first use."""
        from .moran import similarity_dimension

        return similarity_dimension(self)

    @functools.cached_property
    def lattice(self):
        """The ``LatticeStructure`` of the list, detected on first use."""
        from .complexdims import detect_lattice

        return detect_lattice(self)


@dataclass(frozen=True)
class MonophaseGenerator:
    """An open set whose inner tube volume is one polynomial up to the inradius.

    The tube volume is sum(kappa[i] * eps^(n-i), i=0..n-1) for eps < g and
    the constant ``volume`` from the inradius on.  kappa[n] = -volume is a
    derived convention used by the Mellin-side numerator, not a stored field.
    """

    dimension: int
    kappa: tuple
    inradius: float
    volume: float

    def __init__(self, dimension, kappa, inradius, volume):
        n = int(dimension)
        ks = tuple(float(k) for k in kappa)
        g = float(inradius)
        vol = float(volume)
        if n < 1:
            raise ConfigError("ambient dimension must be a positive integer")
        if len(ks) != n:
            raise ConfigError(f"kappa must have exactly {n} coefficients, got {len(ks)}")
        if not all(math.isfinite(k) for k in ks):
            raise ConfigError("kappa coefficients must be finite")
        if not (math.isfinite(g) and g > 0):
            raise ConfigError("inradius must be a positive finite number")
        if not (math.isfinite(vol) and vol > 0):
            raise ConfigError("volume must be a positive finite number")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "kappa", ks)
        object.__setattr__(self, "inradius", g)
        object.__setattr__(self, "volume", vol)

    def kappa_extended(self, i: int) -> float:
        """kappa_i for i = 0..n, with kappa_n = -volume."""
        if i == self.dimension:
            return -self.volume
        return self.kappa[i]

    def polynomial_at(self, eps: float) -> float:
        """The tube polynomial sum(kappa_i eps^(n-i)), no branch at g."""
        # Horner in eps: eps*(kappa_{n-1} + eps*(kappa_{n-2} + ...)).
        acc = 0.0
        for k in self.kappa:
            acc = acc * eps + k
        return acc * eps

    def polynomial_derivative_at(self, eps):
        """d/deps of the tube polynomial; eps may be a float or an ndarray."""
        n = self.dimension
        acc = 0.0
        for i, k in enumerate(self.kappa):
            acc = acc * eps + (n - i) * k
        return acc


@dataclass(frozen=True)
class SprayModel:
    """A ratio list together with a monophase generator."""

    ratios: RatioList
    generator: MonophaseGenerator

    @property
    def dimension(self) -> int:
        return self.generator.dimension

    def ratio_power_sum_n(self) -> float:
        return self.ratios.power_sum(float(self.dimension))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_spray; failures carries one message per violation."""

    failures: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures


def generator_tube_volume(gen: MonophaseGenerator, eps: float) -> float:
    """Inner tube volume of the generator: polynomial below g, constant after."""
    if not (eps > 0.0):
        raise DomainError(f"tube volume needs eps > 0, got {eps!r}")
    if eps >= gen.inradius:
        return gen.volume
    return gen.polynomial_at(eps)


def total_spray_volume(model: SprayModel) -> float:
    """Total volume of the spray, Vol(G) / (1 - sum r_j^n).

    Equals the tube volume for every eps >= g.
    """
    s = model.ratio_power_sum_n()
    if s >= 1.0:
        raise DivergenceError(
            f"sum of ratios^n = {s!r} >= 1, total volume is infinite"
        )
    return model.generator.volume / (1.0 - s)


def validate_spray(model: SprayModel, check_monotonic: bool = True) -> ValidationReport:
    """Check every standing assumption; collect violations instead of raising."""
    failures = []
    gen = model.generator
    n = gen.dimension

    left = compensated_total(
        k * gen.inradius ** (n - i) for i, k in enumerate(gen.kappa)
    )
    if abs(left - gen.volume) > CONTINUITY_RTOL * abs(gen.volume):
        failures.append(
            "continuity at the inradius violated: polynomial value "
            f"{left!r} != volume {gen.volume!r}"
        )

    s = model.ratio_power_sum_n()
    if s >= 1.0:
        failures.append(
            f"sum of ratios^n = {s!r} >= 1, total volume infinite"
        )

    if check_monotonic:
        g = gen.inradius
        # Also sampled: the real parts of the roots of p''/n^2 (scaled so that
        # no coefficient overflows), among them every local minimum of p'.
        roots = np.roots([(n - i) * (n - i - 1) / n**2 * k
                          for i, k in enumerate(gen.kappa[:-1])]).real
        grid = g * np.arange(1, _MONOTONE_SAMPLES + 1) / (_MONOTONE_SAMPLES + 1)
        pts = np.concatenate([[g / (4.0 * _MONOTONE_SAMPLES)], grid, [g],
                              roots[(roots > 0.0) & (roots < g)]])
        bad = pts[gen.polynomial_derivative_at(pts) < 0.0].tolist()
        if bad:
            failures.append(
                "tube polynomial is decreasing inside (0, g], first bad "
                f"sample eps = {min(bad)!r}"
            )

    # Similarity dimension window n-1 < D < n: sum(r_j^x) strictly decreases
    # through 1 at x = D, so the test needs no solve; D only words the failure.
    if not model.ratios.power_sum(float(n - 1)) > 1.0 > s:
        dim = model.ratios.similarity_dimension
        failures.append(
            f"similarity dimension D = {dim.value!r} outside ({n - 1}, {n})"
        )

    return ValidationReport(tuple(failures))


def spray_from_dict(data) -> SprayModel:
    """Build a SprayModel from the JSON configuration schema."""
    if not isinstance(data, dict):
        raise ConfigError("spray configuration must be a JSON object")
    for key in ("dimension", "ratios", "generator"):
        if key not in data:
            raise ConfigError(f"missing configuration field {key!r}")
    gen = data["generator"]
    if not isinstance(gen, dict):
        raise ConfigError("'generator' must be a JSON object")
    for key in ("kappa", "inradius", "volume"):
        if key not in gen:
            raise ConfigError(f"missing generator field {key!r}")
    n = data["dimension"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError("'dimension' must be an integer")
    ratios = data["ratios"]
    if not isinstance(ratios, (list, tuple)) or not ratios:
        raise ConfigError("'ratios' must be a non-empty array")
    kappa = gen["kappa"]
    if not isinstance(kappa, (list, tuple)):
        raise ConfigError("'kappa' must be an array")
    if len(kappa) != n:
        raise ConfigError(
            f"'kappa' must have exactly dimension = {n} entries, got {len(kappa)}"
        )

    def _num(x, name):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{name} must be a number, got {x!r}")
        if not math.isfinite(float(x)):
            raise ConfigError(f"{name} must be finite, got {x!r}")
        return float(x)

    rs = [_num(r, "ratio") for r in ratios]
    ks = [_num(k, "kappa coefficient") for k in kappa]
    g = _num(gen["inradius"], "inradius")
    vol = _num(gen["volume"], "volume")
    return SprayModel(RatioList(rs), MonophaseGenerator(n, ks, g, vol))


def load_spray(path) -> SprayModel:
    """Load a spray configuration from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return spray_from_dict(data)
