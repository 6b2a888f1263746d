"""Residue-sum tube formula and the numerical inverse Mellin transform.

The normalized tube function has the transform N(s) / (1 - sum r_j^s)
with N(s) = sum(kappa_i g^(s-i) / (s-i), i = 0..n), kappa_n = -Vol(G).
For eps < g the tube volume is the sum of residues of
eps^(n-s) N(s) / (1 - sum r_j^s) over the integer poles 0..n-1 and the
complex dimensions.  At a simple zero omega the residue is
eps^(n-omega) c with c = N(omega)/f'(omega) independent of eps, so a
``ResidueExpansion`` computes every c once per (model, ``ZeroSet``, pairs)
in one array pass.  The residue at conj(omega) is the conjugate of the one
at omega, so the expansion holds the real zeros and the upper half only,
and each eps costs one exponential per real zero or conjugate pair.
Zeros that are multiple or have a near-degenerate f' keep a per-eps
contour integral.  Truncation is by conjugate pairs ordered by |Im|, so
every partial sum is real up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexdims import (
    ZeroSet,
    dirichlet_poly,
    dirichlet_poly_deriv,
    find_complex_dimensions,
)
from .direct import DirectExpansion, direct_tube_volume
from .errors import (
    ConvergenceError,
    DomainError,
    PoleProximityError,
    StripError,
    WindowError,
)
from .model import MonophaseGenerator, SprayModel
from .moran import similarity_dimension
from .parallel import map_ordered
from .summation import compensated_cumsum

_POLE_PROXIMITY = 1e-12
_SIMPLE_ZERO_MIN_DERIV = 1e-8
_CONTOUR_TOL = 1e-10
_CONTOUR_MAX_REFINE = 20

KIND_SIMPLE_ZERO = "simple-zero"
KIND_CONTOUR_FALLBACK = "contour-fallback"


@dataclass(frozen=True)
class ResidueTerm:
    location: complex
    value: complex
    kind: str


@dataclass(frozen=True)
class TubeEvaluation:
    """Direct value vs residue partial sums at one eps."""

    eps: float
    direct: float
    partial_sums: tuple  # real partial sums, index = conjugate pairs included
    residue_value: float
    abs_error: float
    rel_error: float
    pairs_used: int
    im_window: float
    imag_leakage: float


@dataclass(frozen=True)
class CompareEntry:
    eps: float
    direct: float
    residues: float
    abs_error: float
    rel_error: float
    pairs_used: int
    imag_leakage: float
    error: str = ""


def mellin_numerator(gen: MonophaseGenerator, s):
    """N(s) = sum(kappa_i g^(s-i)/(s-i), i=0..n) with kappa_n = -Vol(G).

    s may be a complex scalar or ndarray.  Raises PoleProximityError if
    some s lies within reach of a pole of N.
    """
    log_g = math.log(gen.inradius)
    acc = 0.0
    for i in range(gen.dimension + 1):
        k = gen.kappa_extended(i)
        if k == 0.0:
            continue
        near = np.flatnonzero(np.abs(s - i) < _POLE_PROXIMITY)
        if near.size:
            raise PoleProximityError(
                f"s = {complex(np.ravel(s)[near[0]])!r} is within "
                f"{_POLE_PROXIMITY} of the pole at {i}"
            )
        acc = acc + k * np.exp((s - i) * log_g) / (s - i)
    return acc


def _is_simple(multiplicity, deriv):
    """Whether a zero takes the closed-form residue; scalars or arrays."""
    return (multiplicity == 1) & (abs(deriv) >= _SIMPLE_ZERO_MIN_DERIV)


def integer_pole_residue(model: SprayModel, i: int, eps: float) -> float:
    """Residue of eps^(n-s) N(s)/(1 - sum r_j^s) at the integer pole s = i."""
    n = model.generator.dimension
    if not 0 <= i <= n - 1:
        raise DomainError(f"integer pole index must lie in 0..{n - 1}, got {i}")
    if not (eps > 0.0):
        raise DomainError(f"residue needs eps > 0, got {eps!r}")
    k = model.generator.kappa_extended(i)
    if k == 0.0:
        return 0.0
    denom = 1.0 - model.ratios.power_sum(float(i))
    return eps ** (n - i) * k / denom


def _nearest_singularity_distance(model: SprayModel, center: complex, others):
    gen = model.generator
    candidates = [complex(i) for i in range(gen.dimension + 1)
                  if gen.kappa_extended(i) != 0.0]
    if others:
        candidates.extend(others)
    dists = [abs(center - c) for c in candidates if abs(center - c) > 1e-9]
    return min(dists) if dists else 0.1


def zero_residue(model: SprayModel, omega: complex, multiplicity: int,
                 eps: float, others=()) -> ResidueTerm:
    """Residue at a complex dimension omega of the given multiplicity.

    Simple zeros use the closed form eps^(n-omega) N(omega)/f'(omega);
    multiple zeros and near-degenerate derivatives fall back to a small
    contour integral.  ``others`` may list additional singularities used
    only to size the fallback contour.
    """
    if not (eps > 0.0):
        raise DomainError(f"residue needs eps > 0, got {eps!r}")
    deriv = dirichlet_poly_deriv(model.ratios, omega)
    if _is_simple(multiplicity, deriv):
        n = model.generator.dimension
        value = (
            np.exp((n - omega) * math.log(eps))
            * mellin_numerator(model.generator, omega)
            / deriv
        )
        return ResidueTerm(omega, complex(value), KIND_SIMPLE_ZERO)
    radius = min(0.4 * _nearest_singularity_distance(model, omega, others), 0.1)
    value = contour_residue(model, omega, radius, eps)
    return ResidueTerm(omega, value, KIND_CONTOUR_FALLBACK)


def _integrand(model: SprayModel, s: np.ndarray, eps: float) -> np.ndarray:
    n = model.generator.dimension
    return (
        np.exp((n - s) * math.log(eps))
        * mellin_numerator(model.generator, s)
        / dirichlet_poly(model.ratios, s)
    )


def contour_residue(model: SprayModel, center: complex, radius: float,
                    eps: float) -> complex:
    """(1/2*pi*i) * integral of the tube integrand around a circle.

    Periodic trapezoid, doubled until two successive refinements agree to
    1e-10 relative; exponentially convergent for an analytic integrand.
    """
    if not (radius > 0.0):
        raise DomainError(f"contour radius must be positive, got {radius!r}")
    if not (eps > 0.0):
        raise DomainError(f"residue needs eps > 0, got {eps!r}")
    num = 32
    prev = None
    prev_scale = 0.0
    for _ in range(_CONTOUR_MAX_REFINE + 1):
        theta = np.linspace(0.0, 2.0 * math.pi, num, endpoint=False)
        ring = np.exp(1j * theta)
        values = _integrand(model, center + radius * ring, eps) * ring
        estimate = radius * complex(np.mean(values))
        scale = radius * float(np.mean(np.abs(values)))
        if prev is not None:
            tol = max(_CONTOUR_TOL * max(abs(estimate), abs(prev)),
                      1e-13 * max(scale, prev_scale))
            if abs(estimate - prev) <= tol:
                return estimate
        prev = estimate
        prev_scale = scale
        num *= 2
    raise ConvergenceError(
        f"contour residue at {center!r} (radius {radius!r}) did not converge"
    )


def window_for_pairs(ratios, pairs: int) -> float:
    """Imaginary window expected to cover the given number of conjugate pairs.

    The zero counting function grows like T * ln(1/r_min) / (2*pi).
    """
    r_min = ratios.ratios[-1]
    return 2.0 * math.pi * (pairs + 2) / -math.log(r_min)


def _check_residue_eps(gen: MonophaseGenerator, eps: float) -> None:
    if not (eps > 0.0):
        raise DomainError(f"tube volume needs eps > 0, got {eps!r}")
    if eps >= gen.inradius:
        raise DomainError(
            f"residue formula stated only for eps < g; got eps = {eps!r} "
            f">= inradius {gen.inradius!r}"
        )


@dataclass(frozen=True, eq=False)
class ResidueExpansion:
    """The eps-independent part of the truncated residue sum.

    ``omegas`` holds the kept zeros of ``zeros`` once per conjugate pair:
    the real zeros, then the ``pairs`` lowest upper-half zeros.  The
    residue at conj(omega) is the conjugate of the residue at omega, as the
    integrand is real on the real axis, so the lower half is never
    evaluated.  ``coeffs`` holds N(omega)/f'(omega) at simple zeros and NaN
    at the zeros listed in ``fallbacks`` (index, multiplicity), whose
    residues are contour integrals taken per eps, sized by all of
    ``zeros``.
    """

    model: SprayModel
    pairs: int
    im_window: float
    zeros: ZeroSet
    omegas: np.ndarray
    coeffs: np.ndarray
    fallbacks: tuple

    @classmethod
    def build(cls, model: SprayModel, pairs: int, im_window: float,
              zeros=None) -> "ResidueExpansion":
        """Coefficients for ``pairs`` conjugate pairs of a zero set.

        The zero set defaults to the complex dimensions with |Im| <= im_window.
        """
        if pairs < 0:
            raise DomainError("pair count must be nonnegative")
        if zeros is None:
            zeros = find_complex_dimensions(model, im_window)
        available = len(zeros.omega[zeros.upper])
        if pairs > available:
            raise WindowError(
                f"{pairs} conjugate pairs requested but only {available} lie "
                f"inside the window |Im| <= {im_window}"
            )
        kept = slice(zeros.reals.start, zeros.upper.start + pairs)
        omegas, mults = zeros.omega[kept], zeros.multiplicity[kept]

        deriv = dirichlet_poly_deriv(model.ratios, omegas)
        simple = _is_simple(mults, deriv)
        coeffs = np.full_like(omegas, complex(math.nan, math.nan))
        coeffs[simple] = mellin_numerator(model.generator, omegas[simple]) / deriv[simple]
        coeffs.flags.writeable = False
        return cls(
            model=model,
            pairs=pairs,
            im_window=im_window,
            zeros=zeros,
            omegas=omegas,
            coeffs=coeffs,
            fallbacks=tuple((int(k), int(mults[k])) for k in np.flatnonzero(~simple)),
        )

    def evaluate(self, eps: float, direct=None) -> TubeEvaluation:
        """Partial sums at one eps < g, compared against the direct oracle.

        ``direct`` is the direct tube volume at eps when the caller has it.
        """
        _check_residue_eps(self.model.generator, eps)
        n = self.model.generator.dimension
        residues = np.exp((n - self.omegas) * math.log(eps)) * self.coeffs
        for k, mult in self.fallbacks:
            residues[k] = zero_residue(self.model, complex(self.omegas[k]), mult, eps,
                                       others=self.zeros.omega.tolist()).value
        poles = [integer_pole_residue(self.model, i, eps) for i in range(n)]
        # Each upper-half residue is followed by its conjugate, the residue
        # at the conjugate zero.  Partial sums: after the poles and real
        # zeros, then after each pair.
        real_count = len(self.omegas) - self.pairs
        upper = residues[real_count:]
        terms = np.concatenate((poles, residues[:real_count],
                                np.column_stack((upper, upper.conj())).ravel()))
        partials = compensated_cumsum(terms)[n + real_count - 1::2]
        sums = tuple(partials.real.tolist())
        if direct is None:
            direct = direct_tube_volume(self.model, eps)
        value = sums[-1]
        abs_err = abs(value - direct)
        return TubeEvaluation(
            eps=eps,
            direct=direct,
            partial_sums=sums,
            residue_value=value,
            abs_error=abs_err,
            rel_error=abs_err / abs(direct) if direct != 0.0 else math.inf,
            pairs_used=self.pairs,
            im_window=self.im_window,
            imag_leakage=float(np.max(np.abs(partials.imag))),
        )


def tube_volume_residues(model: SprayModel, eps: float, pairs: int,
                         im_window: float, zeros=None) -> TubeEvaluation:
    """Truncated residue-sum tube formula, compared against the direct oracle.

    Sums the integer-pole residues, the real zero(s), and the ``pairs``
    lowest conjugate pairs (each pair summed together so partial sums stay
    real).  Stated only for eps < g.
    """
    _check_residue_eps(model.generator, eps)
    return ResidueExpansion.build(model, pairs, im_window, zeros).evaluate(eps)


def inverse_mellin_numeric(model: SprayModel, eps: float, c=None,
                           half_length: float = 200.0) -> float:
    """Truncated inverse Mellin transform along Re s = c.

    Independent of the residue machinery: a plain Bromwich-type trapezoid
    over [c - iT, c + iT].  Valid for every eps > 0; the abscissa must lie
    strictly inside the strip (D, n).  Default c is the strip midpoint.
    """
    if not (eps > 0.0):
        raise DomainError(f"inversion needs eps > 0, got {eps!r}")
    n = model.generator.dimension
    dim = similarity_dimension(model.ratios).value
    if c is None:
        c = 0.5 * (dim + n)
    if not (dim < c < n):
        raise StripError(
            f"inversion abscissa c = {c!r} outside the strip ({dim!r}, {n})"
        )
    if not (half_length > 0.0):
        raise DomainError("half_length must be positive")

    log_eps = math.log(eps)

    def bromwich(num):
        t = np.linspace(0.0, half_length, num + 1)
        s = c + 1j * t
        h = (
            mellin_numerator(model.generator, s)
            / dirichlet_poly(model.ratios, s)
            * np.exp(-s * log_eps)
        )
        # Conjugate symmetry: the [-T, 0] half doubles the real part.
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(h.real, t)) / math.pi

    num = 4096
    prev = bromwich(num)
    for _ in range(12):
        num *= 2
        cur = bromwich(num)
        if abs(cur - prev) <= 1e-9 + 1e-8 * abs(cur):
            prev = cur
            break
        prev = cur
    return eps**n * prev


def compare(model: SprayModel, eps_grid, pairs: int, im_window: float):
    """Direct vs residue-sum values over an eps grid, error-isolated per entry.

    One ``ResidueExpansion`` and one ``DirectExpansion`` serve the whole
    grid.  Any eps <= 0 raises ``DomainError`` for the whole grid (the
    direct expansion cannot be built); a grid point with eps >= g, or a
    residue expansion that cannot be built, gives an error entry.
    """
    eps_list = [float(e) for e in eps_grid]
    if not eps_list:
        return []
    direct_expansion = DirectExpansion.build(model, min(eps_list))
    expansion = None
    failure = ""
    if any(0.0 < e < model.generator.inradius for e in eps_list):
        zeros = find_complex_dimensions(model, im_window)
        try:
            expansion = ResidueExpansion.build(model, pairs, im_window, zeros)
        except DomainError as exc:
            failure = str(exc)

    def one(eps):
        direct = direct_expansion.evaluate(eps)
        try:
            _check_residue_eps(model.generator, eps)
            if expansion is None:
                raise DomainError(failure)
            ev = expansion.evaluate(eps, direct)
        except DomainError as exc:
            return CompareEntry(eps, direct, math.nan, math.nan, math.nan,
                                0, math.nan, error=str(exc))
        return CompareEntry(eps, ev.direct, ev.residue_value, ev.abs_error,
                            ev.rel_error, ev.pairs_used, ev.imag_leakage)

    return map_ordered(one, eps_list)
