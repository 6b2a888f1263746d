"""Residue-sum tube formula and the numerical inverse Mellin transform.

The normalized tube function has the transform N(s) / (1 - sum r_j^s)
with N(s) = sum(kappa_i g^(s-i) / (s-i), i = 0..n), kappa_n = -Vol(G).
For eps < g the tube volume is the sum of residues of
eps^(n-s) N(s) / (1 - sum r_j^s) over the integer poles 0..n-1 and the
complex dimensions.  At the pole i the residue is eps^(n-i) kappa_i/f(i);
at a zero omega of multiplicity m it is eps^(n-omega) times a polynomial
of degree m - 1 in ln eps whose coefficients come from the Taylor
coefficients of N and f at omega.  A ``ResidueExpansion`` computes every
coefficient once per (model, ``ZeroSet``, pairs).  The residue at
conj(omega) is the conjugate of the one at omega, so the expansion holds
the poles, the real zeros and the upper half only, and each eps costs one
power of eps per row.  Truncation is by conjugate pairs ordered by |Im|,
and a pair sums to twice the real part of one residue, so every partial
sum is a real sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexdims import (
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
from .parallel import map_ordered
from .summation import compensated_cumsum

_POLE_PROXIMITY = 1e-12
# Bromwich trapezoid: 4096 intervals, doubled until two estimates agree to
# atol + rtol*|estimate|.
_INVMELLIN_ATOL = 1e-9
_INVMELLIN_RTOL = 1e-8
_INVMELLIN_DOUBLINGS = 12

@dataclass(frozen=True, eq=False)
class TubeEvaluation:
    """Direct value vs the residue sum at one eps.  The errors are NaN
    without a direct value; an eps the residue sum does not cover has NaN
    residue fields and its reason in ``error``.  ``imag_leakage`` is 0.0: a
    pair enters as w + conj(w), so only real parts are summed."""

    eps: float
    direct: float
    residue_value: float
    abs_error: float
    rel_error: float
    pairs_used: int
    imag_leakage: float
    error: str = ""


def mellin_numerator(gen: MonophaseGenerator, s, order: int = 0):
    """N(s) = sum(kappa_i g^(s-i)/(s-i), i=0..n) with kappa_n = -Vol(G), or
    its derivative N^(order)(s).

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
        term = k * np.exp((s - i) * log_g)
        if order:
            # with d = s - i, the order-th derivative of g^d/d is
            # order! g^d/d sum((ln g)^p/p! (-1/d)^(order-p), p = 0..order)
            term = term * math.factorial(order) * sum(
                log_g**p / math.factorial(p) * (-1.0 / (s - i)) ** (order - p)
                for p in range(order + 1))
        acc = acc + term / (s - i)
    return acc


def _laurent_coefficients(model: SprayModel, omegas, multiplicities):
    """C, of shape (zeros, max multiplicity): the residue at omega[i] is
    eps^(n-omega[i]) sum(C[i, j] ln(eps)^j).

    With s = omega + h, f(s) = h^m a(h) and N(s) = b(h), a_k =
    f^(m+k)(omega)/(m+k)! and b_k = N^(k)(omega)/k!; the residue is the h^(m-1)
    coefficient of eps^(n-omega) e^(-h ln eps) b(h)/a(h).  The quotient
    q = b/a is taken by long division, so at a simple zero C[i, 0] = q_0 is
    N(omega)/f'(omega) exactly.
    """
    coeffs = np.zeros((len(omegas), int(multiplicities.max(initial=1))), dtype=complex)
    for m in np.unique(multiplicities).tolist():
        at = multiplicities == m
        omega = omegas[at]
        b = [mellin_numerator(model.generator, omega, k) / math.factorial(k)
             for k in range(m)]
        a = [dirichlet_poly_deriv(model.ratios, omega, m + k) / math.factorial(m + k)
             for k in range(m)]
        q = []
        for k in range(m):
            q.append((b[k] - sum(a[i] * q[k - i] for i in range(1, k + 1))) / a[0])
        for j in range(m):
            coeffs[at, j] = q[m - 1 - j] * ((-1) ** j / math.factorial(j))
    return coeffs


def _pole_coefficients(model: SprayModel, width: int):
    """Rows kappa_i/f(i), 0, ... for the integer poles i = 0..n-1; f(i) is
    summed compensated, as D may lie next to a pole and cancel most of it."""
    coeffs = np.zeros((model.generator.dimension, width), dtype=complex)
    coeffs[:, 0] = [k / (1.0 - model.ratios.power_sum(float(i))) if k else 0.0
                    for i, k in enumerate(model.generator.kappa)]
    return coeffs


def _residues(n: int, omegas, coeffs, eps: float, poles: int):
    """eps^(n-omega) sum(C[:, j] ln(eps)^j), by Horner in ln eps.  The first
    ``poles`` rows are integer poles, whose integer exponent np.power
    multiplies out exactly.  At every other row np.power computes
    exp(k ln eps) with the real part of numpy's complex log of eps, which
    near eps = 1 differs from math.log by an ulp; that exp is taken here
    directly, the same bits in less time."""
    log_eps = math.log(eps)
    poly = coeffs[:, -1]
    for j in reversed(range(coeffs.shape[1] - 1)):
        poly = poly * log_eps + coeffs[:, j]
    scale = np.exp((n - omegas) * np.log(complex(eps)).real)
    scale[:poles] = np.power(eps, n - omegas[:poles])
    return scale * poly


def zero_residue(model: SprayModel, omega: complex, multiplicity: int,
                 eps: float) -> complex:
    """Residue of eps^(n-s) N(s)/(1 - sum r_j^s) at a complex dimension omega
    of the given multiplicity: the one-zero case of ``ResidueExpansion``."""
    if not (eps > 0.0):
        raise DomainError(f"residue needs eps > 0, got {eps!r}")
    if not multiplicity >= 1:
        raise DomainError(f"zero multiplicity must be >= 1, got {multiplicity!r}")
    omegas = np.array([omega], dtype=complex)
    coeffs = _laurent_coefficients(model, omegas, np.array([multiplicity]))
    return complex(_residues(model.generator.dimension, omegas, coeffs, eps, 0)[0])


def window_for_pairs(ratios, pairs: int) -> float:
    """Imaginary window expected to cover the given number of conjugate pairs.

    The zero counting function grows like T * ln(1/r_min) / (2*pi), zeros
    counted with multiplicity.  A lattice polynomial of degree K with K'
    distinct roots has K/K' times fewer distinct zeros than that, so its
    window is K/K' times taller.
    """
    r_min = ratios.ratios[-1]
    window = 2.0 * math.pi * (pairs + 2) / -math.log(r_min)
    lattice = ratios.lattice
    if lattice.is_lattice:
        window *= max(lattice.exponents) / len(lattice.roots)
    return window


def check_residue_eps(gen: MonophaseGenerator, eps: float) -> None:
    """Raise DomainError unless 0 < eps < g, where the residue sum holds."""
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

    ``omegas`` holds the summed poles of the integrand once per conjugate
    pair: the integer poles 0..n-1, the real zeros of a ``ZeroSet``, then
    its ``pairs`` lowest upper-half zeros.  The residue at conj(omega) is
    the conjugate of the residue at omega, as the integrand is real on the
    real axis, so the lower half is never evaluated.  ``coeffs`` has one
    row per point and one column per power of ln eps up to the largest
    multiplicity less one: the residue at omegas[i] is
    eps^(n-omegas[i]) sum(coeffs[i, j] ln(eps)^j).  The rows of the pole i
    and of a simple zero are kappa_i/f(i) and N(omega)/f'(omega), then 0s.
    """

    model: SprayModel
    pairs: int
    omegas: np.ndarray
    coeffs: np.ndarray

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
        at_zeros = _laurent_coefficients(model, zeros.omega[kept], zeros.multiplicity[kept])
        coeffs = np.concatenate((_pole_coefficients(model, at_zeros.shape[1]), at_zeros))
        omegas = np.concatenate((np.arange(model.generator.dimension, dtype=complex),
                                 zeros.omega[kept]))
        coeffs.flags.writeable = omegas.flags.writeable = False
        return cls(model=model, pairs=pairs, omegas=omegas, coeffs=coeffs)

    def partial_sums(self, eps: float) -> np.ndarray:
        """The truncated residue sums at one eps < g, read-only: index k
        holds the poles, the real zeros and the k lowest conjugate pairs."""
        check_residue_eps(self.model.generator, eps)
        n = self.model.generator.dimension
        terms = _residues(n, self.omegas, self.coeffs, eps, n).real
        # An upper-half residue's real part enters twice, once for its conjugate.
        head = len(terms) - self.pairs
        terms = np.concatenate((terms[:head], np.repeat(terms[head:], 2)))
        sums = compensated_cumsum(terms)[head - 1::2].copy()
        sums.flags.writeable = False
        return sums

    def evaluate(self, eps: float, direct: float = math.nan) -> TubeEvaluation:
        """The residue sum at one eps < g, compared against ``direct``, the
        direct tube volume at eps when the caller has it."""
        value = float(self.partial_sums(eps)[-1])
        abs_err = abs(value - direct)
        return TubeEvaluation(
            eps=eps,
            direct=direct,
            residue_value=value,
            abs_error=abs_err,
            rel_error=abs_err / abs(direct) if direct != 0.0 else math.inf,
            pairs_used=self.pairs,
            imag_leakage=0.0,
        )


def tube_volume_residues(model: SprayModel, eps: float, pairs: int,
                         im_window: float, zeros=None) -> TubeEvaluation:
    """Truncated residue-sum tube formula, compared against the direct oracle.

    Sums the residues at the integer poles, the real zeros and the ``pairs``
    lowest conjugate pairs, each pair at once.  Stated only for eps < g.
    """
    check_residue_eps(model.generator, eps)
    expansion = ResidueExpansion.build(model, pairs, im_window, zeros)
    return expansion.evaluate(eps, direct_tube_volume(model, eps))


def inverse_mellin_numeric(model: SprayModel, eps: float, c=None,
                           half_length: float = 200.0) -> float:
    """Truncated inverse Mellin transform along Re s = c.

    Independent of the residue machinery: a plain Bromwich-type trapezoid
    over [c - iT, c + iT], T finite.  Valid for every 0 < eps < inf; the
    abscissa must lie strictly inside the strip (D, n).  Default c is the
    strip midpoint.  Raises ConvergenceError when the doubled trapezoids never agree.
    """
    if not (0.0 < eps < math.inf):
        raise DomainError(f"inversion needs 0 < eps < inf, got {eps!r}")
    n = model.generator.dimension
    dim = model.ratios.similarity_dimension.value
    if c is None:
        c = 0.5 * (dim + n)
    if not (dim < c < n):
        raise StripError(
            f"inversion abscissa c = {c!r} outside the strip ({dim!r}, {n})"
        )
    if not (0.0 < half_length < math.inf):
        raise DomainError(f"half_length must be positive and finite, got {half_length!r}")

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

    # The trapezoid estimates V/eps^n: above eps = 1 the absolute term shrinks with it.
    atol = _INVMELLIN_ATOL * min(1.0, 1.0 / eps) ** n
    num = 4096
    prev = bromwich(num)
    for _ in range(_INVMELLIN_DOUBLINGS):
        num *= 2
        cur = bromwich(num)
        if abs(cur - prev) <= atol + _INVMELLIN_RTOL * abs(cur):
            return eps**n * cur
        prev = cur
    raise ConvergenceError(
        f"inverse Mellin trapezoid at eps = {eps!r} did not converge in {num} intervals"
    )


def compare(model: SprayModel, eps_grid, pairs: int, im_window: float):
    """Direct vs residue-sum values over an eps grid, error-isolated per entry.

    One ``ResidueExpansion`` and one ``DirectExpansion`` serve the whole
    grid.  Any eps <= 0 raises ``DomainError`` for the whole grid (the
    direct expansion cannot be built), and so does a residue expansion that
    cannot be built; a grid point with eps >= g gives an error entry.
    """
    eps_list = [float(e) for e in eps_grid]
    if not eps_list:
        return []
    direct_expansion = DirectExpansion.build(model, min(eps_list))
    expansion = None
    if any(0.0 < e < model.generator.inradius for e in eps_list):
        expansion = ResidueExpansion.build(model, pairs, im_window)

    def one(eps):
        direct = direct_expansion.evaluate(eps)
        try:
            check_residue_eps(model.generator, eps)
        except DomainError as exc:
            return TubeEvaluation(eps, direct, math.nan, math.nan, math.nan,
                                  0, math.nan, error=str(exc))
        return expansion.evaluate(eps, direct)

    return map_ordered(one, eps_list)
