"""Zeros of the Dirichlet polynomial 1 - sum(r_j^s) in a vertical window.

Lattice ratio lists (all ratios integer powers of one base r) reduce to an
ordinary polynomial in z = r^s, solved once per list: Yun's square-free
decomposition over the integers gives each root's exact multiplicity, and a
companion matrix per square-free factor gives the roots.  The zeros then
come in exact vertical arithmetic progressions with period 2*pi/ln(1/r),
one array of lifts per distinct root.  Nonlattice lists are handled by the
argument principle: winding-number counts over rectangles, halved one
generation at a time until each rectangle isolates one zero, then Newton
refinement down to the rounding floor of f.  A winding number is the sum of
arg changes of f along pieces of the boundary; a bound on |f'| certifies
that f cannot wind around 0 within a piece, so each count is an exact
integer (Ying & Katz, Numer. Math. 53, 1988).  The edges of a whole
generation are certified in one batch, and each segment is cached in both
orientations, so an edge two rectangles share is certified once.  Each
contour node's f, rounding bound and |f'| bound come from one exponential
per ratio, with ln r_j computed once per ratio list.  The one real zero is
Moran's D, so conjugate symmetry leaves the upper half to search, and its
first count also gives the window's total.  Both routes compute only the
real axis and the upper half, and pass them as arrays to ``ZeroSet.build``,
which sorts them by (Im, Re) with one lexsort, drops near-duplicates by the
distance to their neighbour and mirrors them: the zeros, their
multiplicities and residuals as read-only arrays, sorted by (Im, Re) and
exactly conjugate-symmetric.  Every simple zero off the real axis must then
have |f| within twice the rounding bound of f, or the search raises
``ConvergenceError``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundaryProximityError,
    ConvergenceError,
    DomainError,
    ResourceLimitError,
    SprayValidationError,
)
from .model import RatioList, SprayModel

_NEWTON_MAX_ITER = 100
_LATTICE_MATCH_TOL = 1e-9
_MAX_DENOMINATOR = 64
_DEDUP_DISTANCE = 1e-8
_PERTURB_RETRIES = 5
_REAL_IM_TOL = 1e-9
# Winding counts: the rounding-error bound charged per unit in the last
# place of a term of f, and the relative length below which a contour piece
# that still cannot exclude a zero is taken to touch one.
_ROUNDING = 4.0 * np.finfo(float).eps
_MIN_PIECE = 1e-13
# Cap on the zeros a window |Im| <= T is expected to hold, T ln(1/r_min)/pi:
# far above the few thousand conjugate pairs a residue expansion asks for.
MAX_ZEROS = 1_000_000


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Zeros of 1 - sum(r_j^s) with multiplicities and residuals |f(omega)|.

    The read-only arrays are sorted by (Im, Re) and exactly
    conjugate-symmetric, so ``omega`` is the lower half, the real zeros and
    the upper half, in that order: the slices ``lower``, ``reals`` and
    ``upper``.  The lower half is a copy of the upper one, conjugated.
    """

    omega: np.ndarray
    multiplicity: np.ndarray
    residual: np.ndarray
    lower: slice
    reals: slice
    upper: slice

    @classmethod
    def build(cls, ratios: RatioList, omega, multiplicity) -> "ZeroSet":
        """From arrays of zeros of the real axis and the upper half and
        their multiplicities, in any order: zeros within 1e-9 of the real
        axis are put on it, zeros below it are ignored, a zero within 1e-8
        of the last one kept in (Im, Re) order is dropped, and the lower
        half is the conjugate of the upper half, with its multiplicities
        and residuals."""
        omega = np.asarray(omega, dtype=np.complex128)
        omega = np.where(np.abs(omega.imag) <= _REAL_IM_TOL,
                         omega.real.astype(np.complex128), omega)
        half = np.flatnonzero(omega.imag >= 0.0)
        half = half[np.lexsort((omega.real[half], omega.imag[half]))]
        omega = omega[half]
        step = np.diff(omega)
        if np.any(np.hypot(step.real, step.imag) <= _DEDUP_DISTANCE):
            # Rare: once a zero is dropped, the next one is compared with the
            # last zero kept, not with its neighbour.
            values = omega.tolist()
            kept = [0]
            for i in range(1, len(values)):
                if abs(values[kept[-1]] - values[i]) > _DEDUP_DISTANCE:
                    kept.append(i)
            half, omega = half[kept], omega[kept]
        mult = np.asarray(multiplicity, dtype=np.int64)[half]
        f = dirichlet_poly(ratios, omega)
        residual = np.hypot(f.real, f.imag)  # bit for bit abs() of each value
        upper = np.flatnonzero(omega.imag > 0.0)
        lower = upper[np.lexsort((omega.real[upper], -omega.imag[upper]))]
        return cls._of(np.concatenate((omega[lower].conj(), omega)),
                       np.concatenate((mult[lower], mult)),
                       np.concatenate((residual[lower], residual)))

    @classmethod
    def _of(cls, omega, multiplicity, residual) -> "ZeroSet":
        """From arrays already sorted and conjugate-symmetric."""
        for a in (omega, multiplicity, residual):
            a.flags.writeable = False
        start = int(np.count_nonzero(omega.imag < 0.0))
        end = len(omega) - start
        return cls(omega, multiplicity, residual,
                   slice(0, start), slice(start, end), slice(end, None))

    def __len__(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class LatticeStructure:
    """Common-base structure of a ratio list, when it exists.

    ``exponents`` aligns with the canonical ratio tuple: r_j = base**k_j,
    gcd of the k_j is 1.  ``period`` is the vertical period 2*pi/ln(1/base)
    of the zero set.  ``roots`` holds the distinct roots of the polynomial
    1 - sum(z^k_j) with their multiplicities, ((z, m), ...).
    """

    is_lattice: bool
    base: float = 0.0
    exponents: tuple = ()
    period: float = 0.0
    roots: tuple = ()


def dirichlet_poly(ratios: RatioList, s):
    """f(s) = 1 - sum(r_j^s); s may be a complex scalar or ndarray, and a
    scalar gives the bits it would give inside an ndarray."""
    acc = 1.0
    for (_, m), lg in zip(ratios.distinct, ratios.logs):
        acc = acc - m * np.exp(s * lg)
    return acc


def dirichlet_poly_deriv(ratios: RatioList, s, order: int = 1):
    """The derivative f^(order)(s) = -sum(r_j^s ln^order r_j), order >= 1;
    s may be a complex scalar or ndarray."""
    acc = 0.0
    for (_, m), lg in zip(ratios.distinct, ratios.logs):
        acc = acc - m * lg**order * np.exp(s * lg)
    return acc


def detect_lattice(ratios: RatioList) -> LatticeStructure:
    """Decide whether all ratios are integer powers of a common base.

    Continued-fraction convergents of ln(r_j)/ln(r_1) up to denominator 64;
    accepted only if the reconstructed base**k_j matches every ratio to 1e-9.
    """
    distinct = ratios.distinct
    logs = ratios.logs

    if len(distinct) == 1:
        base = distinct[0][0]
        exponents = tuple(1 for _ in ratios.ratios)
        return LatticeStructure(True, base, exponents, 2.0 * math.pi / -logs[0],
                                _polynomial_roots(exponents))

    fracs = []
    for lg in logs:
        x = lg / logs[0]  # >= 1 since r_1 is the largest ratio
        frac = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
        if frac.numerator <= 0:
            return LatticeStructure(False)
        fracs.append(frac)

    denom = 1
    for frac in fracs:
        denom = denom * frac.denominator // math.gcd(denom, frac.denominator)
        if denom > _MAX_DENOMINATOR:
            return LatticeStructure(False)

    ks = [int(frac * denom) for frac in fracs]
    g = 0
    for k in ks:
        g = math.gcd(g, k)
    ks = [k // g for k in ks]

    # Least-squares base exponent over all distinct ratios.
    u = sum(k * lg for k, lg in zip(ks, logs)) / sum(k * k for k in ks)
    base = math.exp(u)
    for (r, _), k in zip(distinct, ks):
        if abs(base**k - r) > _LATTICE_MATCH_TOL:
            return LatticeStructure(False)

    by_ratio = {r: k for (r, _), k in zip(distinct, ks)}
    exponents = tuple(by_ratio[r] for r in ratios.ratios)
    return LatticeStructure(True, base, exponents, 2.0 * math.pi / -u,
                            _polynomial_roots(exponents))


def _polynomial_roots(exponents):
    """Distinct roots of 1 - sum(z^k_j) with their exact multiplicities,
    ((z, m), ...): a companion matrix per square-free factor."""
    deg = max(exponents)
    coeffs = [0] * deg + [1]  # highest degree first
    for k in exponents:
        coeffs[deg - k] -= 1
    return tuple((complex(z), m) for factor, m in _square_free_factors(coeffs)
                 for z in np.roots(factor))


# Integer polynomials as lists of Python ints, highest degree first, with no
# leading zero; the zero polynomial is [].

def _strip(p):
    while p and not p[0]:
        p = p[1:]
    return p


def _derivative(p):
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


def _primitive(p):
    """p over the gcd of its coefficients, signed so that a nonzero constant
    term is positive."""
    content = math.gcd(*p)
    return [c // (-content if p[-1] < 0 else content) for c in p]


def _pseudo_remainder(p, q):
    """The remainder of lead(q)^k p divided by q, an integer polynomial."""
    while len(p) >= len(q):
        lead = p[0]
        p = _strip([q[0] * a - lead * b
                    for a, b in zip(p[1:], q[1:] + [0] * (len(p) - len(q)))])
    return p


def _gcd(p, q):
    """Primitive gcd of two integer polynomials, by primitive pseudo-remainders."""
    p = _primitive(p)
    while q:
        q = _primitive(q)
        p, q = q, _pseudo_remainder(p, q)
    return p


def _exact_quotient(p, q):
    """p / q for a primitive q dividing p: by Gauss's lemma the quotient has
    integer coefficients, so each long-division step is exact."""
    quotient = []
    while len(p) >= len(q):
        lead = p[0] // q[0]
        quotient.append(lead)
        p = [a - lead * b for a, b in zip(p[1:], q[1:] + [0] * (len(p) - len(q)))]
    return quotient


def _square_free_factors(p):
    """Yun's square-free decomposition (SYMSAC 1976) of an integer polynomial
    p with p(0) != 0: [(factor, m), ...] with p = +-prod(factor^m), the factors
    primitive, square-free, pairwise coprime and not constant; a square-free
    p is its own only factor."""
    dp = _derivative(p)
    common = _gcd(p, dp)
    if len(common) == 1:
        return [(p, 1)]
    b, c = _exact_quotient(p, common), _exact_quotient(dp, common)
    factors = []
    m = 1
    while len(b) > 1:
        d = _strip([x - y for x, y in zip(c, _derivative(b))])  # deg c = deg b - 1
        factor = _gcd(b, d)
        b, c = _exact_quotient(b, factor), _exact_quotient(d, factor)
        if len(factor) > 1:
            factors.append((factor, m))
        m += 1
    return factors


def refine_zero(ratios: RatioList, seed: complex, rect=None) -> complex:
    """Polish a seed known to lie near a single zero; Newton on f.

    Newton stops one step after |f| first falls to E, the rounding bound of
    f (see ``_bounds``): below E the computed f says nothing more about the
    zero.  With ``rect`` = (re_lo, re_hi, im_lo, im_hi), the zero returned
    lies in rect to within 1e-7 (1 + its longer side), and a run fails as
    soon as an iterate leaves rect grown on every side by its longer side;
    E is then evaluated only where |f| is below a bound on E over that
    region (see ``_floor_bound``).  Raises ConvergenceError on failure.
    """
    s = complex(seed)
    logs, mults = _arrays(ratios)
    gate, region = math.inf, None
    try:
        if rect is not None:
            re_lo, re_hi, im_lo, im_hi = rect
            side = max(re_hi - re_lo, im_hi - im_lo)
            region = (re_lo - side, re_hi + side, im_lo - side, im_hi + side)
            gate = _floor_bound(ratios, region[0], math.hypot(max(map(abs, region[:2])),
                                                              max(map(abs, region[2:]))))
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(_NEWTON_MAX_ITER):
                # Python complex arithmetic for the step, as numpy's complex
                # division rounds differently.
                fs = complex(dirichlet_poly(ratios, s))
                dfs = complex(dirichlet_poly_deriv(ratios, s))
                if dfs == 0:
                    break
                # E costs a numpy call: only where |f| may be down to it.
                at_floor = abs(fs) <= gate and abs(fs) <= _bounds(np.array([s]), logs, mults)[0][0]
                s -= fs / dfs
                if region is None:
                    if abs(s - seed) > 1e6:
                        break
                elif not _inside(s, region, 0.0):
                    break
                if at_floor:
                    if rect is None or _inside(s, rect, 1e-7 * (1.0 + side)):
                        return s
                    break
    except (FloatingPointError, OverflowError):
        pass  # the region or an iterate reaches far left; treated as divergence
    raise ConvergenceError(
        f"Newton iteration from seed {seed!r} did not reach the rounding floor of f"
        + ("" if rect is None else f" inside {rect!r}")
    )


def _floor_bound(ratios: RatioList, sigma: float, size: float) -> float:
    """An upper bound on E (see ``_bounds``) wherever Re s >= sigma and
    |s| <= size, from one power: each m_j r_j^Re(s) is at most
    m_j max(1, r_min^sigma), and each |ln r_j| at most |ln r_min|."""
    ln_min = ratios.logs[-1]
    moduli = ratios.count * max(1.0, math.exp(sigma * ln_min))
    return _ROUNDING * (len(ratios.logs) + 1) * (1.0 + moduli * (1.0 - size * ln_min))


def _inside(s: complex, rect, margin: float) -> bool:
    """Whether s lies in rect = (re_lo, re_hi, im_lo, im_hi) grown by margin."""
    re_lo, re_hi, im_lo, im_hi = rect
    return (re_lo - margin <= s.real <= re_hi + margin
            and im_lo - margin <= s.imag <= im_hi + margin)


def _check_window(ratios: RatioList, im_window: float) -> None:
    """Raise unless 0 < T < inf and the window holds at most ``MAX_ZEROS``
    zeros by the zero counting function T ln(1/r_min)/pi."""
    if not (0.0 < im_window < math.inf):
        raise DomainError(f"imaginary window must be finite and > 0, got {im_window!r}")
    expected = im_window * -ratios.logs[-1] / math.pi
    if expected > MAX_ZEROS:
        raise ResourceLimitError(
            f"window |Im| <= {im_window!r} holds about {expected:.3g} zeros, "
            f"more than {MAX_ZEROS}"
        )


def _check_floor(ratios: RatioList, sigma: float, im_window: float) -> None:
    """Raise unless the rounding bound of f (see ``_bounds``) is finite at
    the far corner sigma + i*T of the search, pushed outward by every retry
    (see ``_perturb``): far left, r_min^sigma overflows."""
    re_lo, _, _, im_hi = _perturb((sigma, sigma, -im_window, im_window), _PERTURB_RETRIES)
    with np.errstate(over="ignore"):
        err, _ = _bounds(np.array([complex(re_lo, im_hi)]), *_arrays(ratios))
    if not err[0] < math.inf:
        raise DomainError(
            f"re_floor {sigma!r} is too far left: r_min^re_floor (r_min = "
            f"{ratios.ratios[-1]!r}) overflows the rounding bound of the zero search"
        )


def lattice_zeros(structure: LatticeStructure, ratios: RatioList, im_window: float):
    """All zeros with |Im s| <= T in the lattice case, from the polynomial in z.

    Substituting z = base**s turns 1 - sum(r_j^s) into 1 - sum(z^k_j); its
    roots, lifted through the principal logarithm, generate the vertical
    zero families s = ln(z)/ln(base) + i*k*period.  The lifts on the real
    axis and above it are built as one array, root by root, screened by one
    evaluation of f and of its rounding bound E, and polished where a simple
    lift has |f| > E; ``ZeroSet.build`` mirrors them.
    """
    if not structure.is_lattice:
        raise DomainError("lattice_zeros requires a lattice ratio list")
    _check_window(ratios, im_window)

    log_base = math.log(structure.base)
    period = structure.period
    tol_t = im_window * (1.0 + 1e-12) + 1e-12

    lifts = []
    for z, m in structure.roots:
        s0 = cmath.log(z) / log_base  # z != 0: the constant term is 1
        k = np.arange(math.ceil((-_REAL_IM_TOL - s0.imag) / period),
                      math.floor((tol_t - s0.imag) / period) + 1)
        sigma = s0.real + 0.0  # a root on the unit circle has Re s0 = 0.0 / ln(base) = -0.0
        lifts.append((np.full(k.size, sigma), s0.imag + k * period, np.full(k.size, m)))
    re, im, mult = (np.concatenate(parts) for parts in zip(*lifts))
    omega = np.empty(re.size, dtype=np.complex128)
    omega.real, omega.imag = re, im

    # refine_zero's own stop, over all lifts at once: a lift already at the
    # rounding floor is kept, and only simple lifts above it are polished
    # and checked.
    f = dirichlet_poly(ratios, omega)
    err, _ = _bounds(omega, *_arrays(ratios))
    polish = np.flatnonzero((mult == 1) & (np.hypot(f.real, f.imag) > err))
    for i in polish.tolist():
        try:
            omega[i] = refine_zero(ratios, complex(omega[i]))
        except ConvergenceError:
            pass  # keep the lift; _check_residuals rejects it past 2E
    _check_residuals(ratios, omega[polish])
    return ZeroSet.build(ratios, omega, mult)


def _arrays(ratios: RatioList):
    """The arrays of ln r_j and m_j over the distinct ratios."""
    return np.array(ratios.logs), np.array([float(m) for _, m in ratios.distinct])


def _bounds(s, logs, mults):
    """At the nodes s: E, a bound on the rounding error of f, and
    M = sum m_j |ln r_j| r_j^Re(s), a bound on |f'| right of Re(s), from one
    m_j r_j^Re(s) per ratio.  Term j of f is off by about (1 + |s| |ln r_j|)
    units in the last place of that modulus, the rounding of its exponent
    carried through exp, and each of the J + 1 additions adds one unit:
    E = 4 ulp (J + 1) (1 + sum m_j r_j^Re(s) + |s| M)."""
    terms = mults * np.exp(np.multiply.outer(s.real, logs))
    slope = terms @ -logs
    weight = 1.0 + terms.sum(axis=-1) + np.abs(s) * slope
    return _ROUNDING * (len(logs) + 1) * weight, slope


def _check_residuals(ratios: RatioList, omega) -> None:
    """Raise ConvergenceError unless f vanishes to rounding, |f| <= 2E as at
    a contour node (see ``_evaluate``), at each of the simple zeros omega."""
    if not omega.size:
        return
    f = dirichlet_poly(ratios, omega)
    residual = np.hypot(f.real, f.imag)
    err, _ = _bounds(omega, *_arrays(ratios))
    bad = np.flatnonzero(residual > 2.0 * err)
    if bad.size:
        k = bad[0]
        raise ConvergenceError(
            f"zero {complex(omega[k])!r} is not polished: |f| = {float(residual[k])!r} "
            f"exceeds twice its rounding bound {float(err[k])!r}"
        )


def _evaluate(ratios: RatioList, s, logs, mults):
    """f, E and M at the nodes s (see ``_bounds``), with f NaN where
    |f| <= 2E: a node where f vanishes to rounding certifies nothing."""
    f = dirichlet_poly(ratios, s)
    err, slope = _bounds(s, logs, mults)
    return np.where(np.abs(f) <= 2.0 * err, np.nan, f), err, slope


def _bisect(ratios: RatioList, segments, cache) -> None:
    """Cache the arg change of f along each segment, certified piece by piece.

    All segments go through one breadth-first bisection, one batch of new
    nodes per level: the zero search passes every uncached edge of a whole
    generation of rectangles at once.  A piece [u, v] is done once
    M*|v - u| + E < max(|f(u)|, |f(v)|)/2, where M, taken at the left end
    of the piece (the end with the smaller Re), bounds |f'| on the piece and
    E bounds the rounding error of the computed f: then f stays in a disc
    that excludes 0, so arg(f(v)/f(u)) is the exact change along the piece.
    A piece that cannot be certified, as |f| <= 2E at one of its ends or it
    shrank below ``_MIN_PIECE`` relative, is given the arg change NaN, and
    so is every segment that holds it.  Every piece and every bisected
    segment is cached by its exact endpoints in both orientations, the
    change along (v, u) being minus that along (u, v), so an edge shared by
    two rectangles is one cache read from either side.  A bisection cuts at
    0.5*(u + v), the cut the zero search makes when it splits a rectangle,
    so a half of a counted edge is a cache hit.
    """
    logs, mults = _arrays(ratios)
    ends = np.array(list(dict.fromkeys(p for seg in segments for p in seg)))
    values = (ends, *_evaluate(ratios, ends, logs, mults))
    index = {p: i for i, p in enumerate(ends.tolist())}
    # (node, f, E, M) at the start u and at the end v of each open piece.
    left = [x[[index[a] for a, _ in segments]] for x in values]
    right = [x[[index[b] for _, b in segments]] for x in values]
    splits = []
    while left[0].size:
        (u, fu, eu, mu), (v, fv, ev, mv) = left, right
        length = np.abs(v - u)
        slope = np.where(u.real <= v.real, mu, mv)
        # done is False at a NaN end, where |f| <= 2E: such a piece fails.
        done = slope * length + np.maximum(eu, ev) < 0.5 * np.maximum(np.abs(fu), np.abs(fv))
        failed = ~done & (np.isnan(fu) | np.isnan(fv)
                          | (length < _MIN_PIECE * np.maximum(1.0, np.abs(u))))
        for a, b, delta in zip(u[done].tolist(), v[done].tolist(),
                               np.angle(fv[done] / fu[done]).tolist()):
            cache[(a, b)], cache[(b, a)] = delta, -delta
        for a, b in zip(u[failed].tolist(), v[failed].tolist()):
            cache[(a, b)] = cache[(b, a)] = math.nan
        open_ = ~(done | failed)
        left, right = [x[open_] for x in left], [x[open_] for x in right]
        u, v = left[0], right[0]
        m = 0.5 * (u + v)
        mid = (m, *_evaluate(ratios, m, logs, mults))
        splits.extend(zip(u.tolist(), m.tolist(), v.tolist()))
        left = [np.concatenate([a, b]) for a, b in zip(left, mid)]
        right = [np.concatenate([b, a]) for a, b in zip(right, mid)]
    for a, m, b in reversed(splits):
        delta = cache[(a, m)] + cache[(m, b)]
        cache[(a, b)], cache[(b, a)] = delta, -delta


def _edges(rect):
    """The directed edges of the boundary of rect = (re_lo, re_hi, im_lo,
    im_hi), counterclockwise from (re_lo, im_lo)."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    return list(zip(corners, corners[1:] + corners[:1]))


def _certify(ratios: RatioList, edges, cache) -> None:
    """Certify the edges ``cache`` lacks in one ``_bisect`` call; an edge
    listed in both orientations is certified once."""
    todo = {}
    for a, b in edges:
        if (a, b) not in cache and (b, a) not in todo:
            todo[(a, b)] = None
    if todo:
        _bisect(ratios, list(todo), cache)


def count_zeros_rectangle(ratios: RatioList, rect, cache=None) -> int:
    """Zeros (with multiplicity) inside an axis-aligned rectangle.

    rect = (re_lo, re_hi, im_lo, im_hi).  The count is the winding number of
    f around the boundary, (1/2pi) times the sum of the certified arg
    changes of its four edges (see ``_bisect``), so it is an integer by
    construction.  ``cache`` maps directed segments to arg changes and may
    be shared by counts over rectangles with common edges; edges it lacks
    are certified and added.  Raises BoundaryProximityError when a zero
    sits numerically on the boundary, so that an edge's arg change is NaN.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_hi > re_lo and im_hi > im_lo):
        raise DomainError(f"degenerate rectangle {rect!r}")
    cache = {} if cache is None else cache
    edges = _edges(rect)
    _certify(ratios, edges, cache)
    total = sum(cache[edge] for edge in edges)
    if math.isnan(total):
        raise BoundaryProximityError(f"a zero lies on the boundary of {rect!r} to "
                                     "rounding: an arg change is not certified")
    return round(total / (2.0 * math.pi))


def _perturb(rect, attempt):
    """Push every side outward; deterministic in rect coordinates and attempt."""
    if attempt == 0:
        return rect
    re_lo, re_hi, im_lo, im_hi = rect
    d = 1e-6 * attempt
    return (
        re_lo - d * (1.0 + abs(re_lo)),
        re_hi + d * (1.0 + abs(re_hi)),
        im_lo - d * (1.0 + abs(im_lo)),
        im_hi + d * (1.0 + abs(im_hi)),
    )


def _count_with_retries(ratios: RatioList, rect, cache):
    """(count, rectangle counted): rect, or rect pushed outward when a zero
    sits on its boundary."""
    last = None
    for attempt in range(_PERTURB_RETRIES + 1):
        counted = _perturb(rect, attempt)
        try:
            return count_zeros_rectangle(ratios, counted, cache), counted
        except BoundaryProximityError as exc:
            last = exc
    raise last


def zero_free_abscissa(ratios: RatioList) -> float:
    """A real abscissa with no zeros to its left.

    Left of the returned value the smallest-ratio terms dominate the whole
    Dirichlet polynomial, so it cannot vanish.
    """
    distinct = ratios.distinct
    r_min, m_min = distinct[-1]

    def margin(sigma):
        others = sum(m * r**sigma for r, m in distinct[:-1])
        return m_min * r_min**sigma - others - 1.0

    hi = 0.0
    lo = 0.0
    for _ in range(400):
        if margin(lo) > 0.0:
            break
        hi = lo
        lo -= 1.0
    else:
        raise ConvergenceError("could not locate a zero-free left abscissa")

    if lo == 0.0:  # margin already positive at 0
        return -0.05

    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    sigma = lo - 0.05
    return sigma if margin(sigma) > 0.0 else lo


def _count_generation(ratios: RatioList, rects, cache):
    """(count, rectangle counted) for each rectangle of a generation.

    The uncached edges of every rectangle are certified in one ``_bisect``
    call, a cut shared by two halves once; each count then reads the cache.
    A rectangle with a zero on its boundary, an edge whose arg change is
    NaN, is pushed outward and counted again (see ``_count_with_retries``).
    """
    _certify(ratios, [edge for rect in rects for edge in _edges(rect)], cache)
    return [_count_with_retries(ratios, rect, cache) for rect in rects]


def _argument_principle_zeros(ratios: RatioList, sigma: float, right: float,
                              im_window: float):
    """Zeros in [sigma, right] x [-T, T], sigma <= D < right, by winding
    counts and bisection.

    The one real zero is Moran's D, as f(x) = 1 - sum m_j r_j^x strictly
    increases, so the search counts only the upper half (sigma, right,
    1e-3, T) and mirrors its zeros.  Nothing lies below 1e-3, and a window
    with T < pi/ln(1/r_min) holds D alone and is not counted at all:
    Im f(x + it) = sum m_j r_j^x sin(t ln(1/r_j)) > 0 for 0 < t <
    pi/ln(1/r_min), at least pi/744.4 ~ 4.2e-3 for any double r_min > 0,
    even once the upper half is pushed outward by ~1e-6.  f(conj s) =
    conj f(s), so the window's total is 1 + 2*upper: the completeness
    check that the zeros found must add up to.  The search then goes one
    generation at a time: a rectangle holding one zero is refined by Newton
    from its centre (see ``refine_zero``), any other nonempty one, or one
    whose Newton run fails, is halved across its longer side, and all
    halves are counted together (see ``_count_generation``).
    Every rectangle is searched within the bounds it was counted over, and
    all counts share one segment cache.
    """
    cache = {}
    generation = []
    if im_window >= math.pi / -ratios.logs[-1]:
        generation = _count_generation(ratios, [(sigma, right, 1e-3, im_window)], cache)
    total = 1 + 2 * sum(cnt for cnt, _ in generation)

    raw = [(ratios.similarity_dimension.value, 1)]
    while generation:
        halves = []
        for cnt, (re_lo, re_hi, im_lo, im_hi) in generation:
            if cnt == 0:
                continue
            width = re_hi - re_lo
            height = im_hi - im_lo
            if cnt == 1:
                seed = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
                try:
                    raw.append((refine_zero(ratios, seed, (re_lo, re_hi, im_lo, im_hi)), 1))
                    continue
                except ConvergenceError:
                    pass  # halved below
            if max(width, height) < _DEDUP_DISTANCE:
                center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
                raw.append((center, cnt))  # multiple zero: carry the count
                continue
            if height >= width:
                mid = 0.5 * (im_lo + im_hi)
                halves += [(re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)]
            else:
                mid = 0.5 * (re_lo + re_hi)
                halves += [(re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)]
        generation = _count_generation(ratios, halves, cache) if halves else []
    zeros = ZeroSet.build(ratios, [s for s, _ in raw], [m for _, m in raw])
    # The lower half mirrors the upper one, and the real zero is Moran's D,
    # solved to the tolerance of ``similarity_dimension``.
    upper = zeros.omega[zeros.upper]
    _check_residuals(ratios, upper[zeros.multiplicity[zeros.upper] == 1])

    total_mult = int(zeros.multiplicity.sum())
    if total_mult != total:
        raise ConvergenceError(
            f"zero search found multiplicity {total_mult}, winding count "
            f"of the full window is {total}"
        )
    return zeros


def find_complex_dimensions(model: SprayModel, im_window: float, re_floor=None):
    """The complex-dimension set in [re_floor, D+1/2] x [-T, T], re_floor <= D.

    Lattice input takes the exact closed-form route; nonlattice input is
    located by the argument principle and refined by Newton.  The result is
    conjugate-symmetric, deduplicated, sorted by (Im, Re), and checked:
    total multiplicity must match the winding count of the whole window,
    and no zero may approach the integer poles 0..n-1 of the tube-formula
    numerator.
    """
    ratios = model.ratios
    _check_window(ratios, im_window)
    if re_floor is not None and not math.isfinite(re_floor):
        raise DomainError(f"re_floor must be finite, got {re_floor!r}")
    dim = ratios.similarity_dimension
    if re_floor is not None and re_floor > dim.value:
        edge = "D + 1/2" if re_floor >= dim.value + 0.5 else "D"
        raise DomainError(f"re_floor {re_floor!r} is right of {edge}: the window "
                          f"would miss the real zero D = {dim.value!r}")
    structure = ratios.lattice

    if structure.is_lattice:
        zeros = lattice_zeros(structure, ratios, im_window)
        if re_floor is not None:
            # The real lift is D to 2 ulps, and re_floor <= D: keep it.
            keep = (zeros.omega.real >= re_floor) | (zeros.omega.imag == 0.0)
            zeros = ZeroSet._of(zeros.omega[keep], zeros.multiplicity[keep],
                                zeros.residual[keep])
    else:
        sigma = re_floor if re_floor is not None else zero_free_abscissa(ratios)
        _check_floor(ratios, sigma, im_window)
        zeros = _argument_principle_zeros(ratios, sigma, dim.value + 0.5, im_window)

    _check_zero_set(model, zeros, dim.value)
    return zeros


def _check_zero_set(model: SprayModel, zeros: ZeroSet, dim_value: float):
    omega = zeros.omega
    right = omega.real > dim_value + 1e-9
    pole = np.abs(np.subtract.outer(omega, np.arange(model.generator.dimension))) < 1e-6
    bad = np.flatnonzero(right | pole.any(axis=1))
    if bad.size:
        k = bad[0]
        if right[k]:
            raise SprayValidationError(
                f"zero {complex(omega[k])!r} lies right of the similarity dimension"
            )
        raise SprayValidationError(
            f"zero {complex(omega[k])!r} collides with the integer pole "
            f"{np.argmax(pole[k])}; residue separation breaks down"
        )
    reals = omega[zeros.reals].tolist()
    if len(reals) != 1 or abs(reals[0].real - dim_value) > 1e-10:
        raise SprayValidationError(
            "the real zero of the Dirichlet polynomial must be the "
            f"similarity dimension {dim_value!r}, got {reals!r}"
        )

