"""Zeros of the Dirichlet polynomial 1 - sum(r_j^s) in a vertical window.

Lattice ratio lists (all ratios integer powers of one base r) reduce to an
ordinary polynomial in z = r^s, solved by a companion matrix; the zeros
then come in exact vertical arithmetic progressions with period
2*pi/ln(1/r).  Nonlattice lists are handled by the argument principle:
winding-number counts over rectangles, halved one generation at a time
until each rectangle isolates one zero, then Newton refinement.  A winding
number is the sum of arg changes of f along pieces of the boundary; a
bound on |f'| certifies that f cannot wind around 0 within a piece, so
each count is an exact integer (Ying & Katz, Numer. Math. 53, 1988).  The
edges of a whole generation are certified in one batch, and each segment
is cached in both orientations, so an edge two rectangles share is
certified once.  Conjugate symmetry leaves a thin band around the real
axis and the upper half to search; the first generation's counts of these
two also give the window's total.  Both routes compute only the real axis
and the upper half, and return a ``ZeroSet`` that mirrors them: the zeros,
their multiplicities and residuals as read-only arrays, sorted by (Im, Re)
and exactly conjugate-symmetric.
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
    SprayValidationError,
)
from .model import RatioList, SprayModel
from .moran import similarity_dimension

RESIDUAL_TOL = 1e-10
NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100
_LATTICE_MATCH_TOL = 1e-9
_CLUSTER_TOL = 1e-6  # relative distance at which polynomial roots coincide
_MAX_DENOMINATOR = 64
_DEDUP_DISTANCE = 1e-8
_PERTURB_RETRIES = 5
_REAL_IM_TOL = 1e-9
# Winding counts: the rounding-error bound charged per unit in the last
# place of a term of f, and the relative length below which a contour piece
# that still cannot exclude a zero is taken to touch one.
_ROUNDING = 4.0 * np.finfo(float).eps
_MIN_PIECE = 1e-13


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
    def build(cls, ratios: RatioList, raw) -> "ZeroSet":
        """From (zero, multiplicity) pairs of the real axis and the upper
        half: zeros within 1e-9 of the real axis are put on it, zeros below
        it are ignored, a zero within 1e-8 of the last one kept in (Im, Re)
        order is dropped, and the lower half is the conjugate of the upper
        half, with its multiplicities and residuals."""
        on_axis = ((complex(s.real, 0.0) if abs(s.imag) <= _REAL_IM_TOL else s, m)
                   for s, m in raw)
        half = []
        for s, mult in sorted(on_axis, key=lambda e: (e[0].imag, e[0].real)):
            if s.imag < 0.0 or half and abs(half[-1][0] - s) <= _DEDUP_DISTANCE:
                continue
            half.append((s, mult))
        omega = np.array([s for s, _ in half], dtype=np.complex128)
        mult = np.array([m for _, m in half], dtype=np.int64)
        residual = np.array([abs(v) for v in dirichlet_poly(ratios, omega).tolist()])
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
    of the zero set.
    """

    is_lattice: bool
    base: float = 0.0
    exponents: tuple = ()
    period: float = 0.0


def dirichlet_poly(ratios: RatioList, s):
    """f(s) = 1 - sum(r_j^s); s may be a complex scalar or ndarray, and a
    scalar gives the bits it would give inside an ndarray."""
    acc = 1.0
    for r, m in ratios.distinct:
        acc = acc - m * np.exp(s * math.log(r))
    return acc


def dirichlet_poly_deriv(ratios: RatioList, s):
    """f'(s) = -sum(r_j^s ln r_j); s may be a complex scalar or ndarray."""
    acc = 0.0
    for r, m in ratios.distinct:
        acc = acc - m * math.log(r) * np.exp(s * math.log(r))
    return acc


def detect_lattice(ratios: RatioList) -> LatticeStructure:
    """Decide whether all ratios are integer powers of a common base.

    Continued-fraction convergents of ln(r_j)/ln(r_1) up to denominator 64;
    accepted only if the reconstructed base**k_j matches every ratio to 1e-9.
    """
    distinct = ratios.distinct
    logs = [math.log(r) for r, _ in distinct]

    if len(distinct) == 1:
        base = distinct[0][0]
        exponents = tuple(1 for _ in ratios.ratios)
        return LatticeStructure(True, base, exponents, 2.0 * math.pi / -math.log(base))

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
    return LatticeStructure(True, base, exponents, 2.0 * math.pi / -u)


def refine_zero(ratios: RatioList, seed: complex) -> complex:
    """Polish a seed known to lie near a single zero; Newton on f."""
    s = complex(seed)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(_NEWTON_MAX_ITER):
                # Python complex arithmetic for the step, as numpy's complex
                # division rounds differently.
                fs = complex(dirichlet_poly(ratios, s))
                if abs(fs) < NEWTON_TOL:
                    return s
                dfs = complex(dirichlet_poly_deriv(ratios, s))
                if dfs == 0 or abs(s - seed) > 1e6:
                    break
                s -= fs / dfs
    except (FloatingPointError, OverflowError):
        pass  # iterate escaped far left; treated as divergence
    raise ConvergenceError(
        f"Newton iteration from seed {seed!r} did not reach |f| < {NEWTON_TOL}"
    )


def _cluster_roots(roots):
    """Group numerically coincident polynomial roots into (value, count)."""
    remaining = sorted(roots, key=lambda z: (z.real, z.imag))
    clusters = []
    for z in remaining:
        for idx, (c, cnt) in enumerate(clusters):
            if abs(z - c) <= _CLUSTER_TOL * (1.0 + abs(c)):
                clusters[idx] = ((c * cnt + z) / (cnt + 1), cnt + 1)
                break
        else:
            clusters.append((z, 1))
    return clusters


def lattice_zeros(structure: LatticeStructure, ratios: RatioList, im_window: float):
    """All zeros with |Im s| <= T in the lattice case, from the polynomial in z.

    Substituting z = base**s turns 1 - sum(r_j^s) into 1 - sum(z^k_j); its
    roots, lifted through the principal logarithm, generate the vertical
    zero families s = ln(z)/ln(base) + i*k*period.  Only the lifts on the
    real axis and above it are screened and polished; ``ZeroSet.build``
    mirrors them.
    """
    if not structure.is_lattice:
        raise DomainError("lattice_zeros requires a lattice ratio list")
    if not (im_window > 0.0):
        raise DomainError("imaginary window must be positive")

    deg = max(structure.exponents)
    coeffs = np.zeros(deg + 1)
    coeffs[-1] = 1.0  # constant term
    for k in structure.exponents:
        coeffs[deg - k] -= 1.0
    roots = np.roots(coeffs)

    log_base = math.log(structure.base)
    period = structure.period
    tol_t = im_window * (1.0 + 1e-12) + 1e-12

    lifts = []
    for z, mult in _cluster_roots(list(map(complex, roots))):
        s0 = cmath.log(z) / log_base  # z != 0: the constant term is 1
        k_lo = math.ceil((-_REAL_IM_TOL - s0.imag) / period)
        k_hi = math.floor((tol_t - s0.imag) / period)
        lifts += [(complex(s0.real, s0.imag + k * period), mult)
                  for k in range(k_lo, k_hi + 1)]

    # refine_zero's own first test, over all lifts at once: only simple lifts
    # with |f| >= NEWTON_TOL take a step.
    f = dirichlet_poly(ratios, np.array([s for s, _ in lifts], dtype=np.complex128))
    raw = []
    for (s, mult), fs in zip(lifts, f.tolist()):
        if mult == 1 and abs(fs) >= NEWTON_TOL:
            try:
                s = refine_zero(ratios, s)
            except ConvergenceError:
                pass  # keep the closed-form lift
        raw.append((s, mult))
    return ZeroSet.build(ratios, raw)


def _moduli(logs, mults, sigma):
    """Per real abscissa (rows) and distinct ratio (columns): m_j r_j^sigma,
    from the arrays of ln r_j and m_j."""
    return mults * np.exp(np.multiply.outer(sigma, logs))


def _evaluate(ratios: RatioList, s, logs, mults):
    """f at the nodes s, and a bound E on the rounding error of each value.

    Term j is off by about (1 + |s| |ln r_j|) units in the last place of
    m_j r_j^Re(s), the rounding of its exponent carried through exp, and
    each of the J + 1 additions adds one unit of the running sum.  Raises
    BoundaryProximityError where |f| <= 2E: a zero sits on the node.
    """
    f = dirichlet_poly(ratios, s)
    terms = _moduli(logs, mults, s.real)
    weight = 1.0 + np.sum(terms * (1.0 + np.multiply.outer(np.abs(s), -logs)), axis=-1)
    err = _ROUNDING * (len(logs) + 1) * weight
    if np.any(np.abs(f) <= 2.0 * err):
        raise BoundaryProximityError(
            f"f vanishes to rounding at a contour node near "
            f"{complex(s[np.argmin(np.abs(f) / err)])!r}"
        )
    return f, err


def _bisect(ratios: RatioList, segments, cache) -> None:
    """Cache the arg change of f along each segment, certified piece by piece.

    All segments go through one breadth-first bisection, one batch of new
    nodes per level: the zero search passes every uncached edge of a whole
    generation of rectangles at once.  A piece [u, v] is done once
    M*|v - u| + E < max(|f(u)|, |f(v)|)/2, where M = sum m_j |ln r_j|
    r_j^sigma at sigma = min(Re u, Re v) bounds |f'| on the piece and E
    bounds the rounding error of the computed f: then f stays in a disc that
    excludes 0, so arg(f(v)/f(u)) is the exact change along the piece.
    Every piece and every bisected segment is cached by its exact
    endpoints in both orientations, the change along (v, u) being minus
    that along (u, v), so an edge shared by two rectangles is one cache
    read from either side.  A bisection cuts at 0.5*(u + v), the cut the
    zero search makes when it splits a rectangle, so a half of a counted
    edge is a cache hit.
    """
    logs = np.array([math.log(r) for r, _ in ratios.distinct])
    mults = np.array([float(m) for _, m in ratios.distinct])
    ends = np.array(list(dict.fromkeys(p for seg in segments for p in seg)))
    f_ends, err_ends = _evaluate(ratios, ends, logs, mults)
    index = {p: i for i, p in enumerate(ends.tolist())}
    iu = [index[a] for a, _ in segments]
    iv = [index[b] for _, b in segments]
    u, v, fu, fv, eu, ev = (ends[iu], ends[iv], f_ends[iu], f_ends[iv],
                            err_ends[iu], err_ends[iv])
    splits = []
    while u.size:
        length = np.abs(v - u)
        slope = _moduli(logs, mults, np.minimum(u.real, v.real)) @ -logs
        done = slope * length + np.maximum(eu, ev) < 0.5 * np.maximum(np.abs(fu), np.abs(fv))
        for a, b, delta in zip(u[done].tolist(), v[done].tolist(),
                               np.angle(fv[done] / fu[done]).tolist()):
            cache[(a, b)], cache[(b, a)] = delta, -delta
        open_ = ~done
        u, v, fu, fv, eu, ev = (x[open_] for x in (u, v, fu, fv, eu, ev))
        short = length[open_] < _MIN_PIECE * np.maximum(1.0, np.abs(u))
        if np.any(short):
            raise BoundaryProximityError(
                f"contour piece at {complex(u[short][0])!r} shrank below "
                f"{_MIN_PIECE:g} relative without excluding a zero"
            )
        m = 0.5 * (u + v)
        fm, em = _evaluate(ratios, m, logs, mults)
        splits.extend(zip(u.tolist(), m.tolist(), v.tolist()))
        u, v = np.concatenate([u, m]), np.concatenate([m, v])
        fu, fv = np.concatenate([fu, fm]), np.concatenate([fm, fv])
        eu, ev = np.concatenate([eu, em]), np.concatenate([em, ev])
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
    sits numerically on the boundary.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_hi > re_lo and im_hi > im_lo):
        raise DomainError(f"degenerate rectangle {rect!r}")
    cache = {} if cache is None else cache
    edges = _edges(rect)
    _certify(ratios, edges, cache)
    return round(sum(cache[edge] for edge in edges) / (2.0 * math.pi))


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
    If certification raises BoundaryProximityError, each rectangle is
    counted on its own and pushed outward when a zero sits on its boundary.
    """
    try:
        _certify(ratios, [edge for rect in rects for edge in _edges(rect)], cache)
    except BoundaryProximityError:
        return [_count_with_retries(ratios, rect, cache) for rect in rects]
    return [(count_zeros_rectangle(ratios, rect, cache), rect) for rect in rects]


def _argument_principle_zeros(ratios: RatioList, sigma: float, right: float,
                              im_window: float):
    """Zeros in [sigma, right] x [-T, T] by winding counts and bisection.

    Conjugate symmetry halves the search: the first generation is a thin
    band (sigma, right, -b, b), b = min(1e-3, T/4), which catches the real
    zeros, and the upper half (sigma, right, b, T), whose zeros are
    mirrored.  Its counts give the window's total, band + 2*upper, for two
    reasons.  f(conj s) = conj f(s) for real ratios, so the lower half
    winds exactly as often as the upper half.  And Im f(sigma + it) =
    sum m_j r_j^sigma sin(t ln(1/r_j)) > 0 for 0 < t < pi/ln(1/r_min),
    which is at least pi/744.4 ~ 4.2e-3 for any double r_min > 0 while
    b <= 1e-3: no zero lies near the edge the band and the upper half share,
    even once either is pushed outward by ~1e-6, so no zero is counted
    twice.  That total is the completeness check: the zeros found must add
    up to it.  The search then goes one generation at a time: a rectangle
    holding one zero is refined by Newton from its centre, any other
    nonempty one is halved across its longer side, and all halves are
    counted together (see ``_count_generation``).  Every rectangle is
    searched within the bounds it was counted over, and all counts share
    one segment cache.
    """
    cache = {}
    band = min(1e-3, 0.25 * im_window)
    generation = _count_generation(
        ratios, [(sigma, right, -band, band), (sigma, right, band, im_window)], cache)
    total = generation[0][0] + 2 * generation[1][0]

    raw = []
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
                    omega = refine_zero(ratios, seed)
                except ConvergenceError:
                    omega = None
                if omega is not None:
                    margin = 1e-7 * (1.0 + max(width, height))
                    inside = (
                        re_lo - margin <= omega.real <= re_hi + margin
                        and im_lo - margin <= omega.imag <= im_hi + margin
                    )
                    if inside:
                        raw.append((omega, 1))
                        continue
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
    zeros = ZeroSet.build(ratios, raw)

    total_mult = int(zeros.multiplicity.sum())
    if total_mult != total:
        raise ConvergenceError(
            f"zero search found multiplicity {total_mult}, winding count "
            f"of the full window is {total}"
        )
    return zeros


def find_complex_dimensions(model: SprayModel, im_window: float, re_floor=None):
    """The complex-dimension set in [re_floor, D+1/2] x [-T, T].

    Lattice input takes the exact closed-form route; nonlattice input is
    located by the argument principle and refined by Newton.  The result is
    conjugate-symmetric, deduplicated, sorted by (Im, Re), and checked:
    total multiplicity must match the winding count of the whole window,
    and no zero may approach the integer poles 0..n-1 of the tube-formula
    numerator.
    """
    if not (im_window > 0.0):
        raise DomainError("imaginary window must be positive")
    ratios = model.ratios
    dim = similarity_dimension(ratios)
    structure = detect_lattice(ratios)

    if structure.is_lattice:
        zeros = lattice_zeros(structure, ratios, im_window)
        if re_floor is not None:
            keep = zeros.omega.real >= re_floor
            zeros = ZeroSet._of(zeros.omega[keep], zeros.multiplicity[keep],
                                zeros.residual[keep])
    else:
        sigma = re_floor if re_floor is not None else zero_free_abscissa(ratios)
        right = dim.value + 0.5
        if sigma >= right:
            raise DomainError(f"re_floor {sigma!r} is right of D + 1/2")
        zeros = _argument_principle_zeros(ratios, sigma, right, im_window)

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

