"""Independent references and output checks for the benchmark jobs.

Nothing here imports tubeforge.  The direct tube volume is recomputed
exactly: every float input is a dyadic rational, so the head of the
scaling sum is an exact dyadic number and the only non-dyadic quantity is
the geometric total 1/(1 - sum m r^n), kept as a Fraction.  The similarity
dimension and the zero residuals are recomputed from the ratio list.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from fractions import Fraction

DIRECT_TOL_REL = 1e-12
ZERO_RESIDUAL_TOL = 1e-10
DIMENSION_TOL = 1e-10
_REAL_IM_TOL = 1e-9
_CONJUGATE_TOL = 1e-12


def _dyadic(x: float):
    """(numerator, exponent) with x == numerator / 2**exponent."""
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


class _DyadicSum:
    """Exact running sum of numerator / 2**exponent terms."""

    __slots__ = ("num", "exp")

    def __init__(self):
        self.num, self.exp = 0, 0

    def add(self, num: int, exp: int) -> None:
        if exp > self.exp:
            self.num <<= exp - self.exp
            self.exp = exp
        self.num += num << (self.exp - exp)

    def value(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)


class ExactTube:
    """Exact inner tube volume V(eps) of one spray config."""

    def __init__(self, config):
        self.n = int(config["dimension"])
        gen = config["generator"]
        self.kappa = [Fraction(k) for k in gen["kappa"]]
        self.inradius = float(gen["inradius"])
        self.volume = Fraction(gen["volume"])
        counts = Counter(float(r) for r in config["ratios"])
        self.distinct = sorted(counts.items(), reverse=True)
        power_sum = sum(m * Fraction(r) ** self.n for r, m in self.distinct)
        self.total_power = 1 / (1 - power_sum)  # sum over all words of lam^n

    def _head_vectors(self, threshold: float):
        """(lam, mult, lam_num, lam_exp) for every exponent vector with lam > threshold.

        lam is the float product used only to order and classify the
        vectors; by continuity of the tube polynomial at the inradius a
        vector within rounding of the threshold contributes the same to
        V(eps) on either side.
        """
        parts = [_dyadic(r) for r, _ in self.distinct]
        out = []

        def descend(j, lam, mult, total, num, exp, exps):
            out.append((lam, mult, num, exp))
            for i in range(j, len(self.distinct)):
                child = lam * self.distinct[i][0]
                if child > threshold:
                    a, b = parts[i]
                    exps[i] += 1
                    child_mult = mult * (total + 1) * self.distinct[i][1] // exps[i]
                    descend(i, child, child_mult, total + 1, num * a, exp + b, exps)
                    exps[i] -= 1

        if 1.0 > threshold:
            descend(0, 1.0, 1, 0, 1, 0, [0] * len(self.distinct))
        out.sort(key=lambda rec: -rec[0])
        return out

    def values(self, eps_list) -> dict:
        """eps -> exact V(eps) as a Fraction, for every eps in eps_list."""
        eps_sorted = sorted({float(e) for e in eps_list}, reverse=True)
        if not eps_sorted:
            return {}
        vectors = self._head_vectors(eps_sorted[-1] / self.inradius)
        sums = [_DyadicSum() for _ in range(self.n + 1)]  # sum of mult * lam^i
        out, pos = {}, 0
        for eps in eps_sorted:
            threshold = eps / self.inradius
            while pos < len(vectors) and vectors[pos][0] > threshold:
                _, mult, num, exp = vectors[pos]
                power_num, power_exp = mult, 0
                for acc in sums:
                    acc.add(power_num, power_exp)
                    power_num *= num
                    power_exp += exp
                pos += 1
            head = [acc.value() for acc in sums]
            e = Fraction(eps)
            value = sum(self.kappa[i] * e ** (self.n - i) * head[i] for i in range(self.n))
            out[eps] = value + self.volume * (self.total_power - head[self.n])
        return out


def similarity_dimension(ratios) -> float:
    """Root of sum(r^x) = 1 by plain bisection on [0, 64]."""
    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if math.fsum(r**mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dirichlet_residual(ratios, omega: complex) -> float:
    """|1 - sum r^omega| evaluated directly."""
    return abs(1.0 - sum(cmath.exp(omega * math.log(r)) for r in ratios))


def rel_error(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / abs(exact))


# ---------------------------------------------------------------------------
# Output checks.  Each returns "" when the output is right, else the reason.


def check_zeros(text: str, config, check) -> str:
    try:
        records = json.loads(text)
        zeros = [(complex(r["re"], r["im"]), r["residual"]) for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable czeros output: {exc}"
    ratios = [float(r) for r in config["ratios"]]
    need = 2 * check["pairs"] + 1
    if len(zeros) < need:
        return f"{len(zeros)} zeros, expected at least {need}"
    dim = similarity_dimension(ratios)
    points = sorted((z.real, z.imag) for z, _ in zeros)
    mirrored = sorted((z.real, -z.imag) for z, _ in zeros)
    for (a, b), (c, d) in zip(points, mirrored):
        if abs(complex(a, b) - complex(c, d)) > _CONJUGATE_TOL * (1.0 + abs(complex(a, b))):
            return f"zero set not conjugate-symmetric near {complex(a, b)!r}"
    reals = [z for z, _ in zeros if abs(z.imag) <= _REAL_IM_TOL]
    if len(reals) != 1 or abs(reals[0].real - dim) > DIMENSION_TOL:
        return f"real zeros {reals!r}, expected only D = {dim!r}"
    for z, reported in zeros:
        resid = dirichlet_residual(ratios, z)
        if not (resid < ZERO_RESIDUAL_TOL and reported < ZERO_RESIDUAL_TOL):
            return f"zero {z!r} has residual {resid:.3g} (reported {reported:.3g})"
        if abs(z.imag) > check["window"] * (1.0 + 1e-12) or z.real > dim + 1e-9:
            return f"zero {z!r} outside the window"
    return ""


def _labelled(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        label, _, value = line.partition(" ")
        out[label] = float(value)
    return out


def _check_value(label, value, exact, tol_rel) -> str:
    if not math.isfinite(value):
        return f"{label} is {value!r}"
    err = rel_error(value, exact)
    if not err <= tol_rel:
        return f"{label} {value!r} off exact {float(exact)!r} by {err:.3g} relative (tol {tol_rel:g})"
    return ""


def check_tube(text: str, exact: dict, check) -> str:
    try:
        values = _labelled(text)
    except ValueError as exc:
        return f"unparsable tube output: {exc}"
    ref = exact[check["eps"]]
    kind = check["kind"]
    if kind == "invmellin":
        if "invmellin" not in values:
            return "missing invmellin line"
        err = abs(values["invmellin"] - float(ref))
        if not err <= check["tol_abs"]:  # also catches NaN
            return f"invmellin off exact by {err:.3g} (tol {check['tol_abs']:g})"
        return ""
    if "direct" not in values:
        return "missing direct line"
    reason = _check_value("direct", values["direct"], ref, DIRECT_TOL_REL)
    if reason or kind == "direct":
        return reason
    if "residues" not in values:
        return "missing residues line"
    return _check_value("residues", values["residues"], ref, check["tol_rel"])


def scan_eps(text: str) -> list:
    """The eps column of a scan CSV (empty on unparsable output)."""
    try:
        return [float(row.split(",")[0]) for row in text.splitlines()[2:]]
    except ValueError:
        return []


def check_scan(text: str, exact: dict, check) -> str:
    lines = text.splitlines()
    if lines[:2] != ["# tubeforge-csv v1",
                     "epsilon,direct,residues,abs_err,rel_err,pairs_used,im_leakage"]:
        return "missing CSV header"
    start, stop, count = check["grid"]
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != count:
        return f"{len(rows)} rows, expected {count}"
    try:
        eps = [float(r[0]) for r in rows]
        if eps[0] != start or eps[-1] != stop or eps != sorted(eps):
            return "eps column does not span the grid"
        for r, e in zip(rows, eps):
            ref = exact[e]
            reason = (_check_value(f"direct at eps={e!r}", float(r[1]), ref, DIRECT_TOL_REL)
                      or _check_value(f"residues at eps={e!r}", float(r[2]), ref,
                                      check["tol_rel"]))
            if reason:
                return reason
            if int(r[5]) != check["pairs"]:
                return f"pairs_used {r[5]} at eps={e!r}, expected {check['pairs']}"
    except (ValueError, IndexError) as exc:
        return f"unparsable scan row: {exc}"
    return ""


def needed_eps(job, text: str) -> list:
    """The eps values whose exact V the check of this job needs."""
    if job.check["kind"] == "scan":
        return scan_eps(text)
    return [job.check["eps"]] if "eps" in job.check else []


def check_output(job, text: str, config, exact: dict) -> str:
    kind = job.check["kind"]
    if kind == "zeros":
        return check_zeros(text, config, job.check)
    if kind == "scan":
        return check_scan(text, exact, job.check)
    return check_tube(text, exact, job.check)
