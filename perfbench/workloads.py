"""Seeded workload generator for the tubeforge benchmark.

A workload is a batch of real CLI jobs (``czeros``, ``tube``, ``scan``)
over a set of spray configurations.  Everything is derived from the
``seed`` alone, so one seed always yields byte-identical configs and argv
lists.  The program under test sees only the written config files and the
argv of each job; the ``check`` of a job tells the verifier what the output
must satisfy and never reaches the program.

Job mixes are stratified rather than drawn independently: every batch of a
workload has the same number of jobs of each kind and class, and what
sets a job's cost (the smallest ratio of a nonlattice list, the vector
count of a direct job, the perturbation of a near-lattice list, the
exponent family of a lattice list) is spread over fixed strata.  The seed
picks the sprays and the values inside those strata.  This keeps the
per-run medians comparable across seeds while still feeding the program
inputs it has never seen.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The bundled presets, restated here as plain config data.
SQUARE = {
    "dimension": 2,
    "ratios": [0.5, 1.0 / 3.0, 0.25],
    "generator": {"kappa": [-4.0, 4.0], "inradius": 0.5, "volume": 1.0},
}
CANTOR = {
    "dimension": 1,
    "ratios": [1.0 / 3.0, 1.0 / 3.0],
    "generator": {"kappa": [2.0], "inradius": 1.0 / 6.0, "volume": 1.0 / 3.0},
}

# Nonlattice lists stay this far (relative, in every ratio) from any
# lattice list whose exponents are at most _LATTICE_EXPONENT_MAX.
_LATTICE_CLEARANCE = 1e-3
_LATTICE_EXPONENT_MAX = 8


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``tubeforge <command> <config> <args...>``."""

    command: str
    spray: str
    args: tuple
    check: dict

    def argv(self, config_path) -> list:
        return [self.command, str(config_path), *self.args]


@dataclass
class Workload:
    name: str
    seed: int
    why: str
    sprays: dict
    jobs: list

    @property
    def repeated_spray_share(self) -> float:
        """Share of jobs whose spray already appeared earlier in the batch."""
        return 1.0 - len({job.spray for job in self.jobs}) / len(self.jobs)

    def write_configs(self, directory) -> dict:
        """Write one JSON config per spray; returns spray name -> path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, config in self.sprays.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
            paths[name] = path
        return paths

    def record(self) -> dict:
        """The generated inputs, as recorded alongside a run."""
        return {
            "workload": self.name,
            "seed": self.seed,
            "why": self.why,
            "job_count": len(self.jobs),
            "repeated_spray_share": self.repeated_spray_share,
            "sprays": self.sprays,
            "jobs": [
                {"argv": job.argv(f"{job.spray}.json"), "check": job.check}
                for job in self.jobs
            ],
        }


def window_for_pairs(ratios, pairs: int) -> float:
    """Imaginary half-window expected to hold ``pairs`` conjugate pairs.

    The zero-counting function of 1 - sum(r^s) grows like T ln(1/r_min)/pi,
    so this window holds about 2*(pairs + 2) zeros.
    """
    return 2.0 * math.pi * (pairs + 2) / -math.log(min(ratios))


def interval_spray(ratios, length: float) -> dict:
    """A spray on R^1 whose generator is an interval of the given length."""
    return {
        "dimension": 1,
        "ratios": list(ratios),
        "generator": {"kappa": [2.0], "inradius": length / 2.0, "volume": length},
    }


def square_spray(ratios, side: float) -> dict:
    """A spray on R^2 whose generator is a square of the given side.

    Dyadic sides keep the tube polynomial exactly continuous at the
    inradius, which the exact direct reference relies on.
    """
    return {
        "dimension": 2,
        "ratios": list(ratios),
        "generator": {
            "kappa": [-4.0, 4.0 * side],
            "inradius": side / 2.0,
            "volume": side * side,
        },
    }


def lattice_distance(ratios) -> float:
    """Smallest max-relative distance to a lattice list b**k, k_j <= 8."""
    logs = [math.log(r) for r in ratios]
    best = math.inf
    for ks in itertools.product(range(1, _LATTICE_EXPONENT_MAX + 1), repeat=len(logs)):
        u = sum(k * lg for k, lg in zip(ks, logs)) / sum(k * k for k in ks)
        best = min(best, max(abs(math.expm1(k * u - lg)) for k, lg in zip(ks, logs)))
    return best


def _nonlattice_ratios(rng: random.Random, n: int, count: int, smallest=(0.0, 1.0)) -> list:
    """Generic ratios with the similarity dimension inside (n - 1, n) and the
    smallest ratio inside ``smallest``."""
    while True:
        total = rng.uniform(0.45, 0.9) if n == 1 else rng.uniform(1.05, 1.7)
        weights = [rng.uniform(0.3, 1.0) for _ in range(count)]
        ratios = sorted(
            (float(f"{total * w / sum(weights):.6g}") for w in weights), reverse=True
        )
        if not all(0.03 < r < 0.85 for r in ratios):
            continue
        if not smallest[0] <= ratios[-1] < smallest[1]:
            continue
        if n == 1 and sum(ratios) >= 1.0:
            continue
        if n == 2 and not (sum(ratios) > 1.0 and sum(r * r for r in ratios) < 0.9):
            continue
        if lattice_distance(ratios) < _LATTICE_CLEARANCE:
            continue
        return ratios


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One uniform draw from each of ``count`` equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / count
    values = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(values)
    return values


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# nonlattice-czeros

# Per class (n, J): the band of the smallest ratio, which sets the search
# window and with it most of a job's cost.  Each band is the middle of what
# the class draws unconstrained; the jobs of a class take one stratum of
# its band each, and the last of them is a scan, so that every batch holds
# the same mix of job costs whatever the sprays.
_NONLATTICE_SMALLEST = {
    (1, 2): (0.19, 0.285), (1, 3): (0.145, 0.21), (1, 4): (0.09, 0.135),
    (2, 2): (0.42, 0.51), (2, 3): (0.265, 0.365), (2, 4): (0.185, 0.265),
}
_NONLATTICE_PER_CLASS = 4  # seeded jobs per class, the last a scan
_NONLATTICE_PAIRS = 4
_SQUARE_PAIRS = 100


def _nonlattice_czeros(rng: random.Random):
    sprays = {"square": SQUARE}
    jobs = [_czeros_job("square", SQUARE["ratios"], _SQUARE_PAIRS)]
    for (n, count), (lo, hi) in _NONLATTICE_SMALLEST.items():
        width = (hi - lo) / _NONLATTICE_PER_CLASS
        for stratum in range(_NONLATTICE_PER_CLASS):
            band = (lo + stratum * width, lo + (stratum + 1) * width)
            ratios = _nonlattice_ratios(rng, n, count, band)
            name = f"nl{len(sprays) - 1:02d}"
            config = interval_spray(ratios, 1.0) if n == 1 else square_spray(ratios, 1.0)
            sprays[name] = config
            if stratum == _NONLATTICE_PER_CLASS - 1:
                g = config["generator"]["inradius"]
                jobs.append(_scan_job(name, g * 1e-3, g * 0.5, 24, _NONLATTICE_PAIRS, 5e-2))
            else:
                jobs.append(_czeros_job(name, ratios, _NONLATTICE_PAIRS))
    rng.shuffle(jobs)
    return sprays, jobs


def _czeros_job(spray: str, ratios, pairs: int) -> Job:
    window = window_for_pairs(ratios, pairs)
    return Job("czeros", spray, ("--T", _fmt(window)),
               {"kind": "zeros", "pairs": pairs, "window": window})


def _scan_job(spray: str, start: float, stop: float, count: int, pairs: int,
              tol_rel: float) -> Job:
    grid = f"{_fmt(start)}:{_fmt(stop)}:{count}:log"
    return Job("scan", spray, ("--grid", grid, "--pairs", str(pairs)),
               {"kind": "scan", "grid": [start, stop, count], "pairs": pairs,
                "tol_rel": tol_rel})


# ---------------------------------------------------------------------------
# lattice-scan

# One exponent family and a narrow band of bases b per seeded list, so that
# every batch holds the same mix of job costs: a tube job on [b, b^2]
# costs about what one on Cantor does, one on [b, b^2, b^3] more, and
# more the larger b is.
_LATTICE_FAMILIES = [((1, 2), (0.38, 0.46)), ((1, 2, 3), (0.4, 0.46))]
_LATTICE_SCANS = 3
_LATTICE_TUBES = 42
_LATTICE_PAIRS = 500
_LATTICE_TOL_REL = 1e-3


def _lattice_ratios(rng: random.Random, exponents, bases) -> list:
    base = float(f"{rng.uniform(*bases):.4g}")
    return sorted((base**k for k in exponents), reverse=True)


def _lattice_scan(rng: random.Random):
    sprays = {"cantor": CANTOR}
    for i, (exponents, bases) in enumerate(_LATTICE_FAMILIES):
        sprays[f"lat{i}"] = interval_spray(_lattice_ratios(rng, exponents, bases), 0.5)
    names = list(sprays)
    jobs = []
    # Scans: Cantor, then the seeded lists in turn.
    for i in range(_LATTICE_SCANS):
        name = names[i % len(names)]
        g = sprays[name]["generator"]["inradius"]
        jobs.append(_scan_job(name, g * 6e-3, g * 0.9, 200, _LATTICE_PAIRS,
                              _LATTICE_TOL_REL))
    # Tubes: the same number on every spray, each spray over every eps stratum.
    per_spray = _LATTICE_TUBES // len(names)
    for name in names:
        g = sprays[name]["generator"]["inradius"]
        for frac in _stratified(rng, math.log(1e-3), math.log(0.9), per_spray):
            eps = g * math.exp(frac)
            jobs.append(Job(
                "tube", name,
                ("--eps", _fmt(eps), "--method", "both", "--pairs", str(_LATTICE_PAIRS)),
                {"kind": "both", "eps": eps, "tol_rel": _LATTICE_TOL_REL},
            ))
    rng.shuffle(jobs)
    return sprays, jobs


# ---------------------------------------------------------------------------
# direct-deep

_DEEP_MAX_K = 100
_DEEP_SQUARE_JOBS = 30
_DEEP_SEEDED_SPRAYS = 3
_DEEP_INVMELLIN_JOBS = 4
_DEEP_MAX_INVMELLIN_K = 8
_DEEP_INVMELLIN_TOL_ABS = 1e-2
# The square preset has 56,233 exponent vectors above the threshold at
# k = 100.  A seeded spray's depths are chosen for their vector counts
# instead: one shallow job, four at the count of a square job at k = 42
# and one deep job.  The job cost follows the vector count (about 6.5 us a
# vector), so every batch holds the same mix of costs whatever the sprays,
# and the median job falls among the mid-depth ones.
_DEEP_VECTOR_TARGETS = (1_000, 4_500, 4_500, 4_500, 4_500, 40_000)
_DEEP_VECTOR_BUDGET = 60_000


def count_vectors(ratios, k: int, limit: int) -> int:
    """Exponent vectors over the distinct ratios with factor > 2**-k, up to limit + 1."""
    distinct = sorted(set(ratios), reverse=True)
    threshold = 2.0**-k
    count = 0

    def descend(j, lam):
        nonlocal count
        count += 1
        for i in range(j, len(distinct)):
            if count > limit:
                return
            child = lam * distinct[i]
            if child > threshold:
                descend(i, child)

    descend(0, 1.0)
    return count


def _depths_for_counts(ratios, targets) -> list:
    """Per target vector count, the depth k whose count is nearest to it (in log)."""
    counts = {}
    for k in range(1, _DEEP_MAX_K + 1):
        counts[k] = count_vectors(ratios, k, _DEEP_VECTOR_BUDGET)
        if counts[k] > _DEEP_VECTOR_BUDGET:
            break
    return [min(counts, key=lambda k: abs(math.log(counts[k] / target))) for target in targets]


def _deep_ks(k_max: int, count: int) -> list:
    """Depths spread evenly over 1..k_max, one per equal stratum."""
    return [max(1, round((i + 0.5) * k_max / count)) for i in range(count)]


def _direct_deep(rng: random.Random):
    sprays = {"square": SQUARE}
    for i in range(_DEEP_SEEDED_SPRAYS):
        ratios = _nonlattice_ratios(rng, 2, 3 + i % 2)
        sprays[f"deep{i}"] = square_spray(ratios, rng.choice([0.5, 0.75, 1.0]))
    jobs = []
    for name, config in sprays.items():
        g = config["generator"]["inradius"]
        if name == "square":
            ks = _deep_ks(_DEEP_MAX_K, _DEEP_SQUARE_JOBS)
        else:
            ks = _depths_for_counts(config["ratios"], _DEEP_VECTOR_TARGETS)
        for k in ks:
            # A jitter below 0.1% keeps the jobs at one depth distinct but
            # leaves their vector counts (nearly) alone.
            eps = g * 2.0**-k * (1.0 if name == "square" else 1.0 - rng.random() * 2.0**-10)
            jobs.append(Job("tube", name, ("--eps", _fmt(eps), "--method", "direct"),
                            {"kind": "direct", "eps": eps, "k": k}))
    names = list(sprays)
    for i in range(_DEEP_INVMELLIN_JOBS):
        name = names[i % len(names)]
        k = rng.randint(1, _DEEP_MAX_INVMELLIN_K)
        eps = sprays[name]["generator"]["inradius"] * 2.0**-k
        jobs.append(Job("tube", name, ("--eps", _fmt(eps), "--method", "invmellin"),
                        {"kind": "invmellin", "eps": eps, "k": k,
                         "tol_abs": _DEEP_INVMELLIN_TOL_ABS}))
    rng.shuffle(jobs)
    return sprays, jobs


# ---------------------------------------------------------------------------
# near-lattice

# The zeros of [0.5, 0.25] sit on the dyadic bisection lines of the search
# window; perturbing 0.25 by a relative delta moves them off by ~delta, and
# the contour work grows as delta shrinks.  (Perturbing 0.5 instead can
# cost 40 s and 1.5 GB for a single job, too much for one run.)  The cost
# jumps near delta = 3e-5 (about 1 s above it, 1.5-4 s below), so the
# deltas are placed on either side of the jump with the median job well
# inside the cheaper band, and the signs alternate: the seed moves each
# delta only inside its stratum.
_NEAR_LATTICE = (0.5, 0.25)
_NEAR_PAIRS = 1
_NEAR_BANDS = ((-4.42, -4.0, 17), (-5.0, -4.6, 4))  # (log10 lo, log10 hi, jobs)


def _near_lattice(rng: random.Random):
    sprays, jobs = {}, []
    deltas = [10.0 ** x for lo, hi, count in _NEAR_BANDS for x in _stratified(rng, lo, hi, count)]
    for i, delta in enumerate(sorted(deltas)):
        sign = 1.0 if i % 2 == 0 else -1.0
        ratios = [_NEAR_LATTICE[0], _NEAR_LATTICE[1] * (1.0 + sign * delta)]
        name = f"near{i:02d}"
        sprays[name] = interval_spray(ratios, 1.0)
        jobs.append(_czeros_job(name, ratios, _NEAR_PAIRS))
    rng.shuffle(jobs)
    return sprays, jobs


WORKLOADS = {
    "nonlattice-czeros": (
        _nonlattice_czeros,
        "generic nonlattice sprays, each distinct: the argument-principle "
        "zero search dominates",
    ),
    "lattice-scan": (
        _lattice_scan,
        "lattice sprays shared by many scan/tube jobs: residue sums, thread "
        "pool and direct oracle, zero search is a companion solve",
    ),
    "direct-deep": (
        _direct_deep,
        "direct oracle down to eps = g*2^-100 plus inverse-Mellin jobs: "
        "exponent-vector enumeration, no zero search",
    ),
    "near-lattice": (
        _near_lattice,
        "lists within 1e-5..1e-4 of the lattice list [0.5, 0.25]: zeros near "
        "the bisection lines make contour refinement explode",
    ),
}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; identical for identical arguments."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    make, why = WORKLOADS[name]
    # str seeds hash deterministically in random.Random (sha512), unlike hash().
    rng = random.Random(f"{name}/{seed}")
    sprays, jobs = make(rng)
    return Workload(name, seed, why, sprays, jobs)
