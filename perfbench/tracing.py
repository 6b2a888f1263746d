"""Tracing of tubeforge through wrappers installed from outside the package.

A ``Tracer`` replaces public functions of the ``tubeforge`` modules with
wrappers that record spans (name, start, end, parent, job, thread) and
counters, and puts the originals back on ``uninstall``.  A function is
replaced under every module that binds it, because ``cli`` and
``tubeformula`` import names such as ``compare`` and ``dirichlet_poly``
directly.  A probe whose module or name no longer exists is reported as
absent and skipped.

Per-layer metrics are derived from one traced round: counts come from the
counters and every ``*_s`` metric is a self time, the span's duration minus
the part of it covered by its child spans (children started in pool
threads count too), so the ``*_s`` metrics add up instead of overlapping.
Spans that run at once in pool threads each count their full duration,
waiting for the interpreter lock included, so a layer run in the pool can
show more self time than the wall time of the round.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import Counter
from dataclasses import dataclass

PACKAGE = "tubeforge"


@dataclass(frozen=True)
class Probe:
    """How to trace one function.

    ``span``: record a span under this name (else only count).
    ``calls``: counter bumped per call.  ``nodes``: counter of evaluation
    points (array size, 1 for a scalar).  ``errors``: (exception class name,
    counter) bumped when the call raises it.  ``result``: callable mapping
    the return value to {counter: increment}.
    """

    module: str
    name: str
    span: str = ""
    calls: str = ""
    nodes: str = ""
    errors: tuple = ()
    result: object = None


def _size(s) -> int:
    return int(getattr(s, "size", 1))


def _route(structure):
    lattice = bool(getattr(structure, "is_lattice", False))
    return {"complexdims.route_lattice" if lattice else "complexdims.route_nonlattice": 1}


def _contour_fallback(term):
    return {"tubeformula.contour_fallbacks": int(getattr(term, "kind", "") == "contour-fallback")}


PROBES = (
    Probe("cli", "main", span="cli"),
    Probe("model", "load_spray", span="model.load_validate"),
    Probe("model", "validate_spray", span="model.load_validate", calls="model.validate_calls"),
    Probe("moran", "similarity_dimension", span="moran", calls="moran.calls"),
    Probe("complexdims", "find_complex_dimensions", span="complexdims.find",
          calls="complexdims.find_calls",
          result=lambda zeros: {"complexdims.zeros": len(zeros)}),
    Probe("complexdims", "detect_lattice", result=_route),
    Probe("complexdims", "lattice_zeros", span="complexdims.lattice"),
    Probe("complexdims", "count_zeros_rectangle", span="complexdims.rect",
          calls="complexdims.rect_counts",
          errors=(("BoundaryProximityError", "complexdims.rect_errors"),)),
    Probe("complexdims", "dirichlet_poly", calls="complexdims.f_calls",
          nodes="complexdims.f_nodes"),
    Probe("complexdims", "dirichlet_poly_deriv", nodes="complexdims.fprime_nodes"),
    Probe("complexdims", "refine_zero", calls="complexdims.refine_calls",
          errors=(("ConvergenceError", "complexdims.refine_failures"),)),
    Probe("direct", "direct_tube_volume", span="direct", calls="direct.calls"),
    Probe("direct", "factor_multiplicities", span="direct.enum",
          result=lambda vectors: {"direct.vectors": len(vectors)}),
    Probe("tubeformula", "tube_volume_residues", span="tubeformula.residue",
          calls="tubeformula.residue_calls"),
    Probe("tubeformula", "zero_residue", calls="tubeformula.zero_residues",
          result=_contour_fallback),
    Probe("tubeformula", "compare", span="tubeformula.compare"),
    Probe("tubeformula", "inverse_mellin_numeric", span="tubeformula.invmellin",
          calls="tubeformula.invmellin_calls"),
    Probe("tubeformula", "mellin_numerator", nodes="tubeformula.mellin_nodes"),
    Probe("parallel", "map_ordered", span="parallel", calls="parallel.map_calls"),
    Probe("summation", "CompensatedSum.add", calls="summation.adds"),
)

# Every per-layer metric the traced run reports, in output order.
COUNTERS = (
    "cli.out_bytes",
    "model.validate_calls", "moran.calls",
    "complexdims.find_calls", "complexdims.route_lattice", "complexdims.route_nonlattice",
    "complexdims.rect_counts", "complexdims.rect_errors", "complexdims.f_calls",
    "complexdims.f_nodes", "complexdims.fprime_nodes", "complexdims.refine_calls",
    "complexdims.refine_failures", "complexdims.zeros",
    "direct.calls", "direct.vectors",
    "tubeformula.residue_calls", "tubeformula.zero_residues",
    "tubeformula.contour_fallbacks", "tubeformula.invmellin_calls",
    "tubeformula.mellin_nodes",
    "parallel.map_calls", "parallel.items", "summation.adds",
)
SELF_TIMES = {
    "cli.self_s": "cli",
    "model.load_validate_s": "model.load_validate",
    "moran.s": "moran",
    "complexdims.find_s": "complexdims.find",
    "complexdims.lattice_s": "complexdims.lattice",
    "complexdims.rect_s": "complexdims.rect",
    "direct.s": "direct",
    "direct.enum_s": "direct.enum",
    "tubeformula.residue_s": "tubeformula.residue",
    "tubeformula.compare_s": "tubeformula.compare",
    "tubeformula.invmellin_s": "tubeformula.invmellin",
    "parallel.s": "parallel",
}


def _resolve(probe: Probe):
    """(owner object, attribute, original) or None when absent."""
    try:
        module = importlib.import_module(f"{PACKAGE}.{probe.module}")
    except ImportError:
        return None
    owner, _, attr = probe.name.rpartition(".")
    target = getattr(module, owner, None) if owner else module
    original = getattr(target, attr, None) if target is not None else None
    if not callable(original):
        return None
    return target, attr, original


class Tracer:
    """Spans and counters for one traced round; see the module docstring."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.absent = []
        self.job = None
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []  # (id, parent, job, name, start, end, thread)
        self._thread_counters = []  # one {(job, counter): amount} per thread
        self._counts = threading.local()

    def _register(self) -> dict:
        counters = self._counts.counters = {}
        with self._lock:
            self._thread_counters.append(counters)
        return counters

    def count(self, name: str, amount: int = 1) -> None:
        try:
            counters = self._counts.counters
        except AttributeError:
            counters = self._register()
        key = (self.job, name)
        counters[key] = counters.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, probe: Probe, original):
        tracer = self
        errors = dict(probe.errors)

        if not (probe.span or probe.nodes or probe.errors or probe.result):
            name = probe.calls

            @functools.wraps(original)
            def counted(*args, **kwargs):  # hot path: count() inlined
                try:
                    counters = tracer._counts.counters
                except AttributeError:
                    counters = tracer._register()
                key = (tracer.job, name)
                counters[key] = counters.get(key, 0) + 1
                return original(*args, **kwargs)

            return counted

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if probe.calls:
                tracer.count(probe.calls)
            if probe.nodes:
                tracer.count(probe.nodes, _size(args[1] if len(args) > 1 else kwargs["s"]))
            span_id = None
            if probe.span:
                stack = tracer._stack()
                span_id = next(tracer._ids)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = time.perf_counter()
                if probe.name == "map_ordered":
                    args = tracer._seeded_map_args(span_id, *args)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                counter = errors.get(type(exc).__name__)
                if counter:
                    tracer.count(counter)
                raise
            finally:
                if span_id is not None:
                    end = time.perf_counter()
                    stack.pop()
                    tracer.spans.append((span_id, parent, tracer.job, probe.span,
                                         start, end, threading.get_ident()))
            if probe.result is not None:
                for counter, amount in probe.result(result).items():
                    tracer.count(counter, amount)
            return result

        return wrapper

    def _seeded_map_args(self, parent, fn, items, *rest):
        """Run pool items as children of the map span, in whichever thread."""
        self.count("parallel.items", len(items))

        def seeded(item):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()

        return (seeded, items, *rest)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every probe under every tubeforge module that binds it."""
        self.absent = []
        for probe in PROBES:
            resolved = _resolve(probe)
            if resolved is None:
                self.absent.append(f"{probe.module}.{probe.name}")
                continue
            target, attr, original = resolved
            wrapper = self._wrap(probe, original)
            owners = [target]
            if isinstance(target, types.ModuleType):
                owners = [m for name, m in list(sys.modules.items())
                          if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
                          and getattr(m, attr, None) is original]
            for owner in owners:
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -----------------------------------------------------------

    def counters(self, job=None) -> Counter:
        """Counter totals over all jobs, or for one job."""
        total = Counter()
        for counters in self._thread_counters:
            for (owner, name), amount in counters.items():
                if job is None or owner == job:
                    total[name] += amount
        return total

    def self_times(self) -> Counter:
        """Span name -> summed self time."""
        children = {}
        for span in self.spans:
            children.setdefault(span[1], []).append((span[4], span[5]))
        out = Counter()
        for span_id, _, _, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] += (end - start) - covered
        return out

    def metrics(self) -> dict:
        """Every per-layer metric of the round (absent probes give 0)."""
        counters = self.counters()
        times = self.self_times()
        out = {name: counters.get(name, 0) for name in COUNTERS}
        out.update({metric: times.get(span, 0.0) for metric, span in SELF_TIMES.items()})
        return out


def write_spans(path, rounds) -> None:
    """One JSON line per span; ``rounds`` maps round number -> spans."""
    keys = ("id", "parent", "job", "name", "start", "end", "thread")
    with open(path, "w", encoding="utf-8") as fh:
        for round_no, spans in rounds.items():
            for span in spans:
                fh.write(json.dumps({"round": round_no, **dict(zip(keys, span))}) + "\n")
