"""Command-line front end.

Subcommands: validate, dim, czeros, tube, scan, selftest.  A command returns
(exit code, text); ``main`` alone writes the text, to stdout or ``--output``.
All numeric output uses 17 significant digits so values round-trip exactly.
Exit codes: 0 success, 2 configuration/validation/domain error or unwritable
output, 3 numerical non-convergence, 4 resource guard (selftest failures 1).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import presets
from .complexdims import count_zeros_rectangle, find_complex_dimensions, zero_free_abscissa
from .direct import direct_tube_volume, functional_equation_residual
from .errors import ConfigError, SprayValidationError, TubeforgeError
from .model import (
    MonophaseGenerator,
    RatioList,
    SprayModel,
    load_spray,
    total_spray_volume,
    validate_spray,
)
from .tubeformula import (
    ResidueExpansion,
    check_residue_eps,
    compare,
    inverse_mellin_numeric,
    tube_volume_residues,
    window_for_pairs,
)

CSV_HEADER = "# tubeforge-csv v1"
# The columns of a scan row and the TubeEvaluation field each prints, in
# output order; a JSON record adds "error".
SCAN_COLUMNS = (("epsilon", "eps"), ("direct", "direct"), ("residues", "residue_value"),
                ("abs_err", "abs_error"), ("rel_err", "rel_error"),
                ("pairs_used", "pairs_used"), ("im_leakage", "imag_leakage"))
CSV_COLUMNS = ",".join(name for name, _ in SCAN_COLUMNS)


def fmt(x: float) -> str:
    """Full round-trip decimal formatting (17 significant digits)."""
    return f"{x:.17g}"


def _json_render(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        body = ",\n".join(
            f'{pad}  "{k}": {_json_render(v, indent + 1).lstrip()}'
            for k, v in obj.items()
        )
        return f"{pad}{{\n{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return f"{pad}[]"
        body = ",\n".join(_json_render(v, indent + 1) for v in obj)
        return f"{pad}[\n{body}\n{pad}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, float):
        if math.isnan(obj):
            return pad + "NaN"
        return pad + fmt(obj)
    if isinstance(obj, int):
        return pad + str(obj)
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'{pad}"{escaped}"'


def _load_validated(args):
    model = load_spray(args.config)
    if not args.skip_validation:
        report = validate_spray(model, check_monotonic=not args.skip_monotonicity)
        if not report.ok:
            raise SprayValidationError("; ".join(report.failures))
    return model


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid must be start:stop:count[:linear|log], got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc
    spacing = parts[3] if len(parts) == 4 else "linear"
    if spacing not in ("linear", "log"):
        raise ConfigError(f"grid spacing must be 'linear' or 'log', got {spacing!r}")
    if count < 1:
        raise ConfigError("grid count must be at least 1")
    if not (0.0 < start < math.inf and 0.0 < stop < math.inf):
        raise ConfigError(f"grid endpoints must be finite and positive, got {spec!r}")
    if count == 1:
        return [start]
    if spacing == "linear":
        step = (stop - start) / (count - 1)
        return [start + k * step for k in range(count)]
    lo, hi = math.log(start), math.log(stop)
    step = (hi - lo) / (count - 1)
    grid = [math.exp(lo + k * step) for k in range(count)]
    # Endpoints exact despite log/exp round-trip.
    grid[0], grid[-1] = start, stop
    return grid


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _named(*items) -> str:
    """One ``name value`` line per (name, float) item."""
    return _lines(f"{name} {fmt(value)}" for name, value in items)


def _window(args, model) -> float:
    return args.T if args.T is not None else window_for_pairs(model.ratios, args.pairs)


def _cmd_validate(args) -> tuple[int, str]:
    model = load_spray(args.config)
    report = validate_spray(model, check_monotonic=not args.skip_monotonicity)
    if report.ok:
        return 0, "PASS: all spray invariants hold\n"
    return 2, _lines(f"FAIL: {failure}" for failure in report.failures)


def _cmd_dim(args) -> tuple[int, str]:
    dim = _load_validated(args).ratios.similarity_dimension
    return 0, _named(("D", dim.value), ("residual", dim.residual))


def _cmd_czeros(args) -> tuple[int, str]:
    zeros = find_complex_dimensions(_load_validated(args), args.T, re_floor=args.re_floor)
    columns = (zeros.omega.tolist(), zeros.multiplicity.tolist(), zeros.residual.tolist())
    records = [{"re": w.real, "im": w.imag, "multiplicity": m, "residual": r}
               for w, m, r in zip(*columns)]
    return 0, _json_render(records) + "\n"


def _cmd_tube(args) -> tuple[int, str]:
    model = _load_validated(args)
    if args.method == "direct":
        return 0, _named(("direct", direct_tube_volume(model, args.eps)))
    if args.method == "invmellin":
        half = args.T if args.T is not None else 200.0
        value = inverse_mellin_numeric(model, args.eps, c=args.c, half_length=half)
        return 0, _named(("invmellin", value))
    if args.method == "residues":  # the residue sum alone: no direct oracle
        check_residue_eps(model.generator, args.eps)
        expansion = ResidueExpansion.build(model, args.pairs, _window(args, model))
        return 0, _named(("residues", expansion.evaluate(args.eps).residue_value))
    ev = tube_volume_residues(model, args.eps, args.pairs, _window(args, model))
    return 0, _named(("direct", ev.direct), ("residues", ev.residue_value),
                     ("abs_err", ev.abs_error), ("rel_err", ev.rel_error))


def _cmd_scan(args) -> tuple[int, str]:
    model = _load_validated(args)
    entries = compare(model, _parse_grid(args.grid), args.pairs, _window(args, model))
    rows = [{name: getattr(e, field) for name, field in SCAN_COLUMNS} for e in entries]
    if args.format == "json":
        records = [row | {"error": e.error} for row, e in zip(rows, entries)]
        return 0, _json_render(records) + "\n"
    lines = [CSV_HEADER, CSV_COLUMNS]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row.values())
              for row in rows]
    return 0, _lines(lines)


def acceptance_checks():
    """The acceptance criteria that need only the library, as a table.

    Rows are ``(criterion, label, check)``; ``check()`` returns ``(ok,
    detail)``, with no timing in the detail.  ``selftest`` runs every row;
    the test of the same criterion in ``tests/test_acceptance.py`` runs its
    row and adds the time bound (criterion 1 here is its accuracy half).
    """
    cantor = presets.cantor_spray()
    square = presets.square_spray()
    cantor_d = math.log(2.0) / math.log(3.0)

    def moran_closed_forms():
        worst = 0.0
        for ratios, ref in ((cantor.ratios, cantor_d),
                            (RatioList([0.5, 0.25]),
                             math.log2((1.0 + math.sqrt(5.0)) / 2.0))):
            worst = max(worst, abs(ratios.similarity_dimension.value - ref))
        return worst < 1e-10, f"max error {worst:.3e}"

    def lattice_zeros_exact():
        zeros = find_complex_dimensions(cantor, 30.0)
        period = 2.0 * math.pi / math.log(3.0)
        worst = math.inf
        if len(zeros) == 11:
            worst = max(abs(w - complex(cantor_d, k * period))
                        for w, k in zip(zeros.omega.tolist(), range(-5, 6)))
        return (len(zeros) == 11 and worst < 1e-9,
                f"count {len(zeros)} (want 11), worst deviation {worst:.3e}")

    def winding_completeness():
        ratios = RatioList([0.5, 1.0 / 3.0])
        zeros = find_complex_dimensions(
            SprayModel(ratios, MonophaseGenerator(1, [2.0], 0.5, 1.0)), 20.0
        )
        window = (zero_free_abscissa(ratios),
                  ratios.similarity_dimension.value + 0.5, -20.0, 20.0)
        total = count_zeros_rectangle(ratios, window)
        mult = int(zeros.multiplicity.sum())
        worst = max(zeros.residual.tolist())
        return (mult == total and worst < 1e-10,
                f"multiplicity {mult} vs winding {total}, worst residual {worst:.3e}")

    def functional_equation():
        rng = np.random.default_rng(20260826)
        worst = 0.0
        for model in (cantor, square):
            g = model.generator.inradius
            for eps in rng.uniform(1e-6, 10.0 * g, size=100).tolist():
                rel = abs(functional_equation_residual(model, eps))
                worst = max(worst, rel / direct_tube_volume(model, eps))
        return worst < 1e-12, f"worst relative residual {worst:.3e}"

    def constant_regime():
        worst = 0.0
        for model, ref in ((cantor, 1.0), (square, 144.0 / 83.0)):
            total = total_spray_volume(model)
            g = model.generator.inradius
            devs = [abs(direct_tube_volume(model, e) / total - 1.0)
                    for e in (g, 2.0 * g, 5.0 * g, 100.0 * g)]
            worst = max(worst, *devs, abs(total / ref - 1.0))
        return worst < 1e-12, f"worst relative deviation {worst:.3e}"

    def residue_agreement_cantor():
        g = cantor.generator.inradius
        refs = {0.1: 13.0 / 15.0, 1.0 / 18.0: 7.0 / 9.0}
        expansion = ResidueExpansion.build(cantor, 500, window_for_pairs(cantor.ratios, 500))
        ok = True
        details = []
        for eps in (g / 2.0, g / 4.0, g / 8.0, 0.1, 1.0 / 18.0):
            ev = expansion.evaluate(eps, direct_tube_volume(cantor, eps))
            if ev.eps in refs:
                ok = ok and abs(ev.direct - refs[ev.eps]) < 1e-12
            sums = expansion.partial_sums(eps)
            err_500 = abs(sums[500] - ev.direct)
            err_5 = abs(sums[5] - ev.direct)
            ok = ok and err_500 < 1e-3 and ev.imag_leakage < 1e-10 and err_500 < err_5
            details.append(f"eps={ev.eps:.4g}: err {err_500:.2e} (K=5: {err_5:.2e})")
        return ok, "; ".join(details)

    def residue_agreement_square():
        g = square.generator.inradius
        entries = compare(square, (g / 2.0, g / 8.0), 200, window_for_pairs(square.ratios, 200))
        worst = max(ev.rel_error for ev in entries)
        return worst < 1e-2, f"worst relative error {worst:.3e} with K=200"

    def inversion_cross_check():
        worst = 0.0
        for model in (cantor, square):
            g = model.generator.inradius
            for eps in (g / 2.0, g / 4.0, 2.0 * g):
                value = inverse_mellin_numeric(model, eps, half_length=200.0)
                worst = max(worst, abs(value - direct_tube_volume(model, eps)))
        return worst < 1e-2, f"worst |inversion - direct| {worst:.3e} at T=200"

    return [
        (1, "Moran closed forms", moran_closed_forms),
        (2, "lattice zeros exact", lattice_zeros_exact),
        (3, "winding completeness", winding_completeness),
        (4, "functional equation", functional_equation),
        (5, "constant regime", constant_regime),
        (7, "residue agreement (Cantor)", residue_agreement_cantor),
        (8, "residue agreement (nonlattice square)", residue_agreement_square),
        (10, "inverse Mellin cross-check", inversion_cross_check),
    ]


def _cmd_selftest(_args) -> tuple[int, str]:
    checks = acceptance_checks()
    lines = []
    for number, label, check in checks:
        try:
            ok, detail = check()
        except TubeforgeError as exc:
            ok, detail = False, f"error: {exc}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {number:2d} {label}: {detail}")
    passed = sum(line.startswith("PASS") for line in lines)
    lines.append(f"selftest: {passed}/{len(checks)} passed")
    return 0 if passed == len(checks) else 1, _lines(lines)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent form,
    such as ``-1e-3``, as a value rather than as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call.

    ``parse_args`` leaves the parser unchanged, so in-process callers that
    run many commands pay for it once; nothing is built at import.
    """
    parser = _Parser(
        prog="tubeforge",
        description="Inner tube volumes of self-similar sprays: exact direct "
        "evaluation and the residue-sum tube formula over complex dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("config", help="spray configuration JSON file")
        p.add_argument("--skip-validation", action="store_true",
                       help="skip the standing-assumption checks")
        p.add_argument("--skip-monotonicity", action="store_true",
                       help="skip the tube-polynomial monotonicity spot check")
        p.add_argument("--output", "-o", default=None, help="write output to file")

    p = sub.add_parser("validate", help="check every spray invariant")
    p.add_argument("config")
    p.add_argument("--skip-monotonicity", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dim", help="similarity dimension from the Moran equation")
    add_model_flags(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("czeros", help="complex dimensions in a window")
    add_model_flags(p)
    p.add_argument("--T", type=float, required=True,
                   help="imaginary window half-height")
    p.add_argument("--re-floor", type=float, default=None,
                   help="override the left search boundary")
    p.set_defaults(func=_cmd_czeros)

    p = sub.add_parser("tube", help="tube volume at one eps")
    add_model_flags(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--method", required=True,
                   choices=["direct", "residues", "both", "invmellin"])
    p.add_argument("--pairs", type=int, default=100,
                   help="conjugate pairs in the residue truncation")
    p.add_argument("--T", type=float, default=None,
                   help="imaginary window (residues) or integral half-length "
                        "(invmellin)")
    p.add_argument("--c", type=float, default=None,
                   help="inversion abscissa, default midpoint of (D, n)")
    p.set_defaults(func=_cmd_tube)

    p = sub.add_parser("scan", help="direct-vs-residues table over an eps grid")
    add_model_flags(p)
    p.add_argument("--grid", required=True,
                   help="start:stop:count[:linear|log]")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("selftest", help="built-in acceptance suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    output = getattr(args, "output", None)
    try:
        code, text = args.func(args)
        if output:
            try:
                with open(output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {output}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except TubeforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return code


if __name__ == "__main__":
    sys.exit(main())
