"""Command line front end.

Subcommands: classify | blowup | resolve | holonomy | timeform.  Every
command emits one deterministic JSON document (compact by default,
``--pretty`` for indented output, ``--out FILE`` to write to a file).

Exit codes: 0 success, 2 parse error, 3 precondition violation (including a
negative --trunc or --max-steps, a --trunc above MAX_TRUNC = 1024, an
--alpha, --beta or --turns that is not a rational number or is beyond the
float range, an --x0-re or --x0-im that is not a finite decimal number, an
--exponent that is not a non-negative integer, an unreadable separatrix
file, one whose x_of_z or y_of_z is not a list, and one whose lists are
empty or of unequal length, a separatrix that is not invariant, a
field whose ledger pins no degree of a graph separatrix, a coefficient too
long to print under Python's int-string limit, and an --out file that cannot
be written), 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import resolve as rs
from .errors import FolresError, ParseError, PrecisionExhausted
from .parsing import parse_field, parse_series
from .scalars import GaussianRational
from .series import USeries, format_mseries
from .blowup import curve_chart, point_blowup, point_chart, curve_blowup, weight2_blowup
from .separatrix import FormalCurve, solve_graph_separatrix
from .vfield import (
    LinearPart,
    VectorField,
    classify,
    factor_divisor,
    order_at_origin,
)

DEFAULT_TRUNC = 24
MAX_TRUNC = 1024


def _complex_json(z: complex):
    return [z.real, z.imag]


def _field_json(field: VectorField):
    return [format_mseries(c) for c in field.components]


def _curve_json(curve: FormalCurve):
    return {
        "x_of_z": [str(c) for c in curve.phi1.coeffs],
        "y_of_z": [str(c) for c in curve.phi2.coeffs],
        "ledger": curve.ledger,
        "tangency": curve.tangency_bound(),
    }


def _report_json(report: rs.PersistentReport, verdict: str):
    return {
        "n": report.n,
        "lambda": str(report.lam),
        "k": report.k,
        "tangency": report.tangency,
        "separatrix_prefix": _curve_json(report.separatrix_prefix),
        "verdict": verdict,
    }


def cmd_classify(args) -> dict:
    field = parse_field(args.field, args.trunc)
    cls = classify(field)
    lin = LinearPart.of(field)
    try:
        order = order_at_origin(field)
    except FolresError:
        order = None
    return {
        "command": "classify",
        "field": _field_json(field),
        "trunc": field.trunc,
        "class": cls.tag,
        "order": order,
        "linear_part": [[str(e) for e in row] for row in lin.m],
        "invariant_triple": [str(c) for c in lin.invariant_triple()],
    }


def cmd_blowup(args) -> dict:
    field = parse_field(args.field, args.trunc)
    if args.weight == 2:
        result = weight2_blowup(field)
        center = "curve {y=z=0}"
    elif args.center == "point":
        result = point_blowup(field, point_chart(args.chart))
        center = "point"
    else:
        axis = args.center_axis
        transverse = [v for v in "xyz" if v != axis]
        if args.chart not in transverse:
            raise FolresError(
                f"--chart {args.chart} must name a variable transverse to "
                f"--center-axis {axis} ({' or '.join(transverse)})"
            )
        divisor = next(v for v in transverse if v != args.chart)
        result = curve_blowup(field, curve_chart(axis, divisor))
        center = "curve {" + "=".join(transverse) + "=0}"
    cls = classify(result.vf)
    return {
        "command": "blowup",
        "field": _field_json(field),
        "trunc": field.trunc,
        "center": center,
        "chart": result.chart.kind,
        "substitution": result.chart.describe(),
        "weight": args.weight,
        "components": _field_json(result.vf),
        "divisor_exponent": result.divisor_exponent,
        "dicritical": result.dicritical,
        "new_class": cls.tag,
        "result_trunc": result.vf.trunc,
    }


def _load_curve(args, field: VectorField, rep: VectorField) -> FormalCurve:
    """The curve of --separatrix; rep is the field with z^k factored out."""
    if args.separatrix == "axis":
        return FormalCurve.z_axis(max(field.trunc - 1, 1))
    if args.separatrix == "solve":
        return solve_graph_separatrix(rep, max(rep.trunc - 1, 1))
    if not args.separatrix_file:
        raise FolresError("--separatrix file requires --separatrix-file PATH")
    try:
        with open(args.separatrix_file) as fh:
            data = json.load(fh)
        lists = {}
        for key in ("x_of_z", "y_of_z"):
            if not isinstance(data[key], list):
                raise ValueError(f"{key} is not a list")
            lists[key] = [_load_scalar(c) for c in data[key]]
        coeffs_a, coeffs_b = lists.values()
        for key, coeffs in lists.items():
            if not coeffs:
                raise ValueError(f"{key} is empty")
        if len(coeffs_a) != len(coeffs_b):
            raise ValueError(
                f"x_of_z has {len(coeffs_a)} coefficients and y_of_z has {len(coeffs_b)}"
            )
        ledger = len(coeffs_a) - 1
        return FormalCurve.graph(USeries(coeffs_a, ledger), USeries(coeffs_b, ledger))
    except (OSError, KeyError, TypeError, ValueError, ParseError) as exc:
        raise FolresError(f"cannot load the separatrix file: {exc}") from exc


def _load_scalar(c) -> GaussianRational:
    """A curve coefficient in the scalar grammar that reports print, e.g. "1/2-3*i"."""
    text = str(c) if isinstance(c, int) else c
    if not isinstance(text, str) or any(v in text for v in "xyz"):
        raise ValueError(f"coefficient {c!r} is not a constant")
    return parse_series(text, 0).constant_term()


def cmd_resolve(args) -> dict:
    field = parse_field(args.field, args.trunc)
    k, rep = factor_divisor(field, "z")
    curve = _load_curve(args, field, rep)
    # resolve_along checks that the curve is invariant for rep
    trace = rs.resolve_along(
        field,
        curve,
        args.max_steps,
        stop_on_match=not args.no_match_stop,
        _factored=(k, rep),
    )
    steps = []
    for s in trace.steps:
        steps.append(
            {
                "chart": s.chart_kind,
                "class": s.cls.tag,
                "mult": s.mult,
                "divisor_exponent": s.divisor_exponent,
                "tangency": s.tangency,
                "matched": s.report is not None,
                "no_match_reason": s.no_match_reason,
            }
        )
    out = {
        "command": "resolve",
        "field": _field_json(field),
        "trunc": field.trunc,
        "separatrix": args.separatrix,
        "outcome": trace.outcome,
        "steps": steps,
        "report": None,
        "verdict": None,
    }
    if trace.report is not None:
        verdict = rs.semicomplete_obstruction(trace.report)
        holonomy = None
        if verdict == rs.INCONCLUSIVE and trace.final_field is not None:
            params = rs.degenerate_family_parameters(trace.final_field)
            if params is not None:
                alpha, beta = params
                hol = rs.holonomy_sancho_sanz(alpha, beta)
                verdict = (
                    rs.SEMICOMPLETE_BY_HOLONOMY
                    if hol["is_identity"]
                    else rs.NOT_SEMICOMPLETE_BY_HOLONOMY
                )
                holonomy = {
                    "alpha": str(alpha),
                    "beta": str(beta),
                    "is_identity": hol["is_identity"],
                }
        out["report"] = _report_json(trace.report, verdict)
        if holonomy is not None:
            out["holonomy"] = holonomy
        out["verdict"] = verdict
    return out


def _rational_arg(text: str, flag: str) -> Fraction:
    """The value of a rational-number flag such as --alpha "-1/2"."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FolresError(f"{flag} must be a rational number, got {text!r}") from exc


def _check_float_range(value: Fraction, text: str, flag: str) -> None:
    """Refuse a rational flag that no float holds, such as 1e400."""
    try:
        float(value)
    except OverflowError as exc:
        raise FolresError(f"{flag} is beyond the floating-point range, got {text!r}") from exc


def cmd_holonomy(args) -> dict:
    alpha = _rational_arg(args.alpha, "--alpha")
    beta = _rational_arg(args.beta, "--beta")
    # the holonomy matrix is computed in floating point
    _check_float_range(alpha, args.alpha, "--alpha")
    _check_float_range(beta, args.beta, "--beta")
    hol = rs.holonomy_sancho_sanz(alpha, beta)
    return {
        "command": "holonomy",
        "alpha": str(alpha),
        "beta": str(beta),
        "is_identity": hol["is_identity"],
        "matrix": [[_complex_json(e) for e in row] for row in hol["matrix"]],
    }


def _finite_arg(text: str, flag: str) -> float:
    """The value of a real flag such as --x0-re 0.5: a finite decimal
    float, so neither nan, inf nor a numeral past the float range (1e400)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FolresError(f"{flag} must be a finite decimal number, got {text!r}")
    return value


def _exponent_arg(text: str) -> int:
    """The value of --exponent: a non-negative integer, as rho = x^m with
    m < 0 is no polynomial and --rho refuses it."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise FolresError(f"--exponent must be a non-negative integer, got {text!r}")
    return value


def cmd_timeform(args) -> dict:
    exponent = _exponent_arg(args.exponent)
    x0 = complex(_finite_arg(args.x0_re, "--x0-re"), _finite_arg(args.x0_im, "--x0-im"))
    if args.rho is not None:
        series = parse_series(args.rho, args.trunc)
        if any(m[1] or m[2] for m in series.terms):
            raise ParseError("rho must be a polynomial in x alone", 0)
        coeffs = [series.coeff((k, 0, 0)) for k in range(series.trunc + 1)]
        rho = USeries(coeffs, series.trunc)
        rho_text = format_mseries(series)
    else:
        rho = exponent
        rho_text = f"x^{exponent}"
    turns = _rational_arg(args.turns, "--turns")
    # past the float range the quadrature would run for seconds and fail
    _check_float_range(turns, args.turns, "--turns")
    value = rs.timeform_arc_integral(rho, x0, turns)
    return {
        "command": "timeform",
        "rho": rho_text,
        "x0": _complex_json(x0),
        "turns": str(turns),
        "integral": _complex_json(value),
        "abs": abs(value),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folres",
        description="Blow-up calculus and formal separatrices for vector "
        "fields on (C^3, 0)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented JSON")
    common.add_argument("--out", metavar="FILE", help="write the report to FILE")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_field(p):
        p.add_argument("field", help='vector field, e.g. "[x^2, x*z, y - x*z]"')
        p.add_argument("--trunc", type=int, default=DEFAULT_TRUNC)

    p = sub.add_parser("classify", parents=[common], help="singularity class at the origin")
    add_field(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("blowup", parents=[common], help="one blow-up transform in one chart")
    add_field(p)
    p.add_argument("--center", choices=["point", "curve"], default="point")
    p.add_argument(
        "--center-axis",
        choices=["x", "y", "z"],
        default="x",
        help="free axis of a curve center (default x: center {y=z=0})",
    )
    p.add_argument(
        "--chart",
        choices=["x", "y", "z"],
        default="z",
        help="point charts: the divisor variable; curve charts: the rescaled one",
    )
    p.add_argument("--weight", type=int, choices=[1, 2], default=1)
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("resolve", parents=[common], help="follow a separatrix through blow-ups")
    add_field(p)
    p.add_argument(
        "--separatrix",
        choices=["solve", "axis", "file"],
        default="solve",
    )
    p.add_argument("--separatrix-file", metavar="FILE")
    p.add_argument("--max-steps", type=int, default=8)
    p.add_argument(
        "--no-match-stop",
        action="store_true",
        help="run all steps even after a normal-form match",
    )
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("holonomy", parents=[common], help="separatrix return map of the degenerate family")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=cmd_holonomy)

    p = sub.add_parser("timeform", parents=[common], help="time-form integral over a circular arc")
    p.add_argument("--exponent", default="2", help="rho = x^exponent, exponent >= 0")
    p.add_argument("--rho", help="polynomial in x overriding --exponent")
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNC)
    p.add_argument("--x0-re", default="0.5")
    p.add_argument("--x0-im", default="0")
    p.add_argument("--turns", default="1")
    p.set_defaults(fn=cmd_timeform)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if not 0 <= getattr(args, "trunc", 0) <= MAX_TRUNC:
            raise FolresError(f"--trunc must be between 0 and MAX_TRUNC = {MAX_TRUNC}")
        if getattr(args, "max_steps", 0) < 0:
            raise FolresError("--max-steps must be non-negative")
        report = args.fn(args)
    except ParseError as exc:
        error = {"error": "parse", "message": str(exc), "position": exc.position}
        return _emit(error, args, 2)
    except PrecisionExhausted as exc:
        return _emit({"error": "precision_exhausted", "message": str(exc)}, args, 4)
    except FolresError as exc:
        return _emit({"error": type(exc).__name__, "message": str(exc)}, args, 3)
    return _emit(report, args, 0)


def _emit(payload, args, code: int) -> int:
    """Write the JSON document and return the exit code: `code`, or 3 with a
    JSON error on stdout when the --out file cannot be written."""
    indent = 2 if args.pretty else None
    text = json.dumps(payload, indent=indent)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            message = f"cannot write --out {args.out}: {exc.strerror}"
            error = {"error": "output", "message": message}
            sys.stdout.write(json.dumps(error, indent=indent) + "\n")
            return 3
    else:
        sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
