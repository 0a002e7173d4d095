"""Command line front end.

Subcommands: classify | blowup | resolve | holonomy | timeform.  Every
command emits one deterministic JSON document (compact by default,
``--pretty`` for indented output, ``--out FILE`` to write to a file).

Exit codes: 0 success, 2 parse error, 3 precondition violation (including a
negative --trunc or --max-steps, an --alpha, --beta or --turns that is not a
rational number, and an unreadable separatrix file), 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import resolve as rs
from .errors import FolresError, ParseError, PrecisionExhausted
from .parsing import parse_field, parse_series
from .scalars import GaussianRational
from .series import USeries, format_mseries
from .blowup import curve_chart, point_blowup, point_chart, curve_blowup, weight2_blowup
from .separatrix import FormalCurve, invariance_residual, solve_graph_separatrix
from .vfield import (
    LinearPart,
    VectorField,
    classify,
    factor_divisor,
    order_at_origin,
)

DEFAULT_TRUNC = 24


def _scalar_json(c: GaussianRational) -> str:
    return str(c)


def _complex_json(z: complex):
    return [z.real, z.imag]


def _field_json(field: VectorField):
    return [format_mseries(c) for c in field.components]


def _curve_json(curve: FormalCurve):
    return {
        "x_of_z": [_scalar_json(c) for c in curve.phi1.coeffs],
        "y_of_z": [_scalar_json(c) for c in curve.phi2.coeffs],
        "ledger": curve.ledger,
        "tangency": curve.tangency_bound(),
    }


def _report_json(report: rs.PersistentReport):
    return {
        "n": report.n,
        "lambda": _scalar_json(report.lam),
        "k": report.k,
        "tangency": report.tangency,
        "separatrix_prefix": _curve_json(report.separatrix_prefix),
        "verdict": report.verdict,
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
        "linear_part": [[_scalar_json(e) for e in row] for row in lin.m],
        "invariant_triple": [_scalar_json(c) for c in lin.invariant_triple()],
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
            raise ParseError(
                f"chart must rescale a variable transverse to the {axis}-axis", 0
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


def _load_curve(args, field: VectorField) -> FormalCurve:
    if args.separatrix == "axis":
        return FormalCurve.z_axis(max(field.trunc - 1, 1))
    if args.separatrix == "solve":
        _, rep = factor_divisor(field, "z")
        return solve_graph_separatrix(rep, max(rep.trunc - 1, 1))
    if not args.separatrix_file:
        raise FolresError("--separatrix file requires --separatrix-file PATH")
    try:
        with open(args.separatrix_file) as fh:
            data = json.load(fh)
        coeffs_a = [_load_scalar(c) for c in data["x_of_z"]]
        coeffs_b = [_load_scalar(c) for c in data["y_of_z"]]
        ledger = max(len(coeffs_a), len(coeffs_b)) - 1
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
    curve = _load_curve(args, field)
    residual = invariance_residual(field, curve)
    if not residual.full:
        raise FolresError(
            f"separatrix residual vanishes only through degree {residual.order}"
        )
    trace = rs.resolve_along(
        field, curve, args.max_steps, stop_on_match=not args.no_match_stop
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
        report = trace.report.with_verdict(verdict)
        out["report"] = _report_json(report)
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


def cmd_holonomy(args) -> dict:
    alpha = _rational_arg(args.alpha, "--alpha")
    beta = _rational_arg(args.beta, "--beta")
    for value, text, flag in ((alpha, args.alpha, "--alpha"), (beta, args.beta, "--beta")):
        try:
            float(value)  # the holonomy matrix is computed in floating point
        except OverflowError as exc:
            raise FolresError(f"{flag} is beyond the floating-point range, got {text!r}") from exc
    hol = rs.holonomy_sancho_sanz(alpha, beta)
    return {
        "command": "holonomy",
        "alpha": str(alpha),
        "beta": str(beta),
        "is_identity": hol["is_identity"],
        "matrix": [[_complex_json(e) for e in row] for row in hol["matrix"]],
    }


def cmd_timeform(args) -> dict:
    if args.rho is not None:
        series = parse_series(args.rho, args.trunc)
        if any(m[1] or m[2] for m in series.terms):
            raise ParseError("rho must be a polynomial in x alone", 0)
        coeffs = [series.coeff((k, 0, 0)) for k in range(series.trunc + 1)]
        rho = USeries(coeffs, series.trunc)
        rho_text = format_mseries(series)
    else:
        rho = args.exponent
        rho_text = f"x^{args.exponent}"
    x0 = complex(args.x0_re, args.x0_im)
    turns = _rational_arg(args.turns, "--turns")
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
    common.add_argument("--json", action="store_true", help="compact JSON (default)")
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
    p.add_argument("--exponent", type=int, default=2, help="rho = x^exponent")
    p.add_argument("--rho", help="polynomial in x overriding --exponent")
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNC)
    p.add_argument("--x0-re", type=float, default=0.5)
    p.add_argument("--x0-im", type=float, default=0.0)
    p.add_argument("--turns", default="1")
    p.set_defaults(fn=cmd_timeform)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("trunc", "max_steps"):
            if getattr(args, flag, 0) < 0:
                raise FolresError(f"--{flag.replace('_', '-')} must be non-negative")
        report = args.fn(args)
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc), "position": exc.position}, args)
        return 2
    except PrecisionExhausted as exc:
        _emit({"error": "precision_exhausted", "message": str(exc)}, args)
        return 4
    except FolresError as exc:
        _emit(
            {"error": type(exc).__name__, "message": str(exc)},
            args,
        )
        return 3
    _emit(report, args)
    return 0


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2 if args.pretty else None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
