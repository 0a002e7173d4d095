"""Seeded workloads for the CLI and the per-item checks of their outputs.

Each workload turns a seed into a fixed list of items.  An item is the argv
handed to ``folres.cli.main`` plus what the check needs to know about the
generated field.  The list is stratified: every seed gives the same number of
items of each kind (family, n, k, trunc, chart), and only the coefficients
come from the seed, so the cost of a pass does not depend on the seed's luck.

The checks use ``oracle`` alone.  They return None for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle as o


@dataclass(frozen=True)
class Item:
    argv: tuple
    expect: dict


def _echo_problem(item: Item, out: dict) -> str | None:
    """The echoed field must be the generated one, read back independently."""
    echoed = tuple(o.parse_poly(c) for c in out["field"])
    if echoed != item.expect["field"]:
        return "echoed field differs from the generated field"
    return None


def _rational(rng, span, den):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, den))


# -- verdict-sweep -----------------------------------------------------------------

XLAMBDA = "xlambda"
DEGENERATE = "degenerate"

# (family, n, k, trunc, coefficient kind); the item list repeats the slots
# SWEEP_ROUNDS times, each time with fresh coefficients.
# X_lambda kinds: lambda real or with an imaginary part.  Degenerate kinds:
# the integrality rule's three cases for (a, b).
_SWEEP_SLOTS = (
    (XLAMBDA, 3, 0, 64, "real"),
    (XLAMBDA, 3, 0, 64, "complex"),
    (XLAMBDA, 3, 0, 80, "real"),
    (XLAMBDA, 4, 0, 96, "real"),
    (XLAMBDA, 4, 0, 96, "complex"),
    (XLAMBDA, 4, 0, 128, "real"),
    (XLAMBDA, 3, 1, 64, "real"),
    (XLAMBDA, 4, 1, 96, "complex"),
    (DEGENERATE, 2, 0, 96, "integral"),
    (DEGENERATE, 2, 0, 128, "integral"),
    (DEGENERATE, 2, 0, 96, "equal"),
    (DEGENERATE, 2, 0, 128, "fractional"),
    (DEGENERATE, 2, 1, 96, "fractional"),
    (DEGENERATE, 2, 1, 128, "integral"),
)
SWEEP_ROUNDS = 4


def _xlambda(lam, n, k):
    """z^k [(y - lam z) d/dx + x z d/dy + z^n d/dz]."""
    return (
        {(0, 1, k): o.ONE, (0, 0, k + 1): (-lam[0], -lam[1])},
        {(1, 0, k + 1): o.ONE},
        {(0, 0, n + k): o.ONE},
    )


def _degenerate(a, b, k):
    """z^k [(y - b x z) d/dx + (x z - a y z) d/dy + z^2 d/dz]."""
    return (
        o.padd({(0, 1, k): o.ONE}, {(1, 0, k + 1): o.scalar(-b)}),
        o.padd({(1, 0, k + 1): o.ONE}, {(0, 1, k + 1): o.scalar(-a)}),
        {(0, 0, 2 + k): o.ONE},
    )


def _degenerate_params(rng, kind):
    if kind == "equal":
        a = Fraction(rng.randint(-4, 4))
        return a, a
    if kind == "integral":
        a, b = rng.sample(range(-4, 5), 2)
        return Fraction(a), Fraction(b)
    a = Fraction(rng.randint(-9, 9), rng.choice((2, 3)))
    return a, _rational(rng, 9, 3)


def verdict_sweep(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for _ in range(SWEEP_ROUNDS):
        for family, n, k, trunc, kind in _SWEEP_SLOTS:
            expect = {"family": family, "n": n, "k": k}
            if family == XLAMBDA:
                lam = (_rational(rng, 9, 4), _rational(rng, 9, 4) if kind == "complex" else Fraction(0))
                fld = _xlambda(lam, n, k)
                expect["lam"] = lam
                verdict = "not_semicomplete"
            else:
                a, b = _degenerate_params(rng, kind)
                fld = _degenerate(a, b, k)
                expect["ab"] = (a, b)
                if k:
                    verdict = "not_semicomplete"
                elif a.denominator == 1 and b.denominator == 1 and a != b:
                    verdict = "semicomplete_by_holonomy"
                else:
                    verdict = "not_semicomplete_by_holonomy"
            expect["verdict"] = verdict
            expect["field"] = fld
            items.append(Item(("resolve", o.fmt_field(fld), "--trunc", str(trunc)), expect))
    return items


def _prefix(out):
    sep = out["report"]["separatrix_prefix"]
    return [o.parse_scalar(c) for c in sep["x_of_z"]], [o.parse_scalar(c) for c in sep["y_of_z"]]


def check_verdict(item: Item, out: dict) -> str | None:
    e = item.expect
    if out["verdict"] != e["verdict"]:
        return f"verdict {out['verdict']}, expected {e['verdict']}"
    report = out["report"]
    if report["n"] != e["n"] or o.parse_scalar(report["lambda"]) != o.ONE:
        return f"report (n, lambda) = ({report['n']}, {report['lambda']})"
    xs, ys = _prefix(out)
    if e["family"] == XLAMBDA:
        # The driver's blow-ups divide the graph by z once per step and move
        # the constant terms to the origin, so the prefix is the original
        # series shifted by the number of blow-ups.
        shift = len(out["steps"]) - 1
        a, b = o.xlambda_coefficients(e["n"], len(xs) + shift)
        lam = e["lam"]
        want_x = [o.ZERO] + [o.smul(o.scalar(a[j + shift]), lam) for j in range(1, len(xs))]
        want_y = [o.ZERO] + [o.smul(o.scalar(b[j + shift]), lam) for j in range(1, len(ys))]
        if xs != want_x or ys != want_y:
            return "separatrix prefix differs from the X_lambda recurrence"
        return None
    if report["k"] != e["k"] or len(out["steps"]) != 1:
        return f"degenerate family matched with k={report['k']} after {len(out['steps'])} steps"
    if any(c != o.ZERO for c in xs + ys):
        return "degenerate family separatrix is not the z-axis"
    if not e["k"]:
        hol = out["holonomy"]
        if (Fraction(hol["alpha"]), Fraction(hol["beta"])) != e["ab"]:
            return f"holonomy parameters {hol['alpha']}, {hol['beta']}"
    return None


# -- driver-walk -------------------------------------------------------------------

WALK_TRUNC = 16
WALK_STEPS = 3
# Each round: for each n, one item whose f or g has a pure z-power term (the
# separatrix leaves the z-axis) and two without one (it stays on it).
_WALK_SLOTS = tuple((n, curved) for n in (2, 3, 4) for curved in (True, False, False))
WALK_ROUNDS = 40


def _soak_scalar(rng):
    return o.scalar(rng.randint(-3, 3), rng.randint(-1, 1))


def _soak_series(rng, val, maxdeg, terms):
    """The random sparse series of the test suite's normal-form soak."""
    p = {}
    for _ in range(terms):
        while True:
            m = tuple(rng.randint(0, maxdeg) for _ in range(3))
            if val <= sum(m) <= maxdeg:
                break
        c = _soak_scalar(rng)
        if c != o.ZERO:
            p[m] = c
    return p


def _random_normal_form(rng, n):
    """(y + z f) d/dx + z g d/dy + z^n d/dz with g = lambda x + O(2)."""
    f = _soak_series(rng, 1, 3, 3)
    lam = _soak_scalar(rng)
    if lam == o.ZERO:
        lam = o.ONE
    g = o.padd(o.pscale(o.var(0), lam), _soak_series(rng, 2, 3, 3))
    z = o.var(2)
    fld = (o.padd(o.var(1), o.pmul(z, f)), o.pmul(z, g), {(0, 0, n): o.ONE})
    curved = any(m[0] == m[1] == 0 for m in list(f) + list(g))
    return fld, lam, curved


def driver_walk(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for _ in range(WALK_ROUNDS):
        for n, curved in _WALK_SLOTS:
            while True:
                fld, lam, has_z = _random_normal_form(rng, n)
                if has_z == curved:
                    break
            argv = (
                "resolve", o.fmt_field(fld), "--trunc", str(WALK_TRUNC),
                "--no-match-stop", "--max-steps", str(WALK_STEPS),
            )
            items.append(Item(argv, {"n": n, "lam": lam, "field": fld}))
    return items


def check_walk(item: Item, out: dict) -> str | None:
    e = item.expect
    steps = out["steps"]
    if len(steps) != WALK_STEPS + 1:
        return f"{len(steps)} steps recorded, expected {WALK_STEPS + 1}"
    for s in steps:
        if s["class"] != "nilpotent_nonzero" or s["mult"] != e["n"]:
            return f"step ({s['class']}, mult {s['mult']}), expected nilpotent_nonzero with mult {e['n']}"
    if not steps[0]["matched"]:
        return "the generated normal form itself is not matched"
    if out["outcome"] == "persistent_normal_form_matched":
        report = out["report"]
        if (report["n"], o.parse_scalar(report["lambda"]), report["k"]) != (e["n"], e["lam"], 0):
            return f"report (n, lambda, k) = ({report['n']}, {report['lambda']}, {report['k']})"
        want = "not_semicomplete" if e["n"] >= 3 else "inconclusive"
        if out["verdict"] != want:
            return f"verdict {out['verdict']}, expected {want}"
    elif out["outcome"] != "max_steps_exhausted" or out["verdict"] is not None:
        return f"outcome {out['outcome']} with verdict {out['verdict']}"
    return None


def lost_match(out: dict) -> bool:
    """A step after a matched one fails to match: the driver defect of
    ROADMAP item 1, which driver-walk keeps in its input set."""
    flags = [s["matched"] for s in out["steps"]]
    first = flags.index(True) if True in flags else len(flags)
    return not all(flags[first:])


# -- chart-batch -------------------------------------------------------------------

CHART_TRUNC = 48
CHART_DEGREE = 12
CHART_TERMS = 60
# (command, center, center axis, --chart): a point chart's divisor variable or
# the variable a curve chart rescales.
_CHART_SLOTS = (
    ("blowup", "point", None, 0),
    ("blowup", "point", None, 1),
    ("blowup", "point", None, 2),
    ("blowup", "curve", 0, 1),
    ("blowup", "curve", 1, 2),
    ("blowup", "curve", 2, 0),
    ("blowup", "weight2", None, 2),
    ("classify", None, None, None),
)
CHART_ROUNDS = 25


def _dense(rng, terms, ok=lambda m: True):
    p = {}
    while len(p) < terms:
        d = rng.randint(1, CHART_DEGREE)
        i = rng.randint(0, d)
        j = rng.randint(0, d - i)
        m = (i, j, d - i - j)
        if ok(m) and m not in p:
            p[m] = o.scalar(_rational(rng, 9, 4), rng.choice((0, 0, rng.randint(-5, 5))))
    return p


def _chart_field(rng, center, axis):
    if center == "curve":
        transverse = [v for v in range(3) if v != axis]
        return tuple(_dense(rng, CHART_TERMS, lambda m: any(m[v] for v in transverse)) for _ in range(3))
    if center == "weight2":
        n = rng.choice((2, 3))
        lam = o.scalar(_rational(rng, 9, 4), rng.randint(-3, 3))
        f = _dense(rng, CHART_TERMS // 2)
        g = o.padd(o.pscale(o.var(0), lam), _dense(rng, CHART_TERMS // 2, lambda m: sum(m) >= 2))
        z = o.var(2)
        return (o.padd(o.var(1), o.pmul(z, f)), o.pmul(z, g), {(0, 0, n): o.ONE})
    return tuple(_dense(rng, CHART_TERMS) for _ in range(3))


def chart_batch(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for _ in range(CHART_ROUNDS):
        for command, center, axis, chart in _CHART_SLOTS:
            fld = _chart_field(rng, center, axis)
            argv = [command, o.fmt_field(fld), "--trunc", str(CHART_TRUNC)]
            if center == "weight2":
                argv += ["--weight", "2"]
            elif center is not None:
                argv += ["--center", center, "--chart", o.VARS[chart]]
                if center == "curve":
                    argv += ["--center-axis", o.VARS[axis]]
            expect = {"field": fld, "center": center, "axis": axis, "chart": chart}
            items.append(Item(tuple(argv), expect))
    return items


def check_chart(item: Item, out: dict) -> str | None:
    e = item.expect
    fld = e["field"]
    if e["center"] is None:
        want = [[o.fmt_scalar(c) for c in row] for row in o.linear_part(fld)]
        if out["linear_part"] != want:
            return "linear part differs from the generated field's"
        if out["class"] != o.classify(fld):
            return f"class {out['class']}, expected {o.classify(fld)}"
        return None
    if e["center"] == "weight2":
        exponent, comps = o.weight2_pullback(fld)
    elif e["center"] == "point":
        exponent, comps = o.chart_pullback(fld, e["chart"], [v for v in range(3) if v != e["chart"]])
    else:
        # --chart names the rescaled variable of a curve chart
        divisor = 3 - e["axis"] - e["chart"]
        exponent, comps = o.chart_pullback(fld, divisor, [e["chart"]])
    if out["divisor_exponent"] != exponent:
        return f"divisor exponent {out['divisor_exponent']}, expected {exponent}"
    if tuple(o.parse_poly(c) for c in out["components"]) != comps:
        return "transformed components differ from the plain-dict pullback"
    return None


# -- registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    generate: object
    check: object


WORKLOADS = {
    "verdict-sweep": Workload(verdict_sweep, check_verdict),
    "driver-walk": Workload(driver_walk, check_walk),
    "chart-batch": Workload(chart_batch, check_chart),
}


def check_output(workload: Workload, item: Item, code: int, text: str) -> str | None:
    """Exit code, JSON reload, then the workload's own check."""
    if code is None:
        return "raised " + text.strip().splitlines()[-1]
    if code != 0:
        return f"exit code {code}: {text.strip()[:200]}"
    try:
        out = json.loads(text)
    except ValueError as exc:
        return f"report does not load back: {exc}"
    try:
        return _echo_problem(item, out) or workload.check(item, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"report lacks an expected entry: {exc!r}"
