"""The three blow-up transforms: one-point, curve-centered, and weight 2.

Chart coordinates are renamed back to x, y, z after every transform, so the
chart map records the substitution as exponent triples: PointChartZ sends
(x, y, z) to (x z, y z, z) with divisor z, the other point charts are the
symmetric permutations, a curve chart rescales one transverse variable, and
the weight-2 chart sends (x, y, z) to (x, y z, z^2) with divisor z.

Each transform computes the chain-rule pullback exactly, factors out the
largest power of the divisor coordinate, and reports that exponent together
with the dicriticalness of the divisor (not invariant iff the divisor
component of the factored field is not divisible by the divisor coordinate).
All three share one weighted pullback, which reads the divisor weight from
the chart and the variables it rescales from ``ChartMap.rescaled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CenterNotInvariantOrNotSingular,
    NotDivisible,
    NotInNormalForm,
    RegularPoint,
)
from .series import VARS, MSeries, _mono_str, var_index
from .vfield import (
    REGULAR,
    VectorField,
    classify,
    factor_divisor,
    nilpotent_normal_form_full,
)

POINT_CHART_X = "point_chart_x"
POINT_CHART_Y = "point_chart_y"
POINT_CHART_Z = "point_chart_z"
CURVE_CHART_FIRST = "curve_chart_first"
CURVE_CHART_SECOND = "curve_chart_second"
WEIGHT2 = "weight2"


@dataclass(frozen=True)
class ChartMap:
    """kind, the substitution exponent triples, and the divisor coordinate."""

    kind: str
    substitution: tuple
    divisor_var: str
    center_axis: str | None = None

    @property
    def rescaled(self) -> tuple:
        """Indices of the variables the chart multiplies by the divisor."""
        di = var_index(self.divisor_var)
        return tuple(
            vi for vi in range(3) if vi != di and self.substitution[vi][di] > 0
        )

    def describe(self) -> str:
        return ", ".join(f"{v} -> {_mono_str(m)}" for v, m in zip(VARS, self.substitution))


def _chart(kind, di, weights, center_axis=None) -> ChartMap:
    """Chart sending each variable v to v * d^w_v and the divisor d to d^w_d,
    with d the variable of index `di` and w the `weights` triple."""
    substitution = tuple(
        tuple(weights[vi] if i == di else int(i == vi) for i in range(3))
        for vi in range(3)
    )
    return ChartMap(kind, substitution, VARS[di], center_axis)


def point_chart(divisor) -> ChartMap:
    di = var_index(divisor)
    return _chart((POINT_CHART_X, POINT_CHART_Y, POINT_CHART_Z)[di], di, (1, 1, 1))


def curve_chart(center_axis, divisor) -> ChartMap:
    """Chart of the blow-up centered at the coordinate axis of `center_axis`.

    The two transverse variables are the other coordinates; `divisor` is the
    one kept as the exceptional coordinate, and the remaining transverse
    variable gets rescaled by it.
    """
    ai = var_index(center_axis)
    di = var_index(divisor)
    if di == ai:
        raise ValueError("divisor must be transverse to the center axis")
    kind = CURVE_CHART_FIRST if di == 2 else CURVE_CHART_SECOND
    weights = tuple(int(vi != ai) for vi in range(3))
    return _chart(kind, di, weights, VARS[ai])


def weight2_chart() -> ChartMap:
    return _chart(WEIGHT2, 2, (0, 1, 2))


@dataclass(frozen=True)
class BlowupResult:
    """Factored transform, divisor exponent, and dicriticalness.

    The raw pullback equals divisor^divisor_exponent times `vf`; `raw` keeps
    it for the invariance checks of the multiplicity calculus.
    """

    chart: ChartMap
    vf: VectorField
    divisor_exponent: int
    dicritical: bool
    raw: VectorField


def _finish(chart: ChartMap, raw: VectorField) -> BlowupResult:
    e, rep = factor_divisor(raw, chart.divisor_var)
    di = var_index(chart.divisor_var)
    divisor_comp = rep.components[di]
    dicritical = (
        not divisor_comp.is_zero()
        and divisor_comp.variable_multiplicity(chart.divisor_var) == 0
    )
    return BlowupResult(chart, rep, e, dicritical, raw)


def _pullback(field: VectorField, chart: ChartMap) -> BlowupResult:
    """Chain-rule pullback in a chart sending the divisor d to d^w and each v
    in ``chart.rescaled`` to v * d: every component is composed with the
    chart, the divisor one becomes F_d / (w d^(w-1)), and each rescaled one
    (F_v - v F'_d) / d with F'_d that divisor component, built in one walk
    of F_v and F'_d in the term order of F_v - v F'_d, which NotDivisible's
    monomial follows."""
    di = var_index(chart.divisor_var)
    w = chart.substitution[di][di]
    out = [c.substitute_monomials(chart.substitution) for c in field.components]
    if w > 1:
        out[di] = out[di].divide_by_variable(di, w - 1).scale(Fraction(1, w))
    fd = out[di]
    for vi in chart.rescaled:
        fv, t = out[vi], min(out[vi].trunc, fd.trunc)
        # the exponent offsets of F_v / d and of v F'_d / d
        ov = [-(i == di) for i in range(3)]
        od = [o + (i == vi) for i, o in enumerate(ov)]
        diff = {}
        for (i, j, k), c in fv.terms.items():
            if i + j + k <= t:
                diff[(i + ov[0], j + ov[1], k + ov[2])] = c
        for (i, j, k), c in fd.terms.items():
            if i + j + k < t:
                m = (i + od[0], j + od[1], k + od[2])
                cur = diff.get(m)
                diff[m] = -c if cur is None else cur - c
        terms = {}
        for m, c in diff.items():
            if c:
                if m[di] < 0:
                    raise NotDivisible(VARS[di], _mono_str(tuple(e - o for e, o in zip(m, ov))))
                terms[m] = c
        if t < 1:
            raise NotDivisible(VARS[di], "ledger exhausted")
        out[vi] = MSeries._clean(terms, t - 1)
    return _finish(chart, VectorField(*out))


def point_blowup(field: VectorField, chart: ChartMap) -> BlowupResult:
    """One-point blow-up at the origin, computed in the given affine chart."""
    if chart.kind not in (POINT_CHART_X, POINT_CHART_Y, POINT_CHART_Z):
        raise ValueError("point_blowup needs a point chart")
    if classify(field).tag == REGULAR:
        raise RegularPoint("refusing to blow up a regular point")
    return _pullback(field, chart)


def curve_blowup(field: VectorField, chart: ChartMap) -> BlowupResult:
    """Blow-up centered at the coordinate axis recorded in the chart."""
    if chart.center_axis is None:
        raise ValueError("curve_blowup needs a curve chart")
    ai = var_index(chart.center_axis)
    transverse = [i for i in range(3) if i != ai]
    for comp in field.components:
        for mono, _ in comp.terms.items():
            if all(mono[i] == 0 for i in transverse):
                raise CenterNotInvariantOrNotSingular(
                    f"component does not vanish on the {chart.center_axis}-axis"
                )
    return _pullback(field, chart)


def weight2_blowup(field: VectorField) -> BlowupResult:
    """Two-to-one substitution (x, y, z) -> (x, y z, z^2) centered at {y=z=0}.

    Requires the ledgered nilpotent shape z^k h [(y+zf) d/dx + zg d/dy
    + z^n d/dz]; the raw transform vanishes on the divisor with order 2k+1
    and its factored representative has eigenvalues {0, +sqrt(lam), -sqrt(lam)}.
    """
    parts, reason = nilpotent_normal_form_full(field)
    if parts is None:
        raise NotInNormalForm(reason or "not in nilpotent normal form")
    try:
        return _pullback(field, weight2_chart())
    except NotDivisible as exc:
        raise NotInNormalForm(f"weight-2 pullback is not holomorphic: {exc}") from exc
