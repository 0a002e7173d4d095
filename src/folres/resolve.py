"""Resolution driver, persistent-nilpotent detection, semicompleteness
obstruction verdicts, and the holonomy / time-form validators.

The driver follows a formal separatrix through one-point blow-ups: transform
the field in the chart selected by the curve, translate the selected divisor
point to the origin, classify, and record the multiplicity of the factored
representative along the transformed curve.  Multiplicities never increase,
and they drop exactly by the divisor exponent's contribution whenever the
source has order at least two.

Detection certifies a persistent nilpotent point through the normal-form
shape z^k h [(y + zf) d/dx + zg d/dy + z^n d/dz] with dg/dx(0) != 0 plus a
graph separatrix tangent to the z-axis; the obstruction rules are then a
finite decision table: n >= 3 or k >= 1 rules semicompleteness out, n = 2
and k = 0 is deferred to the holonomy test of the one family where an exact
criterion is available.  `decide_verdict` applies both and is the one owner
of the verdict.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FolresError,
    IntegrationFailure,
    PoleOnPath,
    PrecisionExhausted,
)
from .scalars import GaussianRational
from .separatrix import (
    FormalCurve,
    _curve_image,
    _image_of,
    _multiplicity,
    _transport_image,
    solve_graph_separatrix,
    straighten,
    transform_curve,
)
from .blowup import point_blowup, point_chart
from .series import MSeries, USeries
from .vfield import (
    ELEMENTARY,
    REGULAR,
    NormalFormParts,
    SingularityClass,
    VectorField,
    classify,
    factor_divisor,
    nilpotent_normal_form_full,
)

REACHED_ELEMENTARY = "reached_elementary"
REACHED_REGULAR = "reached_regular"
PERSISTENT_NORMAL_FORM_MATCHED = "persistent_normal_form_matched"
MAX_STEPS_EXHAUSTED = "max_steps_exhausted"

NOT_SEMICOMPLETE = "not_semicomplete"
INCONCLUSIVE = "inconclusive"
SEMICOMPLETE_BY_HOLONOMY = "semicomplete_by_holonomy"
NOT_SEMICOMPLETE_BY_HOLONOMY = "not_semicomplete_by_holonomy"

ARC_TOL = 1e-10  # absolute tolerance of timeform_arc_integral's quadrature
LOOP_RTOL = 1e-12  # relative tolerance of zflow_uniformity_check's integrator


class NoNormalFormMatch(FolresError):
    """Field does not certify as a persistent nilpotent normal form."""


@dataclass(frozen=True)
class PersistentReport:
    """A match and its certified prefix; `parts`, out of equality and repr."""
    n: int
    lam: GaussianRational
    k: int
    separatrix_prefix: FormalCurve
    tangency: int
    parts: NormalFormParts | None = dataclasses.field(default=None, compare=False, repr=False)


def detect_persistent_normal_form(
    field: VectorField,
    degree: int = 24,
    curve: FormalCurve | None = None,
    *,
    _image=None,
    _factored=None,
) -> PersistentReport:
    """Match the persistent normal form and certify its separatrix.

    The target is min(degree, trunc - 1), trunc the normal-form
    representative's ledger: the field's minus k minus n.  With no `curve`,
    the graph separatrix of factor_divisor(field, "z")[1], not of the
    normal-form representative, is solved to the target.  A carried `curve`
    (the one the resolution driver transports) is certified, never solved:
    it must be a graph over z whose image is known through the target and
    whose invariance residual vanishes through degree target - 1, and it is
    cut to the target.  The residual is read from the image (X o curve,
    curve', residual) of the factor-divisor representative, which the driver
    passes as `_image` with the factoring factor_divisor(field, "z") as
    `_factored`; otherwise the function factors the field and composes the
    image itself.  The normal-form representative differs from the
    factor-divisor one by a unit, which changes neither the residual's order
    nor its ledger.  Either prefix must have tangency at least 2.

    Raises NoNormalFormMatch naming the first violated condition.
    """
    factored = _factored or factor_divisor(field, "z")
    parts, reason = nilpotent_normal_form_full(field, _factored=factored)
    if parts is None:
        raise NoNormalFormMatch(reason or "not in normal form")
    target = min(degree, max(parts.representative.trunc - 1, 1))
    if curve is None:
        try:
            prefix = solve_graph_separatrix(factored[1], target)
        except FolresError as exc:
            raise NoNormalFormMatch(f"no graph separatrix: {exc}") from exc
    else:
        if not curve.graph_over_z:
            raise NoNormalFormMatch("carried curve is not a graph over z")
        images, _, residual = _image or _curve_image(factored[1], curve)
        known = min(im.trunc for im in images)
        if known < target:
            raise NoNormalFormMatch(
                f"carried curve is known through degree {known}, the match needs {target}"
            )
        if residual.order < target - 1:
            raise NoNormalFormMatch(
                f"carried curve residual vanishes only through degree {residual.order}"
            )
        prefix = FormalCurve.graph(curve.phi1.retrunc(target), curve.phi2.retrunc(target))
    tan = prefix.tangency_bound()
    if tan < 2:
        raise NoNormalFormMatch("solved separatrix is not tangent to the z-axis")
    return PersistentReport(
        n=parts.n, lam=parts.lam, k=parts.k, separatrix_prefix=prefix, tangency=tan, parts=parts
    )


def semicomplete_obstruction(report: PersistentReport) -> str:
    """Decision table on (n, k): the multiplicity-three and zero-linear-part
    obstructions rule semicompleteness out; n = 2, k = 0 stays inconclusive."""
    if report.n >= 3 or report.k >= 1:
        return NOT_SEMICOMPLETE
    return INCONCLUSIVE


def decide_verdict(report: PersistentReport):
    """(verdict, holonomy) of a match, the one place the verdict is decided.

    The verdict is the (n, k) table's, with holonomy None; an inconclusive
    match in the degenerate family takes the verdict of
    `holonomy_sancho_sanz` instead, with holonomy (alpha, beta, is_identity).
    """
    verdict = semicomplete_obstruction(report)
    params = degenerate_family_parameters(report.parts) if verdict == INCONCLUSIVE else None
    if params is None:
        return verdict, None
    is_identity = holonomy_sancho_sanz(*params)["is_identity"]
    verdict = SEMICOMPLETE_BY_HOLONOMY if is_identity else NOT_SEMICOMPLETE_BY_HOLONOMY
    return verdict, (*params, is_identity)


# ---------------------------------------------------------------------------
# Resolution driver
# ---------------------------------------------------------------------------


def degenerate_family_parameters(parts: NormalFormParts | None):
    """Recognize (y - b xz) d/dx + (xz - a yz) d/dy + z^2 d/dz exactly.

    Reads the parts a PersistentReport keeps and returns (alpha, beta) as
    Fractions when the foliation representative is this family with real
    rational parameters, else None.  This is the one shape for which an
    exact holonomy criterion settles the inconclusive n = 2, k = 0 case.
    """
    if parts is None or parts.n != 2 or parts.k != 0:
        return None
    if not parts.unit.eq_trusted(MSeries.constant(1, parts.unit.trunc)):
        return None
    if parts.lam != GaussianRational(1):
        return None
    f_monos = set(parts.f.terms)
    g_monos = set(parts.g.terms)
    if not f_monos <= {(1, 0, 0)} or not g_monos <= {(1, 0, 0), (0, 1, 0)}:
        return None
    beta = -parts.f.coeff((1, 0, 0))
    alpha = -parts.g.coeff((0, 1, 0))
    if beta.im != 0 or alpha.im != 0:
        return None
    return (alpha.re, beta.re)


@dataclass(frozen=True)
class ResolutionStep:
    chart_kind: str | None
    cls: SingularityClass
    mult: int | None
    divisor_exponent: int
    tangency: int
    report: PersistentReport | None
    no_match_reason: str | None


@dataclass(frozen=True)
class ResolutionTrace:
    steps: tuple
    outcome: str
    report: PersistentReport | None = None
    final_field: VectorField | None = None
    final_curve: FormalCurve | None = None

    def mult_sequence(self):
        return tuple(s.mult for s in self.steps)


def resolve_along(
    field: VectorField,
    phi: FormalCurve | None,
    max_steps: int,
    stop_on_match: bool = False,
) -> ResolutionTrace:
    """Follow the separatrix through one-point blow-ups.

    Records one step for the initial state and one per blow-up.  Stops on a
    regular or elementary point; otherwise runs max_steps blow-ups (or until
    a normal-form match, when stop_on_match is set) and reports whether the
    final point matches the persistent normal form.

    Each blow-up is followed by one coordinate move, `straighten` of the
    blown-up field along the moved curve: (x, y, z) -> (x + c1, y + c2, z)
    takes the curve's point (c1, c2, 0) to the origin, and once a step has
    matched it is (x + c1 + a1 z, y + c2 + b1 z, z), which also takes out
    the tangent (a1, b1): a z-chart blow-up lowers the curve's contact with
    the z-axis by one, and the shear restores normal-form coordinates
    without changing n, lambda or k.  The curve must have phi3 = T: any
    other raises NotGraph at the first blow-up.

    The field is factored once, into z^k and rep = field / z^k, and
    composed along the curve at most once per run.  With `phi` None the
    driver solves rep's graph separatrix to max(rep.trunc - 1, 1), as
    `detect_persistent_normal_form` solves when given no curve, and reads
    the solver's rows of rep along it as its first image, so it composes
    nothing; a given `phi` is composed with rep.  Either way FolresError is
    raised when the invariance residual of that image does not vanish
    through its ledger.  A solver error names rep's degrees and ledger, and
    with k >= 1 it says that the field was divided by z^k.  Every later step
    carries the image, residual included, through the blow-up and the move
    with `separatrix._transport_image`, so it is never composed again.  The
    blow-up has factored the divisor out of its field, and the move fixes
    z, so no later step factors z^k.  Each step reads the multiplicity from
    its image and hands image, factoring and curve to
    `detect_persistent_normal_form`, which certifies the carried curve from
    the residual or names the check it fails; no step solves the separatrix
    again.  A step whose transport fails composes its image once, and the
    steps after it carry that one.  A curve off the origin raises at the
    first composition.
    """
    steps = []
    current = field
    chart = point_chart("z")
    factored = factor_divisor(field, "z")
    k, rep = factored
    if phi is None:
        try:
            curve = solve_graph_separatrix(rep, max(rep.trunc - 1, 1))
        except FolresError as exc:
            if k:
                exc.args = (f"{exc} of the field divided by {'z' if k == 1 else f'z^{k}'}",)
            raise
        image = _image_of(curve, curve._image)
    else:
        curve = phi
        image = _curve_image(rep, curve)
    if not image[2].full:
        raise FolresError(
            f"separatrix residual vanishes only through degree {image[2].order}"
        )

    def record(chart_kind, divisor_exponent):
        cls = classify(current)
        mult = None
        if cls.tag != REGULAR:
            try:
                mult = _multiplicity(*image)
            except FolresError:
                pass
        report = None
        reason = None
        try:
            report = detect_persistent_normal_form(
                current, curve=curve, _image=image, _factored=factored
            )
        except NoNormalFormMatch as exc:
            reason = str(exc)
        steps.append(
            ResolutionStep(
                chart_kind=chart_kind,
                cls=cls,
                mult=mult,
                divisor_exponent=divisor_exponent,
                tangency=curve.tangency_bound(),
                report=report,
                no_match_reason=reason,
            )
        )
        return cls, report

    cls, report = record(None, 0)
    matched = report is not None
    for remaining in range(max_steps, -1, -1):
        if cls.tag in (REGULAR, ELEMENTARY):
            outcome = REACHED_REGULAR if cls.tag == REGULAR else REACHED_ELEMENTARY
            break
        outcome = MAX_STEPS_EXHAUSTED if report is None else PERSISTENT_NORMAL_FORM_MATCHED
        if not remaining or (report is not None and stop_on_match):
            break
        if current.trunc < 3 or curve.ledger < 2:
            short = (
                f"field trunc needs 3, has {current.trunc}"
                if current.trunc < 3
                else f"curve ledger needs 2, has {curve.ledger}"
            )
            raise PrecisionExhausted(f"blow-up step {len(steps)}: {short}")
        result = point_blowup(current, chart)
        moved = transform_curve(curve, chart)
        current, curve = straighten(result.vf, moved, int(matched))
        s = result.divisor_exponent - factored[0]
        factored = (0, current)
        try:
            image = _transport_image(image, moved, curve, s, current.trunc)
        except FolresError:
            image = _curve_image(current, curve)
        cls, report = record(chart.kind, result.divisor_exponent)
        matched = matched or report is not None
    final_report = report if outcome == PERSISTENT_NORMAL_FORM_MATCHED else None
    return ResolutionTrace(
        steps=tuple(steps),
        outcome=outcome,
        report=final_report,
        final_field=current,
        final_curve=curve,
    )


# ---------------------------------------------------------------------------
# Holonomy of the degenerate family
# ---------------------------------------------------------------------------


def _is_integer(q: Fraction) -> bool:
    return q.denominator == 1


def holonomy_sancho_sanz(alpha, beta) -> dict:
    """Averaged-exponential holonomy criterion of the degenerate family.

    This is not the monodromy of the loop transport that
    `zflow_uniformity_check` integrates; see "Known failing check" in the
    README.  ``is_identity`` is decided exactly: both parameters integral
    and distinct.  The floating matrix is exp of [[-2 pi i a, 2 pi i], [0,
    -2 pi i b]], the averaged coefficient matrix: the diagonalizable branch
    when float(a) != float(b), else the unipotent branch of a = b, whose
    off-diagonal entry 2 pi i e^{-2 pi i a} is the limit of the other's.
    """
    a = Fraction(alpha)
    b = Fraction(beta)
    is_identity = _is_integer(a) and _is_integer(b) and a != b
    ea = cmath.exp(-2j * cmath.pi * float(a))
    eb = cmath.exp(-2j * cmath.pi * float(b))
    if float(a) == float(b):
        matrix = ((ea, 2j * cmath.pi * ea), (0j, ea))
    else:
        matrix = ((ea, (eb - ea) / (float(a) - float(b))), (0j, eb))
    return {"matrix": matrix, "is_identity": is_identity}


# ---------------------------------------------------------------------------
# Time-form arc integrals
# ---------------------------------------------------------------------------


def timeform_arc_integral(rho, x0: complex, turns) -> complex:
    """Integral of dx / rho(x) along the arc x0 * e^{2 pi i * turns * t}.

    `rho` is either an integer m (the monomial x^m) or a USeries evaluated
    as its trusted polynomial.  Adaptive quadrature in extended precision to
    the absolute tolerance ARC_TOL.
    """
    import mpmath as mp

    turns = Fraction(turns)
    if isinstance(rho, int):
        exponent, coeffs = rho, ()
    elif isinstance(rho, USeries):
        # the zero coefficients above rho's degree add nothing to Horner
        degree = max((k for k, c in enumerate(rho.coeffs) if c), default=0)
        exponent, coeffs = None, rho.coeffs[degree::-1]
    else:
        raise TypeError("rho must be an integer exponent or a USeries")

    with mp.workdps(40):
        x0m = mp.mpc(x0)
        w = 2j * mp.pi * mp.mpf(turns.numerator) / mp.mpf(turns.denominator)

        def point(t):
            return x0m * mp.exp(w * t)

        # rho's coefficients, highest degree first, converted once per call
        cs = [mp.mpc(float(c.re), float(c.im)) for c in coeffs]

        def denom(x):
            if exponent is not None:
                return x**exponent
            acc = mp.mpc(0)
            for c in cs:
                acc = acc * x + c
            return acc

        # pole scan on a coarse grid before integrating
        scale = abs(denom(x0m)) or mp.mpf(1)
        for k in range(64):
            if abs(denom(point(mp.mpf(k) / 64))) < scale * mp.mpf("1e-30"):
                raise PoleOnPath("rho vanishes on the integration arc")

        def integrand(t):
            x = point(t)
            return w * x / denom(x)

        value, err = mp.quad(integrand, mp.linspace(0, 1, 9), error=True)
        if err > mp.mpf(ARC_TOL) / 10:
            raise IntegrationFailure(
                f"quadrature error estimate {float(err):.3g} above tolerance {ARC_TOL}"
            )
        return complex(value)


# ---------------------------------------------------------------------------
# Loop transport of the degenerate family's linear system
# ---------------------------------------------------------------------------


def zflow_uniformity_check(alpha, beta, x0: complex, y0z0) -> float:
    """Endpoint-minus-start gap of (y, z) transported around the x-loop.

    Integrates dy/dx = z/x - alpha y/x, dz/dx = y/x^2 - beta z/x along
    x0 e^{2 pi i t}, t in [0, 1], with a high-order adaptive integrator at
    relative tolerance LOOP_RTOL, and returns |y(1)-y0| + |z(1)-z0|.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    if x0 == 0:
        raise ValueError("x0 must be nonzero")
    a = float(alpha)
    b = float(beta)
    y0, z0 = complex(y0z0[0]), complex(y0z0[1])
    twopii = 2j * cmath.pi

    def rhs(t, v):
        y, z = v
        phase = cmath.exp(-twopii * t)
        return [twopii * (z - a * y), twopii * (y * phase / x0 - b * z)]

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        np.array([y0, z0], dtype=complex),
        method="DOP853",
        rtol=LOOP_RTOL,
        atol=1e-14,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationFailure(sol.message)
    y1, z1 = sol.y[:, -1]
    return abs(y1 - y0) + abs(z1 - z0)
