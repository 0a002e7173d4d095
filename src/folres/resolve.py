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
criterion is available.
"""

from __future__ import annotations

import cmath
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


class NoNormalFormMatch(FolresError):
    """Field does not certify as a persistent nilpotent normal form."""


@dataclass(frozen=True)
class PersistentReport:
    n: int
    lam: GaussianRational
    k: int
    separatrix_prefix: FormalCurve
    tangency: int


def detect_persistent_normal_form(
    field: VectorField,
    degree: int = 24,
    curve: FormalCurve | None = None,
    *,
    _image=None,
    _factored=None,
) -> PersistentReport:
    """Match the persistent normal form and certify its separatrix.

    With no `curve`, the graph separatrix of the normal-form representative
    is solved to target = min(degree, trunc - 1).  A carried `curve` (the
    one the resolution driver transports) is certified, never solved: it
    must be a graph over z whose image is known through the target and
    whose invariance residual vanishes through degree target - 1, and it is
    cut to the target.  The residual is read from the image (X o curve,
    curve', residual) of the factor-divisor representative, which the driver
    passes as `_image` with the factoring factor_divisor(field, "z") as
    `_factored`; otherwise the function factors the field and composes the
    image itself.  The normal-form representative differs from the
    factor-divisor one by a unit, which changes neither the residual's
    order nor its ledger.  Either prefix must have tangency at least 2.

    Raises NoNormalFormMatch naming the first violated condition.
    """
    factored = _factored or factor_divisor(field, "z")
    parts, reason = nilpotent_normal_form_full(field, _factored=factored)
    if parts is None:
        raise NoNormalFormMatch(reason or "not in normal form")
    rep = parts.representative
    target = min(degree, max(rep.trunc - 1, 1))
    if curve is None:
        try:
            prefix = solve_graph_separatrix(rep, target)
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
        n=parts.n, lam=parts.lam, k=parts.k, separatrix_prefix=prefix, tangency=tan
    )


def semicomplete_obstruction(report: PersistentReport) -> str:
    """Decision table on (n, k): the multiplicity-three and zero-linear-part
    obstructions rule semicompleteness out; n = 2, k = 0 stays inconclusive."""
    if report.n >= 3 or report.k >= 1:
        return NOT_SEMICOMPLETE
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# Resolution driver
# ---------------------------------------------------------------------------


def degenerate_family_parameters(field: VectorField):
    """Recognize (y - b xz) d/dx + (xz - a yz) d/dy + z^2 d/dz exactly.

    Returns (alpha, beta) as Fractions when the foliation representative is
    this family with real rational parameters, else None.  This is the one
    shape for which an exact holonomy criterion settles the inconclusive
    n = 2, k = 0 case.
    """
    parts, _ = nilpotent_normal_form_full(field)
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
    phi: FormalCurve,
    max_steps: int,
    stop_on_match: bool = False,
    *,
    _factored=None,
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

    The field is composed along the curve at most once per run: the first
    step composes the factor-divisor representative rep = field / z^k along
    `phi` (`_factored` is factor_divisor(field, "z") when the caller has it),
    or reads that image from `phi` when `phi` was solved for this very rep
    by `solve_graph_separatrix`, and raises FolresError when the invariance
    residual of that image does not vanish through its ledger.  Every later
    step carries the image, residual included, through the blow-up and the
    move with `separatrix._transport_image`, so it is never composed again.
    The blow-up has factored the divisor out of its field, and the move
    fixes z, so no later step factors z^k.  Each step reads the
    multiplicity from its image and hands image, factoring and curve to
    `detect_persistent_normal_form`, which certifies the carried curve from
    the residual or names the check it fails; the driver never solves the
    separatrix.  A step whose transport fails composes its image once, and
    the steps after it carry that one.  A curve off the origin raises at the
    first composition.
    """
    steps = []
    current = field
    curve = phi
    chart = point_chart("z")
    factored = _factored or factor_divisor(field, "z")
    image = _curve_image(factored[1], curve)
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


def timeform_arc_integral(rho, x0: complex, turns, tol: float = 1e-10) -> complex:
    """Integral of dx / rho(x) along the arc x0 * e^{2 pi i * turns * t}.

    `rho` is either an integer m (the monomial x^m) or a USeries evaluated
    as its trusted polynomial.  Adaptive quadrature in extended precision to
    the requested absolute tolerance.
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
        if err > mp.mpf(tol) / 10:
            raise IntegrationFailure(
                f"quadrature error estimate {float(err):.3g} above tolerance {tol}"
            )
        return complex(value)


# ---------------------------------------------------------------------------
# Loop transport of the degenerate family's linear system
# ---------------------------------------------------------------------------


def zflow_uniformity_check(alpha, beta, x0: complex, y0z0, rtol: float = 1e-12) -> float:
    """Endpoint-minus-start gap of (y, z) transported around the x-loop.

    Integrates dy/dx = z/x - alpha y/x, dz/dx = y/x^2 - beta z/x along
    x0 e^{2 pi i t}, t in [0, 1], with a high-order adaptive integrator, and
    returns |y(1)-y0| + |z(1)-z0|.
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
        rtol=rtol,
        atol=1e-14,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationFailure(sol.message)
    y1, z1 = sol.y[:, -1]
    return abs(y1 - y0) + abs(z1 - z0)
