import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folres.blowup import point_blowup, point_chart
from folres.errors import NotGraph, PrecisionExhausted
from folres.parsing import parse_field
from folres.resolve import (
    INCONCLUSIVE,
    MAX_STEPS_EXHAUSTED,
    NOT_SEMICOMPLETE,
    NOT_SEMICOMPLETE_BY_HOLONOMY,
    PERSISTENT_NORMAL_FORM_MATCHED,
    REACHED_ELEMENTARY,
    SEMICOMPLETE_BY_HOLONOMY,
    NoNormalFormMatch,
    PersistentReport,
    decide_verdict,
    degenerate_family_parameters,
    detect_persistent_normal_form,
    holonomy_sancho_sanz,
    resolve_along,
    semicomplete_obstruction,
    timeform_arc_integral,
    zflow_uniformity_check,
)
from folres.scalars import GaussianRational
from folres.separatrix import (
    FormalCurve,
    _curve_image,
    _transport_image,
    invariance_residual,
    solve_graph_separatrix,
    straighten,
    transform_curve,
)
from folres import vfield
from folres.series import MSeries, USeries
from folres.vfield import (
    ELEMENTARY,
    REGULAR,
    PolyMap,
    classify,
    conjugate,
    factor_divisor,
    nilpotent_normal_form_full,
)

from conftest import (
    field_degenerate_family,
    field_xlambda,
    gr,
    rand_mseries,
    rand_normal_form,
    rand_scalar,
    vf,
)


class TestDetect:
    def test_x0_matches(self):
        X0 = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1})
        report = detect_persistent_normal_form(X0)
        assert (report.n, report.lam, report.k) == (3, gr(1), 0)
        assert report.tangency >= 2

    def test_lambda_zero_rejected(self):
        bad = vf({(0, 1, 0): 1}, {(0, 1, 1): 1}, {(0, 0, 2): 1})
        with pytest.raises(NoNormalFormMatch, match="lambda"):
            detect_persistent_normal_form(bad)

    def test_divisor_stripping(self):
        X = vf({(0, 1, 1): 1}, {(1, 0, 2): 1}, {(0, 0, 3): 1})
        report = detect_persistent_normal_form(X)
        assert (report.k, report.n) == (1, 2)

    def test_solves_the_factored_field_below_trunc_2n(self):
        # the normal-form representative has ledger trunc - n = 2, below its
        # own z^3; the factored field keeps it, and the match is resolve's
        X = parse_field("[y, x*z, z^3]", 5)
        report = detect_persistent_normal_form(X)
        assert (report.n, report.lam, report.k) == (3, gr(1), 0)
        assert report.separatrix_prefix.ledger == 1
        trace = resolve_along(X, None, 0)
        assert trace.outcome == PERSISTENT_NORMAL_FORM_MATCHED
        assert trace.report == report

    def test_untangent_separatrix_rejected_then_matched_after_blowups(self):
        X = field_xlambda(1)
        with pytest.raises(NoNormalFormMatch):
            detect_persistent_normal_form(X)
        curve = solve_graph_separatrix(X, 20)
        trace = resolve_along(X, curve, 4, stop_on_match=True)
        assert trace.outcome == PERSISTENT_NORMAL_FORM_MATCHED
        assert trace.report.n == 3


class TestObstruction:
    @pytest.mark.parametrize(
        "n,k,verdict",
        [(3, 0, NOT_SEMICOMPLETE), (2, 1, NOT_SEMICOMPLETE), (2, 0, INCONCLUSIVE)],
    )
    def test_decision_table(self, n, k, verdict):
        report = PersistentReport(
            n=n, lam=gr(1), k=k, separatrix_prefix=FormalCurve.z_axis(4), tangency=5
        )
        assert semicomplete_obstruction(report) == verdict
        # with no matched parts, the table decides alone
        assert decide_verdict(report) == (verdict, None)

    @pytest.mark.parametrize(
        "alpha,beta,verdict",
        [
            (0, 1, SEMICOMPLETE_BY_HOLONOMY),
            (1, 1, NOT_SEMICOMPLETE_BY_HOLONOMY),
            (Fraction(1, 2), 2, NOT_SEMICOMPLETE_BY_HOLONOMY),
        ],
    )
    def test_degenerate_family_takes_the_holonomy_verdict(self, alpha, beta, verdict):
        trace = resolve_along(field_degenerate_family(alpha, beta), None, 2, stop_on_match=True)
        identity = verdict == SEMICOMPLETE_BY_HOLONOMY
        assert semicomplete_obstruction(trace.report) == INCONCLUSIVE
        assert decide_verdict(trace.report) == (
            verdict, (Fraction(alpha), Fraction(beta), identity)
        )


class TestResolveAlong:
    def test_xlambda_four_steps_nilpotent_mult_three(self):
        X = field_xlambda(1)
        curve = solve_graph_separatrix(X, 20)
        trace = resolve_along(X, curve, 4)
        assert len(trace.steps) == 5
        assert all(s.cls.tag == "nilpotent_nonzero" for s in trace.steps)
        assert trace.mult_sequence() == (3, 3, 3, 3, 3)

    def test_each_field_is_classified_once(self, monkeypatch):
        # a step classifies its field in the record, in the blow-up's regular
        # check and in the normal-form match; classify keeps its result on
        # the field, so the work runs once per distinct field
        seen = []
        work = vfield._classify

        def counted(field):
            seen.append(field)
            return work(field)

        monkeypatch.setattr(vfield, "_classify", counted)
        X = field_xlambda(1)
        trace = resolve_along(X, solve_graph_separatrix(X, 20), 3)
        assert len(trace.steps) == 4
        assert len({id(f) for f in seen}) == len(seen) == 4

    def test_each_image_reads_its_pivot_once(self, monkeypatch):
        # the residual finds the pivot of phi', and the multiplicity of the
        # same image reads it from the residual's report
        import folres.separatrix as sx

        pivots, residuals = [], []
        pivot, residual = sx._pivot, sx._residual
        monkeypatch.setattr(sx, "_pivot", lambda vals: pivots.append(1) or pivot(vals))
        monkeypatch.setattr(
            sx, "_residual", lambda *a: residuals.append(1) or residual(*a)
        )
        X = field_xlambda(1)
        trace = resolve_along(X, None, 3)
        assert all(s.mult is not None for s in trace.steps)
        assert len(pivots) == len(residuals) == len(trace.steps)

    def test_elementary_at_step_zero(self):
        X = vf({(1, 0, 0): 1}, {(0, 1, 0): 2}, {(0, 0, 2): 1})
        trace = resolve_along(X, FormalCurve.z_axis(20), 4)
        assert trace.outcome == REACHED_ELEMENTARY
        assert len(trace.steps) == 1

    def test_strict_mult_decrease_from_order_two(self):
        X = vf({(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1})
        trace = resolve_along(X, FormalCurve.z_axis(20), 3)
        assert trace.mult_sequence()[1] < trace.mult_sequence()[0]

    def test_trace_invariants(self):
        # non-increasing multiplicities; strictly decreasing from order >= 2;
        # nilpotent classes once the multiplicity stabilizes
        cases = [
            (field_xlambda(1), None),
            (vf({(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}), "axis"),
            (vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1}), "axis"),
        ]
        for X, mode in cases:
            curve = (
                FormalCurve.z_axis(X.trunc - 1)
                if mode == "axis"
                else solve_graph_separatrix(X, 20)
            )
            trace = resolve_along(X, curve, 4)
            mults = [m for m in trace.mult_sequence() if m is not None]
            assert all(a >= b for a, b in zip(mults, mults[1:]))
            stable = [
                s.cls.tag
                for s, m in zip(trace.steps, trace.mult_sequence())
                if m == mults[-1] and s.cls.tag != "elementary"
            ]
            if len(set(mults)) == 1 and trace.steps[-1].cls.tag not in ("elementary", "regular"):
                assert set(stable) <= {"nilpotent_nonzero"}

    def test_precision_exhausted(self):
        # the error names the blow-up step, the ledger that ran out, and the
        # amount needed against the amount left
        for trunc, degree, message in [
            (6, 3, "blow-up step 3: curve ledger needs 2, has 1"),
            (5, 5, "blow-up step 4: field trunc needs 3, has 2"),
        ]:
            X = field_xlambda(1, trunc=trunc)
            curve = solve_graph_separatrix(X, degree)
            with pytest.raises(PrecisionExhausted, match=message):
                resolve_along(X, curve, 12)

    def test_a_curve_not_a_graph_over_z_raises_at_the_first_blow_up(self):
        # (0, 0, 2T) is invariant, so step 0 is recorded; the blow-up's move
        # needs phi3 = T
        X = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1}, 12)
        curve = FormalCurve(USeries.zero(11), USeries.zero(11), USeries.monomial(2, 1, 11))
        assert len(resolve_along(X, curve, 0).steps) == 1
        with pytest.raises(NotGraph, match="phi3 = T"):
            resolve_along(X, curve, 2)


class TestPersistenceUnderBlowup:
    @pytest.mark.parametrize(
        "field",
        [
            vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1}),
            field_degenerate_family(0, 1),
        ],
        ids=["mult3", "degenerate_family"],
    )
    def test_rematch_with_same_n_lambda_tangency_drop(self, field):
        report = detect_persistent_normal_form(field)
        trace = resolve_along(field, report.separatrix_prefix, 4)
        reports = [s.report for s in trace.steps]
        assert all(r is not None for r in reports)
        assert {r.n for r in reports} == {report.n}
        assert {r.lam for r in reports} == {report.lam}
        tangencies = [s.tangency for s in trace.steps]
        drops = [a - b for a, b in zip(tangencies, tangencies[1:])]
        assert drops == [1, 1, 1, 1]

    def test_manual_blowup_rematch(self):
        X = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1})
        r0 = detect_persistent_normal_form(X)
        result = point_blowup(X, point_chart("z"))
        r1 = detect_persistent_normal_form(result.vf)
        assert (r1.n, r1.lam) == (r0.n, r0.lam)


class TestHolonomy:
    def test_identity_case(self):
        h = holonomy_sancho_sanz(0, 1)
        assert h["is_identity"]
        m = h["matrix"]
        assert abs(m[0][0] - 1) < 1e-12 and abs(m[1][1] - 1) < 1e-12
        assert abs(m[0][1]) < 1e-12 and abs(m[1][0]) < 1e-12

    def test_equal_parameters_unipotent(self):
        h = holonomy_sancho_sanz(0, 0)
        assert not h["is_identity"]
        m = h["matrix"]
        assert abs(m[0][1] - 2j * cmath.pi) < 1e-12

    def test_half_integer(self):
        h = holonomy_sancho_sanz(Fraction(1, 2), 0)
        assert not h["is_identity"]
        m = h["matrix"]
        assert abs(m[0][0] + 1) < 1e-12 and abs(m[1][1] - 1) < 1e-12

    def test_grid_exact_vs_float(self):
        grid = [Fraction(k, 2) for k in range(-4, 5)]
        for a in grid:
            for b in grid:
                h = holonomy_sancho_sanz(a, b)
                expected = a.denominator == 1 and b.denominator == 1 and a != b
                assert h["is_identity"] == expected
                m = h["matrix"]
                gap = (
                    abs(m[0][0] - 1)
                    + abs(m[1][1] - 1)
                    + abs(m[0][1])
                    + abs(m[1][0])
                )
                if expected:
                    assert gap < 1e-12
                else:
                    assert gap > 1e-12


class TestTimeform:
    def test_closed_arcs_vanish(self):
        for l in range(1, 7):
            v = timeform_arc_integral(l + 2, 0.3, Fraction(1, l + 1))
            assert abs(v) < 1e-10

    def test_full_loop_exact_form(self):
        assert abs(timeform_arc_integral(2, 0.4, 1)) < 1e-10

    def test_residue(self):
        v = timeform_arc_integral(1, 0.4, 1)
        assert abs(v - 2j * cmath.pi) < 1e-10

    def test_series_rho(self):
        rho = USeries([0, 0, gr(1), gr("1/2")], 3)  # x^2 + x^3/2
        v = timeform_arc_integral(rho, 0.05, 1)
        # residue of 1/(x^2 (1 + x/2)) at 0 is -1/2
        assert abs(v - 2j * cmath.pi * (-0.5)) < 1e-8


class TestZflow:
    def test_invariant_axis_gap_zero(self):
        assert zflow_uniformity_check(0, 1, 1.0, (0.0, 0.0)) < 1e-12

    def test_equal_parameters_gap_comparable_to_unipotent_block(self):
        gap = zflow_uniformity_check(0, 0, 1.0, (0.0, 0.2))
        assert gap > 0.5 * abs(2j * cmath.pi * 0.2)

    def test_monodromy_against_bessel_connection_formula(self):
        """The transported frame around x = 0 for (alpha, beta) = (0, 1).

        Eliminating z gives s u'' = u with s = e^{-2 pi i t}, whose solution
        space is spanned by sqrt(s) I_1(2 sqrt(s)) (single-valued) and
        sqrt(s) K_1(2 sqrt(s)) (log term).  The K-direction picks up
        -i pi times the I-solution per clockwise loop, so the true return
        map is unipotent and not the identity; exp of the averaged
        coefficient matrix misses this because the coefficient family does
        not commute at an irregular singular point.
        """
        import mpmath as mp

        u1, du1 = complex(mp.besseli(1, 2)), complex(mp.besseli(0, 2))
        u2, du2 = complex(mp.besselk(1, 2)), complex(-mp.besselk(0, 2))
        # columns: (y, z)(0) of the two basis solutions; z = -u'(s) at s = 1
        V = ((u1, u2), (-du1, -du2))
        det = V[0][0] * V[1][1] - V[0][1] * V[1][0]
        Vinv = (
            (V[1][1] / det, -V[0][1] / det),
            (-V[1][0] / det, V[0][0] / det),
        )
        M_basis = ((1, -1j * cmath.pi), (0, 1))

        def matmul(A, B):
            return tuple(
                tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )

        M = matmul(matmul(V, M_basis), Vinv)
        start = (0.3 + 0j, 0.2 + 0j)
        predicted = tuple(
            M[i][0] * start[0] + M[i][1] * start[1] for i in range(2)
        )
        expected_gap = abs(predicted[0] - start[0]) + abs(predicted[1] - start[1])
        measured = zflow_uniformity_check(0, 1, 1.0, start)
        assert measured == pytest.approx(expected_gap, rel=1e-8)
        assert measured > 1.0  # decisively not the identity

    def test_bessel_eigenvector_is_fixed(self):
        import mpmath as mp

        y0 = complex(mp.besseli(1, 2))
        z0 = -complex(mp.besseli(0, 2))
        assert zflow_uniformity_check(0, 1, 1.0, (y0, z0)) < 1e-9


class TestDegenerateFamilyRecognition:
    def test_parameters_recovered(self):
        X = field_degenerate_family(Fraction(1, 2), 2)
        parts, _ = nilpotent_normal_form_full(X)
        assert degenerate_family_parameters(parts) == (Fraction(1, 2), Fraction(2))

    def test_non_family_rejected(self):
        X0 = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1})
        parts, _ = nilpotent_normal_form_full(X0)
        assert parts is not None and degenerate_family_parameters(parts) is None
        assert degenerate_family_parameters(None) is None

    @pytest.mark.parametrize(
        "src",
        [
            "[y - x*z, x*z, z^2 + z^3]",  # the unit is 1 + z
            "[y, 2*x*z, z^2]",  # lambda is 2
            "[y + z^2, x*z, z^2]",  # f has a z term
            "[y - i*x*z, x*z, z^2]",  # beta is i
        ],
    )
    def test_n2_k0_parts_outside_the_family(self, src):
        X = parse_field(src, 24)
        parts, _ = nilpotent_normal_form_full(X)
        assert (parts.n, parts.k) == (2, 0)
        assert degenerate_family_parameters(parts) is None
        assert decide_verdict(detect_persistent_normal_form(X)) == (INCONCLUSIVE, None)

    def test_report_keeps_the_matched_parts(self):
        # the holonomy branch reads the final step's match, not a second one
        X = field_degenerate_family(Fraction(1, 2), 2)
        trace = resolve_along(X, None, 2, stop_on_match=True)
        parts = trace.report.parts
        assert parts is not None and degenerate_family_parameters(parts) == (
            Fraction(1, 2), Fraction(2)
        )
        again, _ = nilpotent_normal_form_full(trace.final_field)
        assert (parts.k, parts.n, parts.lam) == (again.k, again.n, again.lam)
        assert parts.f.eq_trusted(again.f) and parts.g.eq_trusted(again.g)
        assert "parts" not in repr(trace.report)


class TestNumericGuards:
    def test_pole_on_path(self):
        from folres.errors import PoleOnPath

        rho = USeries([gr("-1/2"), gr(1)], 1)  # x - 1/2 vanishes on |x| = 1/2
        with pytest.raises(PoleOnPath):
            timeform_arc_integral(rho, 0.5, 1)


class TestManualRematchTangency:
    def test_tangency_drops_by_one_across_one_blowup(self):
        X = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1})
        r0 = detect_persistent_normal_form(X)
        result = point_blowup(X, point_chart("z"))
        r1 = detect_persistent_normal_form(result.vf)
        assert (r1.n, r1.lam) == (r0.n, r0.lam)
        assert r1.tangency == r0.tangency - 1


class TestRandomNormalFormSoak:
    def test_solver_and_multiplicity_on_random_normal_forms(self):
        from folres.separatrix import invariance_residual, multiplicity

        rng = random.Random(314)
        for _ in range(30):
            X, n, lam = rand_normal_form(rng, 16)
            curve = solve_graph_separatrix(X, 12)
            assert invariance_residual(X, curve).full
            assert curve.tangency_bound() >= 2
            assert multiplicity(X, curve) == n

    def test_driver_keeps_n_lambda_and_mult_on_random_normal_forms(self):
        rng = random.Random(315)
        for _ in range(10):
            X, n, lam = rand_normal_form(rng, 16)
            report = detect_persistent_normal_form(X)
            assert (report.n, report.lam, report.k) == (n, lam, 0)
            trace = resolve_along(X, report.separatrix_prefix, 3)
            for step in trace.steps:
                assert step.cls.tag == "nilpotent_nonzero"
                assert step.mult == n
                assert step.report is not None
                assert (step.report.n, step.report.lam) == (n, lam)

    def test_driver_reports_a_carried_prefix_shorter_than_the_target(self):
        # the degree-12 prefix is the solved one for n >= 3, but an n = 2
        # field's target is 13: the driver certifies the prefix it carries,
        # reports the shortfall and never solves a longer one in its place
        rng = random.Random(315)
        for _ in range(10):
            X, n, lam = rand_normal_form(rng, 16)
            trace = resolve_along(X, detect_persistent_normal_form(X, 12).separatrix_prefix, 3)
            assert [(s.cls.tag, s.mult) for s in trace.steps] == [("nilpotent_nonzero", n)] * 4
            if n >= 3:
                assert [s.report and (s.report.n, s.report.lam) for s in trace.steps] == [(n, lam)] * 4
                continue
            assert trace.steps[0].no_match_reason == (
                "carried curve is known through degree 12, the match needs 13"
            )
            assert all(s.report is None for s in trace.steps)

    def test_carried_curve_gives_the_solved_report(self, monkeypatch):
        import folres.resolve as rs

        rng = random.Random(315)
        cases = []
        for _ in range(10):
            X, _, _ = rand_normal_form(rng, 16)
            curve = detect_persistent_normal_form(X).separatrix_prefix
            trace = resolve_along(X, curve, 3)
            cases += [(X, curve), (trace.final_field, trace.final_curve)]
        X = field_xlambda(1)
        trace = resolve_along(X, solve_graph_separatrix(X, 20), 4)
        assert trace.steps[-1].report is not None
        cases.append((trace.final_field, trace.final_curve))
        solved = [_report_key(detect_persistent_normal_form(f)) for f, _ in cases]

        def refuse(*args):
            raise AssertionError("the carried curve was not certified")

        monkeypatch.setattr(rs, "solve_graph_separatrix", refuse)
        carried = [_report_key(detect_persistent_normal_form(f, curve=c)) for f, c in cases]
        assert carried == solved


def _report_key(report):
    c = report.separatrix_prefix
    return (
        report.n, report.lam, report.k, report.tangency,
        [(s.coeffs, s.trunc) for s in c.components],
    )


def _shift_path_case():
    """[y - z, y - z + x*z + z^2, y - z + z^2] at trunc 12 and its separatrix
    x = 0, y = z: the first blow-up moves the curve off the origin."""
    field = vf(
        {(0, 1, 0): 1, (0, 0, 1): -1},
        {(0, 1, 0): 1, (0, 0, 1): -1, (1, 0, 1): 1, (0, 0, 2): 1},
        {(0, 1, 0): 1, (0, 0, 1): -1, (0, 0, 2): 1},
        12,
    )
    return field, FormalCurve.graph(USeries.zero(11), USeries.identity(11))


class _Solved(Exception):
    """Raised in place of a graph-separatrix solve."""


def _refuse_solve(*args):
    raise _Solved


class TestOneCurveImagePerStep:
    def test_each_step_composes_the_field_along_the_curve_once(self, monkeypatch):
        import folres.separatrix as sx

        original = sx.compose_curve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sx, "compose_curve", counted)
        rng = random.Random(316)
        for _ in range(6):
            X, _, _ = rand_normal_form(rng, 16)
            curve = detect_persistent_normal_form(X).separatrix_prefix
            calls.clear()
            trace = resolve_along(X, curve, 3)
            assert all(s.report is not None for s in trace.steps)
            # one image per run: the later steps carry it through each blow-up
            assert len(trace.steps) == 4
            assert len(calls) == 3

    def test_an_image_shorter_than_the_target_is_not_certified(self, monkeypatch):
        # a transported image can be one degree short of the recomposed one;
        # detect then reports the shortfall instead of cutting the image above
        # its ledger, and solves nothing
        X = field_xlambda(1)
        trace = resolve_along(X, solve_graph_separatrix(X, 20), 4)
        field, curve = trace.final_field, trace.final_curve
        images, derivs, residual = _curve_image(factor_divisor(field, "z")[1], curve)
        monkeypatch.setattr("folres.resolve.solve_graph_separatrix", _refuse_solve)
        report = detect_persistent_normal_form(
            field, curve=curve, _image=(images, derivs, residual)
        )
        target = report.separatrix_prefix.ledger
        assert min(im.trunc for im in images) == target
        short = [im.retrunc(target - 1) for im in images]
        with pytest.raises(NoNormalFormMatch) as exc:
            detect_persistent_normal_form(
                field, curve=curve, _image=(short, derivs, residual)
            )
        assert str(exc.value) == (
            f"carried curve is known through degree {target - 1}, the match needs {target}"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(0, 1),
        degree=st.integers(1, 14),
        data=st.data(),
    )
    def test_carried_curve_is_certified_exactly_by_the_residual_rule(
        self, seed, k, degree, data
    ):
        # a soak field times z^k and a unit, so the normal-form representative
        # differs from the factor-divisor one; the solved separatrix is cut to
        # a ledger near the target and perturbed at one degree below or above it
        rng = random.Random(seed)
        X, _, _ = rand_normal_form(rng, 16)
        unit = MSeries.constant(1, 16) + rand_mseries(rng, 16, val=1, maxdeg=2, terms=3)
        factor = unit * MSeries.monomial(1, (0, 0, k), 16)
        field = X.map(lambda c: c * factor)
        parts, _ = nilpotent_normal_form_full(field)
        rep = parts.representative
        target = min(degree, max(rep.trunc - 1, 1))

        solved = solve_graph_separatrix(X, 14)
        ledger = data.draw(st.integers(max(target - 2, 2), 14), label="ledger")
        m = data.draw(st.integers(1, ledger), label="perturbed degree")
        delta = data.draw(
            st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(any), label="delta"
        )
        comps = [list(c.coeffs[: ledger + 1]) for c in (solved.phi1, solved.phi2)]
        comps[data.draw(st.integers(0, 1), label="component")][m] += GaussianRational(*delta)
        curve = FormalCurve.graph(USeries(comps[0], ledger), USeries(comps[1], ledger))

        # the reference rule reads the normal-form representative, and checks
        # the ledger, then the residual, then the tangency
        expected = reason = None
        if curve.ledger < target:
            reason = f"carried curve is known through degree {curve.ledger}, the match needs {target}"
        else:
            cut = FormalCurve.graph(curve.phi1.retrunc(target), curve.phi2.retrunc(target))
            residual = invariance_residual(rep, cut)
            if not residual.full:
                reason = f"carried curve residual vanishes only through degree {residual.order}"
            elif cut.tangency_bound() < 2:
                reason = "solved separatrix is not tangent to the z-axis"
            else:
                expected = cut

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("folres.resolve.solve_graph_separatrix", _refuse_solve)
            try:
                prefix = detect_persistent_normal_form(field, degree, curve).separatrix_prefix
                found = None
            except NoNormalFormMatch as exc:
                prefix, found = None, str(exc)
        assert (prefix is None) == (expected is None)
        assert found == reason
        if prefix is not None:
            assert [(c.coeffs, c.trunc) for c in prefix.components] == [
                (c.coeffs, c.trunc) for c in expected.components
            ]

    def test_the_driver_never_solves_and_keeps_each_step_report(self):
        # with the solver refused, every step of the driver certifies the
        # curve it carries, and its report (or reason) is the one a solve of
        # that step's field gives: soak normal forms times z^k, the X_lambda
        # walk through its tangency-1 step and the shear, and a walk whose
        # second step translates the origin
        rng = random.Random(315)
        cases = []
        for i in range(8):
            X, _, _ = rand_normal_form(rng, 16)
            field = X.map(lambda c: c * MSeries.monomial(1, (0, 0, i % 2), 16))
            cases.append((field, solve_graph_separatrix(X, 15), 3))
        X = field_xlambda(1)
        cases.append((X, solve_graph_separatrix(X, 20), 5))
        cases.append((*_shift_path_case(), 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("folres.resolve.solve_graph_separatrix", _refuse_solve)
            runs = [
                (resolve_along(f, c, n), [resolve_along(f, c, j).final_field for j in range(n + 1)])
                for f, c, n in cases
            ]
        reasons = set()
        for trace, fields in runs:
            assert len(trace.steps) == len(fields)
            for step, f in zip(trace.steps, fields):
                try:
                    solved, reason = _report_key(detect_persistent_normal_form(f)), None
                except NoNormalFormMatch as exc:
                    solved, reason = None, str(exc)
                assert (step.report and _report_key(step.report), step.no_match_reason) == (solved, reason)
                reasons.add((step.tangency, reason))
        assert (1, "solved separatrix is not tangent to the z-axis") in reasons
        assert sum(s.report is not None for t, _ in runs for s in t.steps) == 37


def _blown_up_steps(field, curve, steps):
    """(field, curve, image) of every driver step after the first: the field
    where the step classifies it, after the blow-up, translation and tangent
    shear, and the curve and image the step carried there."""
    import folres.resolve

    fields, carried = [], []

    def recorded(f):
        fields.append(f)
        return classify(f)

    def transported(image, moved, new_curve, s, trunc):
        carried.append((new_curve, _transport_image(image, moved, new_curve, s, trunc)))
        return carried[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(folres.resolve, "classify", recorded)
        mp.setattr(folres.resolve, "_transport_image", transported)
        trace = resolve_along(field, curve, steps)
    assert len(fields) == len(trace.steps) == len(carried) + 1 >= 2
    return [(f, c, image) for f, (c, image) in zip(fields[1:], carried)]


class TestNoDivisorAfterABlowUp:
    """The driver factors z^k out of its input only: each blow-up divides its
    field by the divisor, and the translation and tangent shear fix z.  So
    each later step's field is its own factor-divisor representative, and the
    image the step carries is that field's composed along its curve."""

    @staticmethod
    def _check(field, curve, steps):
        for f, c, image in _blown_up_steps(field, curve, steps):
            assert factor_divisor(f, "z")[0] == 0
            assert _image_key(image) == _image_key(_curve_image(f, c))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(0, 2))
    def test_soak_fields_times_a_divisor(self, seed, k):
        rng = random.Random(seed)
        X, _, _ = rand_normal_form(rng, 16)
        field = X.map(lambda c: c * MSeries.monomial(1, (0, 0, k), 16))
        self._check(field, solve_graph_separatrix(X, 15), 3)

    def test_xlambda_walk_and_the_shift_path(self):
        X = field_xlambda(1)
        self._check(X, solve_graph_separatrix(X, 20), 5)
        self._check(*_shift_path_case(), 3)


def _image_key(image):
    images, derivs, residual = image
    return [(c.coeffs, c.trunc) for c in images + derivs], residual


def _transport_and_compare(field, curve, steps, shear):
    """Run `steps` driver steps by hand, transport the image through each,
    and compare it with the composition of the step's factor-divisor
    representative along its curve, the transported residual with the
    recomposed one.  Returns how many steps translated the origin (the shift
    path)."""
    chart = point_chart("z")
    k, rep = factor_divisor(field, "z")
    image = _curve_image(rep, curve)
    shifts = 0
    for _ in range(steps):
        if classify(field).tag in (REGULAR, ELEMENTARY) or field.trunc < 3 or curve.ledger < 2:
            break
        result = point_blowup(field, chart)
        moved = transform_curve(curve, chart)
        shifts += any(moved.constants())
        field, curve = straighten(result.vf, moved, int(shear))
        k_old = k
        k, rep = factor_divisor(field, "z")
        image = _transport_image(image, moved, curve, result.divisor_exponent - k_old + k, rep.trunc)
        assert _image_key(image) == _image_key(_curve_image(rep, curve))
    return shifts


class TestTransportedImage:
    """The image carried through a blow-up, translation and tangent shear
    equals the recomposed one, coefficients and ledgers alike."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(0, 1), shear=st.booleans())
    def test_transport_equals_recomposition_on_soak_fields(self, seed, k, shear):
        rng = random.Random(seed)
        X, _, _ = rand_normal_form(rng, 16)
        curve = solve_graph_separatrix(X, 15)
        field = X.map(lambda c: c * MSeries.monomial(1, (0, 0, k), 16))
        _transport_and_compare(field, curve, 3, shear)

    @pytest.mark.parametrize("shear", [False, True])
    def test_transport_equals_recomposition_on_the_shift_path(self, shear):
        # X_lambda's separatrix reaches tangency 1, and the next blow-up moves
        # the curve off the origin; so does the curve x = 0, y = z at once
        X = field_xlambda(1)
        steps = [(X, solve_graph_separatrix(X, 20), 5)]
        steps.append((*_shift_path_case(), 3))
        for field, curve, n in steps:
            assert _transport_and_compare(field, curve, n, shear) >= 1


class TestCoordinateIndependence:
    """A unit multiple of the field, or its conjugate by a graph shear
    (x + c z^2, y + d z^2, z), gives the same resolution: outcome, (n,
    lambda, k) and multiplicity sequence."""

    @staticmethod
    def _resolution(field):
        trace = resolve_along(field, None, 3)
        r = trace.report
        return trace.outcome, r and (r.n, r.lam, r.k), trace.mult_sequence()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_unit_multiple(self, seed):
        rng = random.Random(seed)
        X, _, _ = rand_normal_form(rng, 24)
        c0 = rand_scalar(rng) or gr(1)
        unit = MSeries.constant(c0, 24) + rand_mseries(rng, 24, val=1, maxdeg=2, terms=3)
        assert self._resolution(X.map(lambda c: c * unit)) == self._resolution(X)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_graph_shear_conjugate(self, seed):
        rng = random.Random(seed)
        X, _, _ = rand_normal_form(rng, 24)
        x, y, z = (MSeries.variable(v, 24) for v in "xyz")
        z2 = MSeries.monomial(1, (0, 0, 2), 24)
        shear = PolyMap((x + z2.scale(rand_scalar(rng)), y + z2.scale(rand_scalar(rng)), z))
        assert self._resolution(conjugate(X, shear)) == self._resolution(X)
