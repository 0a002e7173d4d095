import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from folres.blowup import curve_blowup, curve_chart, point_blowup, point_chart, weight2_chart
from folres.errors import (
    NotASeparatrix,
    NotGraphParameterizable,
    Obstructed,
    ZeroAlongCurve,
)
from folres.parsing import parse_field
from folres.scalars import ONE, ZERO
from folres.series import MSeries, USeries, compose_curve, convolve
import folres.separatrix as sx
from folres.separatrix import (
    FormalCurve,
    _Composer,
    _curve_image,
    _deriv_conv,
    _product_coeff,
    invariance_residual,
    multiplicity,
    solve_graph_separatrix,
    straighten,
    transform_curve,
)
from folres.vfield import (
    PolyMap,
    VectorField,
    conjugate,
    nilpotent_normal_form_full,
)

from conftest import (
    field_degenerate_family,
    field_xlambda,
    field_z_example,
    gr,
    rand_mseries,
    rand_normal_form,
    rand_scalar,
    useries,
    vf,
)
from oracles import degenerate_family_series, xlambda_series


class TestInvarianceResidual:
    def test_axis_invariant_normal_form(self):
        # (y + zf) d/dx + zg d/dy + z^2 d/dz with f, g vanishing on the axis
        rng = random.Random(1)
        f = MSeries.variable("x", 20) * rand_mseries(rng, 20, val=0, maxdeg=2, terms=3)
        g = MSeries.variable("y", 20) * rand_mseries(rng, 20, val=0, maxdeg=2, terms=3)
        z = MSeries.variable("z", 20)
        X = VectorField(
            MSeries.variable("y", 20) + z * f, z * g, MSeries.monomial(1, (0, 0, 2), 20)
        )
        rep = invariance_residual(X, FormalCurve.z_axis(19))
        assert rep.full

    def test_x_axis_of_z_example(self):
        curve = FormalCurve(
            USeries.identity(19), USeries.zero(19), USeries.zero(19)
        )
        rep = invariance_residual(field_z_example(20), curve)
        assert rep.full

    def test_diagonal_not_invariant(self):
        X = vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 2): 1}, 10)
        diag = FormalCurve(
            USeries.identity(9), USeries.identity(9), USeries.identity(9)
        )
        rep = invariance_residual(X, diag)
        assert not rep.full
        assert rep.order == 0


class TestMultiplicity:
    def test_axis_against_normal_form(self):
        for n in (2, 3, 5):
            X = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, n): 1}, 12)
            assert multiplicity(X, FormalCurve.z_axis(11)) == n

    def test_xlambda_is_three(self):
        X = field_xlambda(1)
        curve = solve_graph_separatrix(X, 20)
        assert multiplicity(X, curve) == 3

    def test_degenerate_family_is_two(self):
        for (a, b) in ((0, 1), (0, 0), (Fraction(1, 2), 2)):
            X = field_degenerate_family(a, b)
            curve = solve_graph_separatrix(X, 20)
            assert multiplicity(X, curve) == 2

    def test_zero_along_curve(self):
        X = vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {}, 10)
        with pytest.raises(ZeroAlongCurve):
            multiplicity(X, FormalCurve.z_axis(9))

    def test_cross_check_rejects_fake_invariance(self):
        # the x-axis satisfies phi1'(G o phi) - phi2'(F o phi) = 0 and
        # phi2'(H o phi) - phi3'(G o phi) = 0 trivially (phi2' = phi3' = 0,
        # G o phi = 0) without being invariant; the minors through the pivot
        # phi1' see H o phi = T^2, and so does the cross-check
        X = vf({(4, 0, 0): 1, (0, 0, 1): 1}, {}, {(2, 0, 0): 1}, 10)
        curve = FormalCurve(USeries.identity(9), USeries.zero(9), USeries.zero(9))
        assert not invariance_residual(X, curve).full
        with pytest.raises(NotASeparatrix):
            multiplicity(X, curve)


class TestSolveGraphSeparatrix:
    def test_xlambda_coefficients_against_recurrence(self):
        lam = Fraction(1)
        a_expect, b_expect = xlambda_series(lam, 18)
        X = field_xlambda(lam, 24)
        curve = solve_graph_separatrix(X, 18)
        for k in range(19):
            assert curve.phi1.coeffs[k] == gr(a_expect[k]), f"a_{k}"
            assert curve.phi2.coeffs[k] == gr(b_expect[k]), f"b_{k}"

    def test_xlambda_to_degree_160(self):
        # the recurrence holds exactly through a deep solve
        a_expect, b_expect = xlambda_series(Fraction(1), 160)
        curve = solve_graph_separatrix(field_xlambda(1, 161), 160)
        assert curve.ledger == 160
        assert list(curve.phi1.coeffs) == [gr(c) for c in a_expect]
        assert list(curve.phi2.coeffs) == [gr(c) for c in b_expect]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.integers(1, 11))
    def test_lower_degree_solve_is_a_prefix(self, seed, d1, step):
        # the composer reopens one degree at a time: a stale entry would
        # change the deeper solve or break its invariance
        X, _, _ = rand_normal_form(random.Random(seed), 16)
        d2 = min(d1 + step, 12)
        short = solve_graph_separatrix(X, d1)
        long = solve_graph_separatrix(X, d2)
        for curve in (short, long):
            assert invariance_residual(X, curve).full
        n = short.ledger
        assert short.phi1.coeffs == long.phi1.coeffs[: n + 1]
        assert short.phi2.coeffs == long.phi2.coeffs[: n + 1]

    def test_xlambda_scaling_in_lambda(self):
        lam = Fraction(-3, 2)
        a_expect, b_expect = xlambda_series(lam, 12)
        curve = solve_graph_separatrix(field_xlambda(lam, 24), 12)
        for k in range(13):
            assert curve.phi1.coeffs[k] == gr(a_expect[k])
            assert curve.phi2.coeffs[k] == gr(b_expect[k])

    def test_lambda_zero_gives_axis(self):
        curve = solve_graph_separatrix(field_xlambda(0, 24), 18)
        assert curve.phi1.is_zero() and curve.phi2.is_zero()

    def test_linear_saddle_unique_zero(self):
        X = vf({(1, 0, 0): 1}, {(0, 1, 0): -1}, {(0, 0, 2): 1}, 12)
        curve = solve_graph_separatrix(X, 6)
        assert curve.phi1.is_zero() and curve.phi2.is_zero()
        assert invariance_residual(X, curve).full

    def test_degenerate_family_series(self):
        # nonzero graph solution: y_m = (m-1+a)(m-1+b) y_{m-1} with y_1 = l,
        # and the companion component z_m = (m+a) y_m; in the adapted
        # coordinates phi1 carries the z-series and phi2 the y-series
        a, b, l = Fraction(1, 2), Fraction(-2), Fraction(1)
        X = field_degenerate_family(a, b, l)
        curve = solve_graph_separatrix(X, 16)
        y_expect, z_expect = degenerate_family_series(a, b, l, 16)
        for k in range(17):
            assert curve.phi1.coeffs[k] == gr(z_expect[k])
            assert curve.phi2.coeffs[k] == gr(y_expect[k])
        assert multiplicity(X, curve) == 2

    def test_degenerate_family_negative_integer_truncates(self):
        # a negative integer parameter kills the product: convergent solution
        a, b, l = Fraction(-3), Fraction(1), Fraction(1)
        X = field_degenerate_family(a, b, l)
        curve = solve_graph_separatrix(X, 16)
        y_expect, z_expect = degenerate_family_series(a, b, l, 16)
        assert all(y_expect[k] == 0 for k in range(5, 17))
        for k in range(17):
            assert curve.phi2.coeffs[k] == gr(y_expect[k])

    def test_solver_output_is_invariant(self):
        rng = random.Random(14)
        for trial in range(10):
            lam = rng.choice([1, 2, -1, Fraction(1, 2)])
            X = field_xlambda(lam, 20)
            curve = solve_graph_separatrix(X, 14)
            assert invariance_residual(X, curve).full

    @pytest.mark.parametrize(
        "h, p, q",
        [((1, 0), (0, 1), (1, 0)), ((0, 1), (1, 0), (0, 1)), ((2, 1), (1, 1), (-2, 1))],
    )
    def test_h_partial_columns(self, h, p, q):
        # the z-axis of (-x z + y z, x z - 2 y z, z^2 + h1 x z + h2 y z) moved
        # to (p(z), q(z), z) by conjugation.  F and G have no linear x or y
        # term, so degree d is pinned by residual degree d + 1, where column
        # (r, u) carries x_r1 * h_u from d_u H; it cancels against the p', q'
        # part of d_u S_r only when the partial matches the unknown.  With
        # h1 p1 + h2 q1 = 0 the degree-1 linearisation is exact at (p1, q1)
        trunc, degree = 10, 6
        P = MSeries({(0, 0, 1): p[0], (0, 0, 2): p[1]}, trunc)
        Q = MSeries({(0, 0, 1): q[0], (0, 0, 2): q[1]}, trunc)
        Y = vf(
            {(1, 0, 1): -1, (0, 1, 1): 1},
            {(1, 0, 1): 1, (0, 1, 1): -2},
            {(0, 0, 2): 1, (1, 0, 1): h[0], (0, 1, 1): h[1]},
            trunc,
        )
        x, y, z = (MSeries.variable(v, trunc) for v in "xyz")
        X = conjugate(Y, PolyMap((x - P, y - Q, z)))
        curve = solve_graph_separatrix(X, degree)
        assert curve.ledger == degree
        zeros = [ZERO] * (degree - 2)
        assert list(curve.phi1.coeffs) == [ZERO, gr(p[0]), gr(p[1])] + zeros
        assert list(curve.phi2.coeffs) == [ZERO, gr(q[0]), gr(q[1])] + zeros

    def test_not_graph_parameterizable(self):
        # axis component vanishing identically on the z-axis
        X = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(1, 0, 0): 1}, 10)
        with pytest.raises(NotGraphParameterizable):
            solve_graph_separatrix(X, 5)

    def test_dicritical_field_pins_no_degree(self):
        # every degree-1 column of the radial field vanishes, so the ledger
        # ends before the first pair is pinned; a ledger-0 curve would fail
        # later, in compose_curve
        X = parse_field("[x, y, z]", 12)
        with pytest.raises(NotGraphParameterizable, match="ledger 12"):
            solve_graph_separatrix(X, 11)


_scalars = st.one_of(
    st.just(ZERO), st.builds(gr, st.integers(-3, 3), st.integers(-2, 2))
)


class TestSparseSupports:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_scalars, max_size=12),
        st.lists(_scalars, min_size=12, max_size=12),
        st.integers(-1, 11),
    )
    def test_product_coeff_equals_the_dense_sum(self, u, v, t):
        nz = [i for i, c in enumerate(u) if c]
        dense = ZERO
        for s in range(min(t + 1, len(u))):
            dense = dense + u[s] * v[t - s]
        read = _ReadLog(v)
        assert _product_coeff(u, nz, read, t) == dense
        # v is read only behind the nonzero entries of u
        assert read.indices == [t - s for s in nz if s <= t]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_composer_supports_follow_reopen(self, seed):
        # the solver's protocol: write a[d], b[d], append d to the support of
        # a nonzero entry, reopen at d; reopening at an earlier point only
        # forgets entries.  Every row of the table stays a prefix of the
        # dense a^i b^j, its support the nonzero indices of its row, and every
        # coefficient equals the dense composition.  The series group several
        # z^k under one x^i y^j with i >= 1, j >= 2, whose chain runs through
        # the row of a^i that their x^i z^k term reads, and carry a
        # coefficient of exactly 1.
        rng = random.Random(seed)
        cap = 10
        a, b = [ZERO] * (cap + 2), [ZERO] * (cap + 2)
        nz_a, nz_b = [], []
        comp = _Composer(a, nz_a, b, nz_b, cap)
        i, j = rng.randint(1, 2), rng.randint(2, 3)
        series = [_grouped_series(rng, cap, i, j) for _ in range(2)]
        d = 1
        for _ in range(40):
            op = rng.random()
            if op < 0.3 and d <= cap:
                for row, nz in ((a, nz_a), (b, nz_b)):
                    row[d] = rand_scalar(rng) if rng.random() < 0.6 else ZERO
                    if row[d]:
                        nz.append(d)
                comp.reopen(d)
                d += 1
            elif op < 0.45:
                comp.reopen(rng.randint(0, d))
            else:
                tag = rng.randrange(2)
                m = rng.randint(0, cap)
                curve = (
                    USeries(a[: cap + 1], cap),
                    USeries(b[: cap + 1], cap),
                    USeries.identity(cap),
                )
                expect = compose_curve(series[tag], curve).coeffs[m]
                assert comp.coeff(series[tag], m, tag) == expect
            for e, rows in enumerate(comp.rows):
                for f, (row, nz) in enumerate(rows):
                    assert nz == [n for n, c in enumerate(row) if c]
                    product = MSeries.monomial(ONE, (e, f, 0), cap)
                    assert row[: cap + 1] == _dense_composition(product, a, b, cap)[: len(row)]
        assert comp.rows[i][j][0], "no x^i y^j row was filled"


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_composed_rows_and_deriv_conv_follow_reopen(self, seed):
        # the composed rows S o phi fill in order and are cut by reopen like
        # the power rows, reopening at a random earlier point included; each
        # (row, nz) pair and each coefficient of a' (S o phi) equals a dense
        # reference built with convolve alone.  The last series is one
        # monomial in z, as H o phi is on X_lambda.
        rng = random.Random(seed)
        cap = 10
        a, b = [ZERO] * (cap + 2), [ZERO] * (cap + 2)
        da = [ZERO] * (cap + 1)
        nz_a, nz_b, nz_da = [], [], []
        comp = _Composer(a, nz_a, b, nz_b, cap)
        series = [rand_mseries(rng, cap, maxdeg=4, terms=6) for _ in range(2)]
        series.append(MSeries.monomial(rand_scalar(rng) or ONE, (0, 0, rng.randint(0, 3)), cap))
        d = 1
        for _ in range(40):
            op = rng.random()
            if op < 0.3 and d <= cap:
                for row, nz in ((a, nz_a), (b, nz_b)):
                    row[d] = rand_scalar(rng) if rng.random() < 0.6 else ZERO
                    if row[d]:
                        nz.append(d)
                da[d - 1] = a[d] * d
                if da[d - 1]:
                    nz_da.append(d - 1)
                comp.reopen(d)
                d += 1
            elif op < 0.45:
                comp.reopen(rng.randint(0, d))
            else:
                tag = rng.randrange(len(series))
                q = rng.randint(-1, cap)
                dense = _dense_composition(series[tag], a, b, cap)
                expect = convolve(da, dense, q)[q] if q >= 0 else ZERO
                assert _deriv_conv(da, nz_da, comp, series[tag], q, tag) == expect
            for tag, (row, nz, _, _) in comp.memo.items():
                assert row == _dense_composition(series[tag], a, b, cap)[: len(row)]
                assert nz == [i for i, c in enumerate(row) if c]


class _ReadLog(list):
    """A coefficient list that records the indices read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.indices = []

    def __getitem__(self, m):
        self.indices.append(m)
        return super().__getitem__(m)


def _grouped_series(rng, cap: int, i: int, j: int) -> MSeries:
    """A random series with a z^k-only part, several z^k under x^i y^j, a
    term x^i z^k and a term x^e y^f z^k (e + f >= 1) with coefficient 1."""
    terms = dict(rand_mseries(rng, cap, maxdeg=4, terms=6).terms)
    for k in rng.sample(range(4), 3):
        terms[(i, j, k)] = rand_scalar(rng) or ONE
    terms[(i, 0, rng.randint(0, 3))] = rand_scalar(rng) or ONE
    terms[(0, 0, rng.randint(0, 3))] = rand_scalar(rng) or ONE
    terms[(rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 2))] = ONE
    return MSeries(terms, cap)


def _dense_composition(s: MSeries, a, b, t: int) -> list:
    """Coefficients 0..t of s(a(z), b(z), z), powers built with convolve."""
    out = [ZERO] * (t + 1)
    for (i, j, k), c in s.terms.items():
        p = [ONE] + [ZERO] * t
        for base, e in ((a, i), (b, j)):
            for _ in range(e):
                p = convolve(p, base, t)
        for n in range(t + 1 - k):
            out[n + k] = out[n + k] + c * p[n]
    return out


# (alpha, beta, lam) of degenerate-family fields whose graph solve is not
# obstructed: the z-axis (lam = 0), a nonzero series, and one that truncates
_FAMILY_PARAMETERS = [
    (0, 1, 0), (0, 0, 0), (Fraction(1, 2), 2, 0),
    (Fraction(1, 2), -2, 1), (-3, 1, 1), (2, Fraction(1, 3), -1),
]


def _solved_field(rng, kind: str, trunc: int) -> VectorField:
    if kind == "normal form":
        return rand_normal_form(rng, trunc)[0]
    if kind == "xlambda":
        return field_xlambda(rng.choice([1, 2, -1, Fraction(1, 2), Fraction(-3, 2)]), trunc)
    return field_degenerate_family(*rng.choice(_FAMILY_PARAMETERS), trunc=trunc)


def _count_compositions(monkeypatch) -> list:
    calls = []
    original = sx.compose_curve

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sx, "compose_curve", counted)
    return calls


class TestCarriedImage:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal form", "xlambda", "degenerate family"]),
        st.integers(8, 16),
        st.integers(1, 17),
    )
    def test_carried_images_equal_compose_curve(self, seed, kind, trunc, degree):
        X = _solved_field(random.Random(seed), kind, trunc)
        curve = solve_graph_separatrix(X, degree)
        field, images = curve._image
        assert field is X
        for image, component in zip(images, X.components):
            composed = compose_curve(component, curve.components)
            assert image.trunc == composed.trunc
            assert image.coeffs == composed.coeffs
        # the residual read from the carried images is the recomposed one
        assert _curve_image(X, curve)[2] == invariance_residual(VectorField(*X.components), curve)

    def test_an_equal_but_distinct_field_is_composed(self, monkeypatch):
        X = field_xlambda(1, 20)
        curve = solve_graph_separatrix(X, 19)
        calls = _count_compositions(monkeypatch)
        carried = _curve_image(X, curve)
        assert calls == []
        Y = VectorField(*X.components)
        assert Y.eq_trusted(X) and Y is not X
        composed = _curve_image(Y, curve)
        assert len(calls) == 3
        assert [im.coeffs for im in carried[0]] == [im.coeffs for im in composed[0]]
        assert carried[2] == composed[2]
        # the carried image takes no part in a curve's equality or repr
        plain = dataclasses.replace(curve, _image=None)
        assert curve == plain and hash(curve) == hash(plain) and repr(curve) == repr(plain)

    @pytest.mark.parametrize(
        "X, degree",
        [(field_degenerate_family(0, 1, trunc=24), 20), (field_xlambda(1, 24), 20)],
        ids=["degenerate-family-z-axis", "xlambda"],
    )
    def test_only_a_nonzero_pair_reopens(self, X, degree, monkeypatch):
        # every memoized entry was computed with a zero pair, which a zero
        # pair leaves true; X_lambda has x on degrees 2 mod 3 and y on
        # degrees 1 mod 3, so its multiples of 3 reopen nothing
        reopened = []
        original = _Composer.reopen

        def recorded(self, d):
            reopened.append(d)
            return original(self, d)

        monkeypatch.setattr(_Composer, "reopen", recorded)
        curve = solve_graph_separatrix(X, degree)
        assert curve.ledger == degree
        nonzero = [d for d in range(1, degree + 1) if curve.phi1.coeffs[d] or curve.phi2.coeffs[d]]
        assert reopened == nonzero


class TestTransformCurve:
    def test_monomial_division(self):
        curve = FormalCurve(
            USeries.monomial(1, 2, 10),
            USeries.monomial(1, 3, 10),
            USeries.identity(10),
        )
        out = transform_curve(curve, point_chart("z"))
        assert out.phi1.eq_trusted(USeries.monomial(1, 1, out.ledger))
        assert out.phi2.eq_trusted(USeries.monomial(1, 2, out.ledger))
        assert out.graph_over_z

    def test_contact_drops_by_one(self):
        rng = random.Random(9)
        for _ in range(10):
            k0 = rng.randint(2, 6)
            a = USeries.monomial(rand_scalar(rng, 3, 0) + gr(1), k0, 14)
            b = USeries.monomial(rand_scalar(rng, 2, 1), k0 + 1, 14)
            curve = FormalCurve.graph(a, b)
            assert curve.tangency_bound() == k0
            out = transform_curve(curve, point_chart("z"))
            assert out.tangency_bound() == k0 - 1

    def test_axis_lifts_under_weight2(self):
        out = transform_curve(FormalCurve.z_axis(10), weight2_chart())
        assert out.phi1.is_zero() and out.phi2.is_zero()
        assert out.parameter_power == 2

    def test_graph_lift_under_weight2(self):
        # (a(z), b(z), z) lifts to (a(w^2), b(w^2)/w, w)
        curve = FormalCurve.graph(
            USeries.monomial(1, 2, 8), USeries.monomial(3, 1, 8)
        )
        out = transform_curve(curve, weight2_chart())
        assert out.phi1.valuation() == 4
        assert out.phi2.valuation() == 1
        assert out.phi2.coeffs[1] == gr(3)

    @pytest.mark.parametrize(
        "blowup, chart",
        [(curve_blowup, curve_chart("x", "z")), (point_blowup, point_chart("z"))],
        ids=["curve_chart_x_z", "point_chart_z"],
    )
    def test_strict_transform_is_invariant(self, blowup, chart):
        # the separatrix of [y - z, x*z, z^3], moved into the chart and
        # translated to the origin, is a separatrix of the transformed field
        # through the ledger
        X = parse_field("[y - z, x*z, z^3]", 24)
        psi = transform_curve(solve_graph_separatrix(X, 23), chart)
        assert any(psi.constants())
        moved, curve = straighten(blowup(X, chart).vf, psi, 0)
        report = invariance_residual(moved, curve)
        assert (report.order, report.ledger) == (21, 21)


class TestStraighten:
    def test_zero_curve_is_identity(self):
        X = field_xlambda(1)
        out, _ = straighten(X, FormalCurve.z_axis(20), 8)
        assert out is X

    @staticmethod
    def _translate_then_conjugate(field, curve, m):
        # the translation to the curve's point, then the general conjugation
        # by the graph shear (x + a_1..m(z), y + b_1..m(z), z)
        a, b = curve.phi1, curve.phi2
        out = field.shift_origin((a.coeffs[0], b.coeffs[0], 0))
        if m:
            x, y, z = (MSeries.variable(v, field.trunc) for v in "xyz")
            za, zb = (
                MSeries({(0, 0, k): s.coeffs[k] for k in range(1, m + 1)}, field.trunc)
                for s in (a, b)
            )
            out = conjugate(out, PolyMap((x + za, y + zb, z)))
        return out

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(0, 3))
    # a2 = b2 = 0: the shear is linear and the reference keeps its ledger
    @example(seed=81894, m=2)
    def test_equals_translation_then_conjugation(self, seed, m):
        rng = random.Random(seed)
        X, _, _ = rand_normal_form(rng, 12)
        # a graph curve through a point off the origin: a(0) != 0
        ledger = rng.randint(3, 10)
        a, b = (
            USeries([rand_scalar(rng) for _ in range(ledger + 1)], ledger) for _ in range(2)
        )
        a = USeries((rand_scalar(rng) or gr(1),) + a.coeffs[1:], ledger)
        curve = FormalCurve.graph(a, b)
        out, new = straighten(X, curve, m)
        ref = self._translate_then_conjugate(X, curve, m)
        assert out.trunc == X.trunc
        # the reference conjugation costs one degree only for a nonlinear shear
        nonlinear = any(s.coeffs[k] for s in (a, b) for k in range(2, m + 1))
        assert ref.trunc == (X.trunc - 1 if nonlinear else X.trunc)
        assert out.eq_trusted(ref)
        assert [(c.coeffs, c.trunc) for c in new.components] == [
            ((ZERO,) * (m + 1) + s.coeffs[m + 1 :], ledger) for s in (a, b)
        ] + [(USeries.identity(ledger).coeffs, ledger)]

    def test_xlambda_contact_exceeds_m(self):
        X = field_xlambda(1)
        curve = solve_graph_separatrix(X, 20)
        moved, new_curve = straighten(X, curve, 8)
        assert new_curve.tangency_bound() > 8
        assert invariance_residual(moved, new_curve).full
        resolved = solve_graph_separatrix(moved, 14)
        assert resolved.tangency_bound() > 8

    def test_dg_dx_preserved(self):
        X = field_xlambda(1)
        curve = solve_graph_separatrix(X, 20)
        moved, _ = straighten(X, curve, 8)
        parts, _ = nilpotent_normal_form_full(moved)
        assert parts is not None
        assert parts.lam == gr(1)
        assert parts.n == 3


class TestInvarianceUnderBlowupAndConjugation:
    def _tangent_shift(self, rng, trunc):
        q = MSeries(
            {(0, 0, k): rand_scalar(rng) for k in range(2, 4)}, trunc
        )
        p = MSeries(
            {(0, j, k): rand_scalar(rng) for j, k in ((2, 0), (1, 1), (0, 3))}, trunc
        )
        x, y, z = (MSeries.variable(v, trunc) for v in "xyz")
        H = PolyMap((x + p, y + q, z))
        p_inv = p.substitute((x, y - q, z))
        V = PolyMap((x - p_inv, y - q, z))
        return H, V

    def _axis_field(self, rng, trunc, min_order):
        x, y = MSeries.variable("x", trunc), MSeries.variable("y", trunc)
        fx = x * rand_mseries(rng, trunc, val=min_order - 1, maxdeg=3, terms=3) + y * rand_mseries(
            rng, trunc, val=min_order - 1, maxdeg=3, terms=3
        )
        fy = x * rand_mseries(rng, trunc, val=min_order - 1, maxdeg=3, terms=3) + y * rand_mseries(
            rng, trunc, val=min_order - 1, maxdeg=3, terms=3
        )
        m = rng.choice([min_order, min_order + 1])
        fz = MSeries.monomial(1, (0, 0, m), trunc) + (x + y) * rand_mseries(
            rng, trunc, val=min_order - 1, maxdeg=3, terms=2
        )
        return VectorField(fx, fy, fz)

    def _separatrix_of_conjugate(self, V, trunc):
        return FormalCurve.graph(
            USeries([ZERO] + [V.comps[0].coeff((0, 0, k)) for k in range(1, trunc)], trunc - 1),
            USeries([ZERO] + [V.comps[1].coeff((0, 0, k)) for k in range(1, trunc)], trunc - 1),
        )

    def test_conjugation_invariance(self):
        rng = random.Random(42)
        for _ in range(25):
            X = self._axis_field(rng, 16, 1)
            H, V = self._tangent_shift(rng, 16)
            Xc = conjugate(X, H)
            psi = self._separatrix_of_conjugate(V, 16)
            assert multiplicity(X, FormalCurve.z_axis(15)) == multiplicity(Xc, psi)

    def test_blowup_invariance_of_raw_multiplicity(self):
        rng = random.Random(43)
        for _ in range(25):
            X = self._axis_field(rng, 16, 1)
            H, V = self._tangent_shift(rng, 16)
            Xc = conjugate(X, H)
            psi = self._separatrix_of_conjugate(V, 16)
            m0 = multiplicity(Xc, psi)
            r = point_blowup(Xc, point_chart("z"))
            moved = transform_curve(psi, point_chart("z"))
            assert multiplicity(r.raw, moved) == m0

    def test_strict_decrease_for_order_two(self):
        rng = random.Random(44)
        for _ in range(25):
            X = self._axis_field(rng, 16, 2)
            H, V = self._tangent_shift(rng, 16)
            Xc = conjugate(X, H)
            psi = self._separatrix_of_conjugate(V, 16)
            m0 = multiplicity(Xc, psi)
            r = point_blowup(Xc, point_chart("z"))
            moved = transform_curve(psi, point_chart("z"))
            m1 = multiplicity(r.vf, moved)
            assert m1 == m0 - r.divisor_exponent
            assert m1 < m0


class TestObstructionAndTransformErrors:
    def test_obstructed_solve_with_witness(self):
        # b' z^2 = z^2 forces b = z, but a' z^2 = b has no series solution
        X = vf({(0, 1, 0): 1}, {(0, 0, 2): 1}, {(0, 0, 2): 1}, 12)
        with pytest.raises(Obstructed) as info:
            solve_graph_separatrix(X, 6)
        assert info.value.degree == 1

    @pytest.mark.parametrize(
        "text, degree, message",
        [
            ("[y*z, z^3, z^2 + x]", 2, "first residual has coefficient 1/8 at degree 3"),
            ("[x + y, z^3, z^2 + x]", 2, "second residual has coefficient -1/2 at degree 3"),
            # read through x(z)^2: an entry of the square kept past a reopen
            # would hide this one
            ("[y*z + x^2, z^2, z^2]", 1, "first residual has coefficient -1 at degree 2"),
        ],
    )
    def test_obstruction_found_by_the_verification(self, text, degree, message):
        # the skipped residual coefficients are checked after the degree is
        # set and the composer reopened there
        with pytest.raises(Obstructed) as info:
            solve_graph_separatrix(parse_field(text, 16), 12)
        assert info.value.degree == degree
        assert message in str(info.value)

    def test_curve_misses_center(self):
        from folres.errors import CurveMissesCenter
        from folres.blowup import point_chart as pc

        off = FormalCurve(
            useries([1, 1], 6), useries([0, 0], 6), useries([0, 1], 6)
        )
        with pytest.raises(CurveMissesCenter):
            transform_curve(off, pc("z"))

    def test_division_obstructed_outside_chart(self):
        from folres.errors import DivisionObstructed
        from folres.blowup import point_chart as pc

        # tangent to the x-axis: the z-chart misses its transform
        curve = FormalCurve(
            USeries.identity(8), USeries.monomial(1, 3, 8), USeries.monomial(1, 2, 8)
        )
        with pytest.raises(DivisionObstructed):
            transform_curve(curve, pc("z"))

    def test_xlambda_closed_form_product(self):
        # nonzero coefficients b_{3l+1} equal lam * prod_{j<=l} (3j-1)(3j-2)
        lam = Fraction(1)
        curve = solve_graph_separatrix(field_xlambda(lam, 30), 24)
        prod = Fraction(1)
        for l in range(1, curve.ledger // 3):
            prod *= (3 * l - 1) * (3 * l - 2)
            idx = 3 * l + 1
            if idx <= curve.ledger:
                assert curve.phi2.coeffs[idx] == gr(lam * prod)


class TestTwoByTwoFallback:
    def test_singular_consistent_sets_free_unknown_to_zero(self):
        from folres.separatrix import _solve_two_by_two
        from folres.scalars import GaussianRational as GR

        # both equations control only A, consistently: A = 2, B defaults to 0
        row_a = (3, GR(-2), GR(1), GR(0))
        row_b = (4, GR(-4), GR(2), GR(0))
        A, B = _solve_two_by_two(row_a, row_b, 3)
        assert A == GR(2) and B == GR(0)

    def test_singular_inconsistent_raises(self):
        from folres.errors import Obstructed
        from folres.separatrix import _solve_two_by_two
        from folres.scalars import GaussianRational as GR

        row_a = (3, GR(-2), GR(1), GR(0))
        row_b = (4, GR(-5), GR(2), GR(0))
        with pytest.raises(Obstructed):
            _solve_two_by_two(row_a, row_b, 3)

    def test_one_equation_controls_both_unknowns(self):
        from folres.separatrix import _solve_two_by_two
        from folres.scalars import GaussianRational as GR

        # parallel rows, single constraint A + B = 5: canonical answer B = 0
        row_a = (3, GR(-5), GR(1), GR(1))
        row_b = (4, GR(-10), GR(2), GR(2))
        A, B = _solve_two_by_two(row_a, row_b, 3)
        assert A == GR(5) and B == GR(0)
