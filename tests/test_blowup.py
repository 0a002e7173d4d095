import itertools
import random
from fractions import Fraction

import pytest

from folres.blowup import (
    _pullback,
    curve_blowup,
    curve_chart,
    point_blowup,
    point_chart,
    weight2_blowup,
    weight2_chart,
)
from folres.errors import (
    CenterNotInvariantOrNotSingular,
    NotDivisible,
    NotInNormalForm,
    RegularPoint,
)
from folres.scalars import GaussianRational, ZERO
from folres.series import VARS, MSeries
from folres.vfield import (
    NILPOTENT_NONZERO,
    LinearPart,
    VectorField,
    classify,
    order_at_origin,
)

from conftest import field_xlambda, gr, rand_mseries, rand_scalar, vf
from oracles import point_blowup_chart_z_oracle, ptruncate


def normal_form_field(rng, trunc, n, lam=1):
    """(y + zf) d/dx + zg d/dy + z^n d/dz with dg/dx(0) = lam != 0."""
    f = rand_mseries(rng, trunc, val=1, maxdeg=3, terms=3)
    g = MSeries.variable("x", trunc).scale(lam) + rand_mseries(
        rng, trunc, val=2, maxdeg=3, terms=3
    )
    z = MSeries.variable("z", trunc)
    y = MSeries.variable("y", trunc)
    return VectorField(y + z * f, z * g, MSeries.monomial(1, (0, 0, n), trunc))


def assert_chain_rule(X, r):
    """D(phi) . raw == X o phi within the trusted ledger.  The chart map phi
    and its Jacobian are built here as monomial series from the chart's
    exponent triples, and X o phi by the general substitution."""
    t = X.trunc
    subst = r.chart.substitution
    phi = [MSeries.monomial(1, mono, t) for mono in subst]
    for mono, comp in zip(subst, X.components):
        pushed = MSeries.zero(t)
        for u, raw in enumerate(r.raw.components):
            if mono[u]:
                lowered = tuple(e - (i == u) for i, e in enumerate(mono))
                pushed = pushed + MSeries.monomial(mono[u], lowered, t) * raw
        assert pushed.trunc >= t - 2
        assert pushed.eq_trusted(comp.substitute(phi))


class TestPointBlowup:
    def test_radial_dicritical(self):
        r = point_blowup(
            vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), point_chart("z")
        )
        assert r.divisor_exponent == 1
        assert r.dicritical
        assert r.vf.fx.is_zero() and r.vf.fy.is_zero()
        assert r.vf.fz.eq_trusted(MSeries.constant(1, r.vf.trunc))

    def test_normal_form_divisibility(self):
        # transforms of (y+f) d/dx + g d/dy + z^n d/dz with ord f, g >= 2
        # become divisible by z after the chart formula
        rng = random.Random(4)
        for n in (2, 3):
            f = rand_mseries(rng, 16, val=2, maxdeg=3, terms=4)
            g = rand_mseries(rng, 16, val=2, maxdeg=3, terms=4)
            X = VectorField(
                MSeries.variable("y", 16) + f, g, MSeries.monomial(1, (0, 0, n), 16)
            )
            r = point_blowup(X, point_chart("z"))
            ftilde = r.raw.fx - MSeries.variable("y", r.raw.trunc)
            gtilde = r.raw.fy
            assert ftilde.is_zero() or ftilde.variable_multiplicity("z") >= 1
            assert gtilde.is_zero() or gtilde.variable_multiplicity("z") >= 1

    def test_against_brute_force_oracle(self):
        # y d/dx + x^2 d/dy + z^2 d/dz in chart z, checked coefficientwise
        # against an independent dict-based substitution oracle at trunc 10
        F = {(0, 1, 0): (Fraction(1), Fraction(0))}
        G = {(2, 0, 0): (Fraction(1), Fraction(0))}
        H = {(0, 0, 2): (Fraction(1), Fraction(0))}
        ox, oy, oz = point_blowup_chart_z_oracle(F, G, H)
        X = vf({(0, 1, 0): 1}, {(2, 0, 0): 1}, {(0, 0, 2): 1}, 10)
        r = point_blowup(X, point_chart("z"))
        assert r.divisor_exponent == 0
        for comp, expect in zip(r.raw.components, (ox, oy, oz)):
            expect = ptruncate(expect, comp.trunc)
            got = {m: (c.re, c.im) for m, c in comp.terms.items()}
            assert got == expect
        # new origin: raw = (y - xz, z(x^2 - y), z^2), linear part y d/dx
        assert classify(r.vf).tag == NILPOTENT_NONZERO

    def test_oracle_randomized(self):
        rng = random.Random(100)
        for _ in range(25):
            comps = [rand_mseries(rng, 10, val=1, maxdeg=3, terms=4) for _ in range(3)]
            X = VectorField(*comps)
            dicts = [
                {m: (c.re, c.im) for m, c in comp.terms.items()} for comp in comps
            ]
            ox, oy, oz = point_blowup_chart_z_oracle(*dicts)
            r = point_blowup(X, point_chart("z"))
            for comp, expect in zip(r.raw.components, (ox, oy, oz)):
                assert {m: (c.re, c.im) for m, c in comp.terms.items()} == ptruncate(
                    expect, comp.trunc
                )

    def test_refuses_regular_point(self):
        with pytest.raises(RegularPoint):
            point_blowup(vf({(0, 0, 0): 1}, {}, {}), point_chart("z"))

    def test_divisor_exponent_range_and_dicritical(self):
        rng = random.Random(55)
        done = 0
        while done < 60:
            X = VectorField(*(rand_mseries(rng, 12, val=1, maxdeg=4, terms=4) for _ in range(3)))
            try:
                k = order_at_origin(X)
            except Exception:
                continue
            r = point_blowup(X, point_chart("z"))
            assert r.divisor_exponent in (k - 1, k)
            assert (r.divisor_exponent == k) == r.dicritical
            done += 1

    def test_gluing_consistency_chart_z_vs_chart_x(self):
        # raw pullbacks agree through the chart-change Jacobian, evaluated
        # exactly at rational points of the overlap
        rng = random.Random(7)
        pts = [
            (Fraction(2, 3), Fraction(-1, 2), Fraction(1, 5)),
            (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7)),
        ]
        for _ in range(40):
            X = VectorField(*(rand_mseries(rng, 12, val=1, maxdeg=3, terms=5) for _ in range(3)))
            rz = point_blowup(X, point_chart("z"))
            rx = point_blowup(X, point_chart("x"))
            for u, v, z in pts:
                u, v, z = gr(u), gr(v), gr(z)
                raw_z = [c.eval_exact((u, v, z)) for c in rz.raw.components]
                image = (u * z, v / u, gr(1) / u)
                raw_x = [c.eval_exact(image) for c in rx.raw.components]
                jac = (
                    (z, gr(0), u),
                    (-v / (u * u), gr(1) / u, gr(0)),
                    (-(gr(1)) / (u * u), gr(0), gr(0)),
                )
                for r_ in range(3):
                    pushed = ZERO
                    for c_ in range(3):
                        pushed = pushed + jac[r_][c_] * raw_z[c_]
                    assert pushed == raw_x[r_]


class TestCurveBlowup:
    def test_xlambda_first_blowup(self):
        X = field_xlambda(1)
        r = curve_blowup(X, curve_chart("x", "z"))
        t = r.vf.trunc
        # z(v - 1) d/dx + (x - v z^2) d/dv + z^3 d/dz, written in (x, y, z)
        assert r.vf.fx.eq_trusted(MSeries({(0, 1, 1): 1, (0, 0, 1): -1}, t))
        assert r.vf.fy.eq_trusted(MSeries({(1, 0, 0): 1, (0, 1, 2): -1}, t))
        assert r.vf.fz.eq_trusted(MSeries({(0, 0, 3): 1}, t))
        assert r.divisor_exponent == 0
        assert classify(r.vf).tag == NILPOTENT_NONZERO

    def test_nilpotent_after_curve_blowup_when_lambda_nonzero(self):
        rng = random.Random(21)
        for n in (2, 3):
            X = normal_form_field(rng, 16, n, lam=rand_scalar(rng, 3, 0) + gr(4))
            r = curve_blowup(X, curve_chart("x", "z"))
            assert classify(r.vf).tag == NILPOTENT_NONZERO

    def test_center_must_be_singular(self):
        with pytest.raises(CenterNotInvariantOrNotSingular):
            curve_blowup(
                vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}),
                curve_chart("x", "z"),
            )

    def test_two_curve_blowups_equal_one_point_blowup(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.choice([2, 3])
            X = normal_form_field(rng, 12, n, lam=rng.choice([1, 2, -1]))
            one_pt = point_blowup(X, point_chart("z"))
            c1 = curve_blowup(X, curve_chart("x", "z"))
            c2 = curve_blowup(c1.vf, curve_chart("y", "z"))
            assert c1.divisor_exponent + c2.divisor_exponent == one_pt.divisor_exponent
            assert c2.vf.eq_trusted(one_pt.vf)


class TestWeight2:
    def test_n2_eigenvalue_pattern(self):
        # z^k [(y) d/dx + zx d/dy + z^2 d/dz]: exponent 2k+1,
        # invariant triple of {0, 1, -1}
        for k in range(3):
            X = vf({(0, 1, k): 1}, {(1, 0, 1 + k): 1}, {(0, 0, 2 + k): 1})
            r = weight2_blowup(X)
            assert r.divisor_exponent == 2 * k + 1
            lp = LinearPart.of(r.vf)
            assert lp.invariant_triple() == (gr(0), gr(-1), gr(0))
            t = r.vf.trunc
            assert r.vf.fx.eq_trusted(MSeries({(0, 1, 0): 1}, t))
            assert r.vf.fy.eq_trusted(
                MSeries({(1, 0, 0): 1, (0, 1, 1): gr("-1/2")}, t)
            )
            assert r.vf.fz.eq_trusted(MSeries({(0, 0, 2): gr("1/2")}, t))

    def test_general_lambda_triple(self):
        lam = gr(-3, 2)
        X = vf({(0, 1, 0): 1}, {(1, 0, 1): lam}, {(0, 0, 2): 1})
        r = weight2_blowup(X)
        lp = LinearPart.of(r.vf)
        assert lp.invariant_triple() == (gr(0), -lam, gr(0))

    def test_n3_axis_component(self):
        X = vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1})
        r = weight2_blowup(X)
        t = r.vf.trunc
        assert r.vf.fz.eq_trusted(MSeries({(0, 0, 4): gr("1/2")}, t))
        assert r.divisor_exponent == 1

    def test_chain_rule(self):
        # z^k times a random normal form, k = 0, 1
        rng = random.Random(29)
        for _ in range(20):
            n, k = rng.choice([2, 3]), rng.choice([0, 1])
            lam = rng.choice([1, -2, gr(1, 1)])
            divisor = MSeries.monomial(1, (0, 0, k), 16)
            X = normal_form_field(rng, 16, n, lam=lam).map(lambda s: divisor * s)
            assert_chain_rule(X, weight2_blowup(X))

    def test_not_in_normal_form(self):
        with pytest.raises(NotInNormalForm):
            weight2_blowup(vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}))


class TestChartSymmetry:
    def test_chart_y_matches_relabeled_chart_x(self):
        # blowing up in chart y agrees with relabeling x <-> y, blowing up in
        # chart x, and relabeling back (components swap along with variables)
        def swap_xy(s):
            return MSeries({(j, i, k): c for (i, j, k), c in s.terms.items()}, s.trunc)

        rng = random.Random(71)
        for _ in range(20):
            comps = [rand_mseries(rng, 10, val=1, maxdeg=3, terms=4) for _ in range(3)]
            X = VectorField(*comps)
            swapped = VectorField(swap_xy(comps[1]), swap_xy(comps[0]), swap_xy(comps[2]))
            ry = point_blowup(X, point_chart("y"))
            rx = point_blowup(swapped, point_chart("x"))
            relabeled = VectorField(
                swap_xy(rx.vf.fy), swap_xy(rx.vf.fx), swap_xy(rx.vf.fz)
            )
            assert ry.vf.eq_trusted(relabeled)
            assert ry.divisor_exponent == rx.divisor_exponent
            assert ry.dicritical == rx.dicritical


class TestWeight2TimeformExponent:
    def test_axis_restriction_carries_order_2n_plus_2k_minus_1(self):
        # the raw weight-2 transform restricted to the lifted axis has
        # parameter order 2n + 2k - 1 in the divisor coordinate; this is the
        # exponent the degenerate-case obstruction analysis consumes
        from folres.series import compose_curve, USeries

        for n in (2, 3):
            for k in (0, 1):
                X = vf({(0, 1, k): 1}, {(1, 0, 1 + k): 1}, {(0, 0, n + k): 1}, 20)
                r = weight2_blowup(X)
                t = r.raw.trunc
                axis = (USeries.zero(t), USeries.zero(t), USeries.identity(t))
                along = compose_curve(r.raw.fz, axis)
                assert along.valuation() == 2 * n + 2 * k - 1


@pytest.mark.parametrize(
    "chart, rescaled",
    [
        pytest.param(point_chart(d), r, id=f"point-{d}")
        for d, r in [("x", (1, 2)), ("y", (0, 2)), ("z", (0, 1))]
    ]
    # the (center axis, divisor) pairs `folres blowup --center curve` builds
    + [
        pytest.param(curve_chart(a, d), r, id=f"curve-{a}-{d}")
        for a, d, r in [
            ("x", "y", (2,)),
            ("x", "z", (1,)),
            ("y", "x", (2,)),
            ("y", "z", (0,)),
            ("z", "x", (1,)),
            ("z", "y", (0,)),
        ]
    ],
)
def test_chart_rescaled_variables(chart, rescaled):
    assert chart.rescaled == rescaled


@pytest.mark.parametrize(
    "chart",
    [pytest.param(point_chart(d), id=f"point-{d}") for d in "xyz"]
    + [
        pytest.param(curve_chart(a, d), id=f"curve-{a}-{d}")
        for a, d in [("x", "y"), ("x", "z"), ("y", "x"), ("y", "z"), ("z", "x"), ("z", "y")]
    ],
)
def test_chain_rule_in_every_chart(chart):
    # random fields vanishing on the center: the origin for a point chart,
    # the center axis for a curve chart
    rng = random.Random(chart.describe())
    axis = chart.center_axis
    transverse = [i for i in range(3) if axis is None or VARS[i] != axis]
    done = 0
    while done < 15:
        comps = [
            MSeries(
                {
                    m: c
                    for m, c in rand_mseries(rng, 10, val=1, maxdeg=3, terms=5).terms.items()
                    if any(m[i] for i in transverse)
                },
                10,
            )
            for _ in range(3)
        ]
        X = VectorField(*comps)
        if X.is_zero():
            continue
        blowup = curve_blowup if axis else point_blowup
        assert_chain_rule(X, blowup(X, chart))
        done += 1


class TestCurveChartGluing:
    def test_first_and_second_curve_charts_agree_on_overlap(self):
        # center {y=z=0}: chart (x, vz, z) and chart (x, y, wy) describe the
        # same blow-up; on the overlap the raw transforms match through the
        # exact Jacobian of (x, v, z) -> (x, vz, 1/v)
        rng = random.Random(83)
        pts = [
            (Fraction(1, 3), Fraction(2, 5), Fraction(-1, 2)),
            (Fraction(-1, 2), Fraction(3, 4), Fraction(1, 7)),
        ]
        done = 0
        while done < 30:
            comps = []
            for _ in range(3):
                base = rand_mseries(rng, 12, val=1, maxdeg=3, terms=4)
                # force vanishing on the center axis: strip pure-x terms
                base = MSeries(
                    {m: c for m, c in base.terms.items() if m[1] or m[2]}, 12
                )
                comps.append(base)
            X = VectorField(*comps)
            if all(c.is_zero() for c in X.components):
                continue
            first = curve_blowup(X, curve_chart("x", "z"))
            second = curve_blowup(X, curve_chart("x", "y"))
            for x0, v0, z0 in pts:
                x, v, z = gr(x0), gr(v0), gr(z0)
                raw_first = [c.eval_exact((x, v, z)) for c in first.raw.components]
                image = (x, v * z, gr(1) / v)
                raw_second = [c.eval_exact(image) for c in second.raw.components]
                jac = (
                    (gr(1), gr(0), gr(0)),
                    (gr(0), z, v),
                    (gr(0), -(gr(1)) / (v * v), gr(0)),
                )
                for r_ in range(3):
                    pushed = ZERO
                    for c_ in range(3):
                        pushed = pushed + jac[r_][c_] * raw_first[c_]
                    assert pushed == raw_second[r_]
            done += 1


def _substitute_monomials_reference(s: MSeries, monos) -> MSeries:
    """Plain-loop reference: each exponent triple maps to the sum of its
    exponents times the rows of ``monos``."""
    out = {}
    for mono, c in s.terms.items():
        image = [0, 0, 0]
        for e, row in zip(mono, monos):
            for vi, p in enumerate(row):
                image[vi] += e * p
        if sum(image) <= s.trunc:
            out[tuple(image)] = out.get(tuple(image), ZERO) + c
    return MSeries(out, s.trunc)


@pytest.mark.parametrize(
    "monos",
    [pytest.param(point_chart(d).substitution, id=f"point-{d}") for d in "xyz"]
    + [
        pytest.param(curve_chart(a, d).substitution, id=f"curve-{a}-{d}")
        for a, d in itertools.permutations("xyz", 2)
    ]
    + [pytest.param(weight2_chart().substitution, id="weight2")]
    # the six variable permutations
    + [
        pytest.param(
            tuple(tuple(int(i == p) for i in range(3)) for p in perm),
            id="perm-" + "".join(map(str, perm)),
        )
        for perm in itertools.permutations(range(3))
    ],
)
def test_substitute_monomials_equals_the_plain_loop(monos):
    rng = random.Random(str(monos))
    for trunc in (0, 1, 4, 9):
        for _ in range(20):
            s = rand_mseries(rng, trunc, maxdeg=6, terms=10)
            got = s.substitute_monomials(monos)
            want = _substitute_monomials_reference(s, monos)
            assert (got.terms, got.trunc) == (want.terms, want.trunc)
            assert list(got.terms) == list(want.terms)


def _pullback_reference(field: VectorField, chart):
    """The pullback's components in MSeries arithmetic: each rescaled one is
    (F_v - v F'_d) / d, a product, a difference and a division by d."""
    di = VARS.index(chart.divisor_var)
    w = chart.substitution[di][di]
    out = [c.substitute_monomials(chart.substitution) for c in field.components]
    if w > 1:
        out[di] = out[di].divide_by_variable(di, w - 1).scale(Fraction(1, w))
    for vi in chart.rescaled:
        scaled = MSeries.variable(vi, field.trunc) * out[di]
        out[vi] = (out[vi] - scaled).divide_by_variable(di)
    return VectorField(*out).components


@pytest.mark.parametrize(
    "chart",
    [pytest.param(point_chart(d), id=f"point-{d}") for d in "xyz"]
    + [
        pytest.param(curve_chart(a, d), id=f"curve-{a}-{d}")
        for a, d in itertools.permutations("xyz", 2)
    ]
    + [pytest.param(weight2_chart(), id="weight2")],
)
def test_pullback_equals_the_series_arithmetic(chart):
    # any field, constant and off-center terms included: the same terms in
    # the same order and the same ledger, or NotDivisible with the same
    # message, naming the same monomial or the exhausted ledger
    rng = random.Random(chart.describe())
    raised = 0
    for trunc in (0, 1, 2, 5, 8):
        for _ in range(40):
            X = VectorField(*(rand_mseries(rng, trunc, maxdeg=4, terms=6) for _ in range(3)))
            try:
                want = _pullback_reference(X, chart)
            except NotDivisible as exc:
                raised += 1
                with pytest.raises(NotDivisible) as got:
                    _pullback(X, chart)
                assert str(got.value) == str(exc)
                continue
            got = _pullback(X, chart).raw.components
            for g, c in zip(got, want):
                assert (g.terms, g.trunc) == (c.terms, c.trunc)
                assert list(g.terms) == list(c.terms)
    assert raised, "no pullback was refused"
