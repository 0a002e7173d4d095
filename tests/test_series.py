import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from folres.errors import NonzeroConstantTerm, NotDivisible
from folres.scalars import ONE, ZERO, GaussianRational
from folres.series import (
    INFINITE,
    MSeries,
    USeries,
    compose_curve,
    convolve,
    format_mseries,
)

from conftest import gr, rand_mseries, rand_scalar, rand_zero_const_triple, series, useries


_gauss = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.integers(-9, 9),
)


def var(v, t=24):
    return MSeries.variable(v, t)


def _terms(lo, hi, max_size):
    """Term dicts on the monomials of total degree lo..hi."""
    monos = [
        (i, j, d - i - j) for d in range(lo, hi + 1) for i in range(d + 1) for j in range(d + 1 - i)
    ]
    return st.dictionaries(st.sampled_from(monos), _gauss, max_size=max_size)


_point = st.tuples(_gauss, _gauss, _gauss)
_subs = st.tuples(*[_terms(1, 2, 3)] * 3)
_curve = st.lists(_gauss, max_size=6)


def _compose_reference(s, phi):
    """Sum of c * phi1^i * phi2^j * phi3^k, with dense ``USeries`` products."""
    t = min([s.trunc] + [p.trunc for p in phi])
    acc = USeries.zero(t)
    for (i, j, k), c in s.terms.items():
        term = USeries([c], t)
        for p, e in zip(phi, (i, j, k)):
            for _ in range(e):
                term = term * p
        acc = acc + term
    return acc


class TestMul:
    def test_difference_of_squares(self):
        x, y = var("x"), var("y")
        assert ((x + y) * (x - y)).eq_trusted(x * x - y * y)

    def test_identity_element(self):
        rng = random.Random(5)
        s = rand_mseries(rng, 12)
        one = MSeries.constant(1, 12)
        assert (s * one).eq_trusted(s)

    def test_truncation_contract_degree_two_dropped(self):
        s = MSeries({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 1)
        sq = s * s
        assert sq.trunc == 1
        assert sq.is_zero()  # no trusted degree-2 coefficients survive


class TestSubstitute:
    def test_monomial_substitution(self):
        t = 24
        xy = MSeries({(1, 1, 0): 1}, t)
        sub = (
            MSeries({(1, 0, 1): 1}, t),  # x -> xz
            MSeries({(0, 1, 1): 1}, t),  # y -> yz
            MSeries({(0, 0, 1): 1}, t),
        )
        out = xy.substitute(sub)
        assert out.eq_trusted(MSeries({(1, 1, 2): 1}, t))

    def test_single_variable(self):
        t = 24
        x = var("x", t)
        sub = (MSeries({(1, 0, 1): 1}, t), MSeries({(0, 1, 1): 1}, t), var("z", t))
        assert x.substitute(sub).eq_trusted(MSeries({(1, 0, 1): 1}, t))

    def test_curve_on_its_own_graph(self):
        t = 20
        s = MSeries({(0, 1, 0): 1, (2, 0, 0): -1}, t)  # y - x^2
        phi = (
            USeries.monomial(1, 2, t),
            USeries.monomial(1, 4, t),
            USeries.zero(t),
        )
        assert compose_curve(s, phi).is_zero()

    def test_rejects_constant_terms(self):
        t = 8
        with pytest.raises(NonzeroConstantTerm):
            var("x", t).substitute(
                (MSeries.constant(1, t), var("y", t), var("z", t))
            )

    def test_composition_r_associativity_randomized(self):
        rng = random.Random(99)
        for _ in range(40):
            t = 10
            s = rand_mseries(rng, t, val=0, maxdeg=3, terms=4)
            A = rand_zero_const_triple(rng, t)
            B = rand_zero_const_triple(rng, t)
            ab = tuple(a.substitute(B) for a in A)
            lhs = s.substitute(A).substitute(B)
            rhs = s.substitute(ab)
            assert lhs.eq_trusted(rhs)


class TestSubstitutionProperties:
    # degree <= 3 composed with substitutes of degree <= 2: ledger 6 cuts nothing
    @given(s=_terms(0, 3, 6), subs=_subs, p=_point)
    def test_substitute_evaluates_as_composition(self, s, subs, p):
        s = MSeries(s, 6)
        subs = [MSeries(d, 6) for d in subs]
        out = s.substitute(subs)
        assert out.trunc == 6
        assert out.eval_exact(p) == s.eval_exact(tuple(c.eval_exact(p) for c in subs))

    @given(s=_terms(0, 3, 6), subs=_subs, ledgers=st.tuples(*[st.integers(0, 6)] * 4))
    def test_lower_ledgers_cut_the_full_composition(self, s, subs, ledgers):
        full = MSeries(s, 6).substitute([MSeries(d, 6) for d in subs])
        low = MSeries(s, ledgers[0]).substitute(
            [MSeries(d, t) for d, t in zip(subs, ledgers[1:])]
        )
        assert low.trunc == min(ledgers)
        assert low.terms == full.retrunc(low.trunc).terms

    @given(s=_terms(0, 4, 8), c=_point, p=_point)
    def test_shift_origin_evaluates_as_translation(self, s, c, p):
        s = MSeries(s, 4)
        moved = s.shift_origin(c)
        assert moved.trunc == 4
        assert moved.eval_exact(p) == s.eval_exact(tuple(a + b for a, b in zip(p, c)))


class TestComposeCurveProperties:
    # s of degree <= 3 along curves of degree <= 6: ledger 6
    @given(s=_terms(0, 3, 6), a=_curve, b=_curve)
    def test_graph_curve(self, s, a, b):
        s = MSeries(s, 6)
        phi = (USeries([ZERO] + a, 6), USeries([ZERO] + b, 6), USeries.identity(6))
        out = compose_curve(s, phi)
        assert out.trunc == 6
        assert out.coeffs == _compose_reference(s, phi).coeffs

    @given(s=_terms(0, 3, 6), comps=st.tuples(_curve, _curve, _curve))
    def test_general_curve(self, s, comps):
        s = MSeries(s, 6)
        phi = [USeries([ZERO] + c, 6) for c in comps]
        assert compose_curve(s, phi).coeffs == _compose_reference(s, phi).coeffs

    @given(
        s=_terms(0, 3, 6),
        comps=st.tuples(_curve, _curve, _curve),
        ledgers=st.tuples(*[st.integers(0, 6)] * 4),
    )
    def test_ledger_is_the_minimum(self, s, comps, ledgers):
        s = MSeries(s, ledgers[0])
        phi = [USeries([ZERO] + c, t) for c, t in zip(comps, ledgers[1:])]
        out = compose_curve(s, phi)
        assert out.trunc == min(ledgers)
        assert out.coeffs == _compose_reference(s, phi).coeffs

    def test_rejects_constant_terms(self):
        t = 8
        phi = (USeries.identity(t), useries([1, 1], t), USeries.zero(t))
        with pytest.raises(NonzeroConstantTerm):
            compose_curve(var("y", t), phi)


class TestDivideByVariable:
    def test_plain(self):
        s = MSeries({(0, 0, 2): 1, (1, 0, 1): 1}, 10)
        q = s.divide_by_variable("z")
        assert q.eq_trusted(MSeries({(0, 0, 1): 1, (1, 0, 0): 1}, 9))
        assert q.trunc == 9

    def test_witness(self):
        with pytest.raises(NotDivisible):
            var("x").divide_by_variable("z")

    def test_ledger_rule(self):
        rng = random.Random(3)
        f = rand_mseries(rng, 12, val=0, maxdeg=4)
        zf = f * var("z", 12)
        q = zf.divide_by_variable("z")
        assert q.trunc == 11
        assert q.eq_trusted(f.retrunc(11))


class TestValuation:
    def test_plain(self):
        assert MSeries({(0, 0, 3): 1, (0, 0, 5): 1}, 10).valuation() == 3

    def test_zero(self):
        assert MSeries.zero(10).valuation() == INFINITE

    def test_normal_form_linear_term(self):
        f = MSeries({(0, 0, 1): 2, (1, 0, 1): 1}, 10)  # z*(2 + x), no const
        s = var("y", 10) + var("z", 10) * f
        assert s.valuation() == 1

    def test_additivity_randomized(self):
        rng = random.Random(17)
        hits = 0
        while hits < 60:
            a = rand_mseries(rng, 12, val=0, maxdeg=3, terms=3)
            b = rand_mseries(rng, 12, val=0, maxdeg=3, terms=3)
            va, vb = a.valuation(), b.valuation()
            if va == INFINITE or vb == INFINITE or va + vb > 12:
                continue
            assert (a * b).valuation() == va + vb
            hits += 1


class TestRingAxioms:
    def test_randomized(self):
        rng = random.Random(41)
        for _ in range(60):
            a = rand_mseries(rng, 12)
            b = rand_mseries(rng, 12)
            c = rand_mseries(rng, 12)
            assert ((a + b) + c).eq_trusted(a + (b + c))
            assert (a * b).eq_trusted(b * a)
            assert ((a * b) * c).eq_trusted(a * (b * c))
            assert (a * (b + c)).eq_trusted(a * b + a * c)


class TestInvertUnit:
    def test_inverse_multiplies_to_one(self):
        rng = random.Random(8)
        for _ in range(20):
            s = rand_mseries(rng, 10, val=1, maxdeg=3, terms=4) + MSeries.constant(
                rng.choice([1, 2, -3]), 10
            )
            inv = s.invert_unit()
            assert (s * inv).eq_trusted(MSeries.constant(1, 10))

    @pytest.mark.parametrize("trunc", [0, 1, 2])
    @pytest.mark.parametrize("c", [gr(1), gr(1, 1)])
    def test_low_ledgers_and_a_complex_constant(self, trunc, c):
        # 1 / (c + w), w = x + yz: 1/c - w/c^2 + w^2/c^3 - ..., through degree 2
        u = MSeries({(0, 0, 0): c, (1, 0, 0): 1, (0, 1, 1): 1}, trunc)
        inv = u.invert_unit()
        r = gr(1) / c
        expected = {(0, 0, 0): r, (1, 0, 0): -(r * r), (0, 1, 1): -(r * r), (2, 0, 0): r * r * r}
        assert inv.trunc == trunc
        assert inv.eq_trusted(MSeries({m: v for m, v in expected.items() if sum(m) <= trunc}, trunc))
        assert (u * inv).eq_trusted(MSeries.constant(1, trunc))


class TestShiftOrigin:
    def test_polynomial_translation(self):
        s = MSeries({(2, 0, 0): 1, (0, 1, 0): 1}, 10)  # x^2 + y
        moved = s.shift_origin((gr(1), gr(-2), gr(0)))
        # (x+1)^2 + (y-2) = x^2 + 2x + y - 1
        assert moved.eq_trusted(
            MSeries({(2, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 0): -1}, 10)
        )

    def test_round_trip(self):
        rng = random.Random(12)
        s = rand_mseries(rng, 8, val=0, maxdeg=3, terms=5)
        shifts = (gr("1/2"), gr(-1), gr(2, 1))
        back = tuple(-c for c in shifts)
        assert s.shift_origin(shifts).shift_origin(back).eq_trusted(s)


def _one_term(n, k, c):
    out = [ZERO] * n
    out[k % n] = c
    return out


# coefficient lists with no nonzero entry, one (c T^k, c = 1 among them) or many
_factor = st.one_of(
    st.integers(0, 10).map(lambda n: [ZERO] * n),
    st.builds(_one_term, st.integers(1, 10), st.integers(0, 9), st.one_of(st.just(ONE), _gauss.filter(bool))),
    st.lists(_gauss, max_size=10),
)


@given(a=_factor, b=_factor, t=st.integers(0, 14))
@example(a=[ONE], b=[gr(2), ZERO, gr(1, 1)], t=4)  # a product by phi3' = 1
@example(a=[gr(3), gr(-1), ZERO, gr(5)], b=[ZERO, ZERO, ZERO, ONE], t=5)  # by T^3
@example(a=[gr(1, 2)] * 4, b=[ZERO, gr(-3), ZERO], t=2)  # by -3 T, cut below both lengths
def test_convolve_equals_the_index_double_loop(a, b, t):
    expected = [ZERO] * (t + 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            if i + j <= t:
                expected[i + j] = expected[i + j] + u * v
    out = convolve(a, b, t)
    assert out == expected
    # USeries._clean trusts every zero of a product to be the shared ZERO
    assert all(c is ZERO for c in out if c == ZERO)


class TestUSeries:
    def test_mul_and_divide(self):
        a = useries([0, 1, 1], 10)  # T + T^2
        b = useries([0, 1], 10)
        q = a.divide(b)
        assert [str(c) for c in q.coeffs[:3]] == ["1", "1", "0"]

    @given(
        a=st.lists(_gauss, max_size=11),
        tail=st.lists(_gauss, max_size=10),
        lead=_gauss.filter(bool),
        kind=st.sampled_from(["unit", "one", "positive valuation"]),
        v=st.integers(1, 4),
    )
    def test_divide_undoes_mul(self, a, tail, lead, kind, v):
        t = 10
        num = USeries(a, t)
        if kind == "one":
            den = USeries([ONE], t)
        elif kind == "unit":
            den = USeries([lead] + tail, t)
        else:
            den = USeries([ZERO] * v + [lead] + tail, t)
        q = (num * den).divide(den)
        assert q.trunc == t - den.valuation()
        assert q.eq_trusted(num)

    @given(
        num=st.lists(_gauss, max_size=12),
        lead=_gauss.filter(bool) | st.just(ONE),
        v=st.integers(0, 4),
        ledgers=st.tuples(st.integers(0, 11), st.integers(0, 11)),
        late=st.integers(1, 8),
    )
    def test_one_term_divisor_is_a_shift_and_a_scaling(self, num, lead, v, ledgers, late):
        # c T^v, possibly with an entry above the quotient's ledger, which
        # the division never reads; the quotient is num T^-v / c, and a
        # nonzero entry of num below v is not divisible
        tn, td = ledgers
        td = max(td, v)
        den = USeries([ZERO] * v + [lead] + [ZERO] * (late - 1) + [gr(5)], td)
        s = USeries(num, tn)
        t = min(tn, td) - v
        assume(late > t)
        if tn < v or any(s.coeffs[:v]):
            with pytest.raises(NotDivisible):
                s.divide(den)
            return
        want = USeries([c / lead for c in s.coeffs[v : v + t + 1]], t)
        got = s.divide(den)
        assert (got.coeffs, got.trunc) == (want.coeffs, want.trunc)
        assert all(c is ZERO for c in got.coeffs if c == ZERO)

    def test_compose(self):
        f = MSeries({(2, 0, 0): 1}, 10)  # x^2, read along the curve as T^2
        g = useries([0, 2], 10)  # 2T
        out = compose_curve(f, (g, USeries.zero(10), USeries.zero(10)))
        assert out.coeffs == tuple(gr(4 if k == 2 else 0) for k in range(11))

    def test_derivative_ledger(self):
        a = useries([0, 1, 1], 10)
        assert a.derivative().trunc == 9


def test_format_round_trip():
    from folres.parsing import parse_series

    rng = random.Random(77)
    for _ in range(40):
        s = rand_mseries(rng, 12, val=0, maxdeg=4, terms=6)
        text = format_mseries(s)
        again = parse_series(text, 12)
        assert again.eq_trusted(s)
        assert format_mseries(again) == text


def test_operations_do_not_mutate_inputs():
    rng = random.Random(64)
    a = rand_mseries(rng, 10, terms=4)
    b = rand_mseries(rng, 10, terms=4)
    snap_a = dict(a.terms)
    snap_b = dict(b.terms)
    _ = a * b
    _ = a + b
    _ = a.substitute((MSeries.variable("x", 10), MSeries.variable("y", 10), MSeries.variable("z", 10)))
    subs = rand_zero_const_triple(rng, 10)
    snap_subs = [dict(c.terms) for c in subs]
    _ = a.substitute(subs)
    _ = a.shift_origin((gr(1), gr(-2), gr(0, 1)))
    _ = a.partial("x")
    assert a.terms == snap_a and b.terms == snap_b
    assert [c.terms for c in subs] == snap_subs
    u = useries([0, 1, 2, 3], 8)
    v = useries([0, 0, 5, gr(1, 2)], 6)
    snap_u, snap_v = list(u.coeffs), list(v.coeffs)
    _ = u * v
    _ = u + v
    _ = u - v
    _ = -u
    _ = u.scale(gr(2, -1))
    _ = u.derivative()
    _ = u.retrunc(3)
    _ = v.shift_down(2)
    _ = v.divide(u)
    _ = compose_curve(a, (u, v, USeries.identity(8)))
    assert list(u.coeffs) == snap_u and list(v.coeffs) == snap_v
    # a series keeps its own tuple: a list it was built from may change later
    coeffs = [gr(1), gr(2)]
    w = USeries._clean(coeffs, 1)
    coeffs[0] = gr(7)
    assert w.coeffs == (gr(1), gr(2))


def test_retrunc_at_its_own_ledger_is_the_series():
    s = MSeries({(1, 0, 0): 1, (0, 2, 1): gr(1, 2)}, 6)
    assert s.retrunc(s.trunc) is s
    assert s.retrunc(2).terms == {(1, 0, 0): gr(1)}


def _assert_clean(s: MSeries):
    """The invariant ``MSeries._clean`` trusts: validating the dict again
    changes nothing, and every value is a canonical scalar."""
    assert MSeries(s.terms, s.trunc).terms == s.terms
    assert all(type(c) is GaussianRational for c in s.terms.values())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_every_operation_returns_a_clean_term_dict(seed):
    # small coefficients make sums and products cancel, and the two ledgers
    # differ, so each zero and degree filter is exercised
    from folres.parsing import format_field, parse_field, parse_series
    from folres.separatrix import FormalCurve, straighten
    from folres.vfield import VectorField
    from conftest import rand_normal_form, rand_scalar

    rng = random.Random(seed)
    t1, t2 = rng.randint(2, 8), rng.randint(0, 8)
    a = rand_mseries(rng, t1, maxdeg=6, terms=8)
    b = rand_mseries(rng, t2, maxdeg=6, terms=8)
    subs = rand_zero_const_triple(rng, rng.randint(1, 8))
    e = rng.randint(0, 2)
    z_e = MSeries.monomial(1, (0, 0, e), t1)
    unit = MSeries.constant(rand_scalar(rng) or gr(1), t1) + rand_mseries(rng, t1, val=1)
    monos = tuple(tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(3))
    results = [
        a * b, a + b, a - b, a - a, -a, a.scale(rand_scalar(rng)),
        a.substitute(subs), a.shift_origin([rand_scalar(rng) for _ in range(3)]),
        (z_e * a).divide_by_variable("z", e), unit.invert_unit(),
        a.retrunc(rng.randint(0, t1)), a.partial(rng.choice("xyz")),
        a.substitute_monomials(monos),
        # x <-> y, then x = y: every term of a - a(y, x, z) cancels
        (a - a.substitute_monomials(((0, 1, 0), (1, 0, 0), (0, 0, 1)))).substitute_monomials(
            ((1, 0, 0), (1, 0, 0), (0, 0, 1))
        ),
    ]
    X, _, _ = rand_normal_form(rng, t1)
    ledger = rng.randint(1, 6)
    curve = FormalCurve.graph(
        *(USeries([rand_scalar(rng) for _ in range(ledger + 1)], ledger) for _ in range(2))
    )
    moved, _ = straighten(X, curve, rng.randint(0, min(ledger, t1)))
    results += moved.components
    F = VectorField(a, b, a * b)
    printed, text = format_field(F), format_mseries(a)
    results += parse_field(printed, t1).components
    results += parse_field(f"[({text})*({format_mseries(b)}), ({text}) - ({text}), x]", t1).components
    results.append(parse_series(f"({text})^2 - ({text})*({text}) + {format_mseries(b)}", t2))
    for r in results:
        _assert_clean(r)


def _assert_clean_useries(s: USeries):
    """The invariant ``USeries._clean`` trusts: a tuple of exactly
    ``trunc + 1`` canonical scalars, every zero among them ``ZERO``."""
    assert type(s.coeffs) is tuple and len(s.coeffs) == s.trunc + 1
    assert all(type(c) is GaussianRational and (c is ZERO) == (c == 0) for c in s.coeffs)


def _rand_useries(rng, trunc, val=0):
    # mostly zero small coefficients, so sums, products and derivatives cancel
    return USeries(
        [ZERO] * val + [rand_scalar(rng) if rng.random() < 0.6 else ZERO for _ in range(trunc + 1 - val)],
        trunc,
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_every_operation_returns_a_clean_coefficient_tuple(seed):
    from folres.blowup import point_chart, weight2_chart
    from folres.separatrix import (
        FormalCurve, _minus_product, _times_power, _zero_through, solve_graph_separatrix,
        straighten, transform_curve,
    )
    from conftest import rand_normal_form

    rng = random.Random(seed)
    t1, t2 = rng.randint(1, 8), rng.randint(0, 8)
    a, b = _rand_useries(rng, t1), _rand_useries(rng, t2)
    c, d = _rand_useries(rng, t1, val=1), _rand_useries(rng, rng.randint(1, 8), val=1)
    k = rng.randint(0, min(3, t1))
    lead = USeries([ZERO] * k + [rand_scalar(rng) or ONE], t1 + k) + _rand_useries(rng, t1 + k, k + 1)
    results = [
        a.retrunc(rng.randint(0, t1)), a + b, a - b, a - a, -a, a.scale(rand_scalar(rng)),
        a.scale(0), a * b, a.derivative(), b.derivative(), (a * lead).shift_down(k),
        (a * lead).divide(lead), USeries.identity(t1), USeries.identity(0),
        compose_curve(rand_mseries(rng, t1, maxdeg=4), (c, d, _rand_useries(rng, t2, val=1))),
        _times_power(a, rng.randint(0, 3)), _times_power(_times_power(a, k), -k),
        _minus_product(a, c, d), _zero_through(a, rng.randint(0, t1 + 2)),
    ]
    curve = FormalCurve.graph(c, d)
    results += curve.components
    results += transform_curve(curve, point_chart("z")).components
    results += transform_curve(curve, weight2_chart()).components
    X, _, _ = rand_normal_form(rng, 8)
    _, moved = straighten(X, curve, rng.randint(0, 8))
    results += moved.components
    results += solve_graph_separatrix(X, rng.randint(1, 7)).components
    for r in results:
        _assert_clean_useries(r)


def test_public_useries_constructor_coerces_pads_and_checks():
    s = USeries([1, Fraction(1, 2), 0], 4)
    assert s.coeffs == (gr(1), gr("1/2"), ZERO, ZERO, ZERO)
    _assert_clean_useries(s)
    assert s.coeffs[2] is ZERO and s.coeffs[4] is ZERO
    assert USeries([1, 2, 3], 1).coeffs == (gr(1), gr(2))
    assert USeries((), 0).coeffs == (ZERO,)
    with pytest.raises(ValueError):
        USeries([1], -1)
    with pytest.raises(ValueError):
        USeries([1, 2], 1).retrunc(-1)
