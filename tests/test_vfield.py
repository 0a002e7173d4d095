import random

import pytest

from folres.errors import AllZero, NonInvertibleLinearPart
from folres.series import MSeries
from folres.vfield import (
    ELEMENTARY,
    NILPOTENT_NONZERO,
    REGULAR,
    ZERO_LINEAR_PART,
    LinearPart,
    PolyMap,
    VectorField,
    classify,
    conjugate,
    factor_divisor,
    nilpotent_normal_form_full,
    order_at_origin,
)

from conftest import (
    field_degenerate_family,
    field_xlambda,
    field_z_example,
    gr,
    rand_mseries,
    rand_scalar,
    vf,
)


class TestClassify:
    def test_z_example_nilpotent(self):
        assert classify(field_z_example()).tag == NILPOTENT_NONZERO

    def test_radial_elementary(self):
        assert classify(vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})).tag == ELEMENTARY

    def test_squares_zero_linear_part(self):
        assert classify(vf({(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1})).tag == ZERO_LINEAR_PART

    def test_regular(self):
        assert classify(vf({(0, 0, 0): 1}, {}, {})).tag == REGULAR

    def test_nilpotent_with_two_jordan_blocks(self):
        # linear part y d/dx + z d/dy: nilpotent of rank 2
        f = vf({(0, 1, 0): 1}, {(0, 0, 1): 1}, {})
        cls = classify(f)
        assert cls.tag == NILPOTENT_NONZERO
        assert cls.char_poly_invariants == (gr(0), gr(0), gr(0))

    def test_stable_under_raising_trunc(self):
        rng = random.Random(31)
        for _ in range(40):
            low = VectorField(*(rand_mseries(rng, 6, val=0, maxdeg=3) for _ in range(3)))
            high = VectorField(*(c.retrunc(4) for c in low.components))
            assert classify(low).tag == classify(high).tag


class TestLinearPart:
    def test_entries(self):
        f = field_xlambda(2)
        lp = LinearPart.of(f)
        assert lp.m[0][1] == gr(1)  # y in the first component
        assert lp.m[0][2] == gr(-2)
        assert lp.m[1][0] == gr(0)

    def test_invariants_of_radial(self):
        lp = LinearPart.of(vf({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}))
        assert lp.invariant_triple() == (gr(3), gr(3), gr(1))


class TestOrder:
    def test_z_example(self):
        assert order_at_origin(field_z_example()) == 1

    def test_squares(self):
        assert order_at_origin(vf({(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1})) == 2

    def test_normal_form_linear(self):
        # (y) d/dx + z^2 d/dz with f = g = 0, n = 2
        assert order_at_origin(vf({(0, 1, 0): 1}, {}, {(0, 0, 2): 1})) == 1

    def test_all_zero(self):
        with pytest.raises(AllZero):
            order_at_origin(vf({}, {}, {}))


class TestFactorDivisor:
    def test_common_z(self):
        f = vf({(0, 0, 1): 1}, {(0, 0, 1): 1}, {(0, 0, 2): 1})
        e, rep = factor_divisor(f, "z")
        assert e == 1
        assert rep.fx.eq_trusted(MSeries.constant(1, rep.trunc))

    def test_no_factor(self):
        e, rep = factor_divisor(field_z_example(), "z")
        assert e == 0
        assert rep.eq_trusted(field_z_example())

    def test_reconstruction(self):
        rng = random.Random(6)
        base = VectorField(*(rand_mseries(rng, 10, val=1, maxdeg=3) for _ in range(3)))
        z = MSeries.variable("z", 10)
        lifted = base.map(lambda s: s * z * z)
        e, rep = factor_divisor(lifted, "z")
        assert e >= 2
        rebuilt = rep
        for _ in range(e):
            rebuilt = rebuilt.map(lambda s: s * MSeries.variable("z", s.trunc))
        assert rebuilt.eq_trusted(VectorField(*(c.retrunc(rebuilt.trunc) for c in lifted.components)))


class TestConjugate:
    def test_identity(self):
        f = field_z_example()
        out = conjugate(f, PolyMap.identity(f.trunc))
        assert out.eq_trusted(f)

    def test_swap_linear(self):
        f = vf({(0, 1, 0): 1}, {}, {})  # y d/dx
        swap = PolyMap.linear(((0, 1, 0), (1, 0, 0), (0, 0, 1)), f.trunc)
        out = conjugate(f, swap)
        expect = vf({}, {(1, 0, 0): 1}, {})  # x d/dy
        assert out.eq_trusted(expect)

    def test_non_invertible_rejected(self):
        f = field_z_example()
        degenerate = PolyMap.linear(((1, 0, 0), (1, 0, 0), (0, 0, 1)), f.trunc)
        with pytest.raises(NonInvertibleLinearPart):
            conjugate(f, degenerate)

    def test_classify_invariant_under_linear_conjugation(self):
        rng = random.Random(23)
        done = 0
        while done < 30:
            rows = tuple(tuple(rand_scalar(rng) for _ in range(3)) for _ in range(3))
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if not det:
                continue
            field = VectorField(*(rand_mseries(rng, 8, val=1, maxdeg=3) for _ in range(3)))
            moved = conjugate(field, PolyMap.linear(rows, 8))
            assert classify(moved).tag == classify(field).tag
            try:
                assert order_at_origin(moved) == order_at_origin(field)
            except AllZero:
                pass
            done += 1

    def test_graph_shift_straightens(self):
        # conjugating by (x + z^2, y, z) moves the graph curve x = -z^2 onto the axis
        f = vf({(1, 0, 0): 1, (0, 0, 2): 1}, {}, {(0, 0, 1): 1})  # (x + z^2) dx + z dz
        t = f.trunc
        cmap = PolyMap(
            (
                MSeries.variable("x", t) + MSeries({(0, 0, 2): gr("1/2")}, t),
                MSeries.variable("y", t),
                MSeries.variable("z", t),
            )
        )
        moved = conjugate(f, cmap)
        # the moved field keeps the z-axis direction pattern: F(0,0,z) records
        # the shifted graph: (x + z^2/2 + z^2) - z * d(z^2/2)/dz = x + z^2/2
        axis_part = [moved.fx.coeff((0, 0, k)) for k in range(4)]
        assert axis_part == [gr(0), gr(0), gr("1/2"), gr(0)]


class TestNormalFormDecomposition:
    def test_x0(self):
        parts, reason = nilpotent_normal_form_full(
            vf({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 3): 1})
        )
        assert parts is not None and reason is None
        assert (parts.k, parts.n, parts.lam) == (0, 3, gr(1))

    def test_with_divisor(self):
        parts, _ = nilpotent_normal_form_full(
            vf({(0, 1, 1): 1}, {(1, 0, 2): 1}, {(0, 0, 3): 1})
        )
        assert parts is not None
        assert (parts.k, parts.n) == (1, 2)

    def test_unit_normalization(self):
        # third component z^2 (1 + x): the unit is divided out of all components
        f = vf(
            {(0, 1, 0): 1, (1, 1, 0): 1},
            {(1, 0, 1): 1, (2, 0, 1): 1},
            {(0, 0, 2): 1, (1, 0, 2): 1},
        )
        parts, _ = nilpotent_normal_form_full(f)
        assert parts is not None
        assert parts.n == 2
        assert parts.representative.fz.eq_trusted(
            MSeries({(0, 0, 2): 1}, parts.representative.trunc)
        )

    def test_rejects_lambda_zero(self):
        parts, reason = nilpotent_normal_form_full(
            vf({(0, 1, 0): 1}, {(0, 1, 1): 1}, {(0, 0, 2): 1})
        )
        assert parts is None
        assert reason == "dg/dx vanishes at the origin (lambda = 0)"

    # one minimal field per reason, in the order of the checks; each field
    # passes every check before the one it fails
    @pytest.mark.parametrize(
        "fx, fy, fz, reason",
        [
            ({}, {}, {}, "field is zero at the trusted precision"),
            ({(1, 0, 0): 1}, {}, {}, "foliation representative is elementary, not nilpotent-nonzero"),
            ({(0, 1, 0): 1}, {(1, 0, 1): 1}, {}, "third component is not z^n with n >= 2 times a unit"),
            ({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(1, 0, 1): 1}, "third component is not z^n with n >= 2 times a unit"),
            ({(0, 1, 0): 1}, {(1, 0, 1): 1}, {(1, 0, 2): 1}, "third component is not z^n times a unit"),
            ({(0, 1, 0): 1, (2, 0, 0): 1}, {(1, 0, 1): 1}, {(0, 0, 2): 1},
             "first component is not y + z*(series)"),
            # the y coefficient is not 1; there is no y term
            ({(0, 1, 0): 2}, {(1, 0, 1): 1}, {(0, 0, 2): 1}, "first component is not y + z*(series)"),
            ({(0, 0, 1): 1}, {(1, 0, 0): 1}, {(0, 0, 2): 1}, "first component is not y + z*(series)"),
            ({(0, 1, 0): 1, (0, 0, 1): 1}, {(1, 0, 1): 1}, {(0, 0, 2): 1}, "f has a nonzero constant term"),
            ({(0, 1, 0): 1}, {(1, 0, 1): 1, (2, 0, 0): 1}, {(0, 0, 2): 1},
             "second component is not z*(series)"),
            ({(0, 1, 0): 1}, {(0, 0, 1): 1, (1, 0, 1): 1}, {(0, 0, 2): 1}, "g has a nonzero constant term"),
            ({(0, 1, 0): 1}, {(0, 1, 1): 1}, {(0, 0, 2): 1}, "dg/dx vanishes at the origin (lambda = 0)"),
        ],
    )
    def test_every_reason_in_check_order(self, fx, fy, fz, reason):
        assert nilpotent_normal_form_full(vf(fx, fy, fz)) == (None, reason)


def _reference_parts(field: VectorField):
    """The normal-form parts of a field that matches, built with the unit's
    inverse and three products whatever the unit is."""
    k, rep = factor_divisor(field, "z")
    n = rep.fz.variable_multiplicity("z")
    inv = rep.fz.divide_by_variable("z", n).invert_unit()
    comps = [c.retrunc(inv.trunc) * inv for c in rep.components]
    t = min(c.trunc for c in comps)
    f = (comps[0] - MSeries.variable("y", t)).divide_by_variable("z")
    g = comps[1].divide_by_variable("z")
    return k, n, g.linear_coeff("x"), f, g, comps


@pytest.mark.parametrize("unit", ["one", "constant", "series"])
def test_normal_form_parts_match_the_inverse_of_the_unit(unit, monkeypatch):
    # soak normal forms times z^k and a unit: the unit 1 skips its inverse
    # and the products, and every part equals the reference's
    from conftest import rand_normal_form

    inverted = []
    invert_unit = MSeries.invert_unit
    monkeypatch.setattr(MSeries, "invert_unit", lambda s: inverted.append(s) or invert_unit(s))
    rng = random.Random(23)
    for _ in range(40):
        X, n, lam = rand_normal_form(rng, 12)
        if unit == "one":
            u = MSeries.constant(1, 12)
        elif unit == "constant":
            u = MSeries.constant(rand_scalar(rng, 3, 1) or gr(2), 12)
            if u.constant_term() == 1:
                u = u.scale(-1)
        else:
            u = MSeries.constant(1, 12) + rand_mseries(rng, 12, val=1, maxdeg=3, terms=3)
        z_k = MSeries.monomial(1, (0, 0, rng.randint(0, 2)), 12)
        field = X.map(lambda c: c * u * z_k)
        inverted.clear()
        parts, reason = nilpotent_normal_form_full(field)
        assert reason is None and (parts.n, parts.lam) == (n, lam)
        assert len(inverted) == (unit != "one")
        k, n_ref, lam_ref, f, g, comps = _reference_parts(field)
        assert (parts.k, parts.n, parts.lam) == (k, n_ref, lam_ref)
        for got, want in ((parts.f, f), (parts.g, g)) + tuple(
            zip(parts.representative.components, comps)
        ):
            assert got.trunc == want.trunc and got.terms == want.terms
