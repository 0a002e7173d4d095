import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from folres.parsing import parse_series
from folres.scalars import GaussianRational, format_scalar

from conftest import gr, rand_scalar


def test_basic_arithmetic():
    a = gr(1, 2)
    b = gr("1/2", -1)
    assert a + b == gr("3/2", 1)
    assert a * b == gr("5/2", 0)  # (1+2i)(1/2 - i) = 1/2 - i + i + 2 = 5/2
    assert a - a == gr(0)
    assert (a / b) * b == a


def test_field_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        a, b, c = (rand_scalar(rng, 5, 5) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_inverse_of_i():
    i = gr(0, 1)
    assert gr(1) / i == gr(0, -1)


@pytest.mark.parametrize(
    "value,text",
    [
        (gr(0), "0"),
        (gr(3), "3"),
        (gr("-2/5"), "-2/5"),
        (gr(0, 1), "i"),
        (gr(0, -1), "-i"),
        (gr(0, "3/2"), "3/2*i"),
        (gr(1, 2), "1+2*i"),
        (gr(1, "-1/2"), "1-1/2*i"),
        (gr("1/3", -1), "1/3-i"),
    ],
)
def test_canonical_formatting(value, text):
    assert format_scalar(value) == text


def test_exactness_no_float_contamination():
    third = gr("1/3")
    acc = gr(0)
    for _ in range(3):
        acc = acc + third
    assert acc == gr(1)
    assert isinstance(acc.re, Fraction)


@given(st.fractions(), st.fractions())
def test_format_then_parse_is_identity(re, im):
    # separatrix files store coefficients as printed; they load back exactly
    c = GaussianRational(re, im)
    assert parse_series(format_scalar(c), 0).constant_term() == c


# Reference arithmetic on (re, im) pairs of Fractions, independent of the
# kernel's integer-triple representation.
def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _parts(c):
    assert isinstance(c.re, Fraction) and isinstance(c.im, Fraction)
    return (c.re, c.im)


_pairs = st.tuples(st.fractions(), st.fractions())


@given(_pairs, _pairs)
def test_kernel_matches_fraction_pair_reference(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert _parts(a) == x and _parts(b) == y
    assert _parts(a + b) == _ref_add(x, y)
    assert _parts(a - b) == _ref_sub(x, y)
    assert _parts(a * b) == _ref_mul(x, y)
    assert _parts(-a) == (-x[0], -x[1])
    if any(y):
        assert _parts(a / b) == _ref_div(x, y)


@given(_pairs, _pairs)
def test_equal_values_have_equal_hashes(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    # the same value reached through intermediate results of other sizes;
    # the real part of b alone takes the real-divisor path
    products = tuple((a * c) / c for c in (b, GaussianRational(y[0])) if c)
    for same in ((a + b) - b, (a - b) + b, -(-a)) + products:
        assert same == a and hash(same) == hash(a)
    half, other_half = GaussianRational(Fraction(2, 4)), GaussianRational(Fraction(1, 2))
    assert half == other_half and hash(half) == hash(other_half)


@given(_pairs)
def test_division_by_zero_raises(x):
    a = GaussianRational(*x)
    for zero in (GaussianRational(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero


@given(st.integers(), st.fractions())
def test_coercion_agrees_with_constructor(n, q):
    for value in (n, q, str(q)):
        c = GaussianRational.coerce(value)
        assert c == GaussianRational(value) and hash(c) == hash(GaussianRational(value))
        assert _parts(c) == (Fraction(value), 0)
