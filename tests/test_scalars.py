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
