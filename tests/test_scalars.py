import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from folres.parsing import parse_series
from folres.scalars import I, ONE, ZERO, GaussianRational, format_scalar, from_ints

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


_small_ints = st.integers(-3, 3)


@given(_pairs, _pairs, _small_ints, _small_ints, st.integers(1, 4))
def test_zero_is_one_shared_object(x, y, p, q, d):
    # every zero a constructor or an operation returns is ZERO itself, which
    # is what the solvers' `is not ZERO` tests rely on; nothing else is
    a, b = GaussianRational(*x), GaussianRational(*y)
    results = [
        a, b, a + b, a - b, b - a, a - a, a * b, a * 0, 0 * a, a * p, p * a,
        a + 0, 0 + a, a - 0, 0 - a, -a, a + p, p - a,
        GaussianRational(p), GaussianRational(p, q), GaussianRational(x[0]),
        GaussianRational.coerce(p), GaussianRational.coerce(x[1]),
        GaussianRational.coerce(str(x[0])), from_ints(p, q, d),
        parse_series(format_scalar(a * b), 0).constant_term(),
        parse_series(f"{p}*x + {q}", 1).constant_term(),
    ]
    results += [u / v for u in (a, b, ZERO) for v in (a, b) if v]
    for r in results:
        assert type(r) is GaussianRational
        assert (r is ZERO) == (r == 0) == (not r)


@given(_pairs)
def test_copies_and_pickles_leave_the_shared_constants_alone(x):
    # the constructor hands out ZERO, so a copy that wrote slots into the
    # object it made would overwrite ZERO; copies rebuild through from_ints
    values = [ZERO, ONE, I, GaussianRational(*x), GaussianRational(3, 1)]
    copies = [copy.copy, copy.deepcopy]
    copies += [lambda v, n=n: pickle.loads(pickle.dumps(v, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
    for value in values:
        for dup in copies:
            got = dup(value)
            assert type(got) is GaussianRational and got == value and hash(got) == hash(value)
            assert (got is ZERO) == (value == 0)
    assert copy.deepcopy([ZERO, ONE])[0] is ZERO
    assert (ZERO._a, ZERO._b, ZERO._d) == (0, 0, 1)
    assert (ONE._a, ONE._b, ONE._d) == (1, 0, 1)
    assert (I._a, I._b, I._d) == (0, 1, 1)


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


_ints = st.one_of(
    st.just(0),
    st.integers(-(2**70), 2**70),
    st.integers(2**64 + 1, 2**130),
    st.integers(-(2**130), -(2**64) - 1),
)


@given(_pairs, _ints)
def test_product_with_an_int_agrees_with_the_scalar_product(x, n):
    # an int operand takes its own path, which must give the same canonical
    # triple as the product with the coerced scalar, on either side
    a = GaussianRational(*x)
    expect = a * GaussianRational(n)
    for got in (a * n, n * a):
        assert type(got) is GaussianRational
        assert (got._a, got._b, got._d) == (expect._a, expect._b, expect._d)
        assert _parts(got) == (x[0] * n, x[1] * n)
