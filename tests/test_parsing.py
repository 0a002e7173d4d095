"""The input grammar: error messages and positions, accepted edge cases,
digits and nesting depth, and properties of parse and print."""

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folres import MSeries, VectorField, parsing
from folres.cli import main
from folres.errors import ParseError
from folres.parsing import _Parser, _read_printed, format_field, parse_field, parse_series
from folres.scalars import GaussianRational, format_scalar
from folres.series import format_mseries

from conftest import gr


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("[x, y", "expected ',', found 'end'", 5),
        ("[x, y, z] junk", "unexpected character 'j'", 10),
        ("[x/y, y, z]", "division only by nonzero constants", 2),
        ("[1/0, y, z]", "division only by nonzero constants", 2),
        ("[1/(x - x), y, z]", "division only by nonzero constants", 2),
        ("[2/(1 + x), y, z]", "division only by nonzero constants", 2),
        ("[x^5000, y, z]", "exponent too large", 2),
        ("[x^, y, z]", "expected 'nat', found ','", 3),
        ("[x^-1, y, z]", "expected 'nat', found '-'", 3),
        ("[a, y, z]", "unexpected character 'a'", 1),
        ("[x,, y, z]", "expected a value, found ','", 3),
        ("[(x, y, z]", "expected ')', found ','", 3),
        ("x, y, z]", "expected '[', found 'x'", 0),
        ("", "expected '[', found 'end'", 0),
        ("[x, y, z", "expected ']', found 'end'", 8),
        ("[x^2^3, y, z]", "expected ',', found '^'", 4),
        ("[x, y, z]]", "expected 'end', found ']'", 9),
        ("[x + , y, z]", "expected a value, found ','", 5),
        ("[x, y; z]", "unexpected character ';'", 5),
        ("[1/0*x, y, z]", "division only by nonzero constants", 2),
        ("[(1+2/0*i)*x, y, z]", "division only by nonzero constants", 5),
        ("[(+1/2+i)*x, y, z]", "expected a value, found '+'", 2),
        ("[x, y, z] w", "unexpected character 'w'", 10),
        ("[3*x^5000, y, z]", "exponent too large", 4),
        ("[+x, y, z]", "expected a value, found '+'", 1),
        ("[((2^4096)^4096)^4096, y, z]", "power too large", 16),
        ("[(17^4096)^4096, y, z]", "power too large", 10),
        pytest.param(
            "[" + "9" * (sys.get_int_max_str_digits() + 1) + ", y, z]",
            f"numeral longer than {sys.get_int_max_str_digits()} digits",
            1,
            id="numeral-past-int-string-limit",
        ),
        pytest.param(
            "[1/" + "9" * (sys.get_int_max_str_digits() + 1) + "*x, y, z]",
            f"numeral longer than {sys.get_int_max_str_digits()} digits",
            3,
            id="denominator-past-int-string-limit",
        ),
        pytest.param(
            "[x^" + "1" * (sys.get_int_max_str_digits() + 1) + ", y, z]",
            "exponent too large",
            2,
            id="exponent-past-int-string-limit",
        ),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_field(text, 24)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


@pytest.mark.parametrize(
    "text,trunc,terms",
    [
        ("1/(x - x + 2)", 24, {(0, 0, 0): gr("1/2")}),
        ("x^30", 24, {}),
        ("(1 - 1)^30", 24, {}),
        ("1/(1 + x)", 0, {(0, 0, 0): gr(1)}),
        ("2y", 24, {(0, 1, 0): gr(2)}),
        ("0^0", 24, {(0, 0, 0): gr(1)}),
        ("(1 + x)^2 - 1", 1, {(1, 0, 0): gr(2)}),
        ("--x/(1 + i)", 24, {(1, 0, 0): gr("1/2", "-1/2")}),
        ("x^٣", 24, {(3, 0, 0): gr(1)}),
        ("x*x", 24, {(2, 0, 0): gr(1)}),
        ("2 x", 24, {(1, 0, 0): gr(2)}),
        ("x - -y", 24, {(1, 0, 0): gr(1), (0, 1, 0): gr(1)}),
    ],
)
def test_accepted_edge_cases(text, trunc, terms):
    # as a series and as the first component of a field
    s = parse_series(text, trunc)
    assert s.trunc == trunc
    assert s.terms == terms
    f = parse_field(f"[{text}, 0, 0]", trunc)
    assert f.trunc == trunc
    assert f.fx.terms == terms


def test_superscript_digit_is_a_parse_error(capsys):
    # '²' passes str.isdigit() but int() rejects it; only decimal digits count
    code = main(["classify", "[x², y, z]"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"] == "parse"
    assert doc["message"] == "unexpected character '²' (at position 2)"
    assert doc["position"] == 2


def _nested(depth: int) -> str:
    return "[" + "(" * depth + "x" + ")" * depth + ", y, z]"


def test_nesting_at_depth_200_parses(capsys):
    code = main(["classify", _nested(200)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["field"] == ["x", "y", "z"]


def test_nesting_at_depth_1000_is_a_parse_error(capsys):
    code = main(["classify", _nested(1000)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    # the 201st '(' is the first one past the limit
    assert doc["message"] == "nesting too deep (at position 201)"
    assert doc["position"] == 201


# -- properties ---------------------------------------------------------------------

_fractions = st.fractions(max_denominator=50)
_scalars = st.builds(GaussianRational, _fractions, _fractions)
_monos = st.tuples(*(st.integers(0, 6),) * 3)


@st.composite
def _fields(draw):
    trunc = draw(st.integers(0, 8))
    comps = [
        MSeries(draw(st.dictionaries(_monos, _scalars, max_size=12)), trunc)
        for _ in range(3)
    ]
    return VectorField(*comps)


def _descent_terms(text: str, trunc: int) -> list:
    """The descent's term dicts of a field as (monomial, coefficient) lists,
    so that comparing them compares insertion order too."""
    return [list(c.terms.items()) for c in _Parser(text, trunc).parse_triple().components]


@settings(max_examples=60, deadline=None)
@given(_fields())
def test_parse_print_parse_is_idempotent(field):
    text = format_field(field)
    again = parse_field(text, field.trunc)
    assert again.eq_trusted(field)
    assert format_field(again) == text
    assert format_field(parse_field(format_field(again), field.trunc)) == text
    # the printed form is read by the term pattern, exactly as the descent reads it
    for trunc in {0, field.trunc // 2, field.trunc, field.trunc + 2}:
        fast = _read_printed(text, trunc)
        assert fast is not None
        assert [list(c.items()) for c in fast] == _descent_terms(text, trunc)


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _reference_format(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return _fraction_text(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{_fraction_text(im)}*i"
    if re == 0:
        return imag
    sign = "+" if im > 0 else "-"
    return f"{_fraction_text(re)}{sign}{imag.lstrip('-')}"


@given(st.fractions(), st.fractions())
def test_format_scalar_matches_a_fraction_printer(re, im):
    assert format_scalar(GaussianRational(re, im)) == _reference_format(re, im)


def _reference_mono(m: tuple) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", m) if e]
    return "*".join(factors)


def _reference_format_mseries(terms: dict) -> str:
    """A graded-lex printer from the coefficients' ``Fraction`` parts."""
    if not terms:
        return "0"
    parts = []
    for m in sorted(terms, key=lambda m: (sum(m), [-e for e in m])):
        real, imag = terms[m].re, terms[m].im
        text = _reference_format(real, imag)
        if m != (0, 0, 0):
            if text == "1":
                text = _reference_mono(m)
            elif text == "-1":
                text = f"-{_reference_mono(m)}"
            elif real and imag:
                text = f"({text})*{_reference_mono(m)}"
            else:
                text = f"{text}*{_reference_mono(m)}"
        if parts:
            text = f"- {text[1:]}" if text.startswith("-") else f"+ {text}"
        parts.append(text)
    return " ".join(parts)


_units = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]).map(lambda p: GaussianRational(*p))
_negative_reals = st.fractions(max_value=-1, max_denominator=50).map(GaussianRational)
_complex = st.tuples(_fractions, _fractions).filter(all).map(lambda p: GaussianRational(*p))
_coefficients = _units | _negative_reals | _complex | _scalars


@st.composite
def _printed_series(draw):
    terms = draw(st.dictionaries(_monos, _coefficients, max_size=12))
    if draw(st.booleans()):
        terms[(0, 0, 0)] = draw(_coefficients)
    return MSeries(terms, 18)


@settings(max_examples=200, deadline=None)
@given(_printed_series())
def test_format_mseries_matches_a_fraction_printer(s):
    assert format_mseries(s) == _reference_format_mseries(s.terms)


def test_format_mseries_prints_every_coefficient_shape():
    terms = {
        (0, 0, 0): gr("-1/2", 3), (1, 0, 0): gr(1), (0, 1, 0): gr(-1), (0, 0, 1): gr(0, 1),
        (2, 0, 0): gr(0, -1), (1, 1, 0): gr("-3/4"), (1, 0, 1): gr(2, "-5/6"), (0, 2, 0): gr(0, "7/2"),
    }
    s = MSeries(terms, 4)
    assert format_mseries(s) == (
        "-1/2+3*i + x - y + i*z - i*x^2 - 3/4*x*y + (2-5/6*i)*x*z + 7/2*i*y^2"
    )
    assert format_mseries(s) == _reference_format_mseries(terms)


# every way of writing the whitespace of a printed field: none, doubled, and
# tabs or newlines around the term signs, the commas and the brackets
_around_signs = st.sampled_from(["{}", " {} ", "  {}  ", "\t{}\n", "\n{} ", " {}\t"])
_around_commas = st.sampled_from([",", ", ", ",  ", " , ", "\n,\t", "\t,\n"])
_around_open = st.sampled_from(["[", "[  ", "  [", "\t[\n", "\n["])
_around_close = st.sampled_from(["]", "  ]", "]  ", "\t]\n", "\n]"])


@settings(max_examples=150, deadline=None)
@given(_fields(), _around_signs, _around_commas, _around_open, _around_close)
def test_whitespace_variants_are_read_as_printed(field, signs, commas, open_, close):
    text = format_field(field)
    variant = re.sub(r" ([-+]) ", lambda m: signs.format(m[1]), text[1:-1]).replace(", ", commas)
    variant = f"{open_}{variant}{close}"
    for trunc in {0, field.trunc, field.trunc + 2}:
        fast = _read_printed(variant, trunc)
        assert fast is not None, variant
        assert [list(c.items()) for c in fast] == _descent_terms(variant, trunc)


@pytest.mark.parametrize("text", ["[x+y, y, z]", "[ x , y , z ]", "[x\t+\ny, y, z]"])
def test_whitespace_variants_read_as_the_descent(text):
    fast = _read_printed(text, 4)
    assert fast is not None
    assert [list(c.items()) for c in fast] == _descent_terms(text, 4)


def test_dense_printed_fields_never_reach_the_descent(monkeypatch):
    # 50 fields of 60 terms per component through degree 12, as chart-batch
    # reads them: every one is read by the term pattern alone
    rng = random.Random(12)
    built = []
    monkeypatch.setattr(parsing, "_Parser", lambda *a: built.append(a) or _Parser(*a))
    for _ in range(50):
        comps = []
        for _ in range(3):
            terms = {}
            while len(terms) < 60:
                d = rng.randint(1, 12)
                i = rng.randint(0, d)
                j = rng.randint(0, d - i)
                re_part = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                terms[(i, j, d - i - j)] = GaussianRational(re_part, rng.choice((0, 0, rng.randint(-5, 5))))
            comps.append(MSeries(terms, 48))
        field = VectorField(*comps)
        assert parse_field(format_field(field), 48).eq_trusted(field)
    assert built == []


_grammar_tokens = st.sampled_from(
    ["x", "y", "z", "i", "0", "1", "2", "17", "4096", "5000", "+", "-", "*", "/", "^",
     "(", ")", ",", "[", "]", " "]
)
_stray = st.sampled_from(["²", "٣", "½", ";", "a", "."]) | st.characters()
_runs = st.tuples(st.sampled_from(["(", ")", "-"]), st.integers(1, 600)).map(
    lambda p: p[0] * p[1]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_grammar_tokens | _runs | _stray, max_size=30),
    st.booleans(),
    st.integers(0, 4),
)
def test_fuzz_returns_a_field_or_raises_parse_error(tokens, bracket, trunc):
    body = "".join(tokens)
    text = f"[{body}, y, z]" if bracket else body
    fast = _read_printed(text, trunc)  # never raises
    try:
        out = parse_field(text, trunc)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        assert fast is None
    else:
        assert isinstance(out, VectorField)
        if fast is not None:
            assert [list(c.items()) for c in fast] == _descent_terms(text, trunc)
