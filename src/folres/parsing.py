"""Input DSL for vector fields: a bracketed triple of polynomial expressions
in x, y, z with Gaussian-rational coefficients.

Grammar (whitespace ignored; positions are 0-based character offsets):

    triple : '[' expr ',' expr ',' expr ']'
    expr   : term (('+' | '-') term)*
    term   : factor (('*' factor) | ('/' factor) | factor)*
    factor : ('-')* atom ('^' nat)?
    atom   : nat | 'i' | 'x' | 'y' | 'z' | '(' expr ')'

A ``nat`` is a run of Unicode decimal digits, the digits ``int`` reads, so
``x^٣`` is ``x^3``; a superscript such as ``²`` is not a digit and is an
unexpected character.  Exponents are capped at ``MAX_EXPONENT`` and
parentheses nest at most ``MAX_NESTING`` deep; past either cap the input is
a ``ParseError`` at the offending ``^`` or ``(``, as is a numeral past
Python's int-string limit, at the numeral or, for an exponent, at its ``^``.

Division is restricted to nonzero constant divisors (rationals like 1/2 and
scalar units like (1+i)).  Parse-print-parse is idempotent for the canonical
graded-lex printer.

The descent works on plain ``{(i, j, k): GaussianRational}`` term dicts,
truncated at ``trunc`` and free of zero coefficients at every step, and
builds one ``MSeries`` per component at the end.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .scalars import GaussianRational, I, ONE
from .series import MSeries, format_mseries, mul_terms, pow_terms
from .vfield import VectorField

MAX_EXPONENT = 4096
MAX_NESTING = 200

_ONE_MONO = (0, 0, 0)
_NAMES = {"i": (_ONE_MONO, I), "x": ((1, 0, 0), ONE), "y": ((0, 1, 0), ONE), "z": ((0, 0, 1), ONE)}
# groups: nat, name, operator; anything else but whitespace is an error
_TOKEN = re.compile(r"(\d+)|([xyzi])|([-+*/^(),\[\]])|(\S)")
_KINDS = (None, "nat", "name")


def _tokenize(src: str) -> list:
    """The (kind, text, pos) triples of src, ending with an 'end' token."""
    tokens = []
    for m in _TOKEN.finditer(src):
        group, text = m.lastindex, m.group()
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", m.start())
        tokens.append((_KINDS[group] if group < 3 else text, text, m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


def _nat(text: str, pos: int, message: str = "") -> int:
    """A numeral's value; a ParseError past Python's int-string limit."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(message or f"numeral longer than {sys.get_int_max_str_digits()} digits", pos) from None


def _add_into(acc: dict, rhs: dict, negate: bool) -> None:
    """acc += rhs (or -= rhs) in place, dropping coefficients that cancel."""
    for m, c in rhs.items():
        cur = acc.get(m)
        if cur is None:
            acc[m] = -c if negate else c
        else:
            total = cur - c if negate else cur + c
            if total:
                acc[m] = total
            else:
                del acc[m]


class _Parser:
    def __init__(self, src: str, trunc: int):
        self.tokens = _tokenize(src)
        self.k = 0
        self.trunc = trunc
        self.depth = 0

    def take(self, kind=None) -> tuple:
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end'!r}", tok[2])
        self.k += 1
        return tok

    # expression grammar -----------------------------------------------------

    def parse_triple(self) -> VectorField:
        self.take("[")
        comps = [self.parse_expr()]
        for _ in range(2):
            self.take(",")
            comps.append(self.parse_expr())
        self.take("]")
        self.take("end")
        return VectorField(*(MSeries(c, self.trunc) for c in comps))

    def parse_expr(self) -> dict:
        acc = self.parse_term()
        while self.tokens[self.k][0] in ("+", "-"):
            negate = self.take()[0] == "-"
            _add_into(acc, self.parse_term(), negate)
        return acc

    def parse_term(self) -> dict:
        acc = self.parse_factor()
        while True:
            kind, _, pos = self.tokens[self.k]
            if kind == "/":
                self.k += 1
                rhs = self.parse_factor()
                if len(rhs) != 1 or _ONE_MONO not in rhs:
                    raise ParseError("division only by nonzero constants", pos)
                inv = ONE / rhs[_ONE_MONO]
                acc = {m: inv * c for m, c in acc.items()}
            elif kind in ("*", "nat", "name", "("):
                # a missing '*' is juxtaposition, e.g. "2y"
                if kind == "*":
                    self.k += 1
                acc = mul_terms(acc, self.parse_factor(), self.trunc)
            else:
                return acc

    def parse_factor(self) -> dict:
        negate = False
        while self.tokens[self.k][0] == "-":
            self.k += 1
            negate = not negate
        kind, text, pos = self.take()
        if kind == "nat":
            n = _nat(text, pos)
            base = {_ONE_MONO: GaussianRational.coerce(n)} if n else {}
        elif kind == "name":
            mono, c = _NAMES[text]
            base = {mono: c} if text == "i" or self.trunc >= 1 else {}
        elif kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("nesting too deep", pos)
            base = self.parse_expr()
            self.take(")")
            self.depth -= 1
        else:
            raise ParseError(f"expected a value, found {text or 'end'!r}", pos)
        if self.tokens[self.k][0] == "^":
            pos = self.take()[2]
            exp = _nat(self.take("nat")[1], pos, "exponent too large")
            if exp > MAX_EXPONENT:
                raise ParseError("exponent too large", pos)
            if exp > self.trunc and _ONE_MONO not in base:
                base = {}
            else:
                base = pow_terms(base, exp, self.trunc)
        return {m: -c for m, c in base.items()} if negate else base


def parse_field(src: str, trunc: int) -> VectorField:
    """Parse '[F, G, H]' into a vector field at the given truncation."""
    return _Parser(src, trunc).parse_triple()


def parse_series(src: str, trunc: int) -> MSeries:
    p = _Parser(src, trunc)
    out = p.parse_expr()
    p.take("end")
    return MSeries(out, trunc)


def format_field(field: VectorField) -> str:
    return "[" + ", ".join(format_mseries(c) for c in field.components) + "]"
