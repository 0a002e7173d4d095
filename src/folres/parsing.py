"""Input DSL for vector fields: a bracketed triple of polynomial expressions
in x, y, z with Gaussian-rational coefficients.

``parse_field`` reads the printed form, the one ``format_field`` writes, with
one match of a compiled pattern per term: a sign, a coefficient ``n``,
``n/d``, ``n/d*i``, ``i`` or ``(a/b+c/d*i)``, a monomial ``x^i*y^j*z^k``, and
what follows the term: ``,``, the closing ``]`` at the end of the input, or
the next term's sign.  The term's integer triple and exponent triple are
built from the match's groups.  At the first character that pattern does not
read, the whole input goes to the recursive descent below, which reads all
other input and raises every ``ParseError``.

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
A power whose exponent times the bit length of its base's largest
coefficient part (plus that of its term count) passes ``MAX_EXPONENT`` times
the bit length of a numeral at that limit is "power too large" at its ``^``.

Division is restricted to nonzero constant divisors (rationals like 1/2 and
scalar units like (1+i)).  Parse-print-parse is idempotent for the canonical
graded-lex printer.

The descent works on plain ``{(i, j, k): GaussianRational}`` term dicts,
truncated at ``trunc`` and free of zero coefficients at every step, and
builds one ``MSeries`` per component at the end, through ``MSeries._clean``
as both readers' dicts are clean.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .scalars import GaussianRational, I, ONE, from_ints
from .series import MSeries, format_mseries, mul_terms, pow_terms
from .vfield import VectorField

MAX_EXPONENT = 4096
MAX_NESTING = 200

_ONE_MONO = (0, 0, 0)
_NAMES = {"i": (_ONE_MONO, I), "x": ((1, 0, 0), ONE), "y": ((0, 1, 0), ONE), "z": ((0, 0, 1), ONE)}
# groups: nat, name, operator; anything else but whitespace is an error
_TOKEN = re.compile(r"(\d+)|([xyzi])|([-+*/^(),\[\]])|(\S)")
_KINDS = (None, "nat", "name")
# a power's exponent times its base's height may not pass MAX_EXPONENT times
# the bit length of a numeral at Python's int-string limit
_MAX_POWER_BITS = MAX_EXPONENT * (
    10 ** (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits) - 1
).bit_length()

# One printed term and what follows it (module docstring); anything else is
# the rest group.  An optional part is '(?:...|)', which re runs faster than
# a '?' on a group.
_PRINTED = re.compile(
    r"""\s*(?:([-+])\s*|)(?=[0-9i(xyz])
    (?:([0-9]+)(?:/([0-9]+)|)(\*i|)                                      # n, n/d, n*i, n/d*i
      |(i)                                                               # i
      |\((-?[0-9]+)(?:/([0-9]+)|)([-+])(?:([0-9]+)(?:/([0-9]+)|)\*|)i\)  # (a/b+c/d*i)
      |)
    (?:\*?(x)(?:\^([0-9]+)|)|)(?:\*?(y)(?:\^([0-9]+)|)|)(?:\*?(z)(?:\^([0-9]+)|)|)
    \s*(?:(,)|(\])\s*\Z|(?=[-+]))
    |(.+)""",
    re.VERBOSE | re.DOTALL,
)
_OPEN = re.compile(r"\s*\[")


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


def _add_term(acc: dict, m: tuple, c: GaussianRational) -> None:
    """acc[m] += c in place, dropping a coefficient that cancels."""
    cur = acc.get(m)
    if cur is None:
        acc[m] = c
    else:
        total = cur + c
        if total:
            acc[m] = total
        else:
            del acc[m]


def _add_into(acc: dict, rhs: dict, negate: bool) -> None:
    """acc += rhs (or -= rhs) in place, dropping coefficients that cancel."""
    for m, c in rhs.items():
        _add_term(acc, m, -c if negate else c)


def _read_printed(src: str, trunc: int):
    """The three term dicts of a field in the printed form, equal to the
    descent's, insertion order included; None at the first character that
    form does not allow.  Never raises."""
    m = _OPEN.match(src)
    if m is None:
        return None
    comps = []
    acc = {}
    lead = True
    close = ""
    # an exponent up to cap is at most trunc and at most MAX_EXPONENT
    cap = min(trunc, MAX_EXPONENT)
    terms = _PRINTED.findall(src, m.end())
    try:
        for sign, n, d, ni, i, p, q, im_sign, r, s, x, xe, y, ye, z, ze, comma, close, rest in terms:
            # the first term of a component takes no '+'; a later one starts
            # at the sign the match before it looked ahead to
            if rest or lead and sign == "+":
                return None
            if n:
                a, b, d = (0, int(n), int(d or 1)) if ni else (int(n), 0, int(d or 1))
            elif p:
                q, r, s = int(q or 1), int(r or 1), int(s or 1)
                a, b, d = int(p) * s, (-r if im_sign == "-" else r) * q, q * s
            else:
                a, b, d = (0, 1, 1) if i else (1, 0, 1)
            if not d:
                return None
            mono = (int(xe or 1) if x else 0, int(ye or 1) if y else 0, int(ze or 1) if z else 0)
            degree = mono[0] + mono[1] + mono[2]
            if degree > cap and max(mono) > MAX_EXPONENT:
                return None
            if degree <= trunc and (a or b):
                c = from_ints(-a, -b, d) if sign == "-" else from_ints(a, b, d)
                if mono in acc:
                    _add_term(acc, mono, c)
                else:
                    acc[mono] = c
            if comma or close:
                comps.append(acc)
                acc = {}
                lead = True
            else:
                lead = False
    except ValueError:  # a numeral past Python's int-string limit
        return None
    # close is the last match's: the input ends in the third component's ']'
    return comps if close and len(comps) == 3 else None


def _field(comps: list, trunc: int) -> VectorField:
    """The field of three term dicts that both readers leave clean."""
    return VectorField(*(_series(c, trunc) for c in comps))


def _series(terms: dict, trunc: int) -> MSeries:
    """The series of a clean term dict; a negative trunc is refused as the
    public ``MSeries`` refuses it."""
    if trunc < 0:
        raise ValueError("trunc must be non-negative")
    return MSeries._clean(terms, trunc)


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
        return _field(comps, self.trunc)

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
                height = max((c.bit_length() for c in base.values()), default=0) + len(base).bit_length()
                if exp * height > _MAX_POWER_BITS:
                    raise ParseError("power too large", pos)
                base = pow_terms(base, exp, self.trunc)
        return {m: -c for m, c in base.items()} if negate else base


def parse_field(src: str, trunc: int) -> VectorField:
    """Parse '[F, G, H]' into a vector field at the given truncation: the
    printed form through ``_read_printed``, any other input through the
    descent."""
    comps = _read_printed(src, trunc)
    if comps is None:
        return _Parser(src, trunc).parse_triple()
    return _field(comps, trunc)


def parse_series(src: str, trunc: int) -> MSeries:
    p = _Parser(src, trunc)
    out = p.parse_expr()
    p.take("end")
    return _series(out, trunc)


def format_field(field: VectorField) -> str:
    return "[" + ", ".join(format_mseries(c) for c in field.components) + "]"
