"""Exact polynomial algebra over Q(i) on plain dicts, independent of folres.

A scalar is a pair ``(re, im)`` of Fractions.  A polynomial is a dict from
exponent triples ``(i, j, k)`` to nonzero scalars.  The benchmark generates
its inputs and checks the CLI's outputs with these helpers alone: nothing
here imports the package, so a check never runs the code path it checks.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
VARS = "xyz"


# -- scalars -------------------------------------------------------------------


def scalar(re, im=0):
    return (Fraction(re), Fraction(im))


def sadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ssub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def smul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def sdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    if not n:
        raise ZeroDivisionError("division by zero in Q(i)")
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


# -- polynomials -----------------------------------------------------------------


def const(s):
    return {(0, 0, 0): s} if s != ZERO else {}


def var(vi):
    mono = [0, 0, 0]
    mono[vi] = 1
    return {tuple(mono): ONE}


def padd(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        cur = out.get(m, ZERO)
        val = (cur[0] + sign * c[0], cur[1] + sign * c[1])
        if val == ZERO:
            out.pop(m, None)
        else:
            out[m] = val
    return out


def pscale(p, s):
    return {m: smul(c, s) for m, c in p.items()} if s != ZERO else {}


def pmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            re, im = smul(c1, c2)
            cur = out.get(m, ZERO)
            val = (cur[0] + re, cur[1] + im)
            if val == ZERO:
                out.pop(m, None)
            else:
                out[m] = val
    return out


def ppow(p, e):
    out = const(ONE)
    for _ in range(e):
        out = pmul(out, p)
    return out


def pmonosub(p, monos):
    """Substitute the monomial ``monos[v]`` for each variable v."""
    out = {}
    for m, c in p.items():
        key = tuple(sum(e * mono[w] for e, mono in zip(m, monos)) for w in range(3))
        out = padd(out, {key: c})
    return out


def pdivvar(p, vi, times=1):
    """Exact division by a coordinate power; ValueError when it is not exact."""
    out = {}
    for m, c in p.items():
        if m[vi] < times:
            raise ValueError(f"not divisible by {VARS[vi]}^{times}")
        mm = list(m)
        mm[vi] -= times
        out[tuple(mm)] = c
    return out


def factor_var(field, vi):
    """Largest e with v^e dividing every nonzero component, and the quotient."""
    mults = [min(m[vi] for m in p) for p in field if p]
    e = min(mults) if mults else 0
    return e, tuple(pdivvar(p, vi, e) for p in field)


def chart_pullback(field, divisor, scaled):
    """Blow-up transform in the chart v -> v * divisor for v in ``scaled``.

    A point chart scales both variables other than the divisor; a curve chart
    scales the one variable transverse to the axis that is not the divisor.
    Returns (divisor exponent, factored components).
    """
    monos = [[0, 0, 0] for _ in range(3)]
    for v in range(3):
        monos[v][v] = 1
        if v in scaled:
            monos[v][divisor] += 1
    composed = [pmonosub(p, monos) for p in field]
    out = []
    for v in range(3):
        if v in scaled:
            diff = padd(composed[v], pmul(var(v), composed[divisor]), -1)
            out.append(pdivvar(diff, divisor))
        else:
            out.append(composed[v])
    return factor_var(out, divisor)


def weight2_pullback(field):
    """(x, y, z) -> (x, y z, z^2) with divisor z, as (exponent, components)."""
    monos = ((1, 0, 0), (0, 1, 1), (0, 0, 2))
    fx, fy, fz = (pmonosub(p, monos) for p in field)
    half_fz = pscale(fz, scalar(Fraction(1, 2)))
    comp_y = padd(pmul(var(2), fy), pmul(var(1), half_fz), -1)
    return factor_var((fx, pdivvar(comp_y, 2, 2), pdivvar(half_fz, 2)), 2)


def linear_part(field):
    return [[p.get(tuple(int(w == v) for w in range(3)), ZERO) for v in range(3)] for p in field]


def classify(field):
    """Class tag from the constant terms and the linear part's invariants."""
    if any((0, 0, 0) in p for p in field):
        return "regular"
    m = linear_part(field)

    def minor(r0, r1, c0, c1):
        return ssub(smul(m[r0][c0], m[r1][c1]), smul(m[r0][c1], m[r1][c0]))

    trace = sadd(sadd(m[0][0], m[1][1]), m[2][2])
    second = sadd(sadd(minor(0, 1, 0, 1), minor(0, 2, 0, 2)), minor(1, 2, 1, 2))
    det = ZERO
    for c, (c0, c1) in enumerate(((1, 2), (0, 2), (0, 1))):
        term = smul(m[0][c], minor(1, 2, c0, c1))
        det = ssub(det, term) if c % 2 else sadd(det, term)
    if ZERO != trace or ZERO != second or ZERO != det:
        return "elementary"
    if any(e != ZERO for row in m for e in row):
        return "nilpotent_nonzero"
    return "zero_linear_part"


# -- printing --------------------------------------------------------------------


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_scalar(s) -> str:
    re, im = s
    if not im:
        return _frac_text(re)
    imag = "i" if abs(im) == 1 else f"{_frac_text(abs(im))}*i"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"{_frac_text(re)}{'+' if im > 0 else '-'}{imag}"


def _mono_text(m) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, m) if e]
    return "*".join(parts)


def fmt_poly(p) -> str:
    """Graded order, coefficients first, as a user would type the series."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=lambda m: (sum(m), -m[0], -m[1])):
        re, im = p[m]
        mono = _mono_text(m)
        if re and im:
            negative, coeff = False, f"({fmt_scalar((re, im))})"
        else:
            negative, coeff = (re or im) < 0, fmt_scalar((abs(re), abs(im)))
        if not mono:
            text = coeff
        elif coeff == "1":
            text = mono
        else:
            text = f"{coeff}*{mono}"
        if not pieces:
            pieces.append("-" + text if negative else text)
        else:
            pieces.append(("- " if negative else "+ ") + text)
    return " ".join(pieces)


def fmt_field(field) -> str:
    return "[" + ", ".join(fmt_poly(p) for p in field) + "]"


# -- parsing ---------------------------------------------------------------------


class _Parser:
    """Recursive descent over the CLI's field grammar, into dict polynomials."""

    def __init__(self, text: str):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch in "xyzi+-*/^()":
                self.toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r}")
        self.toks.append("")
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self, want=None):
        tok = self.toks[self.k]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.k += 1
        return tok

    def expr(self):
        acc = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            acc = padd(acc, self.term(), sign)
        return acc

    def term(self):
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                acc = pmul(acc, self.factor())
            elif tok == "/":
                self.take()
                div = self.factor()
                if set(div) - {(0, 0, 0)} or not div:
                    raise ValueError("division only by nonzero constants")
                acc = pscale(acc, sdiv(ONE, div[(0, 0, 0)]))
            elif tok and (tok.isdigit() or tok in "xyzi("):
                acc = pmul(acc, self.factor())
            else:
                return acc

    def factor(self):
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        base = self.atom()
        if self.peek() == "^":
            self.take()
            base = ppow(base, int(self.take()))
        return pscale(base, scalar(-1)) if negate else base

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return const(scalar(int(tok)))
        if tok == "i":
            return const(scalar(0, 1))
        if tok in ("x", "y", "z"):
            return var(VARS.index(tok))
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ValueError(f"expected a value, found {tok!r}")


def parse_poly(text: str):
    p = _Parser(text)
    out = p.expr()
    p.take("")
    return out


def parse_scalar(text: str):
    p = parse_poly(text)
    if set(p) - {(0, 0, 0)}:
        raise ValueError(f"{text!r} is not a constant")
    return p.get((0, 0, 0), ZERO)


# -- closed-form separatrices ------------------------------------------------------


def xlambda_coefficients(n: int, degree: int):
    """Graph separatrix of (y - z) d/dx + x z d/dy + z^n d/dz, lambda = 1.

    Matching powers of z in z^n x' = y - z and z^(n-1) y' = x gives
    b_1 = 1, b_m = (m - n + 1) a_(m-n+1) and a_m = (m - n + 2) b_(m-n+2).
    For lambda != 1 both series scale by lambda.
    """
    a = [0] * (degree + 1)
    b = [0] * (degree + 1)
    for m in range(1, degree + 1):
        if m == 1:
            b[m] = 1
        elif m - n + 1 >= 1:
            b[m] = (m - n + 1) * a[m - n + 1]
        if m - n + 2 >= 1:
            a[m] = (m - n + 2) * b[m - n + 2]
    return a, b
