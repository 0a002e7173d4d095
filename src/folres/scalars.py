"""Exact Gaussian-rational arithmetic.

Coefficients throughout the package live in Q(i).  A value is stored as
three Python ints ``(a, b, d)`` standing for ``(a + b*i) / d``, kept
canonical: ``d > 0`` and ``gcd(a, b, d) == 1`` (zero is ``(0, 0, 1)``).
Each operation is plain integer arithmetic followed by at most one
``math.gcd``, and equal values have equal triples, so equality and hashing
compare the triple.  ``re`` and ``im`` give the parts as reduced
``fractions.Fraction``s for the code that prints or converts them.  All
arithmetic is exact and equality is decidable, which is what the
singularity classification and the degree-by-degree solvers rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    # internal: (a, b, d) is already canonical
    obj = _new(GaussianRational)
    obj._a = a
    obj._b = b
    obj._d = d
    return obj


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    # internal: d > 0; divides out gcd(a, b, d)
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    obj = _new(GaussianRational)
    obj._a = a
    obj._b = b
    obj._d = d
    return obj


class GaussianRational:
    """A number re + im*i with exact rational re, im, held as (a + b*i) / d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = _frac(re)
        im = _frac(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # p/q + (r/s) i = (p s + r q i) / (q s)
        a, b, d = p * s, r * q, q * s
        g = gcd(a, b, d)
        self._a = a // g
        self._b = b // g
        self._d = d // g

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if type(x) is int:
            return _make(x, 0, 1)
        return GaussianRational(x)

    # -- parts -----------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _make(self._a + other._a, self._b + other._b, 1)
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _make(self._a - other._a, self._b - other._b, 1)
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not b and not e:  # real fast path
            return _reduced(a * c, 0, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            if c < 0:
                a, b, c = -a, -b, -c
            return _reduced(a * f, b * f, d * c)
        # multiply by the conjugate: (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    # -- conversions ---------------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(s: GaussianRational) -> str:
    """Canonical printing ``a/b+c/d*i``; parse-print-parse is idempotent."""
    re, im = s.re, s.im
    if im == 0:
        return _frac_str(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    else:
        imag = f"{_frac_str(im)}*i"
    if re == 0:
        return imag
    sign = "+" if im > 0 else "-"
    return f"{_frac_str(re)}{sign}{imag.lstrip('-')}"
