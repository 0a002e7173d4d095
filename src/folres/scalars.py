"""Exact Gaussian-rational arithmetic.

Coefficients throughout the package live in Q(i).  A value is stored as
three Python ints ``(a, b, d)`` standing for ``(a + b*i) / d``, kept
canonical: ``d > 0`` and ``gcd(a, b, d) == 1``.  Each operation is plain
integer arithmetic followed by at most one ``math.gcd``, and equal values
have equal triples, so equality and hashing compare the triple.  ``re`` and
``im`` give the parts as reduced ``fractions.Fraction``s for the code that
prints or converts them.  All arithmetic is exact and equality is
decidable, which is what the singularity classification and the
degree-by-degree solvers rely on.

Zero is one shared object, ``ZERO`` (the triple ``(0, 0, 1)``): every
constructor and every operation returns it for a zero value, before any gcd
or allocation, so ``x is ZERO`` is the zero test, and ``+ - * /`` return at
once on a ``ZERO`` operand.  The separatrix curves are mostly zero, so most
scalar operations of a solve have such an operand.  Because the constructor
hands out the shared object, copies and pickles rebuild a value through
``from_ints`` rather than by writing slots into a fresh object, which would
overwrite ``ZERO`` itself.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import FolresError


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
    if not a and not b:
        return ZERO
    obj = _new(GaussianRational)
    obj._a = a
    obj._b = b
    obj._d = d
    return obj


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    # internal: d > 0; divides out gcd(a, b, d)
    if not a and not b:
        return ZERO
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


# (a + b*i) / d for ints with d > 0, reduced to its canonical triple
from_ints = _reduced


class GaussianRational:
    """A number re + im*i with exact rational re, im, held as (a + b*i) / d."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re = _frac(re)
        im = _frac(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # p/q + (r/s) i = (p s + r q i) / (q s)
        return _reduced(p * s, r * q, q * s)

    def __reduce__(self):
        # copy and pickle rebuild through from_ints, so zero comes back as ZERO
        # and no copy writes into the shared object
        return (from_ints, (self._a, self._b, self._d))

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

    def bit_length(self) -> int:
        """The largest bit length among a, b and d."""
        return max(self._a.bit_length(), self._b.bit_length(), self._d.bit_length())

    # -- predicates ------------------------------------------------------------

    def __bool__(self) -> bool:
        return self is not ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        if other is ZERO:
            return self
        if self is ZERO:
            return other
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
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        if other is ZERO:
            return self
        if self is ZERO:
            return _make(-other._a, -other._b, other._d)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _make(self._a - other._a, self._b - other._b, 1)
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                return _reduced(self._a * other, self._b * other, self._d)
            other = GaussianRational.coerce(other)
        if self is ZERO or other is ZERO:
            return ZERO
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not b and not e:  # real fast path
            return _reduced(a * c, 0, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        if other is ZERO:
            raise ZeroDivisionError("division by zero in Q(i)")
        if self is ZERO:
            return ZERO
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
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


ZERO = _new(GaussianRational)
ZERO._a, ZERO._b, ZERO._d = 0, 0, 1
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _ratio_str(n: int, d: int) -> str:
    # n/d in lowest terms, d > 0
    if d != 1:
        g = gcd(n, d)
        n //= g
        d //= g
    return f"{n}" if d == 1 else f"{n}/{d}"


def complex_str(a: int, b: int, d: int) -> str:
    """The text of a canonical triple with both parts nonzero: each part is
    reduced by its own ``gcd``.  A ``ValueError`` past Python's int-string
    limit."""
    imag = "i" if b == d or b == -d else f"{_ratio_str(abs(b), d)}*i"
    return f"{_ratio_str(a, d)}{'+' if b > 0 else '-'}{imag}"


def unprintable() -> FolresError:
    """The error of an int past Python's int-string limit."""
    return FolresError(f"cannot print a coefficient of more than {sys.get_int_max_str_digits()} digits")


def format_scalar(s: GaussianRational) -> str:
    """Canonical printing ``a/b+c/d*i`` from the triple; parse-print-parse is
    idempotent.  A real or purely imaginary triple's one nonzero part is in
    lowest terms, so only a complex one takes a ``gcd``, one per part.  Past
    Python's int-string limit, a ``FolresError``."""
    a, b, d = s._a, s._b, s._d
    try:
        if a and b:
            return complex_str(a, b, d)
        if not b:
            return f"{a}" if d == 1 else f"{a}/{d}"
        if d != 1:
            return f"{b}/{d}*i"
        return "i" if b == 1 else "-i" if b == -1 else f"{b}*i"
    except ValueError:
        raise unprintable() from None
