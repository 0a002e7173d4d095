"""Exact Gaussian-rational arithmetic.

Coefficients throughout the package live in Q(i): pairs of
`fractions.Fraction` for the real and imaginary parts.  All arithmetic is
exact and equality is decidable, which is what the singularity
classification and the degree-by-degree solvers rely on.
"""

from __future__ import annotations

from fractions import Fraction


_ZERO_FRACTION = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class GaussianRational:
    """A number re + im*i with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_frac(x))

    @classmethod
    def _fast(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # internal: arguments are already Fractions
        obj = object.__new__(cls)
        obj.re = re
        obj.im = im
        return obj

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational._fast(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._fast(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational._fast(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:  # real fast path
            return GaussianRational._fast(self.re * other.re, _ZERO_FRACTION)
        return GaussianRational._fast(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero in Q(i)")
            return GaussianRational._fast(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational._fast(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    # -- conversions ---------------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

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
    if s.im == 0:
        return _frac_str(s.re)
    if s.im == 1:
        imag = "i"
    elif s.im == -1:
        imag = "-i"
    else:
        imag = f"{_frac_str(s.im)}*i"
    if s.re == 0:
        return imag
    sign = "+" if s.im > 0 else "-"
    return f"{_frac_str(s.re)}{sign}{imag.lstrip('-')}"
