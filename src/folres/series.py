"""Truncated formal power series with an explicit precision ledger.

Two carriers:

* ``USeries`` -- one variable (the curve parameter), dense coefficient list.
* ``MSeries`` -- three variables x, y, z, sparse exponent map bounded by
  total degree.

Every series carries ``trunc``, the last total degree whose coefficients are
trusted.  Operations propagate the ledger pessimistically:

* sums and products keep ``min`` of the input ledgers,
* substitution by series with zero constant term keeps the ``min`` ledger,
  and a shift of the origin keeps its own, reading the terms as exact,
* division by v^e lowers the ledger by e,
* differentiation lowers the ledger by one,
* inversion of a unit keeps the ledger.

Coefficients above the ledger are never stored.  ``valuation`` returns
``INFINITE`` (``math.inf``) when every trusted coefficient vanishes; callers
must read that as "at least trunc + 1".

The term dict of an ``MSeries`` is clean: its values are
``GaussianRational``, none is zero, and every monomial has total degree at
most ``trunc``.  No code changes it after construction, so series share
dicts freely.  The public ``MSeries(terms, trunc)`` copies and checks any
input into that form; ``MSeries._clean`` stores a dict that is already clean
as it is, and builds every result that is clean by construction: products,
substitutions, scalings, negations, divisions, derivatives, the inverse of a
unit, sums and monomial substitutions after dropping cancelled terms,
``retrunc`` after dropping the terms above the new ledger, and the term
dicts of the parser and of ``separatrix.straighten``.

The coefficients of a ``USeries`` are clean as well: a tuple of exactly
``trunc + 1`` ``GaussianRational`` entries, every zero among them the shared
``ZERO``.  The public ``USeries(coeffs, trunc)`` coerces, cuts and pads any
input into that form; ``USeries._clean`` stores a sequence that is already
clean as a tuple with no check.  It builds every result that is clean by
construction: ``retrunc``, sums, differences, negations, scalings,
products, derivatives, ``shift_down``, ``divide`` and ``compose_curve``,
and in ``separatrix`` the transport's shifted and subtracted series, the
weight-2 lift of ``transform_curve``, the solver's curve and the identity
series of ``FormalCurve.graph``.

On ``{(i, j, k): coefficient}`` term dicts, ``mul_terms`` is the one sparse
product and ``substitute_terms`` the one substitution, behind
``MSeries.substitute``, ``MSeries.shift_origin``, the driver's coordinate
move ``separatrix.straighten`` and ``compose_curve``, which reads each curve
component as a series in x alone.
``convolve`` is the dense product of ``USeries``.
"""

from __future__ import annotations

import math

from .errors import (
    InsufficientSupport,
    NonzeroConstantTerm,
    NotAUnit,
    NotDivisible,
)
from .scalars import GaussianRational, ZERO, ONE, format_scalar

INFINITE = math.inf

VARS = ("x", "y", "z")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


def var_index(v) -> int:
    if isinstance(v, int):
        if v not in (0, 1, 2):
            raise ValueError(f"variable index {v} out of range")
        return v
    try:
        return _VAR_INDEX[v]
    except KeyError:
        raise ValueError(f"unknown variable {v!r}") from None


_coerce_scalar = GaussianRational.coerce
_new = object.__new__


def convolve(a, b, t: int) -> list:
    """Coefficients 0..t of the product of two coefficient sequences.

    The one dense product loop of the package: zero coefficients are skipped,
    and entries of either input above degree t are never read.
    """
    out = [ZERO] * (t + 1)
    for i, ca in enumerate(a[: t + 1]):
        if ca is not ZERO:
            for j, cb in enumerate(b[: t + 1 - i]):
                if cb is not ZERO:
                    out[i + j] = out[i + j] + ca * cb
    return out


def mul_terms(a: dict, b: dict, t: int) -> dict:
    """Terms of total degree <= t of the product of two sparse term dicts.

    The one sparse product of the package, on ``{(i, j, k): coefficient}``
    dicts without zero coefficients: a one-term factor is an exponent shift
    plus one scaling pass, and coefficients that cancel are dropped.
    """
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 1:
        ((i1, j1, k1), c), = small.items()
        d1 = i1 + j1 + k1
        scale = c != ONE
        out = {}
        for (i2, j2, k2), v in big.items():
            if d1 + i2 + j2 + k2 <= t:
                out[(i1 + i2, j1 + j2, k1 + k2)] = c * v if scale else v
        return out
    out = {}
    for (i1, j1, k1), u in small.items():
        d1 = i1 + j1 + k1
        for (i2, j2, k2), v in big.items():
            if d1 + i2 + j2 + k2 > t:
                continue
            m = (i1 + i2, j1 + j2, k1 + k2)
            cur = out.get(m)
            out[m] = u * v if cur is None else cur + u * v
    return {m: c for m, c in out.items() if c}


def pow_terms(a: dict, n: int, t: int) -> dict:
    """a^n truncated at total degree t: an exponent shift for a monomial with
    coefficient 1, as in ``x^5``, and repeated squaring with ``mul_terms``."""
    if len(a) == 1 and ONE in a.values():
        ((i, j, k), _), = a.items()
        return {(i * n, j * n, k * n): ONE} if (i + j + k) * n <= t else {}
    result = {(0, 0, 0): ONE}
    while n:
        if n & 1:
            result = mul_terms(result, a, t)
        n >>= 1
        if n:
            a = mul_terms(a, a, t)
    return result


def substitute_terms(terms: dict, subs, t: int) -> dict:
    """Terms of degree <= t of terms(sub_x, sub_y, sub_z), on term dicts: the
    one substitution.  Powers of each substitute and the (x, y) products are
    cached and built with ``mul_terms``.  Terms of degree above t are skipped,
    as their images start above t when no substitute has a constant term."""
    pows = [[{(0, 0, 0): ONE}] for _ in range(3)]

    def power(vi: int, e: int) -> dict:
        cache = pows[vi]
        while len(cache) <= e:
            cache.append(mul_terms(cache[-1], subs[vi], t))
        return cache[e]

    out = {}
    xy_cache: dict[tuple, dict] = {}
    for (i, j, k), c in terms.items():
        if i + j + k > t:
            continue
        xy = xy_cache.get((i, j))
        if xy is None:
            xy = xy_cache[(i, j)] = mul_terms(power(0, i), power(1, j), t)
        for m, v in (mul_terms(xy, power(2, k), t) if k else xy).items():
            w = c if v == ONE else c * v
            cur = out.get(m)
            out[m] = w if cur is None else cur + w
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# Univariate series
# ---------------------------------------------------------------------------


class USeries:
    """Truncated series in one parameter, coefficients indexed 0..trunc."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        """A series from any coefficient sequence: entries are coerced, those
        above ``trunc`` dropped, and a short sequence is padded with zeros."""
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        cs = [
            c if type(c) is GaussianRational else _coerce_scalar(c)
            for c in coeffs[: trunc + 1]
        ]
        cs.extend(ZERO for _ in range(trunc + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.trunc = trunc

    @staticmethod
    def _clean(coeffs, trunc: int) -> "USeries":
        """The series of a sequence that is already clean (exactly
        ``trunc + 1`` ``GaussianRational`` entries), stored as a tuple with
        no check, as ``MSeries._clean`` stores a clean term dict."""
        s = _new(USeries)
        s.coeffs = tuple(coeffs)
        s.trunc = trunc
        return s

    @staticmethod
    def zero(trunc: int) -> "USeries":
        return USeries((), trunc)

    @staticmethod
    def monomial(c, degree: int, trunc: int) -> "USeries":
        coeffs = [ZERO] * (trunc + 1)
        if degree <= trunc:
            coeffs[degree] = _coerce_scalar(c)
        return USeries(coeffs, trunc)

    @staticmethod
    def identity(trunc: int) -> "USeries":
        if trunc < 1:
            return USeries.zero(trunc)
        return USeries._clean((ZERO, ONE) + (ZERO,) * (trunc - 1), trunc)

    def __getitem__(self, k: int) -> GaussianRational:
        if k < 0 or k > self.trunc:
            raise IndexError(f"coefficient {k} outside trusted range 0..{self.trunc}")
        return self.coeffs[k]

    def retrunc(self, trunc: int) -> "USeries":
        """The series cut at ``trunc``; itself at its own ledger."""
        if trunc == self.trunc:
            return self
        if trunc > self.trunc:
            raise ValueError("cannot raise a truncation ledger")
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        return USeries._clean(self.coeffs[: trunc + 1], trunc)

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if c is not ZERO:
                return k
        return INFINITE

    def is_zero(self) -> bool:
        return all(c is ZERO for c in self.coeffs)

    def __add__(self, other: "USeries") -> "USeries":
        t = min(self.trunc, other.trunc)
        return USeries._clean([a + b for a, b in zip(self.coeffs[: t + 1], other.coeffs)], t)

    def __sub__(self, other: "USeries") -> "USeries":
        t = min(self.trunc, other.trunc)
        return USeries._clean([a - b for a, b in zip(self.coeffs[: t + 1], other.coeffs)], t)

    def __neg__(self) -> "USeries":
        return USeries._clean([-c for c in self.coeffs], self.trunc)

    def scale(self, c) -> "USeries":
        c = _coerce_scalar(c)
        return USeries._clean([c * a for a in self.coeffs], self.trunc)

    def __mul__(self, other: "USeries") -> "USeries":
        t = min(self.trunc, other.trunc)
        return USeries._clean(convolve(self.coeffs, other.coeffs, t), t)

    def derivative(self) -> "USeries":
        """d/dT; ledger drops by one, and zero coefficients cost no product."""
        if self.trunc == 0:
            return USeries.zero(0)
        return USeries._clean(
            [c if c is ZERO else c * k for k, c in enumerate(self.coeffs[1:], 1)],
            self.trunc - 1,
        )

    def shift_down(self, k: int) -> "USeries":
        """Exact division by T^k; ledger drops by k."""
        if k == 0:
            return self
        if self.trunc < k:
            raise NotDivisible("T", f"ledger {self.trunc} below shift {k}")
        for j in range(k):
            if self.coeffs[j] is not ZERO:
                raise NotDivisible("T", f"T^{j}")
        return USeries._clean(self.coeffs[k:], self.trunc - k)

    def divide(self, other: "USeries") -> "USeries":
        """Exact series division self/other; requires val(self) >= val(other).

        Long division after shifting both down by val(other): one scalar
        inverse of the divisor's leading coefficient, none when it is 1.
        """
        v = other.valuation()
        if v == INFINITE:
            raise ZeroDivisionError("division by a series that is zero at precision")
        num, den = self.shift_down(int(v)), other.shift_down(int(v))
        t = min(num.trunc, den.trunc)
        inv0 = None if den.coeffs[0] == ONE else ONE / den.coeffs[0]
        tail = [(j, c) for j, c in enumerate(den.coeffs[1 : t + 1], 1) if c is not ZERO]
        q = []
        for k in range(t + 1):
            acc = num.coeffs[k]
            for j, c in tail:
                if j > k:
                    break
                if q[k - j] is not ZERO:
                    acc = acc - c * q[k - j]
            q.append(acc if inv0 is None else acc * inv0)
        return USeries._clean(q, t)

    def eq_trusted(self, other: "USeries") -> bool:
        t = min(self.trunc, other.trunc)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(t + 1))

    def __repr__(self):
        terms = [
            f"{c}*T^{k}" for k, c in enumerate(self.coeffs) if c
        ] or ["0"]
        return f"USeries({' + '.join(terms)}; trunc={self.trunc})"


# ---------------------------------------------------------------------------
# Trivariate series
# ---------------------------------------------------------------------------


class MSeries:
    """Sparse series in x, y, z truncated at a total degree bound."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc: int):
        """A series from any ``{(i, j, k): coefficient}`` mapping: coefficients
        are coerced, and zeros and terms above ``trunc`` are dropped."""
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        clean = {}
        for mono, c in dict(terms).items():
            i, j, k = mono
            if i + j + k > trunc:
                continue
            c = _coerce_scalar(c)
            if c:
                clean[(i, j, k)] = c
        self.terms = clean
        self.trunc = trunc

    @staticmethod
    def _clean(terms: dict, trunc: int) -> "MSeries":
        """The series of a dict that is already clean (``GaussianRational``
        values, no zero, no monomial above ``trunc``), stored without a copy
        or a check, as ``scalars._make`` stores a canonical triple."""
        s = _new(MSeries)
        s.terms = terms
        s.trunc = trunc
        return s

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "MSeries":
        return MSeries({}, trunc)

    @staticmethod
    def constant(c, trunc: int) -> "MSeries":
        return MSeries({(0, 0, 0): c}, trunc)

    @staticmethod
    def variable(v, trunc: int) -> "MSeries":
        mono = [0, 0, 0]
        mono[var_index(v)] = 1
        return MSeries({tuple(mono): ONE}, trunc)

    @staticmethod
    def monomial(c, mono, trunc: int) -> "MSeries":
        return MSeries({tuple(mono): c}, trunc)

    # -- basic queries -----------------------------------------------------------

    def coeff(self, mono) -> GaussianRational:
        return self.terms.get(tuple(mono), ZERO)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0, 0, 0), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        if not self.terms:
            return INFINITE
        return min(sum(m) for m in self.terms)

    def max_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def retrunc(self, trunc: int) -> "MSeries":
        """The series cut at ``trunc``; itself at its own ledger, as no code
        changes a series' terms.  A cut of a clean dict is clean once the
        terms above ``trunc`` are dropped, so it is built by ``_clean``."""
        if trunc == self.trunc:
            return self
        if trunc > self.trunc:
            raise ValueError("cannot raise a truncation ledger")
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        return MSeries._clean(
            {m: c for m, c in self.terms.items() if m[0] + m[1] + m[2] <= trunc}, trunc
        )

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "MSeries") -> "MSeries":
        t = min(self.trunc, other.trunc)
        out = dict(self.retrunc(t).terms)
        for m, c in other.retrunc(t).terms.items():
            cur = out.get(m)
            out[m] = c if cur is None else cur + c
        return MSeries._clean({m: c for m, c in out.items() if c}, t)

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + (-other)

    def __neg__(self) -> "MSeries":
        return MSeries._clean({m: -c for m, c in self.terms.items()}, self.trunc)

    def scale(self, c) -> "MSeries":
        c = _coerce_scalar(c)
        if not c:
            return MSeries.zero(self.trunc)
        return MSeries._clean({m: c * a for m, a in self.terms.items()}, self.trunc)

    def __mul__(self, other: "MSeries") -> "MSeries":
        t = min(self.trunc, other.trunc)
        return MSeries._clean(mul_terms(self.terms, other.terms, t), t)

    # -- derivations and divisions ---------------------------------------------------

    def partial(self, v) -> "MSeries":
        """d/dv; ledger drops by one."""
        vi = var_index(v)
        if self.trunc == 0:
            return MSeries.zero(0)
        out = {}
        for m, c in self.terms.items():
            e = m[vi]
            if e:
                nm = list(m)
                nm[vi] = e - 1
                out[tuple(nm)] = c * e
        return MSeries._clean(out, self.trunc - 1)

    def divide_by_variable(self, v, e: int = 1) -> "MSeries":
        """Exact division by v^e; ledger drops by e."""
        vi = var_index(v)
        divisor = VARS[vi] if e == 1 else f"{VARS[vi]}^{e}"
        out = {}
        for m, c in self.terms.items():
            if m[vi] < e:
                raise NotDivisible(divisor, _mono_str(m))
            nm = list(m)
            nm[vi] -= e
            out[tuple(nm)] = c
        if self.trunc < e:
            raise NotDivisible(divisor, "ledger exhausted")
        return MSeries._clean(out, self.trunc - e)

    def variable_multiplicity(self, v) -> int:
        """Largest e with v^e dividing every trusted term (0 for the zero series)."""
        vi = var_index(v)
        if not self.terms:
            return 0
        return min(m[vi] for m in self.terms)

    def invert_unit(self) -> "MSeries":
        c0 = self.constant_term()
        if not c0:
            raise NotAUnit("constant term vanishes")
        inv0 = ONE / c0
        # Newton-free graded recursion: group own terms by total degree.
        by_degree: dict[int, list] = {}
        for m, c in self.terms.items():
            d = sum(m)
            if d:
                by_degree.setdefault(d, []).append((m, c))
        out = {(0, 0, 0): inv0}
        out_by_degree: dict[int, list] = {0: [((0, 0, 0), inv0)]}
        for d in range(1, self.trunc + 1):
            acc: dict[tuple, GaussianRational] = {}
            for d1, terms1 in by_degree.items():
                if d1 > d:
                    continue
                lower = out_by_degree.get(d - d1)
                if not lower:
                    continue
                for (i1, j1, k1), a in terms1:
                    for (i2, j2, k2), b in lower:
                        m = (i1 + i2, j1 + j2, k1 + k2)
                        acc[m] = acc.get(m, ZERO) + a * b
            level = []
            for m, c in acc.items():
                val = -inv0 * c
                if val:
                    out[m] = val
                    level.append((m, val))
            out_by_degree[d] = level
        return MSeries._clean(out, self.trunc)

    # -- substitution -----------------------------------------------------------------

    def substitute(self, subs) -> "MSeries":
        """Composition s(sub_x, sub_y, sub_z); each sub must kill the constant term."""
        subs = tuple(subs)
        if any(s.constant_term() for s in subs):
            raise NonzeroConstantTerm("substituted series has a constant term")
        t = min([self.trunc] + [s.trunc for s in subs])
        return MSeries._clean(substitute_terms(self.terms, [s.terms for s in subs], t), t)

    def substitute_monomials(self, monos) -> "MSeries":
        """Substitute a monomial with coefficient 1 for each variable: the
        exponent triple of x^i y^j z^k becomes i * monos[0] + j * monos[1]
        + k * monos[2], three dot products with the matrix read once.
        Images above the ledger are dropped, and coefficients that meet on
        one image are summed, dropping those that cancel."""
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = monos
        t = self.trunc
        out = {}
        for (i, j, k), c in self.terms.items():
            m = (i * a0 + j * b0 + k * c0, i * a1 + j * b1 + k * c1, i * a2 + j * b2 + k * c2)
            if m[0] + m[1] + m[2] <= t:
                cur = out.get(m)
                out[m] = c if cur is None else cur + c
        return MSeries._clean({m: c for m, c in out.items() if c}, t)

    def shift_origin(self, shifts) -> "MSeries":
        """s(x + c1, y + c2, z + c3) for scalar shifts.

        Trusts the stored coefficients as exact: a constant shift folds high
        degrees down, so this is only meaningful for polynomial content (as
        in `separatrix.straighten`, which translates blow-up transforms of
        polynomial germs by the same rule).
        The ledger is kept: no term's image rises above the term's degree.
        """
        subs = []
        for mono, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), shifts):
            c = _coerce_scalar(c)
            subs.append({mono: ONE, (0, 0, 0): c} if c else {mono: ONE})
        return MSeries._clean(substitute_terms(self.terms, subs, self.trunc), self.trunc)

    # -- evaluation -----------------------------------------------------------------

    def eval_exact(self, point) -> GaussianRational:
        """Exact evaluation at a Gaussian-rational point (polynomial content)."""
        px, py, pz = (GaussianRational.coerce(p) for p in point)
        acc = ZERO
        for (i, j, k), c in self.terms.items():
            term = c
            for base, e in ((px, i), (py, j), (pz, k)):
                for _ in range(e):
                    term = term * base
            acc = acc + term
        return acc

    # -- comparison / printing ---------------------------------------------------------

    def eq_trusted(self, other: "MSeries") -> bool:
        t = min(self.trunc, other.trunc)
        monos = set(self.terms) | set(other.terms)
        for m in monos:
            if sum(m) > t:
                continue
            if self.terms.get(m, ZERO) != other.terms.get(m, ZERO):
                return False
        return True

    def linear_coeff(self, comp_var) -> GaussianRational:
        mono = [0, 0, 0]
        mono[var_index(comp_var)] = 1
        return self.coeff(tuple(mono))

    def __repr__(self):
        return f"MSeries({format_mseries(self)}; trunc={self.trunc})"


# the text of each exponent triple printed so far, emptied when it is full
_MONO_TEXT: dict = {}
_MONO_TEXT_SIZE = 4096


def _mono_str(m) -> str:
    text = _MONO_TEXT.get(m)
    if text is None:
        parts = []
        for v, e in zip(VARS, m):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        text = "*".join(parts) if parts else "1"
        if len(_MONO_TEXT) >= _MONO_TEXT_SIZE:
            _MONO_TEXT.clear()
        _MONO_TEXT[m] = text
    return text


def _graded_lex_key(m):
    return (sum(m), (-m[0], -m[1], -m[2]))


def format_mseries(s: MSeries) -> str:
    """Canonical graded-lex printing, ascending degree, x before y before z.

    Each coefficient is printed once and classified by its text: 1 and -1
    leave the bare monomial, a real or purely imaginary one (no sign after its
    first character) multiplies it as printed, and any other is parenthesised.
    Monomial strings come from ``_mono_str``, which builds the text of each
    exponent triple once and keeps it in a cache of at most
    ``_MONO_TEXT_SIZE`` triples.
    """
    if not s.terms:
        return "0"
    parts = []
    for m in sorted(s.terms, key=_graded_lex_key):
        cs = format_scalar(s.terms[m])
        if m == (0, 0, 0):
            text = cs
        elif cs == "1":
            text = _mono_str(m)
        elif cs == "-1":
            text = f"-{_mono_str(m)}"
        elif "+" in cs or "-" in cs[1:]:
            text = f"({cs})*{_mono_str(m)}"
        else:
            text = f"{cs}*{_mono_str(m)}"
        if not parts:
            parts.append(text)
        elif text[0] == "-":
            parts.append(f"- {text[1:]}")
        else:
            parts.append(f"+ {text}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Curve composition and growth diagnostics
# ---------------------------------------------------------------------------


def compose_curve(s: MSeries, phi) -> USeries:
    """s(phi1(T), phi2(T), phi3(T)) as a USeries.

    Each phi component needs a zero constant term and is read as a term dict
    in x alone, so the composition is ``substitute_terms``.  The ledger is the
    minimum of s.trunc and the component ledgers.
    """
    phi = tuple(phi)
    for p in phi:
        if p.coeffs[0]:
            raise NonzeroConstantTerm("curve does not pass through the origin")
    t = min([s.trunc] + [p.trunc for p in phi])
    subs = [{(n, 0, 0): c for n, c in enumerate(p.coeffs[: t + 1]) if c} for p in phi]
    out = [ZERO] * (t + 1)
    for (n, _, _), c in substitute_terms(s.terms, subs, t).items():
        out[n] = c
    return USeries._clean(out, t)


def ratio_divergence_estimate(s: USeries, support_stride: int = 1):
    """Coefficient-ratio sequence and a least-squares growth exponent.

    Walks the nonzero coefficients c_k on the arithmetic progression of the
    given stride starting at the valuation, and reports

    * ``ratios``: |c_k| / |c_{k+stride}| for consecutive support points,
    * ``gevrey_slope``: least-squares slope of log|c_k| against k*log(k).

    The slope is a heuristic growth diagnostic (0 for geometric coefficient
    growth, positive for factorial-type growth); the exact ratio sequence is
    the primary output.
    """
    if support_stride < 1:
        raise ValueError("stride must be positive")
    v = s.valuation()
    if v is INFINITE or v == INFINITE:
        raise InsufficientSupport("series is zero at this precision")
    support = []
    k = int(v)
    while k <= s.trunc:
        if s.coeffs[k]:
            support.append(k)
        k += support_stride
    if len(support) < 4:
        raise InsufficientSupport(
            f"need at least 4 nonzero coefficients on stride {support_stride}, "
            f"found {len(support)}"
        )

    def mag(c: GaussianRational) -> float:
        return math.hypot(float(c.re), float(c.im))

    ratios = [
        mag(s.coeffs[a]) / mag(s.coeffs[b]) for a, b in zip(support, support[1:])
    ]
    xs = [k * math.log(k) if k > 1 else 0.0 for k in support]
    ys = [math.log(mag(s.coeffs[k])) for k in support]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom if denom else 0.0
    return {"ratios": ratios, "gevrey_slope": slope, "support": support}
