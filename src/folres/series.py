"""Truncated formal power series with an explicit precision ledger.

Two carriers:

* ``USeries`` -- one variable (the curve parameter), dense coefficient list.
* ``MSeries`` -- three variables x, y, z, sparse exponent map bounded by
  total degree.

Every series carries ``trunc``, the last total degree whose coefficients are
trusted.  Operations propagate the ledger pessimistically:

* sums and products keep ``min`` of the input ledgers,
* substitution by series with zero constant term keeps the ``min`` ledger,
* division by a variable lowers the ledger by one,
* differentiation lowers the ledger by one,
* inversion of a unit keeps the ledger.

Coefficients above the ledger are never stored.  ``valuation`` returns
``INFINITE`` (``math.inf``) when every trusted coefficient vanishes; callers
must read that as "at least trunc + 1".
"""

from __future__ import annotations

import math

from .errors import (
    InsufficientSupport,
    NonzeroConstantTerm,
    NotAUnit,
    NotDivisible,
)
from .scalars import GaussianRational, ZERO, ONE

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


def _coerce_scalar(c) -> GaussianRational:
    return c if isinstance(c, GaussianRational) else GaussianRational.coerce(c)


def convolve(a, b, t: int) -> list:
    """Coefficients 0..t of the product of two coefficient sequences.

    The one dense product loop of the package: zero coefficients are skipped,
    and entries of either input above degree t are never read.
    """
    out = [ZERO] * (t + 1)
    for i, ca in enumerate(a[: t + 1]):
        if ca:
            for j, cb in enumerate(b[: t + 1 - i]):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
    return out


# ---------------------------------------------------------------------------
# Univariate series
# ---------------------------------------------------------------------------


class USeries:
    """Truncated series in one parameter, coefficients indexed 0..trunc."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        cs = [_coerce_scalar(c) for c in coeffs[: trunc + 1]]
        cs.extend(ZERO for _ in range(trunc + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.trunc = trunc

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
        return USeries.monomial(ONE, 1, trunc)

    def __getitem__(self, k: int) -> GaussianRational:
        if k < 0 or k > self.trunc:
            raise IndexError(f"coefficient {k} outside trusted range 0..{self.trunc}")
        return self.coeffs[k]

    def retrunc(self, trunc: int) -> "USeries":
        if trunc > self.trunc:
            raise ValueError("cannot raise a truncation ledger")
        return USeries(self.coeffs[: trunc + 1], trunc)

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return INFINITE

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __add__(self, other: "USeries") -> "USeries":
        t = min(self.trunc, other.trunc)
        return USeries([self.coeffs[k] + other.coeffs[k] for k in range(t + 1)], t)

    def __sub__(self, other: "USeries") -> "USeries":
        t = min(self.trunc, other.trunc)
        return USeries([self.coeffs[k] - other.coeffs[k] for k in range(t + 1)], t)

    def __neg__(self) -> "USeries":
        return USeries([-c for c in self.coeffs], self.trunc)

    def scale(self, c) -> "USeries":
        c = _coerce_scalar(c)
        return USeries([c * a for a in self.coeffs], self.trunc)

    def __mul__(self, other: "USeries") -> "USeries":
        t = min(self.trunc, other.trunc)
        return USeries(convolve(self.coeffs, other.coeffs, t), t)

    def derivative(self) -> "USeries":
        if self.trunc == 0:
            return USeries.zero(0)
        return USeries(
            [self.coeffs[k + 1] * (k + 1) for k in range(self.trunc)], self.trunc - 1
        )

    def shift_down(self, k: int) -> "USeries":
        """Exact division by T^k; ledger drops by k."""
        if k == 0:
            return self
        if self.trunc < k:
            raise NotDivisible("T", f"ledger {self.trunc} below shift {k}")
        for j in range(k):
            if self.coeffs[j]:
                raise NotDivisible("T", f"T^{j}")
        return USeries(self.coeffs[k:], self.trunc - k)

    def invert_unit(self) -> "USeries":
        if not self.coeffs[0]:
            raise NotAUnit("constant term vanishes")
        inv0 = ONE / self.coeffs[0]
        out = [inv0] + [ZERO] * self.trunc
        for k in range(1, self.trunc + 1):
            acc = ZERO
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return USeries(out, self.trunc)

    def divide(self, other: "USeries") -> "USeries":
        """Exact series division self/other; requires val(self) >= val(other)."""
        v = other.valuation()
        if v is INFINITE or v == INFINITE:
            raise ZeroDivisionError("division by a series that is zero at precision")
        v = int(v)
        num = self.shift_down(v) if v else self
        den = other.shift_down(v) if v else other
        t = min(num.trunc, den.trunc)
        return (num.retrunc(t)) * (den.retrunc(t).invert_unit())

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

    def valuation_xy(self):
        """Least joint degree in x, y over the trusted support."""
        if not self.terms:
            return INFINITE
        return min(m[0] + m[1] for m in self.terms)

    def max_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def retrunc(self, trunc: int) -> "MSeries":
        if trunc > self.trunc:
            raise ValueError("cannot raise a truncation ledger")
        return MSeries(self.terms, trunc)

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "MSeries") -> "MSeries":
        t = min(self.trunc, other.trunc)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return MSeries(out, t)

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + (-other)

    def __neg__(self) -> "MSeries":
        return MSeries({m: -c for m, c in self.terms.items()}, self.trunc)

    def scale(self, c) -> "MSeries":
        c = _coerce_scalar(c)
        if not c:
            return MSeries.zero(self.trunc)
        return MSeries({m: c * a for m, a in self.terms.items()}, self.trunc)

    def __mul__(self, other: "MSeries") -> "MSeries":
        t = min(self.trunc, other.trunc)
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        if len(small) == 1:
            # single-term factor: exponent shift plus one scaling pass
            ((i1, j1, k1), c) = next(iter(small.items()))
            d1 = i1 + j1 + k1
            scale = c != ONE
            out = {}
            for (i2, j2, k2), b in big.items():
                if d1 + i2 + j2 + k2 > t:
                    continue
                out[(i1 + i2, j1 + j2, k1 + k2)] = c * b if scale else b
            return MSeries(out, t)
        out = {}
        for (i1, j1, k1), a in small.items():
            d1 = i1 + j1 + k1
            for (i2, j2, k2), b in big.items():
                if d1 + i2 + j2 + k2 > t:
                    continue
                m = (i1 + i2, j1 + j2, k1 + k2)
                cur = out.get(m)
                out[m] = a * b if cur is None else cur + a * b
        return MSeries(out, t)

    def pow(self, n: int, trunc: int | None = None) -> "MSeries":
        t = self.trunc if trunc is None else trunc
        result = MSeries.constant(ONE, t)
        base = self.retrunc(t) if t < self.trunc else self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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
        return MSeries(out, self.trunc - 1)

    def divide_by_variable(self, v) -> "MSeries":
        """Exact division by a coordinate; ledger drops by one."""
        vi = var_index(v)
        out = {}
        for m, c in self.terms.items():
            if m[vi] == 0:
                raise NotDivisible(VARS[vi], _mono_str(m))
            nm = list(m)
            nm[vi] -= 1
            out[tuple(nm)] = c
        if self.trunc == 0:
            raise NotDivisible(VARS[vi], "ledger exhausted")
        return MSeries(out, self.trunc - 1)

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
        return MSeries(out, self.trunc)

    # -- substitution -----------------------------------------------------------------

    def substitute(self, subs) -> "MSeries":
        """Composition s(sub_x, sub_y, sub_z); each sub must kill the constant term."""
        subs = tuple(subs)
        for s in subs:
            if s.constant_term():
                raise NonzeroConstantTerm("substituted series has a constant term")
        t = min([self.trunc] + [s.trunc for s in subs])
        pows = [{0: MSeries.constant(ONE, t)} for _ in range(3)]

        def power(vi: int, e: int) -> "MSeries":
            cache = pows[vi]
            if e not in cache:
                cache[e] = power(vi, e - 1) * subs[vi].retrunc(min(t, subs[vi].trunc))
            return cache[e]

        out = MSeries.zero(t)
        xy_cache: dict[tuple, MSeries] = {}
        for (i, j, k), c in self.terms.items():
            if i + j + k > t:
                # substituted valuation >= original total degree > t
                continue
            xy = xy_cache.get((i, j))
            if xy is None:
                xy = power(0, i) * power(1, j)
                xy_cache[(i, j)] = xy
            out = out + (xy * power(2, k)).scale(c)
        return out

    def substitute_monomials(self, monos, trunc: int) -> "MSeries":
        """Fast path: substitute a monomial (coeff 1) for each variable."""
        out = {}
        for (i, j, k), c in self.terms.items():
            m0 = [0, 0, 0]
            for e, mono in zip((i, j, k), monos):
                for vi, p in enumerate(mono):
                    m0[vi] += e * p
            if sum(m0) <= trunc:
                key = tuple(m0)
                out[key] = out.get(key, ZERO) + c
        return MSeries(out, trunc)

    def shift_origin(self, shifts) -> "MSeries":
        """s(x + c1, y + c2, z + c3) for scalar shifts.

        Trusts the stored coefficients as exact: a constant shift folds high
        degrees down, so this is only meaningful for polynomial content (the
        resolution driver translates blow-up transforms of polynomial germs).
        """
        shifts = [_coerce_scalar(c) for c in shifts]
        acc: dict[tuple, GaussianRational] = {}
        binom = _binomial_table(max((max(m) for m in self.terms), default=0))
        for (i, j, k), c in self.terms.items():
            expanded = {(): c}
            for (e, s) in ((i, shifts[0]), (j, shifts[1]), (k, shifts[2])):
                new: dict[tuple, GaussianRational] = {}
                powers = _scalar_powers(s, e)
                for prefix, coeff in expanded.items():
                    for r in range(e + 1):
                        w = coeff * binom[e][r] * powers[e - r]
                        if w:
                            key = prefix + (r,)
                            new[key] = new.get(key, ZERO) + w
                expanded = new
            for m, coeff in expanded.items():
                acc[m] = acc.get(m, ZERO) + coeff
        return MSeries(acc, self.trunc)

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


def _mono_str(m) -> str:
    parts = []
    for v, e in zip(VARS, m):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def _graded_lex_key(m):
    return (sum(m), (-m[0], -m[1], -m[2]))


def format_mseries(s: MSeries) -> str:
    """Canonical graded-lex printing, ascending degree, x before y before z."""
    if not s.terms:
        return "0"
    parts = []
    for m in sorted(s.terms, key=_graded_lex_key):
        c = s.terms[m]
        mono = _mono_str(m)
        if mono == "1":
            text = str(c)
            negative = text.startswith("-")
        else:
            if c == ONE:
                text, negative = mono, False
            elif c == -ONE:
                text, negative = f"-{mono}", True
            elif c.im == 0 or c.re == 0:
                cs = str(c)
                negative = cs.startswith("-")
                text = f"{cs}*{mono}"
            else:
                text, negative = f"({c})*{mono}", False
        if not parts:
            parts.append(text)
        elif negative:
            parts.append(f"- {text[1:]}")
        else:
            parts.append(f"+ {text}")
    return " ".join(parts)


def _binomial_table(n: int):
    table = [[1]]
    for r in range(1, n + 1):
        row = [1]
        prev = table[-1]
        for c in range(1, r):
            row.append(prev[c - 1] + prev[c])
        row.append(1)
        table.append(row)
    return table


def _scalar_powers(s: GaussianRational, e: int):
    powers = [ONE]
    for _ in range(e):
        powers.append(powers[-1] * s)
    return powers


# ---------------------------------------------------------------------------
# Curve composition and growth diagnostics
# ---------------------------------------------------------------------------


def compose_curve(s: MSeries, phi, cap: int | None = None) -> USeries:
    """s(phi1(T), phi2(T), phi3(T)) as a USeries.

    Each phi component needs a zero constant term.  The ledger is the minimum
    of s.trunc, the component ledgers, and the optional cap.
    """
    phi = tuple(phi)
    for p in phi:
        if p.coeffs[0]:
            raise NonzeroConstantTerm("curve does not pass through the origin")
    t = min([s.trunc] + [p.trunc for p in phi])
    if cap is not None:
        t = min(t, cap)
    bases = [list(p.coeffs[: t + 1]) + [ZERO] * (t + 1 - len(p.coeffs)) for p in phi]

    one = [ONE] + [ZERO] * t
    pows = [{0: one}, {0: one}, {0: one}]

    def power(vi: int, e: int):
        cache = pows[vi]
        if e not in cache:
            cache[e] = convolve(power(vi, e - 1), bases[vi], t)
        return cache[e]

    third_is_param = bases[2][1] == ONE and all(
        not c for n, c in enumerate(bases[2]) if n != 1
    )
    out = [ZERO] * (t + 1)
    xy_cache: dict[tuple, list] = {}
    for (i, j, k), c in s.terms.items():
        if i + j + k > t:
            continue
        xy = xy_cache.get((i, j))
        if xy is None:
            xy = convolve(power(0, i), power(1, j), t) if i and j else power(0, i) if i else power(1, j)
            xy_cache[(i, j)] = xy
        if third_is_param:
            for n in range(t + 1 - k):
                v = xy[n]
                if v:
                    out[n + k] = out[n + k] + c * v
        else:
            full = convolve(xy, power(2, k), t) if k else xy
            for n, v in enumerate(full):
                if v:
                    out[n] = out[n] + c * v
    return USeries(out, t)


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
