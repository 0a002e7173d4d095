"""Formal curves, invariance residuals, multiplicities, separatrix solving,
curve transforms under blow-up, and coordinate straightening.

A formal curve is a triple of parameter series (phi1, phi2, phi3).  The
invariance equations of a field X = (X1, X2, X3) along phi are the two cross
residuals

    phi_p' (X_j o phi) - phi_j' (X_p o phi),     j != p,

where the pivot p is the phi' component of least valuation, the last one on
a tie (phi3' = 1 on a graph curve), and the multiplicity along an invariant
curve is the parameter-order of the scalar series g with X o phi = g phi'.

``solve_graph_separatrix`` looks for a curve (x(z), y(z), z).  With
(x_0, x_1) = (x, y) and (S_0, S_1) = (F, G), residual r is
x_r'(z) (H o phi) - S_r o phi, and the column of the unknown x_u[d] in its
degree m is

    [r = u] d (H o phi)_{m-d+1} + (x_r' (d_u H o phi))_{m-d} - (d_u S_r o phi)_{m-d}.

The solver locates, for each degree d, the lowest residual coefficients the
pair (x_d, y_d) controls, solves that 2x2 system exactly, and verifies every
skipped residual coefficient, reporting the first inconsistency as an
obstruction.  The pair enters residual degree m linearly only for
m < 2d - 1 (m < 2d when H has no linear x or y term); at or above that
degree the 2x2 solve linearises at x_d = y_d = 0, and its error is reported
as an obstruction even where a graph separatrix exists.

A degree whose two scheduled residual values are both zero takes the zero
pair, which a zero right-hand side always gives, with no 2x2 solve, no
reopen and no second read of those values.  The columns are kept per lag
e = m - d as [r = u] d h + K, h = (H o phi)_{e+1} and K the rest of the
column formula: both read x_1..x_{e+1} only, so once d > e + 1 they are
final and each later column is d h + K, with no composer call.

A solve keeps one composer for all its degrees.  Coefficient m of
S o (x(z), y(z), z) depends only on x_0..x_m and y_0..y_m, so the composer
keeps one table of the rows of x^i y^j, each filled from the one before it
in the chain x^f = x^(f-1) x, x^i y^g = x^i y^(g-1) y, and computes those
rows and the composed coefficients on demand, memoized with the indices of
their nonzero entries; once (x_d, y_d) is set to a nonzero pair it is
reopened at d, which drops only the entries that x_d and y_d reach, and a
zero pair reopens nothing, as every entry was computed with it; the
verification reads the same composer.  With v the least index of a
nonzero entry of x or y, x^i y^j is zero below (i + j) v, so its row is
filled and read from there only: along the z-axis no product row is
filled.  Every product walks the smaller of its two supports.  This is the
online order of relaxed multiplication (van der Hoeven, "Relax, but don't
be too lazy", J. Symb. Comp. 2002).  The
solved curve carries the composer's final rows of F o phi, G o phi and
H o phi, which `resolve_along`, solving its own separatrix, reads as its
first image instead of composing the field again.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass

from .blowup import WEIGHT2
from .errors import (
    CurveMissesCenter,
    DivisionObstructed,
    NotASeparatrix,
    NotGraph,
    NotGraphParameterizable,
    Obstructed,
    ZeroAlongCurve,
)
from .scalars import GaussianRational, ONE, ZERO
from .series import INFINITE, MSeries, USeries, compose_curve, convolve, mul_terms, substitute_terms, var_index
from .vfield import VectorField


@dataclass(frozen=True)
class FormalCurve:
    """Parameterized formal curve (phi1, phi2, phi3) in a parameter T.

    A curve from `solve_graph_separatrix` carries, in ``_image``, the
    components of the field it was solved for composed along it, as
    `compose_curve` would give them; only `resolve_along`, which makes the
    solve, reads them.  They take no part in equality, hash or repr.
    """

    phi1: USeries
    phi2: USeries
    phi3: USeries
    parameter_power: int = 1
    _image: tuple | None = dataclasses.field(default=None, compare=False, repr=False)

    @staticmethod
    def graph(a: USeries, b: USeries) -> "FormalCurve":
        t = min(a.trunc, b.trunc)
        return FormalCurve(a.retrunc(t), b.retrunc(t), USeries.identity(t))

    @staticmethod
    def z_axis(trunc: int) -> "FormalCurve":
        return FormalCurve.graph(USeries.zero(trunc), USeries.zero(trunc))

    @property
    def components(self):
        return (self.phi1, self.phi2, self.phi3)

    @property
    def graph_over_z(self) -> bool:
        """phi3 = T through its ledger, so the curve is (x(z), y(z), z); at
        ledger 0, where T reads 0, so does a one-coefficient graph curve."""
        head = self.phi3.coeffs[:2]
        return head == (ZERO, ONE)[: len(head)] and not any(self.phi3.coeffs[2:])

    @property
    def ledger(self) -> int:
        return min(c.trunc for c in self.components)

    def tangency_bound(self) -> int:
        """Contact order with the z-axis, truncated to the trusted ledger.

        min of the graph-series valuations; a series that vanishes at this
        precision counts as ledger + 1 (the best trusted lower bound).
        """
        vals = []
        for s in (self.phi1, self.phi2):
            v = s.valuation()
            vals.append(s.trunc + 1 if v == INFINITE else int(v))
        return min(vals)

    def constants(self):
        return tuple(c.coeffs[0] for c in self.components)


@dataclass(frozen=True)
class ResidualReport:
    """Order and ledger of the residual; the pivot and the valuations of
    phi' it was read with take no part in equality."""
    order: int
    ledger: int
    pivot: int | None = dataclasses.field(default=None, compare=False, repr=False)
    vals: list | None = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def full(self) -> bool:
        return self.order >= self.ledger


def _curve_image(field: VectorField, phi: FormalCurve):
    """(X o phi, phi', residual), the one composition behind residual and
    multiplicity."""
    return _image_of(phi, [compose_curve(c, phi.components) for c in field.components])


def _image_of(phi: FormalCurve, images):
    """The image (X o phi, phi', residual) from the images X o phi."""
    derivs = [c.derivative() for c in phi.components]
    return images, derivs, _residual(images, derivs)


def _transport_image(image, moved: FormalCurve, curve: FormalCurve, s: int, trunc: int):
    """The image (rep' o curve, curve', residual) after a z-chart point
    blow-up, read from the images I = rep o phi of the image before it, with
    no composition; rep and rep' are the factor-divisor representatives of
    the field before and after the step, and the residual is read from the
    transported images and curve'.

    `moved` is transform_curve(phi, chart), psi below, whose third
    component `straighten` has checked to be T; `curve` is what it
    returns.  The chart's pullback of z^k_old rep, taken along psi, is
    T^k_old ((I1 - psi1 I3)/T, (I2 - psi2 I3)/T, I3).  The blow-up divides
    it by z^e and the step's factoring by z^k_new, so that triple, J, is
    divided by T^s with s = e - k_old + k_new; the driver passes s = e - k
    on its first blow-up and s = e after it, since the blow-up leaves no
    z-divisor to factor (k_new = 0).  The field is then moved by
    straighten's H = (x + c1 + a1 z, y + c2 + b1 z, z), with a1 and b1 the
    degree-1 change from `moved` to `curve` (zero when the move is only a
    translation), which maps the image to (J1 - a1 J3, J2 - b1 J3, J3).

    The products psi_v I3 take the valuation-aware ledger of
    `_minus_product`.  The result is cut to min(trunc, curve.ledger), trunc
    the ledger of rep', which is the ledger of the recomposed image; no
    ledger is raised.  After a blow-up with e >= 1 (a source of order two
    or more) the first two components can come out one degree short of
    that, as compose_curve's min rule gives I no longer ledger.
    """
    (i1, i2, i3), _, _ = image
    j3 = _times_power(i3, -s)
    out = []
    for im, psi, new in zip((i1, i2), moved.components, curve.components):
        j = _times_power(_minus_product(im, psi, i3), -1 - s)
        a1 = psi.coeffs[1] - new.coeffs[1]
        out.append(j - j3.scale(a1) if a1 else j)
    out.append(j3)
    t = min(trunc, curve.ledger)
    return _image_of(curve, [c.retrunc(min(t, c.trunc)) for c in out])


def _times_power(s: USeries, n: int) -> USeries:
    """s T^n for an integer n; a negative n divides exactly (`shift_down`)."""
    if n < 0:
        return s.shift_down(-n)
    return USeries._clean((ZERO,) * n + s.coeffs, s.trunc + n) if n else s


def _minus_product(u: USeries, a: USeries, b: USeries) -> USeries:
    """u - a b, with the product known through min(la + vb, lb + va), l the
    ledgers and v the valuations: the unknown tail of each factor meets the
    other's lowest term no earlier.  A factor zero at its precision counts
    valuation ledger + 1.  The product is `convolve` of the coefficient
    tuples, and only its nonzero entries are subtracted."""
    va, vb = (min(s.valuation(), s.trunc + 1) for s in (a, b))
    t = min(u.trunc, a.trunc + vb, b.trunc + va)
    out = list(u.coeffs[: t + 1])
    for n, c in enumerate(convolve(a.coeffs, b.coeffs, t)):
        if c is not ZERO:
            out[n] = out[n] - c
    return USeries._clean(out, t)


def invariance_residual(field: VectorField, phi: FormalCurve) -> ResidualReport:
    """Order of trusted vanishing of the two invariance residuals."""
    return _curve_image(field, phi)[2]


def _pivot(vals) -> int:
    """The phi' component of least valuation, the last one on a tie."""
    return min(range(3), key=lambda i: (vals[i], -i))


def _residual(images, derivs) -> ResidualReport:
    """Both minors phi_p' (X_j o phi) - phi_j' (X_p o phi) through the pivot
    p, so no component of X o phi goes unchecked; the two products of each
    minor are compared up to their first difference.  The report keeps p
    and the valuations of phi', which `_multiplicity` reads."""
    vals = [d.valuation() for d in derivs]
    p = _pivot(vals)
    ledger = min(s.trunc for s in (*images, *derivs))
    order = ledger
    for j in range(3):
        if j != p:
            left = convolve(derivs[p].coeffs, images[j].coeffs, ledger)
            right = convolve(derivs[j].coeffs, images[p].coeffs, ledger)
            if left != right:
                order = min(order, next(m for m, c in enumerate(left) if c != right[m]) - 1)
    return ResidualReport(order, ledger, p, vals)


def multiplicity(field: VectorField, phi: FormalCurve) -> int:
    """Order of g in X o phi = g phi'; invariant under blow-ups.

    On an invariant curve g = (X_p o phi) / phi_p' along the pivot p, the
    phi' component of least valuation (the last one on a tie, phi3' = 1 on a
    graph curve), so its order is val(X_p o phi) - val(phi_p'), read with no
    division.  The curve is invariant when the residual through the pivot
    vanishes through its ledger; otherwise NotASeparatrix is raised.
    """
    return _multiplicity(*_curve_image(field, phi))


def _multiplicity(images, derivs, residual: ResidualReport) -> int:
    if all(im.is_zero() for im in images):
        raise ZeroAlongCurve("field vanishes along the curve at this precision")
    pivot, vals = residual.pivot, residual.vals
    if vals[pivot] == INFINITE:
        raise NotASeparatrix("curve is constant at this precision")
    v = images[pivot].valuation()
    if v < vals[pivot]:
        raise NotASeparatrix("image valuation below the parameter derivative")
    if not residual.full:
        raise NotASeparatrix(
            f"invariance residual vanishes only through degree {residual.order}"
        )
    if v > min(images[pivot].trunc, derivs[pivot].trunc):
        raise ZeroAlongCurve("g vanishes at this precision")
    return int(v - vals[pivot])


# ---------------------------------------------------------------------------
# Degree-by-degree graph solving
# ---------------------------------------------------------------------------


def _product_coeff(u, nz, v, t: int) -> GaussianRational:
    """Coefficient t of the product of two series, one coefficient at a time.

    u and v are coefficient lists and nz the increasing indices of the
    nonzero entries of u, so the walk visits the support of u only and stops
    past t (the sparse product of Johnson, 1974); v is read only behind the
    nonzero entries of u.
    """
    acc = ZERO
    for s in nz:
        if s > t:
            break
        w = v[t - s]
        if w is not ZERO:
            acc = acc + u[s] * w
    return acc


class _Composer:
    """Coefficients of S o (a(z), b(z), z), kept across the degrees of a solve.

    One table ``rows`` holds every a^i b^j in use, rows[i][j], as a pair
    (row, nz) whose nz lists the indices of the row's nonzero entries in
    increasing order: the unit (0, 0), and a (1, 0) and b (0, 1) as the
    solver hands them over, with the nz lists it appends d to when it writes
    a nonzero a[d] or b[d].  Every other row is a memoized prefix, filled
    one coefficient at a time, on demand, from the row before it in the
    chain a^f = a^(f-1) a, a^i b^g = a^i b^(g-1) b; each product walks the
    smaller of its two supports.  The terms of each tagged series are
    grouped once by their (i, j) exponents, and every group holds the row
    list of its a^i b^j, the z^k-only terms the unit, which it reads
    directly and sends to ``_row`` only when the row is too short; a row
    list keeps its identity for the life of the composer, as ``_row``
    appends to it and ``reopen`` deletes from it in place.  A coefficient
    equal to ONE is added without a product.  Each composed series S o phi
    is kept the same way, a row filled in order with its nz list, in
    ``memo`` under its tag with its lag and its groups.  ``v`` is the least
    index of a nonzero entry of a or b (cap + 2 while both are zero), and
    a^i b^j, i + j >= 1, is zero below (i + j) v: ``_row`` pads its row
    with ZERO that far, and a group reads its row from there only.

    After the solver writes a nonzero pair a[d], b[d] it calls
    ``reopen(d)``; after a zero pair it does not, as every entry was
    computed with a[d] = b[d] = 0 and stays right.  As a and b have no
    constant term, they reach entry s of a^i b^j only when
    s >= d + i + j - 1, so every row but the unit, a and b is cut there,
    and the composed row of S at d + lag, lag the least i + j + k - 1 over
    the terms x^i y^j z^k of S with i + j >= 1; the entries below the cut
    are final.  A series with no such term gets lag = cap, and its row is
    never cut; ``reopen`` lowers v to the new least index.  ``image`` reads
    a composed row as a series once the solve is done.
    """

    def __init__(self, a, nz_a, b, nz_b, cap: int):
        # rows[i][j] is the pair (row, nz) of a^i b^j
        self.rows = [[([ONE] + [ZERO] * cap, [0]), (b, nz_b)], [(a, nz_a)]]
        self.cap = cap
        self.v = cap + 2
        self.memo = {}  # tag -> (row, nz, lag, [(i, j, row of a^i b^j, [(k, c or None)])])

    def _row(self, i: int, j: int, s: int):
        """Fill the row of a^i b^j, shorter than s + 1, through entry s.

        The chain a, a^2, ..., a^i, a^i b, ..., a^i b^j is filled in one
        loop, each row the previous one times a or b, as a recursion would
        overflow the stack on a chain of a thousand rows (x^990).
        """
        rows = self.rows
        a, b = rows[1][0], rows[0][1]
        prev = rows[0][0]
        chain = [r[0] for r in rows[1 : i + 1]] + rows[i][1 : j + 1]
        for n, (pair, base) in enumerate(zip(chain, [a] * i + [b] * j), 1):
            row, nz = pair
            if len(row) <= s:
                # the n-th row of the chain is zero below n v
                row.extend([ZERO] * (min(n * self.v, s + 1) - len(row)))
                (u, nu), w = prev, base[0]
                if len(base[1]) < len(nu):
                    (u, nu), w = base, u
                for t in range(len(row), s + 1):
                    c = _product_coeff(u, nu, w, t)
                    row.append(c)
                    if c is not ZERO:
                        nz.append(t)
            prev = pair

    def _group(self, series: MSeries, tag):
        """Group the terms of series by (i, j), open the row of `tag` and
        the rows of the chains to each a^i b^j."""
        groups, rows = {}, self.rows
        for (i, j, k), c in series.terms.items():
            groups.setdefault((i, j), []).append((k, None if c == ONE else c))
            rows.extend([([], [])] for _ in range(i + 1 - len(rows)))
            rows[i].extend(([], []) for _ in range(j + 1 - len(rows[i])))
        lag = min((i + j + k - 1 for i, j, k in series.terms if i or j), default=self.cap)
        memo = self.memo[tag] = (
            [], [], lag, [(i, j, rows[i][j][0], sorted(ks)) for (i, j), ks in groups.items()]
        )
        return memo

    def coeff(self, series: MSeries, m: int, tag) -> GaussianRational:
        """Coefficient m >= 0 of series o phi; the row of `tag` is filled
        through m."""
        row, nz, _, groups = self.memo.get(tag) or self._group(series, tag)
        start = len(row)
        if m < start:
            return row[m]
        # each group's row is read from (i + j) v up to m - (its least k);
        # a group that reaches no such entry reads none
        v, reads = self.v, []
        for i, j, pr, ks in groups:
            low, top = (i + j) * v, m - ks[0][0]
            if low <= top and len(pr) <= top:
                self._row(i, j, top)
            reads.append((low, pr, ks))
        for t in range(start, m + 1):
            acc = ZERO
            for low, pr, ks in reads:
                top = t - low
                for k, c in ks:
                    if k > top:
                        break
                    w = pr[t - k]
                    if w is not ZERO:
                        acc = acc + (w if c is None else c * w)
            row.append(acc)
            if acc is not ZERO:
                nz.append(t)
        return row[m]

    def image(self, series: MSeries, t: int, tag) -> USeries:
        """series o phi through degree t, as `compose_curve` gives it."""
        self.coeff(series, t, tag)
        return USeries._clean(self.memo[tag][0][: t + 1], t)

    def reopen(self, d: int) -> None:
        """Forget every entry that a[d] and b[d] reach, after they were set."""
        nz_a, nz_b = self.rows[1][0][1], self.rows[0][1][1]
        self.v = min(nz_a[:1] + nz_b[:1] + [self.v])
        for i, rows in enumerate(self.rows):
            # a[d] and b[d] reach a^i b^j from entry d + i + j - 1; the unit,
            # a and b (cut <= d) are kept whole
            for cut, (row, nz) in enumerate(rows, d + i - 1):
                if d < cut < len(row):
                    del row[cut:]
                    del nz[bisect_left(nz, cut):]
        for row, nz, lag, _ in self.memo.values():
            del row[d + lag:]
            del nz[bisect_left(nz, d + lag):]


def _deriv_conv(deriv, nz, comp: _Composer, series, q: int, tag) -> GaussianRational:
    """Coefficient q of a' * (series o phi), deriv holding the coefficients of
    a' and nz the indices of its nonzero entries.  Only entries of
    series o phi through q - nz[0] meet a nonzero entry of a', so the row is
    filled that far; the walk takes the smaller of the two supports (on
    X_lambda, H o phi is one monomial)."""
    if not nz or q < nz[0] or not series.terms:
        return ZERO
    comp.coeff(series, q - nz[0], tag)
    row, row_nz = comp.memo[tag][:2]
    if len(row_nz) <= len(nz):
        return _product_coeff(row, row_nz, deriv, q)
    return _product_coeff(deriv, nz, row, q)


def solve_graph_separatrix(field: VectorField, degree: int) -> FormalCurve:
    """Solve for a formal curve (x(z), y(z), z) invariant under the field.

    Returns the curve with every coefficient through `degree` determined (or
    through the largest degree the field's ledger supports, if smaller).
    The curve carries the field's image along it in ``_image``, which
    `resolve_along` reads: the composer's rows of F, G and H through
    min(field.trunc, curve ledger), the ledger `compose_curve` gives.
    Raises Obstructed when a residual coefficient cannot be matched and
    NotGraphParameterizable when the system is not z-parameterized, or when
    the field's ledger pins not even the degree-1 pair (as for the radial
    field, whose degree-1 columns all vanish).
    """
    F, G, H = field.components
    h_axis = _axis_valuation(H)
    cap = field.trunc
    if h_axis is None or h_axis < 1:
        raise NotGraphParameterizable(
            "third component has no positive-order part on the z-axis "
            f"through the field ledger {cap}"
        )
    if degree < 1:
        raise ValueError("degree must be positive")
    # row r is x_r'(z) (H o phi) - S_r o phi, with (x_0, x_1) = (x, y) and
    # (S_0, S_1) = (F, G); unknown u is the pair entry x_u[d]
    S = ((F, "F"), (G, "G"))
    dS = tuple(tuple((s.partial(v), tag + v) for v in "xy") for s, tag in S)
    dH = tuple((H.partial(v), "H" + v) for v in "xy")
    xs = ([ZERO] * (cap + 2), [ZERO] * (cap + 2))
    dxs = ([ZERO] * (cap + 1), [ZERO] * (cap + 1))  # dxs[r][k - 1] = k * xs[r][k]
    # the increasing indices of the nonzero entries of xs and dxs
    nz_xs, nz_dxs = ([], []), ([], [])
    comp = _Composer(xs[0], nz_xs[0], xs[1], nz_xs[1], cap)

    def residual(r, m):
        """Degree m of x_r'(z) (H o phi) - S_r o phi."""
        s, tag = S[r]
        return _deriv_conv(dxs[r], nz_dxs[r], comp, H, m, "H") - comp.coeff(s, m, tag)

    jacobian = {}  # (r, u, e) -> (h, K) of the lag e = m - d, once final

    def column(r, u, d, m):
        """Coefficient of x_u[d] in degree m of residual r, [r = u] d h + K
        at the lag e = m - d (module docstring), (h, K) kept once final."""
        e = m - d
        hk = jacobian.get((r, u, e))
        if hk is None:
            hu, tag = dH[u]
            k = _deriv_conv(dxs[r], nz_dxs[r], comp, hu, e, tag)
            if e >= 0:
                su, tag = dS[r][u]
                k = k - comp.coeff(su, e, tag)
            hk = (comp.coeff(H, e + 1, "H") if r == u and e >= -1 else ZERO, k)
            if e + 1 < d:
                jacobian[(r, u, e)] = hk
        h, k = hk
        return k if h is ZERO else h * d + k

    frontiers = [-1, -1]
    solved = 0
    for d in range(1, degree + 1):
        rows = [_schedule_row(residual, column, r, frontiers[r], cap, d) for r in (0, 1)]
        if rows[0] is None or rows[1] is None:
            break  # ledger exhausted before both unknowns are pinned
        # a zero right-hand side gives the zero pair, which every entry was
        # computed with, and the scheduled coefficients are known zero
        zero = rows[0][1] is ZERO and rows[1][1] is ZERO
        if not zero:
            for r, c in enumerate(_solve_two_by_two(*rows, d)):
                xs[r][d], dxs[r][d - 1] = c, c * d
                if c:
                    nz_xs[r].append(d)
                    nz_dxs[r].append(d - 1)
            comp.reopen(d)
        # verify every residual coefficient between the old and new frontiers
        for r, name in enumerate(("first", "second")):
            for m in range(frontiers[r] + 1, rows[r][0] + (not zero)):
                val = residual(r, m)
                if val:
                    raise Obstructed(
                        d, f"{name} residual has coefficient {val} at degree {m}"
                    )
        frontiers = [row[0] for row in rows]
        solved = d
    if solved == 0:
        raise NotGraphParameterizable(
            f"no degree of the graph series is pinned within the field ledger {cap}"
        )
    # the composer's rows through min(field.trunc, solved), compose_curve's
    # ledger: entry m reads x_1..x_m and y_1..y_m only, all of them final
    t = min(cap, solved)
    images = tuple(comp.image(s, t, tag) for s, tag in (*S, (H, "H")))
    a, b = (USeries._clean(x[: solved + 1], solved) for x in xs)
    return FormalCurve(a, b, USeries.identity(solved), _image=images)


def _axis_valuation(H: MSeries):
    vals = [k for (i, j, k) in H.terms if i == 0 and j == 0]
    return min(vals) if vals else None


def _schedule_row(residual, column, r: int, frontier: int, cap: int, d: int):
    """Find the lowest degree of residual r that the new pair controls.

    Returns (degree, residual value, A-column, B-column), or None when the
    ledger ends before any controllable degree; a nonzero residual strictly
    below the controllable degree is reported by the caller's verification.
    """
    for m in range(frontier + 1, cap + 1):
        ca = column(r, 0, d, m)
        cb = column(r, 1, d, m)
        if ca or cb:
            return (m, residual(r, m), ca, cb)
    return None


def _solve_two_by_two(row_a, row_b, degree: int):
    # each row encodes: residual + ca*A + cb*B = 0
    (_, r1, a1, b1) = row_a
    (_, r2, a2, b2) = row_b
    det = a1 * b2 - a2 * b1
    if det:
        return ((b1 * r2 - b2 * r1) / det, (a2 * r1 - a1 * r2) / det)
    # singular: the rows are proportional, so the first row with a nonzero
    # column fixes A, or B when its A-column is zero, the other unknown is
    # zero, and both rows must hold
    r, ca, cb = (r1, a1, b1) if a1 or b1 else (r2, a2, b2)
    if ca:
        A, B = -r / ca, ZERO
    else:
        A, B = ZERO, -r / cb if cb else ZERO
    if r1 + a1 * A + b1 * B or r2 + a2 * A + b2 * B:
        raise Obstructed(degree, "inconsistent singular coefficient system")
    return A, B


# ---------------------------------------------------------------------------
# Transforms of curves
# ---------------------------------------------------------------------------


def transform_curve(phi: FormalCurve, chart) -> FormalCurve:
    """Strict-transform parameterization of the curve in the given chart:
    the components of the rescaled variables are divided by the divisor one."""
    comps = list(phi.components)
    for c in comps:
        if c.coeffs[0]:
            raise CurveMissesCenter("curve does not pass through the origin")
    if chart.kind == WEIGHT2:
        if not phi.graph_over_z:
            raise NotGraph("weight-2 lift implemented for graph curves")
        t = phi.ledger
        new_t = max(2 * t - 1, 0)
        a2 = [ZERO] * (new_t + 1)
        b2 = [ZERO] * (new_t + 1)
        for k in range(t + 1):
            if 2 * k <= new_t:
                a2[2 * k] = phi.phi1.coeffs[k]
            if 2 * k - 1 >= 0 and 2 * k - 1 <= new_t:
                b2[2 * k - 1] = phi.phi2.coeffs[k]
        return FormalCurve(
            USeries._clean(a2, new_t), USeries._clean(b2, new_t), USeries.identity(new_t),
            parameter_power=phi.parameter_power * 2,
        )
    div = comps[var_index(chart.divisor_var)]
    dval = div.valuation()
    if dval == INFINITE:
        raise DivisionObstructed("divisor component vanishes at this precision")
    out = list(comps)
    for i in chart.rescaled:
        if comps[i].valuation() < dval:
            raise DivisionObstructed("curve tangent direction lies outside this chart")
        out[i] = comps[i].divide(div)
    t = min(c.trunc for c in out)
    out = [c.retrunc(t) for c in out]
    return FormalCurve(*out, parameter_power=phi.parameter_power)


def straighten(field: VectorField, phi: FormalCurve, m: int):
    """Move field and curve by H = (x + a(z), y + b(z), z), a and b the
    curve's graph series cut at degree m, constant terms included, so that
    the degree-m truncation of the curve becomes the z-axis.

    DH^-1 = [[1, 0, -a'], [0, 1, -b'], [0, 0, 1]], so the field (F, G, K)
    moves to (F o H - a' (K o H), G o H - b' (K o H), K o H): one
    substitution per component, which trusts the field as exact polynomial
    content as `shift_origin` does when a or b has a constant term, and
    exact a', b', so the field keeps its ledger.  The curve moves to
    (phi1 - a, phi2 - b, T), with contact > m with the z-axis, and dg/dx at
    the origin is unchanged.  With m = 0 this is the translation to the
    curve's point.  Field and curve are returned unchanged when a = b = 0.
    Raises NotGraph unless phi3 = T.
    """
    if not phi.graph_over_z:
        raise NotGraph("straighten needs a curve with phi3 = T")
    if m > field.trunc:
        raise ValueError("m exceeds the field ledger")
    a, b = (USeries(s.coeffs[: m + 1], m) for s in (phi.phi1, phi.phi2))
    if a.is_zero() and b.is_zero():
        return field, phi
    t = field.trunc
    subs = ({(1, 0, 0): ONE, **_z_terms(a)}, {(0, 1, 0): ONE, **_z_terms(b)}, {(0, 0, 1): ONE})
    fx, fy, fz = (MSeries._clean(substitute_terms(c.terms, subs, t), t) for c in field.components)
    if m:
        sheared = []
        for f, s in ((fx, a), (fy, b)):
            d = _z_terms(s.derivative())
            sheared.append(f - MSeries._clean(mul_terms(d, fz.terms, t), t) if d else f)
        fx, fy = sheared
    curve = FormalCurve.graph(_zero_through(phi.phi1, m), _zero_through(phi.phi2, m))
    return VectorField(fx, fy, fz), curve


def _z_terms(s: USeries) -> dict:
    """The term dict of s(z)."""
    return {(0, 0, k): c for k, c in enumerate(s.coeffs) if c}


def _zero_through(s: USeries, m: int) -> USeries:
    """Subtract the degree-m truncation; the ledger is unchanged."""
    return USeries._clean((ZERO,) * (min(m, s.trunc) + 1) + s.coeffs[m + 1 :], s.trunc)

