"""Vector fields on (C^3, 0): linear parts, orders, classification, divisor
factoring and polynomial conjugation.

A field is stored as three component series sharing one variable set and one
truncation ledger.  Classification is decided exactly through the
characteristic-polynomial invariants of the linear part: a 3x3 matrix has at
least one nonzero eigenvalue iff (trace, second invariant, determinant) is
not (0, 0, 0), so no root extraction is ever needed.

`conjugate`, `PolyMap`, `_adjugate3` and `MSeries.substitute` are off the
verdict path: the tests check `resolve_along`'s coordinate move,
`separatrix.straighten`, against them and build the conjugated inputs of
acceptance criteria 03 and 04 with them.  The pair
`VectorField.shift_origin` / `MSeries.shift_origin` is called only by the
tests (`straighten(field, curve, 0)` is the translation); it stays because
the benchmark's tracer names it, with `conjugate`, as a span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AllZero, NonInvertibleLinearPart, NotAUnit
from .scalars import GaussianRational, ONE, ZERO
from .series import INFINITE, MSeries, VARS, var_index


class VectorField:
    """Components along d/dx, d/dy, d/dz with a shared ledger.

    A field is never changed after construction, so ``classify`` keeps its
    result in ``_cls`` and classifies each field once.
    """

    __slots__ = ("fx", "fy", "fz", "trunc", "_cls")

    def __init__(self, fx: MSeries, fy: MSeries, fz: MSeries):
        t = min(fx.trunc, fy.trunc, fz.trunc)
        self.fx = fx.retrunc(t)
        self.fy = fy.retrunc(t)
        self.fz = fz.retrunc(t)
        self.trunc = t
        self._cls = None

    @property
    def components(self):
        return (self.fx, self.fy, self.fz)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def map(self, fn) -> "VectorField":
        return VectorField(*(fn(c) for c in self.components))

    def eq_trusted(self, other: "VectorField") -> bool:
        return all(
            a.eq_trusted(b) for a, b in zip(self.components, other.components)
        )

    def shift_origin(self, shifts) -> "VectorField":
        return self.map(lambda s: s.shift_origin(shifts))

    def __repr__(self):
        return f"VectorField({self.fx!r}, {self.fy!r}, {self.fz!r})"


@dataclass(frozen=True)
class LinearPart:
    """3x3 matrix; entry (r, c) is the coefficient of variable c in component r."""

    m: tuple

    @staticmethod
    def of(field: VectorField) -> "LinearPart":
        rows = []
        for comp in field.components:
            rows.append(tuple(comp.linear_coeff(v) for v in VARS))
        return LinearPart(tuple(rows))

    def is_zero(self) -> bool:
        return all(not e for row in self.m for e in row)

    def trace(self) -> GaussianRational:
        return self.m[0][0] + self.m[1][1] + self.m[2][2]

    def second_invariant(self) -> GaussianRational:
        m = self.m
        acc = ZERO
        for a, b in ((0, 1), (0, 2), (1, 2)):
            acc = acc + (m[a][a] * m[b][b] - m[a][b] * m[b][a])
        return acc

    def determinant(self) -> GaussianRational:
        return _det3(self.m)

    def invariant_triple(self):
        return (self.trace(), self.second_invariant(), self.determinant())


REGULAR = "regular"
ELEMENTARY = "elementary"
NILPOTENT_NONZERO = "nilpotent_nonzero"
ZERO_LINEAR_PART = "zero_linear_part"


@dataclass(frozen=True)
class SingularityClass:
    tag: str
    char_poly_invariants: tuple


def classify(field: VectorField) -> SingularityClass:
    """Regular / elementary / nilpotent-nonzero / zero-linear-part, exactly;
    computed on the first call for a field and kept on it."""
    cls = field._cls
    if cls is None:
        cls = field._cls = _classify(field)
    return cls


def _classify(field: VectorField) -> SingularityClass:
    lin = LinearPart.of(field)
    triple = lin.invariant_triple()
    if any(c.constant_term() for c in field.components):
        return SingularityClass(REGULAR, triple)
    if any(triple):
        return SingularityClass(ELEMENTARY, triple)
    if not lin.is_zero():
        return SingularityClass(NILPOTENT_NONZERO, triple)
    return SingularityClass(ZERO_LINEAR_PART, triple)


def order_at_origin(field: VectorField) -> int:
    """Degree of the first nonzero homogeneous component."""
    vals = [c.valuation() for c in field.components]
    v = min(vals)
    if v == INFINITE:
        raise AllZero("field is zero at the trusted precision")
    return int(v)


def order_wrt_curve(field: VectorField, axis="z") -> int:
    """Order of the field with respect to the coordinate axis of `axis`.

    Scaling the two transverse variables by s multiplies the transverse
    components by s^(k-1) and the axis component by s^l, where k and l are
    their least transverse degrees, sum(m) - m[axis] over the monomials m;
    the order is min(k, l + 1).
    """
    ai = var_index(axis)
    vals = [
        min((sum(m) - m[ai] for m in c.terms), default=INFINITE)
        for c in field.components
    ]
    l = vals.pop(ai)
    k = min(vals)
    if k == INFINITE and l == INFINITE:
        raise AllZero("field is zero at the trusted precision")
    return int(min(k, l + 1))


def factor_divisor(field: VectorField, v) -> tuple[int, VectorField]:
    """Largest e with v^e dividing every component, plus the quotient field."""
    e = min(
        (c.variable_multiplicity(v) for c in field.components if not c.is_zero()),
        default=0,
    )
    return e, field.map(lambda s: s.divide_by_variable(v, e)) if e else field


class PolyMap:
    """Polynomial map of (C^3, 0) given by three component series fixing 0."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        for c in comps:
            if c.constant_term():
                raise ValueError("coordinate changes must fix the origin")
        self.comps = comps

    @staticmethod
    def identity(trunc: int) -> "PolyMap":
        return PolyMap(tuple(MSeries.variable(v, trunc) for v in VARS))

    @staticmethod
    def linear(matrix, trunc: int) -> "PolyMap":
        comps = []
        for row in matrix:
            s = MSeries.zero(trunc)
            for v, c in zip(VARS, row):
                s = s + MSeries.variable(v, trunc).scale(c)
            comps.append(s)
        return PolyMap(comps)

    def linear_matrix(self):
        return tuple(
            tuple(c.linear_coeff(v) for v in VARS) for c in self.comps
        )

    def jacobian(self):
        return tuple(
            tuple(c.partial(v) for v in VARS) for c in self.comps
        )


def _det3(m):
    """Determinant of a 3x3 matrix over any ring (scalars or series)."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _adjugate3(m):
    """Adjugate of a 3x3 matrix over any ring: m * adj(m) = det(m) * I."""
    def cof(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        minor = (
            m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
            - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
        )
        return -minor if (r + c) % 2 else minor
    # adjugate = transpose of the cofactor matrix
    return tuple(tuple(cof(c, r) for c in range(3)) for r in range(3))


def conjugate(field: VectorField, cmap: PolyMap) -> VectorField:
    """Pull back the field: (DH)^{-1} (X o H) for the coordinate change H."""
    lin = cmap.linear_matrix()
    det_lin = _det3(lin)
    if not det_lin:
        raise NonInvertibleLinearPart("linear part of the coordinate change is singular")
    composed = [c.substitute(cmap.comps) for c in field.components]
    if all(c.max_degree() <= 1 for c in cmap.comps):
        # linear change: constant Jacobian, no ledger cost
        inv_det = ONE / det_lin
        inv = [[e * inv_det for e in row] for row in _adjugate3(lin)]
        t = min(c.trunc for c in composed)
        out = []
        for r in range(3):
            acc = MSeries.zero(t)
            for c in range(3):
                if inv[r][c]:
                    acc = acc + composed[c].retrunc(t).scale(inv[r][c])
            out.append(acc)
        return VectorField(*out)
    jac = cmap.jacobian()
    det = _det3(jac)
    try:
        det_inv = det.invert_unit()
    except NotAUnit as exc:  # pragma: no cover - excluded by the linear check
        raise NonInvertibleLinearPart(str(exc)) from exc
    adj = _adjugate3(jac)
    out = []
    for r in range(3):
        acc = MSeries.zero(det_inv.trunc)
        for c in range(3):
            acc = acc + adj[r][c] * composed[c]
        out.append(acc * det_inv)
    return VectorField(*out)


@dataclass(frozen=True)
class NormalFormParts:
    """Decomposition X = z^k * unit * [(y + z f) d/dx + z g d/dy + z^n d/dz]."""

    k: int
    n: int
    lam: GaussianRational
    f: MSeries
    g: MSeries
    unit: MSeries
    representative: VectorField


def nilpotent_normal_form_full(field: VectorField, *, _factored=None):
    """Match the persistent-nilpotent shape: (parts, None) or (None, reason).

    Checks, in order: nonzero field, z^k divisor factoring, nilpotent nonzero
    linear part, third component z^n * unit with n >= 2, first component
    y + z f and second z g with f, g vanishing at 0, and dg/dx(0) != 0.  The
    reason names the first check that fails.  A caller that has already
    factored the field passes factor_divisor(field, "z") as `_factored`.
    """
    if field.is_zero():
        return None, "field is zero at the trusted precision"
    k, rep = _factored or factor_divisor(field, "z")
    cls = classify(rep)
    if cls.tag != NILPOTENT_NONZERO:
        return None, f"foliation representative is {cls.tag}, not nilpotent-nonzero"
    h = rep.fz
    n = h.variable_multiplicity("z")
    if h.is_zero() or n < 2:
        return None, "third component is not z^n with n >= 2 times a unit"
    unit = h.divide_by_variable("z", n)
    if not unit.constant_term():
        return None, "third component is not z^n times a unit"
    if len(unit.terms) == 1 and unit.constant_term() == ONE:
        # the unit is 1, as for every z^n d/dz: dividing by it is a cut
        comps = [c.retrunc(unit.trunc) for c in rep.components]
    else:
        try:
            unit_inv = unit.invert_unit()
        except NotAUnit:
            return None, "third component is not z^n times a unit"
        comps = [c.retrunc(unit_inv.trunc) * unit_inv for c in rep.components]
    t = min(c.trunc for c in comps)
    delta = comps[0] - MSeries.variable("y", t)
    if delta.variable_multiplicity("z") < 1 and not delta.is_zero():
        return None, "first component is not y + z*(series)"
    f = delta.divide_by_variable("z") if not delta.is_zero() else MSeries.zero(max(t - 1, 0))
    if f.constant_term():
        return None, "f has a nonzero constant term"
    g_num = comps[1]
    if g_num.variable_multiplicity("z") < 1 and not g_num.is_zero():
        return None, "second component is not z*(series)"
    g = g_num.divide_by_variable("z") if not g_num.is_zero() else MSeries.zero(max(t - 1, 0))
    if g.constant_term():
        return None, "g has a nonzero constant term"
    lam = g.linear_coeff("x")
    if not lam:
        return None, "dg/dx vanishes at the origin (lambda = 0)"
    normalized = VectorField(comps[0], comps[1], comps[2])
    return (
        NormalFormParts(k=k, n=n, lam=lam, f=f, g=g, unit=unit, representative=normalized),
        None,
    )
