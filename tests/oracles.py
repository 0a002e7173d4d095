"""Independent brute-force oracles used to freeze expected values.

Everything here but the last section is written against plain
dict/Fraction arithmetic with no imports from the package's series core, so
it can disagree with the implementation under test.  The last section writes
two transport kernels of ``separatrix`` in ``USeries`` arithmetic alone, dense
products and differences, as references for their one-walk forms.
"""

from __future__ import annotations

from fractions import Fraction


# -- plain polynomial arithmetic over Q(i): dict (i,j,k) -> (re, im) -----------


def padd(a, b):
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m, (Fraction(0), Fraction(0)))
        val = (cur[0] + c[0], cur[1] + c[1])
        if val == (0, 0):
            out.pop(m, None)
        else:
            out[m] = val
    return out


def pneg(a):
    return {m: (-c[0], -c[1]) for m, c in a.items()}


def pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            re = c1[0] * c2[0] - c1[1] * c2[1]
            im = c1[0] * c2[1] + c1[1] * c2[0]
            cur = out.get(m, (Fraction(0), Fraction(0)))
            val = (cur[0] + re, cur[1] + im)
            if val == (0, 0):
                out.pop(m, None)
            else:
                out[m] = val
    return out


def ppow(a, n):
    out = {(0, 0, 0): (Fraction(1), Fraction(0))}
    for _ in range(n):
        out = pmul(out, a)
    return out


def psubstitute(a, subs):
    out = {}
    for (i, j, k), c in a.items():
        term = {(0, 0, 0): c}
        for e, sub in zip((i, j, k), subs):
            term = pmul(term, ppow(sub, e))
        out = padd(out, term)
    return out


def pdivide_var(a, vi):
    out = {}
    for m, c in a.items():
        assert m[vi] > 0, "oracle division not exact"
        mm = list(m)
        mm[vi] -= 1
        out[tuple(mm)] = c
    return out


def ptruncate(a, trunc):
    return {m: c for m, c in a.items() if sum(m) <= trunc}


def pconst(q):
    q = Fraction(q)
    return {} if q == 0 else {(0, 0, 0): (q, Fraction(0))}


VAR_X = {(1, 0, 0): (Fraction(1), Fraction(0))}
VAR_Y = {(0, 1, 0): (Fraction(1), Fraction(0))}
VAR_Z = {(0, 0, 1): (Fraction(1), Fraction(0))}


def point_blowup_chart_z_oracle(F, G, H):
    """Raw pullback of (F, G, H) under (x, y, z) -> (xz, yz, z), then the
    standard component formulas, by direct dict manipulation."""
    sub = ({(1, 0, 1): (Fraction(1), Fraction(0))},
           {(0, 1, 1): (Fraction(1), Fraction(0))},
           VAR_Z)
    Fc = psubstitute(F, sub)
    Gc = psubstitute(G, sub)
    Hc = psubstitute(H, sub)
    new_x = pdivide_var(padd(Fc, pneg(pmul(VAR_X, Hc))), 2)
    new_y = pdivide_var(padd(Gc, pneg(pmul(VAR_Y, Hc))), 2)
    return new_x, new_y, Hc


# -- the nilpotent family's separatrix recurrences -----------------------------


def xlambda_series(lam: Fraction, degree: int):
    """Coefficients of the formal solution of z^3 x' = y - lam z, z^2 y' = x.

    Matching powers gives b_0 = 0, b_1 = lam, b_2 = 0, b_{m} = (m-2) a_{m-2}
    for m >= 3, and a_0 = a_1 = 0, a_m = (m-1) b_{m-1} for m >= 1; eliminating
    a yields b_{k+3} = k (k+1) b_k.
    """
    a = [Fraction(0)] * (degree + 1)
    b = [Fraction(0)] * (degree + 1)
    if degree >= 1:
        b[1] = Fraction(lam)
    for m in range(2, degree + 1):
        a[m] = (m - 1) * b[m - 1]
        if m >= 3:
            b[m] = (m - 2) * a[m - 2]
    return a, b


def degenerate_family_series(alpha: Fraction, beta: Fraction, lam: Fraction, degree: int):
    """Graph solution of x^2 dy/dx = xz - a xy, x^2 dz/dx = y - l x - b xz.

    y_m = (m-1+a)(m-1+b) y_{m-1} with y_1 = l, and z_m = (m+a) y_m.
    """
    y = [Fraction(0)] * (degree + 1)
    z = [Fraction(0)] * (degree + 1)
    if degree >= 1:
        y[1] = Fraction(lam)
        z[1] = (1 + alpha) * y[1]
    for m in range(2, degree + 1):
        y[m] = (m - 1 + alpha) * (m - 1 + beta) * y[m - 1]
        z[m] = (m + alpha) * y[m]
    return y, z


# -- transport kernels in plain USeries arithmetic ------------------------------


def minus_product_reference(u, a, b):
    """u - a b as dense USeries arithmetic through min(lu, la + vb, lb + va),
    l the ledgers and v the valuations, a factor zero at its precision
    counting valuation ledger + 1: each factor is padded with zeros to that
    ledger, which the unknown tail of the other factor does not reach."""
    from folres.series import USeries

    va, vb = (next((k for k, c in enumerate(s.coeffs) if c), s.trunc + 1) for s in (a, b))
    t = min(u.trunc, a.trunc + vb, b.trunc + va)
    return u.retrunc(t) - USeries(a.coeffs, t) * USeries(b.coeffs, t)


def residual_minors_reference(images, derivs):
    """The two minors phi_p' I_j - phi_j' I_p, j != p, as USeries products
    and differences, p the phi' component of least valuation, the last one
    on a tie."""
    vals = [next((k for k, c in enumerate(d.coeffs) if c), float("inf")) for d in derivs]
    p = min(range(3), key=lambda i: (vals[i], -i))
    return [derivs[p] * images[j] - derivs[j] * images[p] for j in range(3) if j != p]
