import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from folres import MSeries, USeries, VectorField
from folres.scalars import GaussianRational, ZERO


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def series(terms, trunc=24) -> MSeries:
    return MSeries(terms, trunc)


def vf(fx, fy, fz, trunc=24) -> VectorField:
    return VectorField(MSeries(fx, trunc), MSeries(fy, trunc), MSeries(fz, trunc))


def useries(coeffs, trunc=None) -> USeries:
    if trunc is None:
        trunc = len(coeffs) - 1
    return USeries([gr(c) if not isinstance(c, GaussianRational) else c for c in coeffs], trunc)


def rand_scalar(rng: random.Random, span=3, imag=1) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-span, span)), Fraction(rng.randint(-imag, imag))
    )


def rand_mseries(rng: random.Random, trunc, val=0, maxdeg=4, terms=5) -> MSeries:
    d = {}
    for _ in range(terms):
        while True:
            m = tuple(rng.randint(0, maxdeg) for _ in range(3))
            if val <= sum(m) <= maxdeg:
                break
        c = rand_scalar(rng)
        if c:
            d[m] = c
    return MSeries(d, trunc)


def rand_normal_form(rng: random.Random, trunc):
    """(y + z f) d/dx + z g d/dy + z^n d/dz with g = lam x + O(2); returns (X, n, lam)."""
    n = rng.choice([2, 3, 4])
    f = rand_mseries(rng, trunc, val=1, maxdeg=3, terms=3)
    lam = rand_scalar(rng, 3, 1)
    if not lam:
        lam = gr(1)
    g = MSeries.variable("x", trunc).scale(lam) + rand_mseries(
        rng, trunc, val=2, maxdeg=3, terms=3
    )
    z = MSeries.variable("z", trunc)
    X = VectorField(
        MSeries.variable("y", trunc) + z * f,
        z * g,
        MSeries.monomial(1, (0, 0, n), trunc),
    )
    return X, n, lam


def rand_zero_const_triple(rng: random.Random, trunc, maxdeg=2):
    return tuple(rand_mseries(rng, trunc, val=1, maxdeg=maxdeg, terms=4) for _ in range(3))


# Standard fields used across modules --------------------------------------------

def field_xlambda(lam, trunc=24) -> VectorField:
    """(y - lam z) d/dx + zx d/dy + z^3 d/dz."""
    lam = gr(lam)
    return vf(
        {(0, 1, 0): 1, (0, 0, 1): -lam},
        {(1, 0, 1): 1},
        {(0, 0, 3): 1},
        trunc,
    )


def field_z_example(trunc=24) -> VectorField:
    """x^2 d/dx + xz d/dy + (y - xz) d/dz."""
    return vf(
        {(2, 0, 0): 1},
        {(1, 0, 1): 1},
        {(0, 1, 0): 1, (1, 0, 1): -1},
        trunc,
    )


def field_degenerate_family(alpha, beta, lam=0, trunc=24) -> VectorField:
    """(y - l z - b xz) d/dx + (xz - a yz) d/dy + z^2 d/dz (graph variable last)."""
    a, b, l = gr(alpha), gr(beta), gr(lam)
    return vf(
        {(0, 1, 0): 1, (0, 0, 1): -l, (1, 0, 1): -b},
        {(1, 0, 1): 1, (0, 1, 1): -a},
        {(0, 0, 2): 1},
        trunc,
    )
