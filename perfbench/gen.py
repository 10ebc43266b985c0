"""Seeded input generators.  Everything here is plain ints and Fractions.

Polynomials are ascending coefficient lists; a monic f of degree d has
d + 1 entries ending in 1.  Elements of Q[x]/(f) are lists of length d.
"""

import random
from fractions import Fraction

from exact import (derivative, fp_factor_degrees, fp_is_squarefree,
                   is_probable_prime, is_rational_square, is_separable,
                   is_unit_mod, mulmod, peval, pmul)


def rng_for(*parts):
    """A private generator per (workload, seed, round, ...): str seeds are
    hashed with sha512, so streams agree across processes."""
    return random.Random(":".join(str(p) for p in parts))


def nonzero(rng, height):
    return rng.choice([-1, 1]) * rng.randint(1, height)


def monic(rng, deg, height=10):
    """A separable monic polynomial with coefficients in [-height, height]."""
    while True:
        f = [rng.randint(-height, height) for _ in range(deg)] + [1]
        if f[0] != 0 and is_separable(f):
            return f


def odd_monic(rng, deg, height=10):
    """A separable f = x g(x^2) of odd degree with g(0) != 0."""
    while True:
        g = [nonzero(rng, height)]
        g += [rng.randint(-height, height) for _ in range((deg - 1) // 2 - 1)]
        g.append(1)
        f = [0] * (deg + 1)
        for k, v in enumerate(g):
            f[2 * k + 1] = v
        if is_separable(f):
            return f


def split_monic(rng, deg, lo=-4, hi=4):
    """(f, roots): f = prod (x - r) over distinct integer roots, increasing."""
    roots = sorted(rng.sample(range(lo, hi + 1), deg))
    f = [1]
    for r in roots:
        f = pmul(f, [-r, 1])
    return f, roots


def unit(rng, f, height, parity=None):
    """A unit of Q[x]/(f) with integer coefficients in [-height, height];
    parity 0 keeps only even powers (a tau-fixed element)."""
    d = len(f) - 1
    while True:
        a = [rng.randint(-height, height) for _ in range(d)]
        if parity == 0:
            a = [v if k % 2 == 0 else 0 for k, v in enumerate(a)]
        if is_unit_mod(a, f):
            return a


def square(a, f):
    return mulmod(a, a, f)


def fp_monic_of_type(rng, p, deg, degrees, height=10):
    """A monic integer polynomial whose reduction mod p is squarefree with
    irreducible factors of the given degrees."""
    while True:
        f = [rng.randint(-height, height) for _ in range(deg)] + [1]
        if fp_is_squarefree(f, p) and fp_factor_degrees(f, p) == sorted(degrees):
            return f


def isotropic_class(rng, f, roots, height=5):
    """Values at the roots of a split f of a unit alpha whose twisted
    form <a_i / f'(r_i)> is split (an isometric copy of hyperbolic planes
    plus a line) and whose norm is a square, yet alpha is not a square.

    Adjacent roots are paired with a_i / f'(r_i) = -a_j / f'(r_j); the
    last value fixes the norm to a square.
    """
    df = derivative(f)
    deg = len(roots)
    while True:
        vals = []
        for i in range(0, deg - 1, 2):
            aj = Fraction(nonzero(rng, height))
            ai = -aj * peval(df, roots[i]) / peval(df, roots[i + 1])
            vals += [ai, aj]
        prod = Fraction(1)
        for v in vals:
            prod *= v
        vals.append(prod * rng.randint(1, 3) ** 2)
        if not all(is_rational_square(v) for v in vals):
            return vals


def definite_class(rng, roots, f, height=3):
    """Values at the roots of a unit with square norm whose twisted form
    <a_i / f'(r_i)> is definite, so its class is outside the kernel."""
    df = derivative(f)
    sign = -1 if len(roots) % 4 == 3 else 1
    return [sign * (1 if peval(df, r) > 0 else -1) * rng.randint(1, height) ** 2
            for r in roots]


def prime_value_points(rng, f, count, lo, hi):
    """`count` distinct integers c in [lo, hi] with |f(c)| a probable prime."""
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 20000:
            return None
        c = rng.randint(lo, hi)
        if c not in out and is_probable_prime(abs(peval(f, c))):
            out.append(c)
    return out


def poly_text(f, var="x"):
    """Term syntax, highest power first, as a user would type it."""
    parts = []
    for k in range(len(f) - 1, -1, -1):
        a = Fraction(f[k])
        if a == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else "%s^%d" % (var, k))
        mag = abs(a)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not parts:
            parts.append(("-" if a < 0 else "") + body)
        else:
            parts.append(("- " if a < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def list_text(a):
    return "[" + ",".join(str(Fraction(v)) for v in a) + "]"


def values_text(vals):
    return "crt:" + ",".join(str(Fraction(v)) for v in vals)
