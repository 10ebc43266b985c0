"""Curves dy^2 = f(x), descent classes of points, and the quadric pencil.

A rational point (x0, y0) with y0 != 0 on dy^2 = f(x) produces the unit
alpha = d*(x0 - beta) of L = Q[x]/(f), whose norm d^(2n+2) y0^2 is a
rational square.  These classes land in the kernel tested by
in_kernel_gamma, which kernel_check verifies case by case.  For cubic f
the chord-tangent group law is available, and the pencil spanned by the
two quadrics on L + Q has discriminant proportional to the
homogenization of f.
"""

from fractions import Fraction

from .errors import (NotGenusOne, NotOnCurve, WeierstrassPoint, ZeroArgument)
from .matrix import Mat, interpolate
from .orbits import SYM2, gram_alpha, in_kernel_gamma, _validate_charpoly
from .poly import Poly

INFINITY = None


class HyperCurve:
    """dy^2 = f(x) for monic separable f of odd degree 2n+1 >= 3."""

    __slots__ = ("f", "d", "n", "alg")

    def __init__(self, f, d=1):
        self.alg = _validate_charpoly(f, SYM2).alg
        d = Fraction(d)
        if d == 0:
            raise ZeroArgument("twist must be nonzero")
        self.f = f
        self.d = d
        self.n = (f.degree - 1) // 2

    def contains(self, pt):
        if pt is INFINITY:
            return True
        x0, y0 = pt
        return self.d * Fraction(y0) ** 2 == self.f(Fraction(x0))

    def check_point(self, pt):
        if not self.contains(pt):
            raise NotOnCurve("point %r does not satisfy %s y^2 = f(x)"
                             % (pt, self.d))

    def __repr__(self):
        if self.d == 1:
            return "HyperCurve(y^2 = %s)" % self.f.pretty()
        return "HyperCurve(%s y^2 = %s)" % (self.d, self.f.pretty())


def descent_class(curve, pt):
    """The square class d*(x0 - beta) attached to a rational point.

    The norm comes out to d^(2n+2) y0^2, a nonzero rational square, so
    the class is a unit and a legitimate twisting datum.  The point at
    infinity carries the identity class.
    """
    curve.check_point(pt)
    if pt is INFINITY:
        return curve.alg.one()
    x0, y0 = Fraction(pt[0]), Fraction(pt[1])
    if y0 == 0:
        raise WeierstrassPoint("y = 0 points need the corrected class on the"
                               " vanishing factor; unsupported")
    alpha = curve.alg.from_poly(Poly([curve.d * x0, -curve.d]))
    expected = curve.d ** (2 * curve.n + 2) * y0 ** 2
    assert alpha.norm() == expected
    return alpha


def kernel_check(curve, pt):
    """Empirical check that the class of a point twists to a split space."""
    return in_kernel_gamma(curve.f, descent_class(curve, pt), SYM2)


def ec_add(curve, p1, p2):
    """Chord-tangent addition on y^2 = cubic, identity at infinity."""
    if curve.f.degree != 3 or curve.d != 1:
        raise NotGenusOne("group law implemented for y^2 = cubic only")
    curve.check_point(p1)
    curve.check_point(p2)
    if p1 is INFINITY:
        return p2
    if p2 is INFINITY:
        return p1
    x1, y1 = Fraction(p1[0]), Fraction(p1[1])
    x2, y2 = Fraction(p2[0]), Fraction(p2[1])
    if x1 == x2 and y1 == -y2:
        return INFINITY
    if (x1, y1) == (x2, y2):
        lam = curve.f.derivative()(x1) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - curve.f[2] - x1 - x2
    y3 = -(y1 + lam * (x3 - x1))
    out = (x3, y3)
    assert curve.contains(out)
    return out


def pencil_discriminant_check(f, alpha, d=1):
    """Discriminant of the pencil spanned by the two quadrics on L + Q.

    Q reads <lambda, lambda>_alpha and ignores the extra coordinate;
    Q' reads <beta lambda, lambda>_alpha + d a^2.  The binary form
    det(u G_Q - v G_Q') of degree 2n+2 must be proportional to the
    degree-(2n+2) homogenization v^(2n+2) f(u/v); the proportionality
    constant is returned alongside the verdict.
    """
    d = Fraction(d)
    if d == 0:
        raise ZeroArgument("twist must be nonzero")
    sp = gram_alpha(f, alpha, SYM2)
    g = sp.gram
    gb = g * Mat.companion(f)
    assert gb == gb.transpose()
    m = f.degree + 1
    zero = Fraction(0)

    def padded(block, corner):
        rows = []
        for i in range(m - 1):
            rows.append([block[i, j] for j in range(m - 1)] + [zero])
        rows.append([zero] * (m - 1) + [corner])
        return Mat(rows)

    gq = padded(g, zero)
    gqp = padded(gb, d)
    samples = []
    for k in range(m + 1):
        u = Fraction(k)
        samples.append((u, (gq * u - gqp).det()))
    p = interpolate(samples)
    c = p[f.degree]
    ok = c != 0 and p == f * Poly.const(c)
    return c, ok
