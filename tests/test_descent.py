"""Tests for curves, descent classes, and the quadric pencil."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.descent import (INFINITY, HyperCurve, descent_class, ec_add,
                                kernel_check, pencil_discriminant_check)
from orbitforge.errors import (NonSeparable, NotGenusOne, NotOnCurve,
                               WeierstrassPoint, ZeroArgument)
from orbitforge.etale import EtaleAlgebra, is_square
from orbitforge.poly import Poly, is_separable

X3_MINUS_2 = Poly([-2, 0, 0, 1])
X3_MINUS_X = Poly([0, -1, 0, 1])


def test_curve_validation():
    C = HyperCurve(X3_MINUS_2)
    assert C.contains((3, 5))
    assert C.contains(INFINITY)
    assert not C.contains((3, 4))
    with pytest.raises(NotOnCurve):
        C.check_point((3, 4))
    with pytest.raises(NonSeparable):
        HyperCurve(Poly([0, 0, 0, 1]))
    with pytest.raises(ZeroArgument):
        HyperCurve(X3_MINUS_2, 0)


def test_descent_class_basic():
    C = HyperCurve(X3_MINUS_2)
    a = descent_class(C, (3, 5))
    assert a.c == (3, -1, 0)
    assert a.norm() == 25


def test_descent_class_infinity():
    C = HyperCurve(X3_MINUS_2)
    assert descent_class(C, INFINITY) == EtaleAlgebra(X3_MINUS_2).one()


def test_descent_class_weierstrass():
    C = HyperCurve(X3_MINUS_X)
    with pytest.raises(WeierstrassPoint):
        descent_class(C, (1, 0))


def test_descent_class_twisted_norm():
    # 6 y^2 = x^3 - x has the point (2, 1)
    C = HyperCurve(X3_MINUS_X, 6)
    a = descent_class(C, (2, 1))
    assert a.c == (12, -6, 0)
    assert a.norm() == 6 ** 4


def test_kernel_check_fixtures():
    assert kernel_check(HyperCurve(X3_MINUS_2), (3, 5))
    assert kernel_check(HyperCurve(X3_MINUS_2), INFINITY)
    assert kernel_check(HyperCurve(X3_MINUS_X, 6), (2, 1))


def test_kernel_check_degree_five():
    f = Poly([1, 2, 0, 0, 0, 1])  # x^5 + 2x + 1, f(1) = 4
    assert is_separable(f)
    C = HyperCurve(f)
    assert C.contains((1, 2))
    assert kernel_check(C, (1, 2))


def test_ec_add_inverse_pair():
    C = HyperCurve(X3_MINUS_2)
    assert ec_add(C, (3, 5), (3, -5)) is INFINITY


def test_ec_add_doubling_oracle():
    C = HyperCurve(X3_MINUS_2)
    P2 = ec_add(C, (3, 5), (3, 5))
    assert P2 == (Fraction(129, 100), Fraction(-383, 1000))
    assert C.contains(P2)


def test_ec_add_identity():
    C = HyperCurve(X3_MINUS_2)
    assert ec_add(C, (3, 5), INFINITY) == (3, 5)
    assert ec_add(C, INFINITY, (3, 5)) == (3, 5)
    assert ec_add(C, INFINITY, INFINITY) is INFINITY


def test_ec_add_commutes_and_associates():
    C = HyperCurve(X3_MINUS_2)
    P = (Fraction(3), Fraction(5))
    P2 = ec_add(C, P, P)
    P3 = ec_add(C, P, P2)
    assert ec_add(C, P2, P) == P3
    assert ec_add(C, P, P3) == ec_add(C, P2, P2)
    # two-torsion doubling heads to infinity
    CX = HyperCurve(X3_MINUS_X)
    assert ec_add(CX, (0, 0), (0, 0)) is INFINITY


def test_ec_add_genus_restriction():
    with pytest.raises(NotGenusOne):
        ec_add(HyperCurve(Poly([1, 2, 0, 0, 0, 1])), INFINITY, INFINITY)
    with pytest.raises(NotGenusOne):
        ec_add(HyperCurve(X3_MINUS_X, 6), INFINITY, INFINITY)


def test_descent_homomorphism_products():
    C = HyperCurve(X3_MINUS_2)
    P = (Fraction(3), Fraction(5))
    P2 = ec_add(C, P, P)
    P3 = ec_add(C, P, P2)
    a1 = descent_class(C, P)
    a2 = descent_class(C, P2)
    a3 = descent_class(C, P3)
    for prod in (a1 * a1 * a2, a1 * a2 * a3):
        dec = is_square(prod)
        assert dec.status == "true"
        assert dec.witness * dec.witness == prod


def test_pencil_base_oracles():
    c, ok = pencil_discriminant_check(X3_MINUS_X, 1, 1)
    assert ok and c == 1
    alg = EtaleAlgebra(X3_MINUS_2)
    c2, ok2 = pencil_discriminant_check(X3_MINUS_2, alg.element([3, -1, 0]), 1)
    assert ok2 and c2 == 25


def test_pencil_twist_scaling():
    c1, ok1 = pencil_discriminant_check(X3_MINUS_X, 1, 1)
    c2, ok2 = pencil_discriminant_check(X3_MINUS_X, 1, 2)
    assert ok1 and ok2
    assert c2 / c1 == 2


def test_pencil_degree_five():
    f = Poly([1, 2, 0, 0, 0, 1])
    c, ok = pencil_discriminant_check(f, 1, 1)
    assert ok and c != 0


@settings(deadline=None, max_examples=12)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=5))
def test_pencil_random_cubics(coeffs, d):
    f = Poly(coeffs + [1])
    if not is_separable(f):
        return
    c, ok = pencil_discriminant_check(f, 1, d)
    assert ok
    assert c != 0
