from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import etale
from orbitforge.errors import (
    NonSeparable,
    NonUnit,
    NotOddPolynomial,
    NotTauFixed,
    ZeroDivisor,
)
from orbitforge.etale import EtaleAlgebra, apply_tau, is_square, skew_data
from orbitforge.poly import Poly


L2 = EtaleAlgebra(Poly([-2, 0, 0, 1]))  # Q[x]/(x^3 - 2)
LX = EtaleAlgebra(Poly([0, -1, 0, 1]))  # Q[x]/(x^3 - x), split
LP = EtaleAlgebra(Poly([0, 1, 0, 1]))  # Q[x]/(x^3 + x)


def test_modulus_validation():
    with pytest.raises(NonSeparable):
        EtaleAlgebra(Poly([0, 0, 0, 1]))  # x^3, repeated root
    with pytest.raises(NonSeparable):
        EtaleAlgebra(Poly([1, 0, 2]))  # not monic


def test_mul_reduction():
    b = L2.beta()
    assert b * b * b == L2.const(2)  # beta^3 = 2
    assert (b * b) * (b * b) == L2.element([0, 2, 0])  # beta^4 = 2 beta


def test_inverse():
    assert L2.one().inverse() == L2.one()
    b = L2.beta()
    binv = b.inverse()
    assert b * binv == L2.one()
    assert binv == L2.element([0, 0, Fraction(1, 2)])  # beta^2 / 2
    with pytest.raises(ZeroDivisor):
        LX.beta().inverse()  # beta * (beta^2 - 1) = 0


def test_norm_trace():
    b = L2.beta()
    assert b.norm() == 2
    assert L2.one().norm() == 1
    assert b.trace() == 0
    assert (b + 1).norm() == 3  # N(1 + beta) = f(-1) * (-1)^3 = 3
    assert (b + 1).trace() == 3


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_norm_multiplicative_trace_additive(u, v):
    a, b = L2.element(u), L2.element(v)
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a + b).trace() == a.trace() + b.trace()


def test_top_coeff():
    bx = LX.beta()
    assert (bx * bx).top_coeff() == 1
    assert (bx * bx * bx).top_coeff() == 0  # beta^3 = beta
    b2 = L2.beta()
    assert (b2**4).top_coeff() == 0  # beta^4 = 2 beta


def test_apply_tau():
    a = LX.element([1, 1, 0])
    assert apply_tau(a) == LX.element([1, -1, 0])
    with pytest.raises(NotOddPolynomial):
        apply_tau(L2.beta())


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_tau_involution_and_top_coeff(u):
    a = LX.element(u)
    assert apply_tau(apply_tau(a)) == a
    assert apply_tau(a).top_coeff() == a.top_coeff()
    assert apply_tau(a).norm() == a.norm()


def test_is_square_constant():
    d = is_square(L2.const(4))
    assert d.is_true() and d.witness * d.witness == L2.const(4)
    d = is_square(L2.const(2))
    assert d.is_false()


def test_is_square_literal_square():
    b = L2.beta()
    d = is_square(b * b)
    assert d.is_true()
    assert d.witness in (b, -b)


def test_is_square_norm_certificate():
    d = is_square(L2.beta())
    assert d.is_false()
    assert "norm" in d.certificate


def test_is_square_hard_norm_needs_no_factoring():
    # w = (c1 - x)(c2 - x) has norm f(c1) f(c2), a product of two 70-bit
    # primes: deciding whether that norm is a square must not factor it
    import time
    from orbitforge.arith import is_prime
    f = Poly([1, -3, 0, 2, 0, 0, 0, 1])  # x^7 + 2x^3 - 3x + 1
    c1, c2 = 936, 959
    for c in (c1, c2):
        v = int(f(c))
        assert is_prime(v) and v.bit_length() == 70
    L = EtaleAlgebra(f)
    w = L.element([c1 * c2, -(c1 + c2), 1])
    a = w * w
    start = time.perf_counter()
    d = is_square(a)
    assert time.perf_counter() - start < 2.0
    assert d.is_true()
    assert d.witness * d.witness == a


def test_is_square_real_certificate():
    # (1, 4, -9) at the roots (0, 1, -1) of x^3 - x: norm -36... adjust to
    # make the norm a square but a real value negative: (1, -4, -9),
    # norm = 36, negative at two real roots
    # values (a(0), a(1), a(-1)) = (1, -4, -9):
    # a = c0 + c1 x + c2 x^2, c0 = 1, c1 = (a(1)-a(-1))/2, c2 = (a(1)+a(-1))/2 - c0
    a = LX.element([1, Fraction(5, 2), Fraction(-15, 2)])
    assert a.lift()(0) == 1 and a.lift()(1) == -4 and a.lift()(-1) == -9
    assert a.norm() == 36
    d = is_square(a)
    assert d.is_false()
    assert "real root" in d.certificate


def test_is_square_split_crt():
    # values (1, 4, 9) at roots (0, 1, -1): componentwise square
    a = LX.element([1, Fraction(-5, 2), Fraction(11, 2)])
    assert a.lift()(1) == 4 and a.lift()(-1) == 9
    d = is_square(a)
    assert d.is_true()
    assert d.witness * d.witness == a


def test_is_square_rational_witness():
    b = L2.beta()
    a = (b * Fraction(1, 2)) ** 2
    d = is_square(a)
    assert d.is_true() and d.witness * d.witness == a


@settings(max_examples=25)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_is_square_of_square(u):
    a = L2.element(u)
    if not a.is_unit():
        return
    d = is_square(a * a)
    assert d.is_true()
    assert d.witness * d.witness == a * a


def test_is_square_nonunit():
    with pytest.raises(NonUnit):
        is_square(LX.beta())


def test_skew_data_split():
    sk = skew_data(LX)
    assert sk.g == Poly([-1, 1])
    assert sk.K.deg == 1
    assert sk.E.f == Poly([-1, 0, 1])
    # e_E = beta^2 here
    assert sk.e_E == LX.element([0, 0, 1])
    assert sk.e_E * sk.e_k == LX.zero()
    assert sk.e_E + sk.e_k == LX.one()


def test_skew_data_deg5():
    # f = x^5 - 5x^3 + 4x = x(y-1)(y-4) with y = x^2
    L = EtaleAlgebra(Poly([0, 4, 0, -5, 0, 1]))
    sk = skew_data(L)
    assert sk.g == Poly([4, -5, 1])
    assert sk.e_E * sk.e_E == sk.e_E
    assert etale.k_component(sk.e_E) == 0


def test_components_roundtrip():
    sk = skew_data(LP)  # f = x^3 + x, g = y + 1
    alpha = etale.embed_pair(sk, sk.K.const(7), c_k=3)
    assert etale.k_component(alpha) == 3
    assert etale.K_component(sk, alpha) == sk.K.const(7)
    assert apply_tau(alpha) == alpha
    with pytest.raises(NotTauFixed):
        etale.K_component(sk, LP.beta() + 1)


def test_solve_tau_norm_trivial():
    sk = skew_data(LP)
    out = etale.solve_tau_norm(sk, LP.one())
    assert out.status == "solved"
    r = out.witness
    assert r * apply_tau(r) == LP.one()


def test_solve_tau_norm_k_obstruction():
    sk = skew_data(LX)
    pi = etale.embed_pair(sk, sk.K.one(), c_k=-1)
    out = etale.solve_tau_norm(sk, pi)
    assert out.status == "obstructed"
    assert "k-component" in out.certificate


def test_solve_tau_norm_complex_place_obstruction():
    sk = skew_data(LP)  # g = y + 1, root y0 = -1 < 0
    pi = etale.embed_pair(sk, sk.K.const(-1), c_k=1)
    out = etale.solve_tau_norm(sk, pi)
    assert out.status == "obstructed"
    assert "real root of g" in out.certificate


def test_solve_tau_norm_nontrivial():
    # with y = -1: 2 = 1^2 - y * 1^2 is a norm from E = Q(i)
    sk = skew_data(LP)
    pi = etale.embed_pair(sk, sk.K.const(2), c_k=1)
    out = etale.solve_tau_norm(sk, pi)
    assert out.status == "solved"
    r = out.witness
    assert r * apply_tau(r) == pi


# ---------------------------------------------------------------------------
# regression corpus: is_square always decides


def _interpolate(roots, values):
    out = Poly()
    for i, r in enumerate(roots):
        term = Poly([values[i]])
        for j, s in enumerate(roots):
            if j != i:
                term = term * Poly([-s, 1]) * Fraction(1, r - s)
        out = out + term
    return out


def _square_corpus():
    import random
    rng = random.Random(20121)
    cases = []
    for deg in (3, 5, 7):
        while True:
            f = Poly([rng.randint(-3, 3) for _ in range(deg)] + [1])
            try:
                L = EtaleAlgebra(f)
                break
            except NonSeparable:
                continue
        for height in (10, 10**6, 10**12, 10**40):
            for _ in range(2):
                w = L.random_element(rng, height)
                if w.is_unit():
                    cases.append((w * w, True))
                # u * N(u) has the square norm N(u)^(deg + 1)
                u = L.random_element(rng, height)
                if u.is_unit():
                    cases.append((u * u.norm(), None))
    L = EtaleAlgebra(Poly([Fraction(1, 3), Fraction(1, 2), 0, 1]))
    for _ in range(4):
        w = L.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(3)])
        if w.is_unit():
            cases.append((w * w, True))
    return cases


def _locally_square_nonsquares():
    # values (q, q, 1, ...) at the roots: a square mod every probed prime,
    # with a square norm and positive at every real root, but q is not a
    # rational square
    out = []
    for roots in ((0, 1, -1), (0, 1, -1, 2, -2)):
        L = EtaleAlgebra(Poly.from_roots(roots))
        for q in (644869, 1234531, 1365079):
            values = [q, q] + [1] * (len(roots) - 2)
            out.append(L.from_poly(_interpolate(roots, values)))
    return out


def test_is_square_corpus_always_decides():
    cases = _square_corpus()
    assert len(cases) >= 40
    for a, square in cases:
        d = is_square(a)
        assert d.status in ("true", "false")
        if square:
            assert d.is_true()
        if d.is_true():
            assert d.witness * d.witness == a


def test_is_square_locally_square_nonsquares_are_false():
    for a in _locally_square_nonsquares():
        d = is_square(a)
        assert d.is_false()
        assert d.certificate.startswith("no square root of height <= ")
