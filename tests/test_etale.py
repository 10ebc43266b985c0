import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import etale
from orbitforge.errors import (
    NonSeparable,
    NonUnit,
    NotMonic,
    NotOddPolynomial,
    NotTauFixed,
    ZeroDivisor,
)
from orbitforge.etale import (EtaleAlgebra, Verdict, apply_tau, is_square,
                              skew_data)
from orbitforge.orbits import ADJOINT, stabilizer_info
from orbitforge.poly import Poly


L2 = EtaleAlgebra(Poly([-2, 0, 0, 1]))  # Q[x]/(x^3 - 2)
LX = EtaleAlgebra(Poly([0, -1, 0, 1]))  # Q[x]/(x^3 - x), split
LP = EtaleAlgebra(Poly([0, 1, 0, 1]))  # Q[x]/(x^3 + x)


def test_modulus_validation():
    with pytest.raises(NonSeparable):
        EtaleAlgebra(Poly([0, 0, 0, 1]))  # x^3, repeated root
    with pytest.raises(NotMonic):
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


def test_verdict_needs_its_evidence():
    b = L2.beta()
    for status in ("true", "solved", "equal"):
        with pytest.raises(ValueError):
            Verdict(status, certificate="no witness")
        assert Verdict(status, witness=b).witness == b
    for status in ("false", "obstructed", "distinct"):
        for cert in (None, ""):
            with pytest.raises(ValueError):
                Verdict(status, witness=b, certificate=cert)
        assert Verdict(status, certificate="why").certificate == "why"
    assert Verdict("unknown").certificate is None
    assert Verdict("unknown", certificate="budget").certificate == "budget"
    # a status outside the seven gets round no evidence rule
    for status in ("False", "yes", "", None):
        with pytest.raises(ValueError):
            Verdict(status, witness=b, certificate="why")


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_tau_involution_and_top_coeff(u):
    a = LX.element(u)
    assert apply_tau(apply_tau(a)) == a
    assert apply_tau(a).top_coeff() == a.top_coeff()
    assert apply_tau(a).norm() == a.norm()


def test_is_square_constant():
    d = is_square(L2.const(4))
    assert d.status == "true" and d.witness * d.witness == L2.const(4)
    d = is_square(L2.const(2))
    assert d.status == "false"


def test_is_square_literal_square():
    b = L2.beta()
    d = is_square(b * b)
    assert d.status == "true"
    assert d.witness in (b, -b)


def test_is_square_norm_certificate():
    d = is_square(L2.beta())
    assert d.status == "false"
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
    assert d.status == "true"
    assert d.witness * d.witness == a


def _count_splits(monkeypatch):
    """The primes poly.fp_distinct_degree and poly.fp_equal_degree are
    called at from now on, as (splits, parts factored); each factored
    part is recorded as (p, d, part)."""
    from orbitforge import poly
    splits, factored = [], []
    split, equal_degree = poly.fp_distinct_degree, poly.fp_equal_degree

    def counted_split(f, p):
        splits.append(p)
        return split(f, p)

    def counted_equal_degree(part, d, p):
        factored.append((p, d, list(part)))
        return equal_degree(part, d, p)

    monkeypatch.setattr(poly, "fp_distinct_degree", counted_split)
    monkeypatch.setattr(poly, "fp_equal_degree", counted_equal_degree)
    return splits, factored


def test_is_square_factors_only_the_lift_prime(monkeypatch):
    # a square is decided by one split: f is split at the first probe
    # prime, the parts of that split are factored for the lift, and the
    # lifted root settles it before any other probe runs
    from orbitforge import poly
    b = L2.beta() + 2
    a = b * b
    p = etale._exact_tests(a)[1][0]
    parts = poly.fp_distinct_degree([x % p for x in L2.F], p)
    splits, factored = _count_splits(monkeypatch)
    d = is_square(a)
    assert d.status == "true" and d.witness in (b, -b)
    assert splits == [p]
    assert factored == [(p, e, h) for e, h in parts]


def test_is_square_names_a_nonresidue_in_a_degree_two_part(monkeypatch):
    # f = g(x) g(x - 1) with g = x^2 - 2, so L = Q(sqrt 2) x Q(sqrt 2), and
    # a = (3 + sqrt 2, 3 + sqrt 2): norm 7^2, positive at every real root
    # and not a square.  Mod 3 each component is a square, so the lift
    # from 3 runs first and factors f's one part there (two quadratics);
    # it finds no root, and mod 5 both factors are quadratic with norm 7 a
    # non-residue, so the second probe factors its degree-2 part, and only
    # that, to name the smaller factor; nothing is split twice
    splits, factored = _count_splits(monkeypatch)
    g = Poly([-2, 0, 1])
    g1 = g.compose(Poly([-1, 1]))
    L = EtaleAlgebra(g * g1)
    e = L.from_poly(g1 * EtaleAlgebra(g).from_poly(g1).inverse().lift())
    u = Poly([3, 1])
    a = L.from_poly(u) * e + L.from_poly(u.compose(Poly([-1, 1]))) * (1 - e)
    assert a.norm() == 49
    d = is_square(a)
    assert d.certificate == "non-residue in the factor x^2 + 3 mod 5"
    assert splits == [3, 5]
    assert [(q, e, len(h) - 1) for q, e, h in factored] == [(3, 2, 4),
                                                            (5, 2, 4)]
    assert factored[0][2] == [x % 3 for x in L.F]


def _split_value_corpus():
    """Seeded units over split moduli of degree 3 to 5 with values v and
    v k^2 at two roots and squares at the others: square norms, positive
    at every root, and non-squares that a later probe often names."""
    import random
    from orbitforge import poly
    rng = random.Random(40121)
    out = []
    for _ in range(40):
        deg = rng.choice((3, 4, 5))
        roots = rng.sample(range(-12, 13), deg)
        L = EtaleAlgebra(Poly.from_roots(roots))
        # values at the roots: v twice, up to squares, and squares
        v = rng.choice((2, 3, 5, 7, 11, 13))
        vals = [v, v * rng.randint(1, 3) ** 2] + [
            rng.randint(1, 4) ** 2 for _ in range(deg - 2)]
        rng.shuffle(vals)
        b = L.element([rng.randint(-3, 3) for _ in range(deg)])
        a = L.from_poly(poly.interpolate(zip(roots, vals))) * b * b
        if a.is_unit():
            out.append(a)
    return out


def test_probe_certificates_match_full_factoring():
    # the first non-residue factor, over the factors of f mod q sorted by
    # (degree, coefficients) at each probe q in turn, names the certificate
    from orbitforge import poly
    from orbitforge.arith import legendre
    later = 0
    for a in _split_value_corpus():
        L, deg = a.alg, a.alg.deg
        A = [x * a.den for x in a.num]
        avoid = (a.norm() * a.den ** (2 * deg)).numerator
        probes = etale._good_primes(L, avoid, 10)
        want = next(("non-residue in the factor %s mod %d"
                     % (Poly(h).pretty(), q), q)
                    for q in probes
                    for h in poly.fp_factor([x % q for x in L.F], q)
                    if legendre(poly.fp_resultant(h, A, q), q) == -1)
        assert is_square(a).certificate == want[0]
        later += want[1] != probes[0]
    assert later >= 8


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
    assert d.status == "false"
    assert "real root" in d.certificate


def test_is_square_split_crt():
    # values (1, 4, 9) at roots (0, 1, -1): componentwise square
    a = LX.element([1, Fraction(-5, 2), Fraction(11, 2)])
    assert a.lift()(1) == 4 and a.lift()(-1) == 9
    d = is_square(a)
    assert d.status == "true"
    assert d.witness * d.witness == a


def test_is_square_rational_witness():
    b = L2.beta()
    a = (b * Fraction(1, 2)) ** 2
    d = is_square(a)
    assert d.status == "true" and d.witness * d.witness == a


@settings(max_examples=25)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_is_square_of_square(u):
    a = L2.element(u)
    if not a.is_unit():
        return
    d = is_square(a * a)
    assert d.status == "true"
    assert d.witness * d.witness == a * a


def test_is_square_nonunit():
    with pytest.raises(NonUnit):
        is_square(LX.beta())


def test_skew_data_split():
    sk = skew_data(LX)
    assert sk.g == Poly([-1, 1])
    assert sk.K.deg == 1
    assert stabilizer_info(LX.f, ADJOINT).detail["E"] == Poly([-1, 0, 1])
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


def _idempotents_through_E(L):
    """(e_k, e_E) by way of E as its own algebra: e_E = x u, u the
    inverse of x modulo g(x^2) (0 mod x, 1 mod g(x^2))."""
    g = Poly.over(L.f.num[1::2], L.f.den)
    u = EtaleAlgebra(g.compose(Poly([0, 0, 1]))).beta().inverse()
    e_E = L._reduce([0, *u.num], u.den)
    return L.one() - e_E, e_E


def test_skew_idempotents_match_the_inverse_of_x_in_E():
    import random
    rng = random.Random(15002)
    moduli = [LX, LP, EtaleAlgebra(Poly([0, 4, 0, -5, 0, 1])),
              EtaleAlgebra(Poly([0, 2, 0, 3, 0, 1])),
              EtaleAlgebra(Poly([0, Fraction(-1, 2), 0, 1])),
              EtaleAlgebra(Poly([0, Fraction(3, 4), 0, Fraction(-5, 3),
                                 0, 1]))]
    moduli += [_random_modulus(rng, deg, odd=True)
               for deg in (5, 7) for _ in range(10)]
    for L in moduli:
        sk = skew_data(L)
        assert (sk.e_k, sk.e_E) == _idempotents_through_E(L)
        assert sk.e_k * sk.e_k == sk.e_k
        assert sk.e_k * sk.e_E == L.zero()


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
            assert d.status == "true"
        if d.status == "true":
            assert d.witness * d.witness == a


def test_is_square_locally_square_nonsquares_are_false():
    for a in _locally_square_nonsquares():
        d = is_square(a)
        assert d.status == "false"
        assert d.certificate.startswith("no square root of height <= ")


# ---------------------------------------------------------------------------
# pinned outcomes: verdicts, certificates and witnesses must not move


def _random_modulus(rng, deg, odd=False):
    while True:
        c = [rng.randint(-3, 3) for _ in range(deg)] + [1]
        if odd:
            c = [0 if k % 2 == 0 else v for k, v in enumerate(c)]
        try:
            return EtaleAlgebra(Poly(c))
        except NonSeparable:
            continue


def _random_unit(rng, L, height):
    while True:
        u = L.random_element(rng, height)
        if u.is_unit():
            return u


def _pinned_square_inputs():
    """Seeded is_square inputs: squares, random units (norm certificates),
    square-norm non-squares (non-residue and bound certificates) and
    sign-obstructed values, in degrees 3, 5 and 7."""
    import random
    rng = random.Random(40117)
    out = []
    for deg in (3, 5, 7):
        L = _random_modulus(rng, deg)
        for height in (10, 10**3, 10**6):
            w = _random_unit(rng, L, height)
            out.append(w * w)
            u = _random_unit(rng, L, height)
            out.append(u)
            out.append(u * u.norm())
            u = _random_unit(rng, L, height)
            out.append(u * u.norm())
        roots = list(range(-(deg // 2), deg // 2 + 1))
        S = EtaleAlgebra(Poly.from_roots(roots))
        signs = S.from_poly(_interpolate(roots, [-1, -1] + [1] * (deg - 2)))
        w = _random_unit(rng, S, 10)
        out.append(signs * w * w)
        out.append(w * w)
    L = EtaleAlgebra(Poly([Fraction(1, 3), Fraction(1, 2), 0, 1]))
    for _ in range(3):
        w = _random_unit(rng, L, 9) * Fraction(1, rng.randint(1, 6))
        out.append(w * w)
        out.append(w)
    return out + _locally_square_nonsquares()


def _pinned_tau_inputs():
    """Seeded solve_tau_norm inputs: norms r tau(r), pi with a non-square
    k-part, pi on a g with negative roots (complex places) and random
    tau-fixed pi, in degrees 3, 5 and 7."""
    import random
    rng = random.Random(40118)
    out = []
    for deg in (3, 5, 7):
        L = _random_modulus(rng, deg, odd=True)
        sk = skew_data(L)
        r = _random_unit(rng, L, 2)
        out.append((sk, r * apply_tau(r)))
        kappa = _random_unit(rng, sk.K, 5)
        out.append((sk, etale.embed_pair(sk, kappa, c_k=2)))
        for _ in range(2):
            kappa = _random_unit(rng, sk.K, 5)
            out.append((sk, etale.embed_pair(sk, kappa, c_k=4)))
        ys = [-1, -2, 3][:deg // 2]
        g = Poly.from_roots(ys)
        C = EtaleAlgebra(g.compose(Poly([0, 0, 1])) * Poly([0, 1]))
        skc = skew_data(C)
        for _ in range(2):
            kappa = _random_unit(rng, skc.K, 5)
            out.append((skc, etale.embed_pair(skc, kappa, c_k=1)))
    return out


def _outcome_hash(status, certificate, witness):
    import hashlib
    key = (status, certificate, None if witness is None else witness.c)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:12]


# sha256 prefixes of repr((status, certificate, witness coefficients)),
# recorded from the Fraction kernels (determinant norms, gcd unit tests,
# Fraction Sturm evaluation, Tonelli-Shanks at every probe)
PINNED_SQUARE = [
    'd612e00fbc1f', 'c3009687bae1', '533e7b1013e8', '6ee69ef2735a', '9408baad729e',
    'cbfa55295c32', '533e7b1013e8', '6ee69ef2735a', 'a485cdd7a7d8', '9e6f51f17e0e',
    '533e7b1013e8', '6ee69ef2735a', '238daf7793de', 'd9b6edc79613', 'b19ec7d24d87',
    'a0148c499d13', '6bac1fe9d1fa', '2a36efb85dc9', '3d5b573bc529', '787c618588df',
    'c870de495d46', '6bac1fe9d1fa', 'f8fa207e05e7', '81c27c4ed9f3', '9ca889567f3e',
    '5656835a2786', '120017458ccb', 'bff94879c328', '23847b1c2c4d', '547795d87fb9',
    '94ad8525960f', '94ad8525960f', 'd8eb1dc7cb7e', '3a17bec6b89e', '4d21b2cd8f66',
    '4d21b2cd8f66', '32a607a14d36', '21bf45dbbf74', '2c61389c69c9', '01924dcf0368',
    '28e5951a86cd', 'eb3e0e63ca9a', '7695e8aa7bcc', '15c739b115ed', 'faf96702f621',
    'b0eeb10ce358', 'f434d4e77629', '0e905d37607d', '9e1862e47cac', '970aad715a2f',
    'c8a30292dd9f', '6f83ecb01ac3', 'e01d1cdc323f', 'ad1f3c384f92',
]
PINNED_TAU = [
    '34d30acf5482', 'dcf2e5d99508', '5c5d837ec4ee', '5c5d837ec4ee', '982cdabc9ae3',
    '4e87f401fe1f', 'ad3ef7f44dcb', 'dcf2e5d99508', '6062675bff0f', '6062675bff0f',
    'c76c9463ca7b', '6062675bff0f', '08de6a62f632', 'dcf2e5d99508', 'c4be3803cc68',
    '63305f220845', 'c4be3803cc68', '19e86fb8d2b3',
]


def test_square_outcomes_pinned():
    got = []
    for a in _pinned_square_inputs():
        d = is_square(a)
        got.append(_outcome_hash(d.status, d.certificate, d.witness))
    assert got == PINNED_SQUARE


def test_tau_norm_outcomes_pinned():
    got = []
    for sk, pi in _pinned_tau_inputs():
        out = etale.solve_tau_norm(sk, pi)
        got.append(_outcome_hash(out.status, out.certificate, out.witness))
    assert got == PINNED_TAU


# ---------------------------------------------------------------------------
# the lift at the first probe against all ten probes before the lift


def _probes_then_lift(a):
    """Reference: is_square with every probe before the lift. Each probe
    splits f mod q and factors only a part that fails; the lift then runs
    from the first probe prime on the parts of its split."""
    from orbitforge import poly
    from orbitforge.arith import legendre, rng_for
    v, probes = etale._exact_tests(a)
    if v is not None:
        return v
    alg, t = a.alg, a.den
    A = [x * t for x in a.num]
    for q in probes:
        Aq = [x % q for x in A]
        parts = poly.fp_distinct_degree([x % q for x in alg.F], q)
        if q == probes[0]:
            lift_parts = parts
        factors = next((poly.fp_equal_degree(h, e, q) for e, h in parts
                        if not etale._part_is_residue(Aq, e, h, q)), [])
        for h in factors:
            if legendre(poly.fp_resultant(h, A, q), q) == -1:
                return Verdict(
                    "false", certificate="non-residue in the factor %s mod %d"
                    % (Poly(h).pretty(), q))
    p = probes[0]
    first = [h for e, part in lift_parts
             for h in poly.fp_equal_degree(part, e, p)]
    rng = rng_for("is_square:%s:%s:ts" % (alg.f.c, a.c))
    roots = [poly.fpx_sqrt([x % p for x in A], h, p, rng) for h in first]
    return etale._lift_decision(a, t, alg.F, p, first, roots)


def _first_probe_passing_nonsquares():
    """Seeded square-norm units of degree 3 to 7, positive at every real
    root, that pass the first probe: u N(u) in odd degree, u^2 v in even
    degree. The lift runs on each before the probe that refutes it."""
    import random
    rng = random.Random(19019)
    out = []
    while len(out) < 40:
        L = _random_modulus(rng, rng.randint(3, 7))
        u = _random_unit(rng, L, rng.choice((10, 10**3)))
        a = u * u.norm() if L.deg % 2 else u * u * rng.choice((2, 3, 5, 7))
        v, probes = etale._exact_tests(a)
        if v is None and etale._probe(a, probes[0])[1] is None:
            out.append(a)
    return out


def test_lift_first_matches_probes_then_lift():
    # a square passes every probe, so the lift may run at the first one:
    # statuses, certificates and witnesses are those of the parent order
    # on every square corpus here, and on non-squares the first probe
    # passes, which the lift refutes before a later probe names them
    passing = _first_probe_passing_nonsquares()
    cases = (_pinned_square_inputs() + [a for a, _ in _square_corpus()]
             + _euler_corpus() + _split_value_corpus() + passing)
    got = [is_square(a) for a in cases]
    kinds = {}
    for a, d in zip(cases, got):
        want = _probes_then_lift(a)
        assert (d.status, d.certificate, d.witness) == (
            want.status, want.certificate, want.witness)
        k = d.status if d.certificate is None else d.certificate.split()[0]
        kinds[k] = kinds.get(k, 0) + 1
    assert kinds["true"] >= 300 and kinds["non-residue"] >= 500
    assert kinds["no"] >= 6 and kinds["norm"] >= 3 and kinds["negative"] >= 3
    assert sum(d.certificate.startswith("non-residue")
               for d in got[-len(passing):]) >= 30


# ---------------------------------------------------------------------------
# resultant norms and nonzero-norm units against the definitions they replace


def _random_rational_algebras(rng):
    """(L, factor) pairs: separable moduli with rational coefficients, the
    first x^3 + x/2 + 1/3; factor is a proper monic factor of the modulus
    when it was built reducible (so that zero divisors exist), else None."""
    out = [(EtaleAlgebra(Poly([Fraction(1, 3), Fraction(1, 2), 0, 1])), None)]
    while len(out) < 12:
        deg = rng.randint(1, 6)
        c = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
             for _ in range(deg)]
        factor = None
        if rng.random() < 0.5 and deg >= 2:
            k = rng.randint(1, deg - 1)
            factor = Poly(c[:k] + [1])
            f = factor * Poly(c[k:] + [1])
        else:
            f = Poly(c + [1])
        try:
            out.append((EtaleAlgebra(f), factor))
        except NonSeparable:
            continue
    return out


def test_norm_is_the_multiplication_matrix_determinant():
    import random
    rng = random.Random(4105)
    for L, _ in _random_rational_algebras(rng):
        for _ in range(8):
            a = L.element([Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                           for _ in range(L.deg)])
            assert a.norm() == a.mult_matrix().det()


def test_is_unit_is_the_gcd_test():
    import random
    rng = random.Random(4106)
    seen = set()
    for L, factor in _random_rational_algebras(rng):
        for _ in range(8):
            a = L.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(L.deg)])
            if factor is not None and rng.random() < 0.5:
                a = L.from_poly(a.lift() * factor)
            want = a.lift().gcd(L.f).degree == 0 if a else False
            assert a.is_unit() == want
            seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# integer storage against reference Fraction definitions


def _ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_divmod(a, b):
    """Long division of Fraction lists, b nonzero and trimmed."""
    a, q = _ref_trim(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        t = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = t
        for i, y in enumerate(b):
            a[i + k] -= t * y
        a = _ref_trim(a[:-1])
    return q, a


def _ref_mul(f, a, b):
    """Coordinates of a * b in Q[x]/(f): schoolbook product, then the
    remainder mod f, padded to deg f."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    r = _ref_divmod(out, list(f.c))[1]
    return tuple(r + [Fraction(0)] * (f.degree - len(r)))


def _ref_inverse(f, a):
    """Extended Euclid on Fraction lists; None for a zero divisor."""
    r0, r1 = list(f.c), _ref_trim(a)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _ref_divmod(r0, r1)
        qs = [Fraction(0)] * (len(q) + len(s1))
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] += x * y
        n = max(len(s0), len(qs))
        s0, s1 = s1, _ref_trim([(s0[i] if i < len(s0) else 0)
                                - (qs[i] if i < len(qs) else 0)
                                for i in range(n)])
        r0, r1 = r1, r
    if len(r0) != 1:
        return None
    s = _ref_divmod([x / r0[0] for x in s0], list(f.c))[1]
    return tuple(s + [Fraction(0)] * (f.degree - len(s)))


def _ref_norm(f, a):
    """Res(f, a) by the Euclidean algorithm over Q, f monic."""
    A, B = list(f.c), _ref_trim(a)
    if not B:
        return Fraction(0)
    out = Fraction(1)
    while len(B) > 1:
        R = _ref_divmod(A, B)[1]
        if not R:
            return Fraction(0)
        if (len(A) - 1) * (len(B) - 1) % 2:
            out = -out
        out *= B[-1] ** (len(A) - len(R))
        A, B = B, R
    return out * B[0] ** (len(A) - 1)


def test_element_kernels_match_fraction_definitions():
    import random
    rng = random.Random(4107)
    zero_divisors = 0
    for L, factor in _random_rational_algebras(rng):
        f = L.f
        for _ in range(10):
            a, b = (L.element([Fraction(rng.randint(-20, 20),
                                        rng.randint(1, 7))
                               for _ in range(L.deg)]) for _ in range(2))
            if factor is not None and rng.random() < 0.5:
                a = L.from_poly(a.lift() * factor)
            assert (a * b).c == _ref_mul(f, a.c, b.c)
            assert (a * 3).c == tuple(3 * x for x in a.c)
            assert a.norm() == _ref_norm(f, a.c)
            want = _ref_inverse(f, a.c)
            if want is None:
                zero_divisors += 1
                with pytest.raises(ZeroDivisor):
                    a.inverse()
            else:
                assert a.inverse().c == want
            # equality and hashing follow the coordinates, however the
            # element was built
            twin = L.from_poly(a.lift() + f * Poly([rng.randint(-3, 3), 1]))
            assert twin == a and hash(twin) == hash(a)
            assert (a == b) == (a.c == b.c)
            assert (a + b).c == tuple(x + y for x, y in zip(a.c, b.c))
            assert a.num == tuple(x * a.den for x in a.c)
            assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert zero_divisors > 0


def test_tau_candidate_norms_match_resultants():
    # the integer norm of each search candidate is t^(2n) Res(g, rhs) for
    # rhs = piK + y c^2, over g with rational coefficients and a rational
    # root; piK is built so that some candidate c0 has norm zero, by rhs
    # vanishing at that root or by rhs = 0 itself
    import random
    from orbitforge.poly import resultant
    rng = random.Random(4108)
    X = Poly([0, 1])
    seen = set()
    cases = 0
    while cases < 30:
        n = rng.randint(1, 3)
        root = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        g = Poly([-root, 1]) * Poly(
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5)))
             for _ in range(n - 1)] + [1])
        try:
            K = EtaleAlgebra(g)
        except NonSeparable:
            continue
        cases += 1
        u = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n)])
        kind = rng.randrange(3) if n > 1 else rng.randrange(2)
        if kind == 0:    # rhs(root) = 0 at c = c0
            c0 = Poly([rng.randint(-2, 2) for _ in range(n)])
            piK = K.from_poly(Poly([-root, 1]) * u - X * c0 * c0)
        elif kind == 1:  # random
            piK = K.from_poly(u)
        else:            # rhs = 0 at the constant c = c0, deg(y c0^2) < n
            c0 = Poly([rng.randint(1, 3)])
            piK = K.from_poly(-X * c0 * c0)
        t = piK.den
        for c, r, N in etale._tau_candidates(K, piK, ()):
            rhs = piK.lift() + X * Poly(c) * Poly(c)
            assert r == [x * t * t for x in rhs.c]
            assert N == t ** (2 * n) * resultant(g, rhs)
            seen.add("empty" if not r else "zero" if N == 0 else "nonzero")
    assert seen == {"empty", "zero", "nonzero"}


# ---------------------------------------------------------------------------
# the probes, the real test and the tau search against what they replace


def _euler_power_is_residue(A, e, h, q):
    """Reference: Euler's criterion as the power A^((q^e - 1)/2) mod h."""
    from orbitforge import poly
    return poly.fp_powmod(A, (q ** e - 1) // 2, h, q) == [1]


def _euler_input(rng, kind):
    """One seeded input of the given kind (see _euler_corpus), or None
    when the draw is rejected."""
    deg = rng.randint(2, 6)
    try:
        if kind <= 1:
            L = EtaleAlgebra(Poly(
                [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                 for _ in range(deg)] + [1]))
        elif kind == 2:
            roots = rng.sample(range(-12, 13), deg)
            L = EtaleAlgebra(Poly.from_roots(roots))
        else:
            g = Poly([rng.randint(-5, 5) for _ in range(rng.choice((2, 3)))]
                     + [1])
            L = EtaleAlgebra(g * g.compose(Poly([-rng.randint(1, 4), 1])))
    except NonSeparable:
        return None
    u = L.random_element(rng, rng.choice((3, 30, 300)))
    if not u.is_unit():
        return None
    if kind == 0:
        return u * u
    if kind == 2:
        v = rng.choice((2, 3, 5, 7, 11, 13))
        vals = [v, v * rng.randint(1, 3) ** 2] + [
            rng.randint(1, 4) ** 2 for _ in range(deg - 2)]
        rng.shuffle(vals)
        return L.from_poly(_interpolate(roots, vals)) * u * u
    if L.deg % 2:
        return u * u.norm()  # norm N(u)^(deg + 1)
    return u * u * rng.choice((2, 3, 5, 7))


def _euler_corpus():
    """Seeded is_square inputs over moduli of degree 2 to 6: squares
    (kind 0), units of square norm (kind 1: u N(u), or u^2 v for v a prime
    in even degree; mostly non-squares), values v and v k^2 at two roots
    of a split modulus (kind 2: certificates often from a later probe),
    and square-norm units over g(x) g(x - s) (kind 3: distinct-degree
    parts of several factors). The last 360 inputs are of kinds 0 and 1
    only: a square is decided at its first probe, so these keep many
    parts of one factor tested."""
    import random
    rng = random.Random(13013)
    out = []
    for size, kinds in ((520, 4), (880, 2)):
        while len(out) < size:
            a = _euler_input(rng, rng.randrange(kinds))
            if a is not None:
                out.append(a)
    return out


def test_probe_norm_test_matches_euler_power(monkeypatch):
    # a part of one irreducible factor is tested by the Legendre symbol of
    # its resultant, not the power: the decisions, witnesses and
    # certificates are those of the power at every part
    cases = _euler_corpus()
    calls = {True: 0, False: 0}
    part_is_residue = etale._part_is_residue

    def counted(A, e, h, q):
        calls[len(h) - 1 == e] += 1
        return part_is_residue(A, e, h, q)

    def decide(a):
        d = is_square(a)
        return d.status, d.certificate, d.witness

    monkeypatch.setattr(etale, "_part_is_residue", counted)
    got = [decide(a) for a in cases]
    monkeypatch.setattr(etale, "_part_is_residue", _euler_power_is_residue)
    assert got == [decide(a) for a in cases]
    assert calls[True] >= 1000 and calls[False] >= 500
    kinds = {}
    for status, cert, _ in got:
        k = status if cert is None else cert.split(" ")[0]
        kinds[k] = kinds.get(k, 0) + 1
    assert kinds["true"] >= 100 and kinds["non-residue"] >= 200
    later = 0
    for a, (_, cert, _) in zip(cases, got):
        if cert and cert.startswith("non-residue"):
            avoid = (a.norm() * a.den ** (2 * a.alg.deg)).numerator
            later += not cert.endswith(
                " mod %d" % etale._good_primes(a.alg, avoid, 1)[0])
    assert later >= 100


def test_is_square_of_a_square_isolates_no_roots(monkeypatch):
    # the Tarski query passes every square; roots are isolated only to
    # name the one where a value is negative
    from orbitforge import poly
    calls = []
    signs_at_roots = poly.signs_at_roots

    def counted(gs, f):
        calls.append(f)
        return signs_at_roots(gs, f)

    monkeypatch.setattr(poly, "signs_at_roots", counted)
    b = LX.beta() + 2  # 2, 3, 1 at the three real roots of x^3 - x
    d = is_square(b * b)
    assert d.status == "true" and calls == []
    a = LX.element([1, Fraction(5, 2), Fraction(-15, 2)])  # 1, -4, -9
    d = is_square(a)
    assert d.certificate == "negative at the real root of f in (-2, -1]"
    assert len(calls) == 1


def _tau_candidates_full_box(K, piK, places=()):
    """Reference: every c of the box, c and -c both, in box order, with no
    place sieving them."""
    import itertools
    from orbitforge import poly
    G, cg, n = K.F, K.cf, K.deg
    t = piK.den
    tA = [t * x for x in piK.num] + [0] * n
    for h in range(etale.TAU_NORM_HEIGHT + 1):
        for c in itertools.product(range(-h, h + 1), repeat=n):
            if max(map(abs, c)) != h:
                continue
            r = tA[:]
            for k, v in enumerate(poly._conv(c, c)):
                r[k + 1] += t * t * v
            while r and r[-1] == 0:
                r.pop()
            N = (Fraction(poly._int_resultant(G, r), cg ** (len(r) - 1))
                 if r else 0)
            yield c, r, N


def test_tau_candidates_take_one_of_each_sign_pair():
    import itertools
    H = etale.TAU_NORM_HEIGHT
    for g in (Poly([-2, 1]), Poly([3, -1, 1]), Poly([-1, 2, 0, 1])):
        K = EtaleAlgebra(g)
        full = list(_tau_candidates_full_box(K, K.const(2)))
        got = list(etale._tau_candidates(K, K.const(2), ()))
        cs = [c for c, _, _ in got]
        box = set(itertools.product(range(-H, H + 1), repeat=K.deg))
        assert len(cs) == (len(box) + 1) // 2
        assert set(cs) | {tuple(-x for x in c) for c in cs} == box
        # each kept c comes before -c in the box, with the same r and N
        order = [c for c, _, _ in full]
        for c, r, N in got:
            neg = tuple(-x for x in c)
            assert order.index(c) <= order.index(neg)
            assert full[order.index(neg)][1:] == (r, N)


def test_solve_tau_norm_matches_the_full_box(monkeypatch):
    import random
    rng = random.Random(13014)
    cases = list(_pinned_tau_inputs())
    for deg in (3, 3, 5, 5, 7):
        L = _random_modulus(rng, deg, odd=True)
        sk = skew_data(L)
        for height in (1, 2):
            r = _random_unit(rng, L, height)
            cases.append((sk, r * apply_tau(r)))
        kappa = _random_unit(rng, sk.K, 3)
        cases.append((sk, etale.embed_pair(sk, kappa, c_k=1)))

    def solve_all():
        return [(o.status, o.certificate, o.witness)
                for o in (etale.solve_tau_norm(sk, pi) for sk, pi in cases)]

    got = solve_all()
    monkeypatch.setattr(etale, "_tau_candidates", _tau_candidates_full_box)
    assert got == solve_all()
    assert sum(s == "solved" for s, _, _ in got) >= 10


def _sieve_cases():
    """Seeded (K, piK, c0, zero) with piK = a^2 - y c0^2 for units a and
    piK, so that c0 gives the square a^2, in four kinds:
    - g of degree 1 to 4, with integer coefficients or not, a random;
    - the same with a vanishing at one sieve place (q, y), named in
      `zero`, so that a^2 has a zero residue there;
    - g = (y - 1/11)((y - s)^2 - 11^4 d), d a non-residue mod 11: 11
      divides lc(G) but not disc(g), and the double root s of G mod 11
      lies under a place of residue field F_121, where a = (y - s)(11 y
      - 1)/121 + 11 ((y - s)^2 - 11^4 d) is a unit with a^2 = d (11 y -
      1)^2 + ((1 - 11 s)^2 - 11^6 d)((y - s)^2 - 11^4 d), integral and
      reading d at y = s, a non-residue mod 11 (c0 is constant, so that
      piK is integral too);
    - g = (y^2 - 121 d) h, d = 2, h monic of degree 0 to 2: 11 divides
      disc(g), and a = y h / 11 + e (y^2 - 242) has a^2 = d h^2 +
      e^2 (y^2 - 242)^2, reading d h(0)^2 at the double root 0 of G mod
      11, a non-residue unless 11 divides h(0).
    """
    import random
    rng = random.Random(20020)
    Y = Poly([0, 1])
    out = []
    i = 0
    while len(out) < 64:
        kind, n = len(out) % 4, 1 + (len(out) // 4) % 4
        i += 1
        try:
            if kind < 2:
                den = (1, 1, 2, 3, 5, 11)[i % 6]
                K = EtaleAlgebra(Poly(
                    [Fraction(rng.randint(-9, 9), den) for _ in range(n)]
                    + [1]))
            elif kind == 2:
                s, d = rng.randint(-5, 5), rng.choice((2, 6, 7, 8, 10))
                E = (Y - s) * (Y - s) - 11 ** 4 * d
                K = EtaleAlgebra((Y - Fraction(1, 11)) * E)
            else:
                h = Poly([rng.randint(-4, 4) for _ in range(max(n, 2) - 2)]
                         + [1])
                K = EtaleAlgebra(Poly([-242, 0, 1]) * h)
        except NonSeparable:
            continue
        zero = None
        if kind == 1:
            zero = rng.choice(etale._degree_one_places(K))
            b = Poly([rng.randint(-3, 3) for _ in range(K.deg)])
            a = K.from_poly(Poly([-zero[1], 1]) * b)
        elif kind == 2:
            a = K.from_poly((Y - s) * (Y * 11 - 1) * Fraction(1, 121)
                            + E * 11)
        elif kind == 3:
            a = K.from_poly(Y * h * Fraction(1, 11)
                            + (Y * Y - 242) * rng.randint(1, 3))
        else:
            a = K.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in range(K.deg)])
        c0 = tuple(rng.randint(-3, 3) for _ in range(K.deg))
        if kind == 2:  # y c0^2 then needs no reduction, and piK is integral
            c0 = c0[:1] + (0, 0)
        piK = a * a - K.beta() * K.element(c0) ** 2
        if a.is_unit() and piK.is_unit():
            out.append((K, piK, c0, zero))
    return out


def test_tau_sieve_skips_only_non_squares():
    # the sieve at degree-one places skips a candidate only when
    # piK + y c^2 is not a square unit: the constructed square a^2 at c0
    # is always kept, also when a vanishes at a sieve place (a zero
    # residue refutes nothing), and when a prime dividing lc(G) disc(g)
    # would read a^2 as a non-residue at a root of G mod that prime
    from orbitforge.arith import is_rational_square
    from orbitforge.poly import _horner
    kept_total = full_total = zeros = 0
    for K, piK, c0, zero in _sieve_cases():
        places = etale._degree_one_places(K)
        assert 1 <= len(places) <= etale.SIEVE_ROOTS
        kept = {c for c, _, _ in etale._tau_candidates(K, piK, places)}
        c0 = min(c0, tuple(-x for x in c0))
        assert c0 in kept
        t2 = piK.den ** 2
        for c, r, N in etale._tau_candidates(K, piK, ()):
            full_total += 1
            if c in kept:
                kept_total += 1
            else:
                assert (N == 0 or not is_rational_square(N)
                        or is_square(K._reduce(r, t2)).status == "false")
            if c == c0 and zero is not None:
                q, y = zero
                assert _horner(r, y, 1)[0] % q == 0
                zeros += 1
    assert zeros == 16
    assert kept_total < full_total / 4


def test_tau_sieve_computes_few_resultants(monkeypatch):
    # a degree-7 "random" input of the square-heights benchmark: the box
    # holds 172 candidates, and the parent computed a resultant for each
    # (173 with the norm of pi); the sieve leaves three
    from orbitforge import poly
    L = EtaleAlgebra(Poly([0, -8, 0, -8, 0, 2, 0, 1]))
    pi = L.element([1, 0, -4, 0, -7, 0, -4])
    sk = skew_data(L)
    piK = etale.K_component(sk, pi)
    assert len(list(etale._tau_candidates(sk.K, piK, ()))) == 172
    calls = []
    resultant = poly._int_resultant

    def counted(A, B):
        calls.append(1)
        return resultant(A, B)

    monkeypatch.setattr(poly, "_int_resultant", counted)
    out = etale.solve_tau_norm(sk, pi)
    assert (out.status, out.witness, out.certificate) == (
        "unknown", None, None)
    assert len(calls) <= 10


def test_complex_place_obstruction_matches_root_signs(monkeypatch):
    # the obstruction is counted by Tarski queries: it fires exactly when
    # pi_K is negative at a negative root of g, names the first such root,
    # and isolates the roots of g only then, and once (the search after it
    # is emptied, so that its is_square calls isolate nothing)
    import random
    from orbitforge import poly
    rng = random.Random(13015)
    isolated = []
    isolate = poly.isolate_real_roots

    def counted(f):
        isolated.append(f)
        return isolate(f)

    monkeypatch.setattr(poly, "isolate_real_roots", counted)
    monkeypatch.setattr(etale, "_tau_candidates", lambda K, piK, places: ())
    seen = {"obstructed": 0, "unknown": 0}
    while min(seen.values()) < 40:
        ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
              for _ in range(rng.randint(1, 3))]
        g = Poly.from_roots(ys)
        if rng.random() < 0.5:
            g = g * Poly([rng.randint(1, 5), rng.randint(-3, 3), 1])
        try:
            sk = skew_data(EtaleAlgebra(g.compose(Poly([0, 0, 1]))
                                        * Poly([0, 1])))
        except NonSeparable:
            continue
        kappa = _random_unit(rng, sk.K, 6)
        want = next((iv for iv, (s, sy) in poly.signs_at_roots(
            [kappa.lift(), Poly([0, 1])], sk.g) if s < 0 and sy < 0), None)
        del isolated[:]
        out = etale.solve_tau_norm(sk, etale.embed_pair(sk, kappa, c_k=1))
        if want is None:
            assert out.status == "unknown" and not isolated
            seen["unknown"] += 1
        else:
            # one isolation serves the signs of y and of pi_K
            assert out.status == "obstructed" and len(isolated) == 1
            assert out.certificate.startswith(
                "negative at a real root of g in (%s, %s] " % want)
            seen["obstructed"] += 1
