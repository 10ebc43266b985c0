"""Shipping gate: thirteen end-to-end criteria, one report line each.

Run with `pytest tests/test_acceptance.py -q -s` to see the per-criterion
pass/fail lines (plain pytest shows them for failures only).  Everything
is exact rational arithmetic; the only tolerances are the stated wall
clock budgets.
"""

import functools
import time
from fractions import Fraction
from itertools import product
from math import comb, gcd

from orbitforge.arith import rng_for
from orbitforge.bqf import bqf_class_group, bqf_orbit_census
from orbitforge.census import finite_census, so_order
from orbitforge.descent import (INFINITY, HyperCurve, descent_class,
                                ec_add, kernel_check,
                                pencil_discriminant_check)
from orbitforge.errors import NonSeparable
from orbitforge.etale import EtaleAlgebra, is_square
from orbitforge.lattices import (FracIdeal, IdealPair, complement_lattice,
                                 ideal_from_gens, unit_ideal, verify_pair)
from orbitforge.matrix import Mat
from orbitforge.orbits import (ADJOINT, SYM2, construct_representative,
                               count_factors_fp, orbit_count_local,
                               orbit_count_real)
from orbitforge.poly import Poly, discriminant
from orbitforge.quadform import (INF, QuadSpace, factorize, hilbert_symbol,
                                 invariants, is_isometric, is_split_odd,
                                 standard_gram)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.time()
            try:
                fn()
            except BaseException:
                print("criterion %2d FAIL  (%5.1fs)  %s"
                      % (num, time.time() - t0, desc))
                raise
            print("criterion %2d PASS  (%5.1fs)  %s"
                  % (num, time.time() - t0, desc))
        return wrapper
    return deco


def _random_separable(rng, deg, height=10):
    while True:
        c = [Fraction(rng.randint(-height, height)) for _ in range(deg)]
        c.append(Fraction(1))
        f = Poly(c)
        try:
            EtaleAlgebra(f)
        except NonSeparable:
            continue
        return f


def _random_separable_odd(rng, deg, height=10):
    half = (deg - 1) // 2
    while True:
        g = [Fraction(rng.randint(-height, height)) for _ in range(half)]
        g.append(Fraction(1))
        c = []
        for a in g:
            c.extend([Fraction(0), a])
        f = Poly(c)      # x * g(x^2)
        try:
            EtaleAlgebra(f)
        except NonSeparable:
            continue
        return f


@criterion(1, "construction round-trip, 50 random charpolys per pairing")
def test_criterion_01():
    t0 = time.time()
    rng = rng_for("acceptance-construct")
    for i in range(50):
        deg = (3, 5, 7)[i % 3]
        f = _random_separable(rng, deg)
        orep = construct_representative(f, SYM2)
        assert orep.op.charpoly() == f
        G = orep.space.gram
        assert G * orep.op == orep.op.transpose() * G
    for i in range(50):
        deg = (3, 5, 7)[i % 3]
        f = _random_separable_odd(rng, deg)
        orep = construct_representative(f, ADJOINT)
        assert orep.op.charpoly() == f
        G = orep.space.gram
        assert G * orep.op == -(orep.op.transpose() * G)
    assert time.time() - t0 < 30


@criterion(2, "dim-3 self-adjoint census at p = 3, 5, 7")
def test_criterion_02():
    t0 = time.time()
    for p in (3, 5, 7):
        rep = finite_census(p, 1, SYM2)
        assert rep.mode == "full"
        assert rep.space_size == p ** 6
        assert sum(row.operator_count for row in rep.rows) == p ** 6
        for row in rep.rows:
            if not row.separable:
                continue
            assert row.operator_count == p * (p * p - 1)
            m = count_factors_fp(Poly(list(row.key)), p) - 1
            assert row.orbit_count == 2 ** m
    assert time.time() - t0 < 120


@criterion(3, "dim-3 skew-adjoint census: one orbit per separable class")
def test_criterion_03():
    for p in (3, 5, 7):
        rep = finite_census(p, 1, ADJOINT)
        for row in rep.rows:
            if row.separable:
                assert row.orbit_count == 1
    rep3 = finite_census(3, 1, ADJOINT)
    assert rep3.row((0, 1, 0, 1)).orbit_sizes == (6,)
    assert rep3.row((0, 2, 0, 1)).orbit_sizes == (12,)


@criterion(4, "group order formula vs direct enumeration")
def test_criterion_04():
    assert so_order(1, 3) == 24
    assert so_order(1, 5) == 120
    assert so_order(2, 3) == 51840
    assert finite_census(3, 1, SYM2).group_order == 24
    assert finite_census(5, 1, SYM2).group_order == 120
    row = finite_census(3, 2, SYM2,
                        polys=[Poly([0, -1, 0, 0, 0, 1])]).rows[0]
    assert row.orbit_sizes[0] * row.stabilizer_orders[0] == 51840


# (coefficients ascending, twist d, point) with y != 0, or "inf"
CURVE_FIXTURES = [
    ([-2, 0, 0, 1], 1, (3, 5)),
    ([-2, 0, 0, 1], 1, (Fraction(129, 100), Fraction(383, 1000))),
    ([1, 0, 0, 1], 1, (2, 3)),
    ([1, 0, 0, 1], 1, (0, 1)),
    ([8, 0, 0, 1], 1, (1, 3)),
    ([8, 0, 0, 1], 1, (2, 4)),
    ([-4, 0, 0, 1], 1, (2, 2)),
    ([-4, 0, 0, 1], 1, (5, 11)),
    ([4, 0, 0, 1], 1, (0, 2)),
    ([17, 0, 0, 1], 1, (2, 5)),
    ([17, 0, 0, 1], 1, (-2, 3)),
    ([17, 0, 0, 1], 1, (-1, 4)),
    ([17, 0, 0, 1], 1, (4, 9)),
    ([1, -2, 0, 1], 1, (0, 1)),
    ([-2, 0, 0, 1], 1, "inf"),
    ([0, -1, 0, 1], 6, (2, 1)),
    ([0, -1, 0, 1], 24, (3, 1)),
    ([-2, 0, 0, 1], 9, (3, Fraction(5, 3))),
    ([1, 0, 0, 1], 2, (1, 1)),
    ([1, -1, 0, 0, 0, 1], 1, (0, 1)),
    ([1, -1, 0, 0, 0, 1], 1, (1, 1)),
    ([4, 0, 0, 0, 0, 1], 1, (0, 2)),
    ([1, 1, 0, 0, 0, 1], 1, (0, 1)),
    ([0, -1, 0, 0, 0, 1], 30, (2, 1)),
    ([1, -1, 0, 0, 0, 1], 1, "inf"),
]


def _fixture_triples():
    for coeffs, d, pt in CURVE_FIXTURES:
        f = Poly(coeffs)
        curve = HyperCurve(f, d)
        p = INFINITY if pt == "inf" else (Fraction(pt[0]), Fraction(pt[1]))
        yield f, curve, p


@criterion(5, "descent classes of 25 curve points land in the kernel")
def test_criterion_05():
    t0 = time.time()
    assert len(CURVE_FIXTURES) >= 20
    assert sum(1 for _, d, _ in CURVE_FIXTURES if d != 1) >= 3
    degrees = {len(c) - 1 for c, _, _ in CURVE_FIXTURES}
    assert degrees == {3, 5}
    for f, curve, pt in _fixture_triples():
        assert kernel_check(curve, pt)
    assert time.time() - t0 < 60


@criterion(6, "descent is a homomorphism along 2P and 3P")
def test_criterion_06():
    curve = HyperCurve(Poly([-2, 0, 0, 1]))
    P = (Fraction(3), Fraction(5))
    P2 = ec_add(curve, P, P)
    P3 = ec_add(curve, P2, P)
    a1 = descent_class(curve, P)
    a2 = descent_class(curve, P2)
    a3 = descent_class(curve, P3)
    for prod in (a1 * a1 * a2, a1 * a2 * a3):
        dec = is_square(prod)
        assert dec.status == "true"
        assert dec.witness * dec.witness == prod


@criterion(7, "pencil discriminant identity on every curve fixture")
def test_criterion_07():
    for f, curve, pt in _fixture_triples():
        alpha = descent_class(curve, pt)
        c, ok = pencil_discriminant_check(f, alpha, curve.d)
        assert ok
        assert c != 0


@criterion(8, "p-adic orbit counts against the factor-count formulas")
def test_criterion_08():
    assert orbit_count_local(Poly([0, -1, 0, 1]), 5, SYM2) == 10
    rng = rng_for("acceptance-local")
    done = 0
    while done < 10:
        f = _random_separable(rng, (3, 5)[done % 2], height=8)
        d = discriminant(f)
        p = next((q for q in (3, 5, 7, 11, 13, 17)
                  if d.numerator % q != 0), None)
        if p is None:
            continue
        m = count_factors_fp(f, p) - 1
        expected = 1 if m == 0 else 2 ** (2 * m - 1) + 2 ** (m - 1)
        assert orbit_count_local(f, p, SYM2) == expected
        done += 1
    done = 0
    while done < 10:
        f = _random_separable_odd(rng, (3, 5)[done % 2], height=8)
        d = discriminant(f)
        p = next((q for q in (3, 5, 7, 11, 13, 17)
                  if d.numerator % q != 0), None)
        if p is None:
            continue
        g = Poly(f.c[1::2])                      # even part: f = x g(x^2)
        g2 = Poly([g[k // 2] if k % 2 == 0 else Fraction(0)
                   for k in range(2 * g.degree + 1)])
        m = 2 * count_factors_fp(g, p) - count_factors_fp(g2, p)
        expected = 1 if m == 0 else 2 ** (m - 1)
        got = orbit_count_local(f, p, ADJOINT)
        assert got == expected
        assert got == 1 or got & (got - 1) == 0
        done += 1


@criterion(9, "real orbit counts and fiber tables")
def test_criterion_09():
    total, fibers = orbit_count_real(Poly([0, 4, 0, -5, 0, 1]), SYM2)
    assert total == comb(5, 2) == 10
    assert fibers == {0: 1, 2: 10, 4: 5}
    assert sum(fibers.values()) == sum(comb(5, k) for k in (0, 2, 4))
    total, fibers = orbit_count_real(Poly([0, -1, 0, 1]), SYM2)
    assert total == comb(3, 1)
    assert sum(fibers.values()) == sum(comb(3, k) for k in (1, 3))
    total, fibers = orbit_count_real(Poly([0, 2, 0, 3, 0, 1]), ADJOINT)
    assert total == 2
    assert fibers == {0: 1, 1: 2, 2: 1}


@criterion(10, "quadratic form engine: symbols, isometry, splitness")
def test_criterion_10():
    rng = rng_for("acceptance-quadform")
    for _ in range(200):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                     rng.randint(1, 12))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                     rng.randint(1, 12))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40))
        places = {INF, 2}
        for x in (a, b, c):
            places |= set(factorize(abs(x.numerator)))
            places |= set(factorize(x.denominator))
        for v in places:
            assert (hilbert_symbol(a * c, b, v)
                    == hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v))
            assert (hilbert_symbol(a, b * c, v)
                    == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1
    assert is_isometric(QuadSpace(Mat.diag([1, -2])),
                        QuadSpace(Mat.diag([2, -1])))
    for n in (1, 2, 3, 4):
        assert is_split_odd(QuadSpace(standard_gram(n)))
    for _ in range(50):
        dim = rng.randint(2, 4)
        G = Mat.diag([Fraction(rng.choice([v for v in range(-9, 10)
                                           if v != 0]))
                      for _ in range(dim)])
        while True:
            U = Mat([[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                     for _ in range(dim)])
            if U.det() != 0:
                break
        assert invariants(QuadSpace(U.transpose() * G * U)) \
            == invariants(QuadSpace(G))


@criterion(11, "unit pairs verify with anti-triangular Gram; bad pairs"
              " rejected for the right reason")
def test_criterion_11():
    rng = rng_for("acceptance-pairs")
    for rep_kind in (SYM2, ADJOINT):
        for i in range(20):
            deg = (3, 5)[i % 2]
            if rep_kind == SYM2:
                f = _random_separable(rng, deg, height=9)
            else:
                f = _random_separable_odd(rng, deg, height=9)
            alg = EtaleAlgebra(f)
            n = (deg - 1) // 2
            chk = verify_pair(IdealPair(unit_ideal(alg), alg.one(), rep_kind))
            assert chk.status == "true", (rep_kind, f.pretty(),
                                          chk.certificate)
            G, _ = chk.witness
            for a in range(deg):
                for b in range(deg):
                    if a + b < deg - 1:
                        assert G.rows[a][b] == 0
            assert G.det() == (-1) ** n
    # norm mismatch: N(beta) = 2 cannot be N(R)^2 = 1
    alg = EtaleAlgebra(Poly([-2, 0, 0, 1]))
    chk = verify_pair(IdealPair(unit_ideal(alg), alg.beta(), SYM2))
    assert chk.status == "false" and chk.certificate.startswith("norm")
    # non-integral Gram on the index-5 ideal (5, beta - 2)
    alg = EtaleAlgebra(Poly([-1, -1, 0, 1]))
    ideal = ideal_from_gens(alg, [alg.const(5), alg.beta() - alg.const(2)])
    alpha = alg.from_poly(Poly([-3, -2, 4]))
    chk = verify_pair(IdealPair(ideal, alpha, SYM2))
    assert (chk.status == "false"
            and chk.certificate.startswith("integrality"))
    # wrong signature: unit with negated archimedean pattern
    alg = EtaleAlgebra(Poly([1, -3, 0, 1]))
    alpha = alg.const(2) - alg.beta() * alg.beta()
    chk = verify_pair(IdealPair(unit_ideal(alg), alpha, SYM2))
    assert chk.status == "false" and chk.certificate.startswith("signature")


@criterion(12, "class numbers and the reduction-graph census agree")
def test_criterion_12():
    assert bqf_class_group(-23).h == 3
    assert bqf_class_group(-4).h == 1
    assert bqf_class_group(-20).h == 2
    for d in range(-200, 0):
        if d % 4 not in (0, 1):
            continue
        census = bqf_orbit_census(d, 60)
        assert census.agreement, (d, census.witnesses)
        assert census.orbit_count == bqf_class_group(d).h
        assert census.witnesses == ()


@criterion(13, "complement evenness over the full height-10 box")
def test_criterion_13():
    checked = 0
    for a, b, c in product(range(-10, 11), repeat=3):
        if gcd(gcd(a, b), c) != 1:
            continue
        q = b * b + 2 * a * c
        if q == 0:
            continue
        _, even = complement_lattice((a, b, c))
        parity = a % 2 == 0 and c % 2 == 0 and b % 2 == 1
        assert even == parity
        if even:
            assert q % 8 == 1
        checked += 1
    assert checked > 5000
