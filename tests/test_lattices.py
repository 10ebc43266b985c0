"""Tests for complements, fractional ideals, and pair verification."""

from fractions import Fraction
from itertools import product

import pytest

from orbitforge.arith import rng_for
from orbitforge.errors import (DimensionMismatch, Inconsistent,
                               NonIntegral, NotOddPolynomial, NotPrimitive,
                               NotTauFixed, NullVector, RingMismatch,
                               ZeroDivisor)
from orbitforge.etale import EtaleAlgebra, apply_tau
from orbitforge.lattices import (FracIdeal, IdealPair, complement_lattice,
                                 ideal_from_gens, ideal_mul, ideal_norm,
                                 pair_equivalence_check, principal_ideal,
                                 tau_ideal, unit_ideal, verify_pair)
from orbitforge.matrix import Mat, hnf_columns, lattice_kernel
from orbitforge.orbits import ADJOINT, SYM2
from orbitforge.poly import Poly, is_separable

CUBE2 = EtaleAlgebra(Poly([-2, 0, 0, 1]))        # x^3 - 2
ODD3 = EtaleAlgebra(Poly([0, -1, 0, 1]))          # x^3 - x
ODD4 = EtaleAlgebra(Poly([0, -4, 0, 1]))          # x^3 - 4x
DISC23 = EtaleAlgebra(Poly([-1, -1, 0, 1]))       # x^3 - x - 1, disc -23
CYC9 = EtaleAlgebra(Poly([1, -3, 0, 1]))          # x^3 - 3x + 1, totally real


def frac_rows(rows):
    return Mat([[Fraction(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# orthogonal complements in the odd unimodular lattice


def test_complement_even_example():
    # w = 2e + u + 2f: self-pairing b^2 + 2ac = 9, even complement, 9 = 1 mod 8
    lat, even = complement_lattice((2, 1, 2))
    assert even is True
    assert lat.gram == frac_rows([[-2, -1], [-1, 4]])
    assert lat.gram.det() == -9
    q = 1 + 2 * 2 * 2
    assert q == 9 and q % 8 == 1


def test_complement_odd_example():
    lat, even = complement_lattice((1, 0, 1))
    assert even is False
    assert lat.gram == frac_rows([[-2, 0], [0, 1]])
    assert lat.gram.det() == -2


def test_complement_input_errors():
    with pytest.raises(NullVector):
        complement_lattice((1, 0, 0))
    with pytest.raises(NotPrimitive):
        complement_lattice((2, 0, 2))
    with pytest.raises(NotPrimitive):
        complement_lattice((0, 0, 0))
    with pytest.raises(DimensionMismatch):
        complement_lattice((1, 0, 0, 1))
    with pytest.raises(DimensionMismatch):
        complement_lattice((1,))
    with pytest.raises(NonIntegral):
        complement_lattice((Fraction(1, 2), 0, 1))


def _index_in_ambient(w, basis):
    d = len(w)
    cols = [list(w)] + [list(c) for c in basis]
    m = frac_rows([[cols[j][i] for j in range(d)] for i in range(d)])
    return abs(m.det())


def test_complement_rank3_box():
    # Exhaustive scan: the sublattice Zw + U has index |q(w)| in the ambient
    # lattice, so q(w) * det(U) = index^2 * det(J) with det(J) = -1 here.
    # Evenness happens exactly for a, c even with b odd, forcing q = 1 mod 8.
    checked = 0
    for a, b, c in product(range(-4, 5), repeat=3):
        w = (a, b, c)
        from math import gcd
        if gcd(gcd(a, b), c) != 1:
            continue
        q = b * b + 2 * a * c
        if q == 0:
            continue
        lat, even = complement_lattice(w)
        basis = hnf_columns(lattice_kernel([[c, b, a]]))
        idx = _index_in_ambient(w, basis)
        assert idx == abs(q)
        assert q * lat.gram.det() == idx * idx * (-1)
        assert even == (a % 2 == 0 and c % 2 == 0 and b % 2 == 1)
        if even:
            assert q % 8 == 1
        checked += 1
    assert checked > 500


def test_complement_rank5_samples():
    for w, qval in (((1, 1, 1, 1, 1), 5), ((3, 1, 4, 1, 2), 30)):
        lat, even = complement_lattice(w)
        assert lat.dim == 4
        assert even is False
        assert lat.gram.det() == qval
        basis = hnf_columns(lattice_kernel([list(w)[::-1]]))
        idx = _index_in_ambient(w, basis)
        assert idx == abs(qval)
        assert qval * lat.gram.det() == idx * idx


# ---------------------------------------------------------------------------
# fractional ideals


def test_unit_ideal_norms():
    R = unit_ideal(CUBE2)
    assert ideal_norm(R) == 1
    assert ideal_mul(R, R) == R
    I = ideal_from_gens(CUBE2, [CUBE2.const(2), CUBE2.beta()])
    assert ideal_norm(I) == 2
    assert I.mat == frac_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert I.den == 1
    assert ideal_norm(principal_ideal(CUBE2, CUBE2.beta())) == 2
    J = ideal_from_gens(DISC23, [DISC23.const(5),
                                 DISC23.beta() - DISC23.const(2)])
    assert ideal_norm(J) == 5


def test_ideal_canonicalization():
    # generator order, redundancy, and common factors all wash out
    R = unit_ideal(CUBE2)
    same = FracIdeal(CUBE2, [[3, 0, 0], [0, 3, 0], [0, 0, 3], [3, 3, 3]], 3)
    assert same == R
    scaled = FracIdeal(CUBE2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2)
    assert scaled == R
    neg = FracIdeal(CUBE2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], -1)
    assert neg == R
    with pytest.raises(ZeroDivisor):
        FracIdeal(CUBE2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0)
    with pytest.raises(ZeroDivisor):
        FracIdeal(CUBE2, [[1, 0, 0], [0, 1, 0]], 1)


def test_ideal_beta_stability_checked():
    # Z + Z*beta + Z*2*beta^2 is not closed under multiplication by beta
    with pytest.raises(Inconsistent):
        FracIdeal(CUBE2, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 1)


def test_suborder_lattice_is_an_ideal():
    # Z + Z*(beta/2) + Z*(beta^2/4) is beta-stable when beta^3 = 4*beta
    I = FracIdeal(ODD4, [[4, 0, 0], [0, 2, 0], [0, 0, 1]], 4)
    assert ideal_norm(I) == Fraction(1, 8)


def test_ideal_gen_errors():
    with pytest.raises(RingMismatch):
        ideal_from_gens(CUBE2, [ODD3.one()])
    with pytest.raises(ZeroDivisor):
        ideal_from_gens(CUBE2, [])
    with pytest.raises(ZeroDivisor):
        principal_ideal(CUBE2, CUBE2.zero())
    # 1 + beta kills the factor at the root -1 of x^3 - x
    with pytest.raises(ZeroDivisor):
        principal_ideal(ODD3, ODD3.one() + ODD3.beta())
    with pytest.raises(ZeroDivisor):
        ideal_from_gens(ODD3, [ODD3.one() + ODD3.beta()])
    with pytest.raises(RingMismatch):
        ideal_mul(unit_ideal(CUBE2), unit_ideal(ODD3))


def test_ideal_norm_multiplicative():
    I = ideal_from_gens(DISC23, [DISC23.const(5),
                                 DISC23.beta() - DISC23.const(2)])
    J = principal_ideal(DISC23, DISC23.const(2))
    assert ideal_norm(ideal_mul(I, J)) == ideal_norm(I) * ideal_norm(J)
    rng = rng_for("lattice-norm-mult")
    R = unit_ideal(DISC23)
    for _ in range(6):
        c = DISC23.element([rng.randrange(-9, 10) for _ in range(3)])
        if not c or c.norm() == 0:
            continue
        cI = ideal_mul(I, principal_ideal(DISC23, c))
        assert ideal_norm(cI) == abs(c.norm()) * ideal_norm(I)
        cR = principal_ideal(DISC23, c)
        assert ideal_norm(cR) == abs(c.norm()) * ideal_norm(R)


def test_ideal_containment():
    R = unit_ideal(CUBE2)
    I = ideal_from_gens(CUBE2, [CUBE2.const(2), CUBE2.beta()])
    assert R.contains(I)
    assert not I.contains(R)
    assert I.contains_element(CUBE2.const(2))
    assert I.contains_element(CUBE2.beta())
    assert not I.contains_element(CUBE2.one())
    with pytest.raises(RingMismatch):
        I.contains_element(ODD3.one())


def test_tau_ideal():
    # 3 + beta avoids the roots 0, 2, -2 of x^3 - 4x
    g = ODD4.const(3) + ODD4.beta()
    I = principal_ideal(ODD4, g)
    It = tau_ideal(I)
    assert It == principal_ideal(ODD4, ODD4.const(3) - ODD4.beta())
    assert ideal_norm(It) == ideal_norm(I) == 15
    assert tau_ideal(It) == I
    with pytest.raises(NotOddPolynomial):
        tau_ideal(unit_ideal(CUBE2))


# ---------------------------------------------------------------------------
# pairs and the verification gate


def test_idealpair_validation():
    R = unit_ideal(CUBE2)
    with pytest.raises(RingMismatch):
        IdealPair(R, ODD3.one(), SYM2)
    with pytest.raises(ZeroDivisor):
        IdealPair(R, CUBE2.zero(), SYM2)
    with pytest.raises(ZeroDivisor):
        IdealPair(unit_ideal(ODD3), ODD3.one() + ODD3.beta(), SYM2)
    with pytest.raises(NotOddPolynomial):
        IdealPair(R, CUBE2.one(), ADJOINT)
    with pytest.raises(NotTauFixed):
        IdealPair(unit_ideal(ODD4), ODD4.const(3) + ODD4.beta(), ADJOINT)
    with pytest.raises(ValueError):
        IdealPair(R, CUBE2.one(), "standard")


def test_verify_pair_selfadjoint_example():
    R = unit_ideal(CUBE2)
    chk = verify_pair(IdealPair(R, CUBE2.one(), SYM2))
    assert chk.status == "true" and chk.certificate is None
    gram, operator = chk.witness
    assert gram == frac_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert operator == Mat.companion(CUBE2.f)
    assert operator.charpoly() == CUBE2.f


def test_verify_pair_skewadjoint_example():
    R = unit_ideal(ODD3)
    chk = verify_pair(IdealPair(R, ODD3.one(), ADJOINT))
    assert chk.status == "true"
    gram, operator = chk.witness
    assert gram == frac_rows([[0, 0, -1], [0, 1, 0], [-1, 0, -1]])
    assert gram.det() == -1
    assert operator.charpoly() == ODD3.f
    gt = gram * operator
    assert gt.transpose() == -gt


def test_trivial_pair_valid_across_degrees():
    sym2 = [(1, Poly([-2, 0, 0, 1])), (1, Poly([-1, -1, 0, 1])),
            (1, Poly([1, 1, 0, 1])), (2, Poly([-2, 0, 0, 0, 0, 1])),
            (2, Poly([-1, -1, 0, 0, 0, 1])), (2, Poly([3, 0, 1, 0, 0, 1])),
            (3, Poly([-2, 0, 0, 0, 0, 0, 0, 1])),
            (3, Poly([-1, -1, 0, 0, 0, 0, 0, 1]))]
    for n, f in sym2:
        A = EtaleAlgebra(f)
        assert A.deg == 2 * n + 1
        chk = verify_pair(IdealPair(unit_ideal(A), A.one(), SYM2))
        assert chk.status == "true", (f, chk.certificate)
    adj = [(1, Poly([0, -1, 0, 1])), (1, Poly([0, -4, 0, 1])),
           (1, Poly([0, 2, 0, 1])), (2, Poly([0, -1, 0, 0, 0, 1])),
           (2, Poly([0, 2, 0, 3, 0, 1])), (2, Poly([0, -5, 0, 4, 0, 1]))]
    for n, f in adj:
        A = EtaleAlgebra(f)
        assert A.deg == 2 * n + 1
        chk = verify_pair(IdealPair(unit_ideal(A), A.one(), ADJOINT))
        assert chk.status == "true", (f, chk.certificate)


def test_verify_pair_norm_failure():
    R = unit_ideal(CUBE2)
    chk = verify_pair(IdealPair(R, CUBE2.beta(), SYM2))
    assert chk.status == "false"
    assert chk.certificate.startswith("norm")
    assert chk.witness is None


def test_verify_pair_integrality_failure():
    I = ideal_from_gens(DISC23, [DISC23.const(5),
                                 DISC23.beta() - DISC23.const(2)])
    alpha = DISC23.element([-3, -2, 4])
    assert alpha.norm() == 25
    chk = verify_pair(IdealPair(I, alpha, SYM2))
    assert chk.status == "false"
    assert chk.certificate.startswith("integrality")


def test_verify_pair_signature_failure():
    # all three embeddings of 2 - beta^2 weighted by f' come out negative
    alpha = CYC9.const(2) - CYC9.beta() * CYC9.beta()
    assert alpha.norm() == 1
    chk = verify_pair(IdealPair(unit_ideal(CYC9), alpha, SYM2))
    assert chk.status == "false"
    assert chk.certificate.startswith("signature")
    assert "(0, 3)" in chk.certificate


def test_verify_pair_suborder_valid():
    I = FracIdeal(ODD4, [[4, 0, 0], [0, 2, 0], [0, 0, 1]], 4)
    alpha = ODD4.element([Fraction(1, 4), 0, 0])
    chk = verify_pair(IdealPair(I, alpha, ADJOINT))
    assert chk.status == "true"
    gram, operator = chk.witness
    assert gram == frac_rows([[0, 0, -1], [0, 1, 0], [-1, 0, -1]])
    assert operator == frac_rows([[0, 0, 0], [2, 0, 2], [0, 2, 0]])
    assert operator.charpoly() == ODD4.f


def _element_product_gram(P, n):
    """Reference Gram: entry (i, j) is the top power-basis coefficient of
    b_i b_j / alpha, with tau on b_j and a sign (-1)^n in the skew case."""
    basis = P.ideal.basis_elements()
    ainv = P.alpha.inverse()
    if P.rep == SYM2:
        return Mat([[(ainv * bi * bj).top_coeff() for bj in basis]
                    for bi in basis])
    return Mat([[(-1) ** n * (ainv * bi * apply_tau(bj)).top_coeff()
                 for bj in basis] for bi in basis])


def test_pair_gram_is_the_element_product_gram():
    rng = rng_for("lattice-pair-gram")
    for rep in (SYM2, ADJOINT):
        for deg in (3, 5):
            hits = 0
            while hits < 6:
                c = [rng.randint(-6, 6) for _ in range(deg)]
                if rep == ADJOINT:
                    c = [0 if k % 2 == 0 else v for k, v in enumerate(c)]
                f = Poly(c + [1])
                if not is_separable(f):
                    continue
                A = EtaleAlgebra(f)
                u = A.element([rng.randint(-3, 3) for _ in range(deg)])
                if not u or u.norm() == 0:
                    continue
                alpha = u * u if rep == SYM2 else u * apply_tau(u)
                P = IdealPair(principal_ideal(A, u), alpha, rep)
                n = (deg - 1) // 2
                chk = verify_pair(P)
                assert chk.status == "true", chk.certificate
                assert chk.witness[0] == _element_product_gram(P, n)
                hits += 1


def test_verify_pair_degree_mismatch():
    # an even degree is no 2n + 1
    for f in (Poly([-2, 0, 1]), Poly([-2, 0, 0, 0, 1])):
        A = EtaleAlgebra(f)
        with pytest.raises(DimensionMismatch):
            verify_pair(IdealPair(unit_ideal(A), A.one(), SYM2))


# ---------------------------------------------------------------------------
# equivalence witnesses


def test_pair_equivalence_basic():
    R = unit_ideal(CUBE2)
    P = IdealPair(R, CUBE2.one(), SYM2)
    c = CUBE2.element([1, 1, 0])
    Q = IdealPair(principal_ideal(CUBE2, c), c * c, SYM2)
    assert pair_equivalence_check(P, Q, c)
    two = CUBE2.const(2)
    Q2 = IdealPair(principal_ideal(CUBE2, two), CUBE2.const(4), SYM2)
    assert pair_equivalence_check(P, Q2, two)
    # the ideal must move along with alpha: R != 2R
    Q3 = IdealPair(R, CUBE2.const(4), SYM2)
    assert not pair_equivalence_check(P, Q3, two)
    # beta R is a proper sublattice, so beta is not a valid witness to R
    Q4 = IdealPair(R, CUBE2.beta() * CUBE2.beta(), SYM2)
    assert not pair_equivalence_check(P, Q4, CUBE2.beta())
    Q5 = IdealPair(principal_ideal(CUBE2, CUBE2.beta()),
                   CUBE2.beta() * CUBE2.beta(), SYM2)
    assert pair_equivalence_check(P, Q5, CUBE2.beta())
    assert pair_equivalence_check(Q5, P, CUBE2.beta().inverse())


def test_pair_equivalence_skew_twists_by_tau():
    R = unit_ideal(ODD4)
    P = IdealPair(R, ODD4.one(), ADJOINT)
    c = ODD4.const(3) + ODD4.beta()
    # c tau(c) = 9 - beta^2 is tau-fixed, so the scaled pair is legal
    alpha2 = ODD4.const(9) - ODD4.beta() * ODD4.beta()
    Q = IdealPair(principal_ideal(ODD4, c), alpha2, ADJOINT)
    assert pair_equivalence_check(P, Q, c)
    Qbad = IdealPair(principal_ideal(ODD4, c), ODD4.const(9), ADJOINT)
    assert not pair_equivalence_check(P, Qbad, c)


def test_pair_equivalence_errors():
    P = IdealPair(unit_ideal(CUBE2), CUBE2.one(), SYM2)
    P3 = IdealPair(unit_ideal(ODD3), ODD3.one(), SYM2)
    with pytest.raises(RingMismatch):
        pair_equivalence_check(P, P3, CUBE2.one())
    Padj = IdealPair(unit_ideal(ODD3), ODD3.one(), ADJOINT)
    with pytest.raises(RingMismatch):
        pair_equivalence_check(P3, Padj, ODD3.one())
    with pytest.raises(ZeroDivisor):
        pair_equivalence_check(P, P, CUBE2.zero())
    with pytest.raises(RingMismatch):
        pair_equivalence_check(P, P, ODD3.one())


def test_scaling_preserves_validity():
    rng = rng_for("lattice-scaling")
    R = unit_ideal(CUBE2)
    base = verify_pair(IdealPair(R, CUBE2.one(), SYM2))
    assert base.status == "true"
    hits = 0
    while hits < 4:
        c = CUBE2.element([rng.randrange(-5, 6) for _ in range(3)])
        if not c or c.norm() == 0:
            continue
        Q = IdealPair(principal_ideal(CUBE2, c), c * c, SYM2)
        chk = verify_pair(Q)
        assert chk.status == "true", chk.certificate
        assert pair_equivalence_check(IdealPair(R, CUBE2.one(), SYM2), Q, c)
        hits += 1
