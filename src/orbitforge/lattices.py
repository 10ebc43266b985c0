"""Integral structure: unimodular complements, fractional ideals, pair checks.

The ambient integer lattice carries the anti-diagonal unimodular pairing of
signature (n+1, n); the orthogonal complement of a vector is the integer
kernel matrix.lattice_kernel takes from one Hermite form, returned as the
quadform.QuadSpace of its Gram with an even flag.  Fractional
ideals of Z[x]/(f) are stored as integer column lattices in Hermite form
over a scalar denominator: every ideal, whether from generators, a product
or the involution, is the Hermite span of a list of elements, norms are
determinant quotients, containment is one integrality test of M_I^-1 M_J,
and multiplication by x on I is the integer matrix M_I^-1 C_f M_I.
verify_pair takes the Gram of the form attached to a pair (I, alpha) as
B^T P B, with P the twisted pairing of alpha^-1 on the power basis and B
the ideal's basis, and checks it is an odd unimodular form of the right
signature.  It answers with an etale.Verdict: "true" carries that Gram
and the multiplication-by-beta matrix, which is the integral orbit
representative, and "false" names the first failed condition.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import (DimensionMismatch, Inconsistent, NonIntegral,
                     NotOddPolynomial, NotPrimitive, NotTauFixed, NullVector,
                     RingMismatch, ZeroDivisor)
from .etale import EtaleElement, Verdict, apply_tau, is_tau_fixed
from .matrix import Mat, hnf_columns, lattice_kernel, solve
from .orbits import ADJOINT, SYM2, _check_tensor_rep, _pairing_gram
from .poly import _clear
from .quadform import QuadSpace, diagonalize, standard_gram


def complement_lattice(w):
    """Orthogonal complement of a primitive non-null integer vector w in
    the odd unimodular lattice of rank d = len(w) = 2n+1, as (QuadSpace,
    even flag).

    The basis B is the Hermite basis of the rank-2n kernel sublattice and
    the Gram is B^T J B, nondegenerate since its determinant works out to
    (-1)^n q(w) (the tests check this through the index formula on
    Zw + complement); the lattice is even when that Gram's diagonal is.
    """
    wi, c = _clear(w)
    if c != 1:
        raise NonIntegral("need an integer vector")
    d = len(wi)
    if d < 3 or d % 2 == 0:
        raise DimensionMismatch("vector length %d; need rank 2n+1, n >= 1"
                                % d)
    g = gcd(*wi)
    if g != 1:
        raise NotPrimitive("vector has content %d" % g)
    qw = sum(wi[i] * wi[d - 1 - i] for i in range(d))
    if qw == 0:
        raise NullVector("vector pairs to zero with itself")
    # the pairing with w is the row w reversed
    B = Mat.from_cols(lattice_kernel([wi[::-1]]))
    assert B.ncols == d - 1
    gram = B.transpose() * standard_gram(d // 2) * B
    return QuadSpace(gram), all(gram[i, i] % 2 == 0 for i in range(d - 1))


# ---------------------------------------------------------------------------
# fractional ideals of Z[x]/(f)


def _check_integral_modulus(alg):
    if alg.f.den != 1:  # the modulus is monic
        raise NonIntegral("ideal arithmetic needs a monic integral modulus")


class FracIdeal:
    """A fractional ideal of Z[x]/(f): an integer column lattice on the
    power basis, in Hermite form, divided by a positive denominator.

    Stability under multiplication by the class of x is verified at
    construction, never assumed.  inv is the inverse of the basis matrix,
    computed once there and shared by that check and by contains.
    """

    __slots__ = ("alg", "mat", "den", "inv")

    def __init__(self, alg, cols, den=1):
        _check_integral_modulus(alg)
        den = abs(int(den))
        if den == 0:
            raise ZeroDivisor("zero denominator")
        basis = hnf_columns(cols)
        if len(basis) != alg.deg:
            raise ZeroDivisor("generators span rank %d, need %d"
                              % (len(basis), alg.deg))
        # Mat divides the columns and den by their common factor
        m = Mat(zip(*basis), den)
        self.alg = alg
        self.mat = Mat(m.num, 1)
        self.den = m.den
        self.inv = self.mat.inv()
        if _x_matrix(self).den != 1:
            raise Inconsistent("lattice is not stable under multiplication by x")

    def basis_elements(self):
        """The Hermite basis as algebra elements."""
        return [self.alg.element([self.mat[i, j] / self.den
                                  for i in range(self.alg.deg)])
                for j in range(self.alg.deg)]

    def contains_element(self, e):
        if e.alg != self.alg:
            raise RingMismatch("element of a different algebra")
        # x is e.den times the coordinates of e in the basis
        x = solve(self.mat, [v * self.den for v in e.num])
        return all(t.denominator == 1 and t.numerator % e.den == 0 for t in x)

    def contains(self, other):
        """Whole-lattice containment: other is a subset of self, that is
        M_self^-1 M_other den_self / den_other is an integer matrix."""
        if other.alg != self.alg:
            raise RingMismatch("ideal of a different algebra")
        x = self.inv * other.mat * Fraction(self.den, other.den)
        return x.den == 1

    def __eq__(self, other):
        if isinstance(other, FracIdeal):
            return (self.alg == other.alg and self.den == other.den
                    and self.mat == other.mat)
        return NotImplemented

    def __repr__(self):
        return "FracIdeal(den=%d, mat=%r)" % (self.den, self.mat)


def _x_matrix(I):
    """Multiplication by x on I's basis: M^-1 C_f M, integral iff I is
    stable under x."""
    return I.inv * Mat.companion(I.alg.f) * I.mat


def _span(alg, elems):
    """The fractional ideal spanned over Z by the elements, read as
    integer numerators over their common denominator."""
    den = lcm(*[e.den for e in elems])
    return FracIdeal(alg, [[x * (den // e.den) for x in e.num]
                           for e in elems], den)


def unit_ideal(alg):
    return FracIdeal(alg, [[int(i == j) for i in range(alg.deg)]
                           for j in range(alg.deg)], 1)


def ideal_from_gens(alg, gens):
    """The fractional Z[x]/(f)-ideal generated by the given elements."""
    for g in gens:
        if not isinstance(g, EtaleElement) or g.alg != alg:
            raise RingMismatch("generator from a different algebra")
    if not gens:
        raise ZeroDivisor("no generators")
    elems = []
    for g in gens:
        for _ in range(alg.deg):
            elems.append(g)
            g = g * alg.beta()
    return _span(alg, elems)


def principal_ideal(alg, a):
    if not a or a.norm() == 0:
        raise ZeroDivisor("principal ideal needs an invertible generator")
    return ideal_from_gens(alg, [a])


def ideal_mul(I, J):
    """Product ideal: the span of all pairwise basis products."""
    if I.alg != J.alg:
        raise RingMismatch("ideals of different algebras")
    return _span(I.alg, [b * c for b in I.basis_elements()
                         for c in J.basis_elements()])


def ideal_norm(I):
    """Generalized index [Z[x]/(f) : I], a positive rational.

    For the Hermite basis this is |det| of the numerator matrix divided
    by den^deg."""
    d = I.mat.det()
    return abs(d) / Fraction(I.den) ** I.alg.deg


def tau_ideal(I):
    """Image of the ideal under the involution x -> -x (odd modulus only)."""
    if any(I.alg.F[0::2]):
        raise NotOddPolynomial("involution needs an odd modulus")
    return _span(I.alg, [apply_tau(b) for b in I.basis_elements()])


# ---------------------------------------------------------------------------
# pairs (I, alpha) and their verification


class IdealPair:
    """A fractional ideal together with a unit alpha, for one of the two
    tensor representations.  Structural requirements (same algebra,
    invertible alpha, involution-fixed alpha in the skew case) are
    enforced here; the numerical conditions live in verify_pair."""

    __slots__ = ("ideal", "alpha", "rep")

    def __init__(self, ideal, alpha, rep):
        _check_tensor_rep(rep)
        if not isinstance(alpha, EtaleElement) or alpha.alg != ideal.alg:
            raise RingMismatch("alpha must live in the ideal's algebra")
        if not alpha or alpha.norm() == 0:
            raise ZeroDivisor("alpha must be invertible")
        if rep == ADJOINT:
            if any(ideal.alg.F[0::2]):
                raise NotOddPolynomial("skew pairs need an odd modulus")
            if not is_tau_fixed(alpha):
                raise NotTauFixed("alpha must be fixed by the involution")
        self.ideal = ideal
        self.alpha = alpha
        self.rep = rep


def verify_pair(P):
    """Check whether (I, alpha) carries the odd unimodular integral form,
    over an algebra of degree 2n+1.

    Returns a Verdict: "true" with the witness (G, T), the Gram matrix of
    the integral form on I's basis and the multiplication-by-beta
    operator matrix (the integral orbit representative), or "false" with
    the first failed condition as its certificate.  Conditions, in check
    order: the norm identity (N(I)^2 = N(alpha), or N(I) N(I^tau) =
    N(alpha) in the skew case), integrality of G, determinant exactly
    (-1)^n, signature (n+1, n), and the containment I*I (resp. I*I^tau)
    inside (alpha).  The form's value on (x, y) is the top power-basis
    coefficient of x y / alpha, with an extra (-1)^n and an involution on
    y in the skew case."""
    alg = P.ideal.alg
    deg = alg.deg
    if deg % 2 == 0:
        raise DimensionMismatch("algebra degree %d is even; need 2n+1" % deg)
    n = deg // 2
    sign = (-1) ** n
    I = P.ideal
    n_alpha = P.alpha.norm()
    n_ideal = ideal_norm(I)
    if P.rep == SYM2:
        partner = I
        norm_lhs = n_ideal * n_ideal
    else:
        partner = tau_ideal(I)
        norm_lhs = n_ideal * ideal_norm(partner)
    if norm_lhs != n_alpha:
        return Verdict("false", certificate="norm: N-condition gives %s, "
                       "N(alpha) = %s" % (norm_lhs, n_alpha))
    B = I.mat * Fraction(1, I.den)
    G = B.transpose() * _pairing_gram(P.alpha.inverse(), P.rep) * B
    if G.den != 1:
        return Verdict("false", certificate="integrality: form takes "
                       "non-integral values")
    if G.det() != sign:
        return Verdict("false", certificate="determinant: %s, need %d"
                       % (G.det(), sign))
    dvals, _ = diagonalize(QuadSpace(G))
    pos = sum(1 for v in dvals if v > 0)
    if (pos, deg - pos) != (n + 1, n):
        return Verdict("false", certificate="signature: (%d, %d), need "
                       "(%d, %d)" % (pos, deg - pos, n + 1, n))
    if not principal_ideal(alg, P.alpha).contains(ideal_mul(I, partner)):
        return Verdict("false", certificate="containment: I * partner "
                       "escapes (alpha)")
    T = _x_matrix(I)
    assert T.den == 1
    assert T.charpoly() == alg.f
    GT = G * T
    if P.rep == SYM2:
        assert GT.transpose() == GT
    else:
        assert GT.transpose() == -GT
    return Verdict("true", witness=(G, T))


def pair_equivalence_check(P, Q, c):
    """Exact equivalence witness test: Q's ideal must equal c times P's,
    and Q's alpha must be c^2 (self-adjoint case) or c * tau(c) (skew
    case) times P's."""
    if P.ideal.alg != Q.ideal.alg:
        raise RingMismatch("pairs over different algebras")
    if P.rep != Q.rep:
        raise RingMismatch("pairs for different representations")
    if not isinstance(c, EtaleElement) or c.alg != P.ideal.alg:
        raise RingMismatch("witness from a different algebra")
    if not c or c.norm() == 0:
        raise ZeroDivisor("witness must be invertible")
    if ideal_mul(P.ideal, principal_ideal(P.ideal.alg, c)) != Q.ideal:
        return False
    if P.rep == SYM2:
        return Q.alpha == c * c * P.alpha
    return Q.alpha == c * apply_tau(c) * P.alpha
