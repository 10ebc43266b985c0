"""Integral structure: unimodular complements, fractional ideals, pair checks.

The ambient integer lattice carries the anti-diagonal unimodular pairing of
signature (n+1, n).  Fractional ideals of Z[x]/(f) are stored as integer
column lattices in Hermite form over a scalar denominator, which makes
norms determinant quotients, products finite generator spans, and every
containment an exact linear solve.  verify_pair rebuilds the bilinear form
attached to a pair (I, alpha) on the ideal's own basis and checks it is an
odd unimodular form of the right signature; success hands back the
multiplication-by-beta matrix, which is the integral orbit representative.
"""

from fractions import Fraction
from math import gcd

from .errors import (Degenerate, DimensionMismatch, Inconsistent, NonIntegral,
                     NotOddPolynomial, NotPrimitive, NotTauFixed, NullVector,
                     RingMismatch, ZeroDivisor)
from .etale import EtaleElement, apply_tau, is_tau_fixed
from .matrix import Mat, hnf_columns, solve
from .orbits import ADJOINT, SYM2, _check_tensor_rep
from .quadform import QuadSpace, diagonalize


def _int_vec(w):
    out = []
    for x in w:
        fx = Fraction(x)
        if fx.denominator != 1:
            raise NonIntegral("need an integer vector")
        out.append(fx.numerator)
    return out


def _exact_int(x):
    fx = Fraction(x)
    assert fx.denominator == 1, "expected an integer, got %s" % (fx,)
    return fx.numerator


class ZLattice:
    """An integral symmetric bilinear lattice, described by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram):
        if not isinstance(gram, Mat):
            gram = Mat(gram)
        if not gram.is_square():
            raise Degenerate("Gram matrix must be square")
        if gram.transpose() != gram:
            raise Degenerate("Gram matrix must be symmetric")
        if gram.den != 1:
            raise NonIntegral("Gram entries must be integers")
        self.gram = gram

    @property
    def rank(self):
        return self.gram.nrows

    def det(self):
        return self.gram.det()

    def is_even(self):
        """True when every vector has even self-pairing, i.e. the diagonal
        of the Gram matrix is even."""
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def __eq__(self, other):
        if isinstance(other, ZLattice):
            return self.gram == other.gram
        return NotImplemented

    def __repr__(self):
        return "ZLattice(%r)" % (self.gram,)


def _row_kernel(r):
    """Hermite basis of {v : r . v = 0} for an integer row r of content 1.

    The Hermite form of the graph columns (r_j, e_j) puts the gcd 1 in the
    first column; the rest, minus their first entry, span the kernel.
    """
    m = len(r)
    graph = [[r[j]] + [int(i == j) for i in range(m)] for j in range(m)]
    return [c[1:] for c in hnf_columns(graph)[1:]]


def complement_lattice(w, n):
    """Orthogonal complement of a primitive non-null integer vector in the
    odd unimodular lattice of rank 2n+1, as (ZLattice, even flag).

    The basis is the Hermite basis of the rank-2n kernel sublattice; the
    complement's Gram determinant works out to (-1)^n q(w), which the
    tests check through the index formula on Zw + complement.
    """
    d = 2 * n + 1
    wi = _int_vec(w)
    if len(wi) != d:
        raise DimensionMismatch("vector length %d in rank %d" % (len(wi), d))
    g = 0
    for x in wi:
        g = gcd(g, x)
    if g != 1:
        raise NotPrimitive("vector has content %d" % g)
    qw = sum(wi[i] * wi[d - 1 - i] for i in range(d))
    if qw == 0:
        raise NullVector("vector pairs to zero with itself")
    basis = _row_kernel(wi[::-1])
    assert len(basis) == d - 1
    gram = [[Fraction(sum(basis[a][i] * basis[b][d - 1 - i] for i in range(d)))
             for b in range(d - 1)] for a in range(d - 1)]
    lat = ZLattice(Mat(gram))
    return lat, lat.is_even()


# ---------------------------------------------------------------------------
# fractional ideals of Z[x]/(f)


def _check_integral_modulus(alg):
    f = alg.f
    if any(a.denominator != 1 for a in f.c) or f.lc() != 1:
        raise NonIntegral("ideal arithmetic needs a monic integral modulus")


class FracIdeal:
    """A fractional ideal of Z[x]/(f): an integer column lattice on the
    power basis, in Hermite form, divided by a positive denominator.

    Stability under multiplication by the class of x is verified at
    construction, never assumed.
    """

    __slots__ = ("alg", "mat", "den")

    def __init__(self, alg, cols, den=1):
        _check_integral_modulus(alg)
        den = int(den)
        if den == 0:
            raise ZeroDivisor("zero denominator")
        if den < 0:
            den = -den
            cols = [[-x for x in col] for col in cols]
        basis = hnf_columns([_int_vec(col) for col in cols])
        if len(basis) != alg.deg:
            raise ZeroDivisor("generators span rank %d, need %d"
                              % (len(basis), alg.deg))
        g = den
        for col in basis:
            for x in col:
                g = gcd(g, x)
        basis = [[x // g for x in col] for col in basis]
        self.alg = alg
        self.mat = Mat([[Fraction(basis[j][i]) for j in range(alg.deg)]
                        for i in range(alg.deg)])
        self.den = den // g
        comp = Mat.companion(alg.f)
        for j in range(alg.deg):
            image = comp.apply(self.mat.col(j))
            if not self._solves_integrally(image):
                raise Inconsistent(
                    "lattice is not stable under multiplication by x")

    def _solves_integrally(self, target):
        x = solve(self.mat, list(target))
        return all(t.denominator == 1 for t in x)

    def basis_elements(self):
        """The Hermite basis as algebra elements."""
        return [self.alg.element([self.mat[i, j] / self.den
                                  for i in range(self.alg.deg)])
                for j in range(self.alg.deg)]

    def contains_element(self, e):
        if e.alg != self.alg:
            raise RingMismatch("element of a different algebra")
        target = [c * self.den for c in e.c]
        return self._solves_integrally(target)

    def contains(self, other):
        """Whole-lattice containment: other is a subset of self."""
        if other.alg != self.alg:
            raise RingMismatch("ideal of a different algebra")
        return all(self.contains_element(b) for b in other.basis_elements())

    def __eq__(self, other):
        if isinstance(other, FracIdeal):
            return (self.alg == other.alg and self.den == other.den
                    and self.mat == other.mat)
        return NotImplemented

    def __repr__(self):
        return "FracIdeal(den=%d, mat=%r)" % (self.den, self.mat)


def unit_ideal(alg):
    return FracIdeal(alg, [[int(i == j) for i in range(alg.deg)]
                           for j in range(alg.deg)], 1)


def ideal_from_gens(alg, gens):
    """The fractional Z[x]/(f)-ideal generated by the given elements."""
    cols = []
    den = 1
    for g in gens:
        if not isinstance(g, EtaleElement) or g.alg != alg:
            raise RingMismatch("generator from a different algebra")
        for c in g.c:
            den = den * c.denominator // gcd(den, c.denominator)
    for g in gens:
        mm = g.mult_matrix()
        for j in range(alg.deg):
            col = mm.col(j)
            cols.append([_exact_int(c * den) for c in col])
    if not cols:
        raise ZeroDivisor("no generators")
    return FracIdeal(alg, cols, den)


def principal_ideal(alg, a):
    if not a or a.norm() == 0:
        raise ZeroDivisor("principal ideal needs an invertible generator")
    return ideal_from_gens(alg, [a])


def ideal_mul(I, J):
    """Product ideal: the span of all pairwise basis products."""
    if I.alg != J.alg:
        raise RingMismatch("ideals of different algebras")
    den = I.den * J.den
    cols = []
    for b in I.basis_elements():
        for c in J.basis_elements():
            prod = b * c
            cols.append([_exact_int(x * den) for x in prod.c])
    return FracIdeal(I.alg, cols, den)


def ideal_norm(I):
    """Generalized index [Z[x]/(f) : I], a positive rational.

    For the Hermite basis this is |det| of the numerator matrix divided
    by den^deg."""
    d = I.mat.det()
    return abs(d) / Fraction(I.den) ** I.alg.deg


def tau_ideal(I):
    """Image of the ideal under the involution x -> -x (odd modulus only)."""
    f = I.alg.f
    if any(f.c[i] != 0 for i in range(0, f.degree + 1, 2)):
        raise NotOddPolynomial("involution needs an odd modulus")
    cols = []
    for j in range(I.alg.deg):
        col = I.mat.col(j)
        cols.append([_exact_int(col[i]) * (-1) ** i
                     for i in range(I.alg.deg)])
    return FracIdeal(I.alg, cols, I.den)


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
            f = ideal.alg.f
            if any(f.c[i] != 0 for i in range(0, f.degree + 1, 2)):
                raise NotOddPolynomial("skew pairs need an odd modulus")
            if not is_tau_fixed(alpha):
                raise NotTauFixed("alpha must be fixed by the involution")
        self.ideal = ideal
        self.alpha = alpha
        self.rep = rep


class PairCheck:
    """Outcome of verify_pair.  Truthy iff valid; an invalid outcome
    carries the first failed condition in `reason`; a valid one carries
    the Gram matrix of the integral form and the multiplication-by-beta
    operator matrix (the integral orbit representative)."""

    __slots__ = ("valid", "reason", "gram", "operator")

    def __init__(self, valid, reason=None, gram=None, operator=None):
        self.valid = valid
        self.reason = reason
        self.gram = gram
        self.operator = operator

    def __bool__(self):
        return self.valid

    def __repr__(self):
        if self.valid:
            return "PairCheck(valid)"
        return "PairCheck(invalid: %s)" % (self.reason,)


def verify_pair(P, n):
    """Check whether (I, alpha) carries the odd unimodular integral form.

    Conditions, in check order: the norm identity (N(I)^2 = N(alpha), or
    N(I) N(I^tau) = N(alpha) in the skew case), integrality of the Gram
    matrix of the form on I's basis, determinant exactly (-1)^n,
    signature (n+1, n), and the containment I*I (resp. I*I^tau) inside
    (alpha).  The form's value on (x, y) is the top power-basis
    coefficient of x y / alpha, with an extra (-1)^n and an involution on
    y in the skew case."""
    alg = P.ideal.alg
    deg = alg.deg
    if deg != 2 * n + 1:
        raise DimensionMismatch("algebra degree %d but n = %d" % (deg, n))
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
        return PairCheck(False, "norm: N-condition gives %s, N(alpha) = %s"
                         % (norm_lhs, n_alpha))
    basis = I.basis_elements()
    ainv = P.alpha.inverse()
    rows = []
    for bi in basis:
        row = []
        for bj in basis:
            other = apply_tau(bj) if P.rep == ADJOINT else bj
            val = (ainv * bi * other).top_coeff()
            if P.rep == ADJOINT:
                val = sign * val
            row.append(val)
        rows.append(row)
    if any(x.denominator != 1 for row in rows for x in row):
        return PairCheck(False, "integrality: form takes non-integral values")
    G = Mat(rows)
    if G.det() != sign:
        return PairCheck(False, "determinant: %s, need %d" % (G.det(), sign))
    dvals, _ = diagonalize(QuadSpace(G))
    pos = sum(1 for v in dvals if v > 0)
    if (pos, deg - pos) != (n + 1, n):
        return PairCheck(False, "signature: (%d, %d), need (%d, %d)"
                         % (pos, deg - pos, n + 1, n))
    if not principal_ideal(alg, P.alpha).contains(ideal_mul(I, partner)):
        return PairCheck(False, "containment: I * partner escapes (alpha)")
    comp = Mat.companion(alg.f)
    cols = []
    for j in range(deg):
        image = comp.apply(I.mat.col(j))
        cols.append(solve(I.mat, list(image)))
    T = Mat([[cols[j][i] for j in range(deg)] for i in range(deg)])
    assert T.den == 1
    assert T.charpoly() == alg.f
    GT = G * T
    if P.rep == SYM2:
        assert GT.transpose() == GT
    else:
        assert GT.transpose() == -GT
    return PairCheck(True, None, G, T)


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
