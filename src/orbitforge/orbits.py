"""Operator orbits on a split odd orthogonal space.

The objects here are self-adjoint and skew-adjoint operators T on the
standard space W of dimension 2n+1 with separable characteristic
polynomial f.  Each such operator carries a hidden unit alpha of
L = Q[x]/(f) that pins down its rational orbit: pulling the form on W
back along lambda -> lambda(T)w for a cyclic vector w gives the twisted
pairing <lambda, mu>_alpha on L.  Each operation builds L once: an
element alpha brings its own L, and a representative keeps the L it was
built over, so every object built on f carries the same algebra.
Every representative is built along one path, and the exact solver,
not the local invariants, decides whether its twisted space is split.
Construction of the distinguished representative, recovery of alpha,
the kernel test, and orbit comparison (an etale.Verdict with its witness
or certificate) all live here, with the closed-form orbit facts:
stabilizers, and the orbit counts over Q_p at a good odd prime (from the
factorization type of f mod p) and over R (when the relevant polynomial
has the maximal number of real roots).
"""

from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .arith import is_prime, is_rational_square, rng_for, squarefree_part
from .errors import (Anisotropic, BadPrime, DimensionMismatch,
                     MaximalRankHypothesisFails, NoCyclicVector, NonUnit,
                     NormNotSquare, NotMonic, NotOddPolynomial, NotSplit,
                     NotTauFixed, RingMismatch, WrongDegree, WrongDimension,
                     ZeroDiscriminant)
from .etale import (EtaleAlgebra, EtaleElement, Verdict, is_square,
                    is_tau_fixed, skew_data, solve_tau_norm, square_screen)
from .matrix import Mat
from .poly import (Poly, _clear, count_real_roots, even_part,
                   fp_count_factors, fp_from_poly)
from .quadform import (QuadSpace, hyperbolic_completion, is_split_odd,
                       maximal_isotropic_subspace, standard_space)

STANDARD = "standard"
ADJOINT = "adjoint"
SYM2 = "sym2"

_ALL_REPS = (STANDARD, ADJOINT, SYM2)

ZERO_LABEL = "zero"
NULL_LABEL = "null-nonzero"


def _check_rep(rep):
    if rep not in _ALL_REPS:
        raise ValueError("unknown representation tag %r" % (rep,))


def _check_tensor_rep(rep):
    _check_rep(rep)
    if rep == STANDARD:
        raise ValueError("operation applies to the adjoint and symmetric-square"
                         " representations only")


def adjoint_op(t, space):
    """The adjoint T* with <Tv, w> = <v, T*w>.

    Equals gram^-1 T^t gram; for the anti-diagonal Gram of ones this is
    reflection of the matrix around the anti-diagonal,
    T*[i][j] = T[d-1-j][d-1-i].
    """
    d = space.dim
    if not t.is_square() or t.nrows != d:
        raise DimensionMismatch("operator must be %d x %d" % (d, d))
    rows = t.num
    return Mat([[rows[d - 1 - j][d - 1 - i] for j in range(d)]
                for i in range(d)], t.den)


def _validate_charpoly(f, rep, alpha=1):
    """alpha as an element of L = Q[x]/(f), for f a charpoly of rep.

    Checks, in order: rep is a tensor representation, f has odd degree
    >= 3, is monic, is separable, and is odd when rep is skew.  An
    element alpha brings its own L, which must have modulus f (else
    RingMismatch); for a rational alpha, building L is the separability
    test.  Callers that need only L read it as the result's alg.
    """
    _check_tensor_rep(rep)
    if f.degree < 3 or f.degree % 2 == 0:
        raise WrongDegree("need odd degree >= 3, got %s" % f.degree)
    if not f.is_monic():
        raise NotMonic("characteristic polynomial must be monic")
    element = isinstance(alpha, EtaleElement)
    alg = alpha.alg if element and alpha.alg.f == f else EtaleAlgebra(f)
    if rep == ADJOINT:
        if any(f.num[0::2]):
            raise NotOddPolynomial(
                "skew operators need f(-x) = -f(x); got %s" % f.pretty())
    if not element:
        return alg.const(Fraction(alpha))
    if alpha.alg is not alg:
        raise RingMismatch("alpha lives in %r, expected %r"
                           % (alpha.alg, alg))
    return alpha


def _pairing_gram(alpha, rep):
    """Gram of <lambda, mu>_alpha on the power basis 1, beta, ..., beta^2n
    of alpha's algebra.

    Sym2 entry (i,j) is the top coefficient of alpha*beta^(i+j); the skew
    pairing multiplies by (-1)^n (-1)^j since tau(beta^j) = (-beta)^j.
    """
    alg = alpha.alg
    d = alg.deg
    n = (d - 1) // 2
    # f = x^d + low / cf and alpha = cur / ca; step k keeps cur over
    # ca cf^k, so the top coefficients tops[k] / (ca cf^k) stay integers
    low, cf = alg.F[:d], alg.cf
    cur, ca = list(alpha.num), alpha.den
    tops = []
    for _ in range(2 * d - 1):
        top = cur[-1]
        tops.append(top)
        # times beta: shift up, then reduce the beta^d term by f
        cur = [-top * low[0]] + [cf * a - top * c
                                 for a, c in zip(cur[:-1], low[1:])]
    last = 2 * d - 2
    tops = [t * cf ** (last - k) for k, t in enumerate(tops)]
    sign_n = -1 if n % 2 else 1
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            v = tops[i + j]
            if rep == ADJOINT:
                v = v * sign_n * (-1 if j % 2 else 1)
            row.append(v)
        rows.append(row)
    return Mat(rows, ca * cf ** last)


class OrbitRepresentative:
    """An operator on the standard space, self- or skew-adjoint per rep,
    with the algebra L = Q[x]/(f) of its characteristic polynomial f.

    Checks on construction that the operator has the claimed adjointness
    and that its characteristic polynomial is exactly alg.f.  L travels
    with the operator, so recover_alpha and every conjugate reuse it.
    """

    __slots__ = ("space", "rep", "op", "alg")

    def __init__(self, space, rep, op, alg):
        _check_tensor_rep(rep)
        d = space.dim
        if not op.is_square() or op.nrows != d:
            raise DimensionMismatch("operator must be %d x %d" % (d, d))
        f = alg.f
        if f.degree != d:
            raise WrongDegree("charpoly must be monic of degree %d" % d)
        star = adjoint_op(op, space)
        if rep == SYM2 and star != op:
            raise ValueError("operator is not self-adjoint")
        if rep == ADJOINT and star != -op:
            raise ValueError("operator is not skew-adjoint")
        if op.charpoly() != f:
            raise ValueError("operator does not have charpoly %s" % f.pretty())
        self.space = space
        self.rep = rep
        self.op = op
        self.alg = alg

    @property
    def f(self):
        return self.alg.f

    @property
    def n(self):
        return self.space.dim // 2

    def conjugate(self, g):
        """g T g^-1 for g in the orthogonal group of the space."""
        return OrbitRepresentative(self.space, self.rep,
                                   g * self.op * g.inv(), self.alg)

    def __repr__(self):
        return "OrbitRepresentative(%s, f=%s)" % (self.rep, self.f.pretty())


def _representative(alpha, rep, isotropic):
    """The one construction path: multiplication by beta, (skew-)adjoint
    for <lambda,mu>_alpha, moved to the standard space along the
    hyperbolic completion of isotropic(tw), n isotropic vectors of the
    twisted space tw, for alpha from _validate_charpoly.  The completion U
    has U^T G U = J, and J, the anti-diagonal of ones, is its own inverse,
    so U^-1 = J U^T G: U^T with its rows reversed, times G."""
    tw = _twisted_space(alpha, rep)
    u = hyperbolic_completion(tw, isotropic(tw))
    u_inv = Mat(u.transpose().num[::-1], u.den) * tw.gram
    op = u_inv * Mat.companion(alpha.alg.f) * u
    return OrbitRepresentative(standard_space(tw.dim // 2), rep, op,
                               alpha.alg)


def _split_basis(tw):
    """The exact solver's maximal isotropic subspace.  On a refusal the
    local invariants tell a class outside the kernel (a space that is not
    split) from a solver fault, whose own error stands."""
    try:
        return maximal_isotropic_subspace(tw)
    except (Anisotropic, NotSplit):
        if not is_split_odd(tw):
            raise NotSplit("the twisted space of alpha is not split; the"
                           " class is not in the kernel") from None
        raise


def construct_representative(f, rep):
    """The distinguished orbit representative with charpoly f.

    The class alpha = 1, whose pairing Gram on the power basis has the
    isotropic subspace span{1, ..., beta^(n-1)}: no solver runs.
    """
    return _representative(_validate_charpoly(f, rep), rep,
                           lambda tw: Mat.identity(tw.dim).rows[:tw.dim // 2])


def _twisted_space(alpha, rep):
    """(L, <lambda,mu>_alpha) for alpha from _validate_charpoly."""
    if not alpha.is_unit():
        raise NonUnit("alpha must be a unit of L")
    if rep == ADJOINT and not is_tau_fixed(alpha):
        raise NotTauFixed("alpha must satisfy tau(alpha) = alpha")
    if not is_rational_square(alpha.norm()):
        raise NormNotSquare("N(alpha) = %s is not a rational square"
                            % alpha.norm())
    return QuadSpace(_pairing_gram(alpha, rep))


def gram_alpha(f, alpha, rep):
    """The twisted quadratic space (L, <lambda,mu>_alpha) over Q.

    alpha is a rational or an element of L = Q[x]/(f); an element's own
    algebra is used, so only a rational alpha builds L.  Sym2 wants
    N(alpha) a rational square; the skew case wants alpha tau-fixed with
    square norm.  Both keep det class (-1)^n.
    """
    return _twisted_space(_validate_charpoly(f, rep, alpha), rep)


def in_kernel_gamma(f, alpha, rep):
    """Whether the class of alpha gives a rational orbit with charpoly f.

    The twisted space splits exactly when the class dies in the
    cohomology of the full orthogonal group, so this is a split test.
    """
    return is_split_odd(gram_alpha(f, alpha, rep))


def _cyclic_candidates(d, tag):
    for i in range(d):
        yield tuple(int(i == j) for j in range(d))
    yield (1,) * d
    rng = rng_for(tag)
    for _ in range(120):
        yield tuple(rng.randint(-3, 3) for _ in range(d))


def _alpha_from_vector(orep, alg, base_inv, w):
    """alpha with top(alpha nu) matching <nu(T)w, w>, and the pulled-back
    Gram K^T J K, K = (w, Tw, ..., T^(d-1) w), for base_inv the inverse of
    the pairing Gram of 1.  It and alpha's pairing Gram agree on the first
    row and obey f's recurrence, so they are equal for every w, and w is
    cyclic exactly when alpha is a unit.

    Integer throughout: with T = N / e, each column T^k w is an integer
    vector v_k over c_k in lowest terms, v_(k+1) = N v_k over e c_k, and
    over C = lcm(c_k) the columns u_k = v_k C / c_k give
    <T^i w, T^k w> = u_i^T Jn u_k / (j C^2) for J = Jn / j."""
    d = orep.space.dim
    N, e = orep.op.num, orep.op.den
    J, jd = orep.space.gram.num, orep.space.gram.den
    pows = [_clear(w)]
    for _ in range(d - 1):
        v, c = pows[-1]
        v = [sum(map(mul, row, v)) for row in N]
        c *= e
        k = gcd(c, *v)
        pows.append(([x // k for x in v], c // k) if k > 1 else (v, c))
    C = lcm(*(c for _, c in pows))
    pows = [[x * (C // c) for x in v] if c != C else v for v, c in pows]
    jv = [[sum(map(mul, row, x)) for row in J] for x in pows]
    b = [[sum(map(mul, x, y)) for y in pows] for x in jv]
    pulled = Mat(b, jd * C * C)
    sign = -1 if orep.rep == ADJOINT and orep.n % 2 else 1
    alpha = alg._reduce([sign * sum(map(mul, row, b[0]))
                         for row in base_inv.num], base_inv.den * jd * C * C)
    return alpha, pulled


def recover_alpha(orep):
    """The unit of L = Q[x]/(f) carried by the operator.

    Searches for a cyclic vector w, reads off b_j = <T^j w, w>, and solves
    the base pairing for alpha (its Gram inverted once per recovery),
    which is a unit exactly when w is cyclic; the pulled-back Gram is
    checked against gram_alpha exactly.
    Works in the representative's own L (orep.alg) and builds no algebra.
    Well-defined up to c*tau(c) (skew) or squares (symmetric).  The cyclic
    vector lambda(T)w multiplies alpha by lambda^2, so for the symmetric
    pairing every cyclic vector gives the same square class and the first
    one is returned.  In the skew case lambda*tau(lambda) need not be a
    square, so among cyclic vectors we prefer one whose alpha is not
    provably a non-square, and the distinguished construction round-trips to
    a trivial class.  Most candidates are non-squares, so each is screened
    by every test of is_square but the lift (square_screen), and is_square
    decides only the ones nothing refutes.
    """
    alg = orep.alg
    f = alg.f
    base_inv = _pairing_gram(alg.one(), SYM2).inv()
    first = None
    tested = 0
    for w in _cyclic_candidates(orep.space.dim, "cyclic:%s" % (f.c,)):
        alpha, pulled = _alpha_from_vector(orep, alg, base_inv, w)
        if not alpha.is_unit():
            continue
        twisted = _pairing_gram(alpha, orep.rep)
        assert pulled == twisted, "pulled-back form disagrees with pairing"
        if orep.rep == SYM2:
            return alpha
        if not is_tau_fixed(alpha):
            raise NotTauFixed("recovered alpha fails tau-symmetry")
        if first is None:
            first = alpha
        if tested < 8:
            tested += 1
            v = square_screen(alpha) or is_square(alpha)
            if v.status == "false":
                continue
        return alpha
    if first is not None:
        return first
    raise NoCyclicVector("no cyclic vector found for %s" % f.pretty())


# the orbit verdict for each decided square or twisted-norm verdict
_ORBIT_STATUS = {"true": "equal", "solved": "equal", "false": "distinct",
                 "obstructed": "distinct", "unknown": "unknown"}


def same_orbit(o1, o2):
    """Decide whether two operators lie in one rational orbit.

    Differing characteristic polynomials settle it at once.  Otherwise
    the recovered units multiply to a class that must be trivial: a
    square for the symmetric pairing, a twisted norm c*tau(c) for the
    skew one.  The answer is a Verdict, "equal", "distinct" or
    "unknown", passing on the witness or certificate of the square /
    norm-equation test.  The square test always decides; only the bounded
    twisted-norm search can answer "unknown", an honest answer, never a
    guess, and its certificate names the budget that ran out.
    """
    if o1.rep != o2.rep:
        raise RingMismatch("cannot compare %s against %s" % (o1.rep, o2.rep))
    if o1.space.dim != o2.space.dim:
        raise DimensionMismatch("operators act on different spaces")
    if o1.f != o2.f:
        return Verdict(
            "distinct",
            certificate="charpoly %s != %s" % (o1.f.pretty(), o2.f.pretty()))
    a1 = recover_alpha(o1)
    a2 = recover_alpha(o2)
    prod = a1 * a2
    if o1.rep == SYM2:
        v = is_square(prod)
    else:
        v = solve_tau_norm(skew_data(prod.alg), prod)
    return Verdict(_ORBIT_STATUS[v.status], v.witness, v.certificate)


def classify_vector(w, space):
    """Orbit label of a vector of the standard space.

    Nonzero vectors are equivalent exactly when their labels agree: the
    zero vector, the null cone minus the origin, and one orbit per
    nonzero value.  The value is normalized so a hyperbolic combination
    e_1 + d f_1 gets label d.
    """
    if len(w) != space.dim:
        raise DimensionMismatch("vector length %d, space dimension %d"
                                % (len(w), space.dim))
    w = tuple(Fraction(x) for x in w)
    if all(x == 0 for x in w):
        return ZERO_LABEL
    val = space.bilinear(w, w) / 2
    if val == 0:
        return NULL_LABEL
    return val


class StabilizerInfo:
    """Structural description of a point stabilizer.

    kind 'orthogonal' (vector with nonzero label: SO of the even-dim
    complement), 'torus' (skew operator: norm-one units of E over K,
    dimension n), or 'two-torsion' (self-adjoint operator: the norm-one
    2-torsion of L*, order 2^2n).
    """

    __slots__ = ("rep", "kind", "order", "dimension", "detail")

    def __init__(self, rep, kind, order=None, dimension=None, detail=None):
        self.rep = rep
        self.kind = kind
        self.order = order
        self.dimension = dimension
        self.detail = dict(detail or {})

    def __repr__(self):
        bits = ["%s" % self.kind]
        if self.order is not None:
            bits.append("order %s" % self.order)
        if self.dimension is not None:
            bits.append("dim %s" % self.dimension)
        return "StabilizerInfo(%s)" % ", ".join(bits)


def stabilizer_info(arg, rep, n=None):
    """Describe the stabilizer of an orbit representative.

    Standard takes the vector label d (nonzero); the other two take the
    characteristic polynomial.
    """
    _check_rep(rep)
    if rep == STANDARD:
        if n is not None and n < 1:
            raise WrongDimension("need n >= 1, got %d" % n)
        d = Fraction(arg)
        if d == 0:
            raise ZeroDiscriminant("stabilizer description needs a nonzero"
                                   " vector label")
        detail = {"disc_class": squarefree_part(d)}
        if n is not None:
            detail["space_dim"] = 2 * n
        return StabilizerInfo(rep, "orthogonal", detail=detail)
    f = arg
    _validate_charpoly(f, rep)
    nn = (f.degree - 1) // 2
    if rep == SYM2:
        return StabilizerInfo(rep, "two-torsion", order=2 ** (2 * nn),
                              dimension=0, detail={"algebra": f})
    g = even_part(f)
    return StabilizerInfo(rep, "torus", dimension=nn,
                          detail={"K": g, "E": g.compose(Poly([0, 0, 1]))})


def _reduce_mod(f, p):
    """f mod p as a coefficient list of the same degree, or BadPrime."""
    try:
        fc = fp_from_poly(f, p)
    except ZeroDivisionError:
        raise BadPrime("coefficient denominator divisible by %d" % p)
    if len(fc) - 1 != f.degree:
        raise BadPrime("leading coefficient vanishes mod %d" % p)
    return fc


def count_factors_fp(f, p):
    """Number of irreducible factors of f mod p, by distinct-degree splitting.

    Raises NonSeparableModP when the reduction is inseparable and BadPrime
    when p kills a denominator or the leading coefficient.
    """
    if p < 2 or not is_prime(p):
        raise BadPrime("%d is not prime" % p)
    return fp_count_factors(_reduce_mod(f, p), p)


def orbit_count_local(f, p, rep):
    """Orbit count over the p-adic field at a good odd prime.

    Good means p does not divide 2 disc(f) (nor any coefficient
    denominator); otherwise BadPrime.  With m + 1 irreducible factors of
    f mod p the self-adjoint count is 2^(2m-1) + 2^(m-1), read as 1 when
    m = 0.  For skew-adjoint operators, writing f = x g(x^2), m instead
    counts the factors of g mod p that stay irreducible under x -> x^2,
    and the count is 2^(m-1), again 1 when m = 0.
    """
    alg = _validate_charpoly(f, rep).alg
    if p == 2:
        raise BadPrime("p = 2 is never a good prime here")
    if not is_prime(p):
        raise BadPrime("%d is not prime" % p)
    if alg.disc.numerator % p == 0:
        raise BadPrime("%d divides the discriminant" % p)
    # count_factors_fp checks the denominators: g's are f's odd ones
    if rep == SYM2:
        m = count_factors_fp(f, p) - 1
        return 1 if m == 0 else (1 << (2 * m - 1)) + (1 << (m - 1))
    g = even_part(f)
    m = 2 * count_factors_fp(g, p) - count_factors_fp(g(Poly([0, 0, 1])), p)
    return 1 if m == 0 else 1 << (m - 1)


def orbit_count_real(f, rep):
    """Orbit count over the reals, with its fiber table, as (total, fibers).

    Self-adjoint case: needs f totally real (2n+1 real roots), else
    MaximalRankHypothesisFails.  The count is C(2n+1, n) and the fiber
    table maps each k = n mod 2 to C(2n+1, k).  Skew case: writing
    f = x g(x^2), needs g totally real with all roots negative; the count
    is C(n, floor(n/2)) and the fibers are C(n, k) for k = 0..n.  Root
    counts are Tarski queries of g = 1 (count_real_roots), so the
    precondition check is exact, and each case counts once: at most n
    roots of g are real, so all are real and negative exactly when n are
    negative.
    """
    _validate_charpoly(f, rep)
    deg = f.degree
    nn = (deg - 1) // 2
    if rep == SYM2:
        real = count_real_roots(f)
        if real != deg:
            raise MaximalRankHypothesisFails(
                "%d of %d roots are real" % (real, deg))
        fibers = {k: comb(deg, k) for k in range(nn % 2, deg + 1, 2)}
        return comb(deg, nn), fibers
    g = even_part(f)
    if count_real_roots(g, None, 0) != nn:
        raise MaximalRankHypothesisFails(
            "need all %d roots of the even part real and negative" % nn)
    fibers = {k: comb(nn, k) for k in range(nn + 1)}
    return comb(nn, nn // 2), fibers


def representative_from_alpha(f, alpha, rep):
    """An operator realizing the orbit of a kernel class alpha.

    alpha is a rational or an element of L = Q[x]/(f); the representative
    carries alpha's own algebra, so only a rational alpha builds L.
    The solver decides the split: with N(alpha) a square the twisted
    space has det class (-1)^n, so it is split exactly when the exact
    solver finds n isotropic vectors; the invariants only name a refusal.
    """
    return _representative(_validate_charpoly(f, rep, alpha), rep,
                           _split_basis)
