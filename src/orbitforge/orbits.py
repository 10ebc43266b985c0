"""Operator orbits on a split odd orthogonal space.

The objects here are self-adjoint and skew-adjoint operators T on the
standard space W of dimension 2n+1 with separable characteristic
polynomial f.  Each such operator carries a hidden unit alpha of
L = Q[x]/(f) that pins down its rational orbit: pulling the form on W
back along lambda -> lambda(T)w for a cyclic vector w gives the twisted
pairing <lambda, mu>_alpha on L.  Construction of the distinguished
representative, recovery of alpha, the kernel test, and orbit comparison
(an etale.Verdict with its witness or certificate) all live here.
"""

from fractions import Fraction

from .arith import is_rational_square, rng_for, squarefree_part
from .errors import (DimensionMismatch, NoCyclicVector, NonSeparable, NonUnit,
                     NormNotSquare, NotMonic, NotOddPolynomial, NotSplit,
                     NotTauFixed, RingMismatch, WrongDegree, WrongDimension,
                     ZeroDiscriminant)
from .etale import (EtaleAlgebra, EtaleElement, Verdict, is_square,
                    is_tau_fixed, skew_data, solve_tau_norm, square_screen)
from .matrix import Mat, solve
from .poly import Poly, even_part, is_separable
from .quadform import (QuadSpace, hyperbolic_completion, is_split_odd,
                       maximal_isotropic_subspace, standard_gram)

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


def standard_space(n):
    """The split space of dimension 2n+1: basis e_1..e_n, u, f_n..f_1, so
    the Gram matrix is the anti-diagonal matrix of ones, det (-1)^n."""
    return QuadSpace(standard_gram(n))


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


def _validate_charpoly(f, rep):
    if f.degree < 3 or f.degree % 2 == 0:
        raise WrongDegree("need odd degree >= 3, got %s" % f.degree)
    if not f.is_monic():
        raise NotMonic("characteristic polynomial must be monic")
    if not is_separable(f):
        raise NonSeparable("polynomial %s has a repeated root" % f.pretty())
    if rep == ADJOINT:
        if any(f.num[0::2]):
            raise NotOddPolynomial(
                "skew operators need f(-x) = -f(x); got %s" % f.pretty())


def _pairing_gram(alg, alpha, rep):
    """Gram of <lambda, mu>_alpha on the power basis 1, beta, ..., beta^2n.

    Sym2 entry (i,j) is the top coefficient of alpha*beta^(i+j); the skew
    pairing multiplies by (-1)^n (-1)^j since tau(beta^j) = (-beta)^j.
    """
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
    """An operator on the standard space, self- or skew-adjoint per rep.

    Checks on construction that the operator has the claimed adjointness
    and that its characteristic polynomial is exactly f.
    """

    __slots__ = ("space", "rep", "op", "f")

    def __init__(self, space, rep, op, f):
        _check_tensor_rep(rep)
        d = space.dim
        if not op.is_square() or op.nrows != d:
            raise DimensionMismatch("operator must be %d x %d" % (d, d))
        if f.degree != d or not f.is_monic():
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
        self.f = f

    @property
    def n(self):
        return self.space.dim // 2

    def conjugate(self, g):
        """g T g^-1 for g in the orthogonal group of the space."""
        return OrbitRepresentative(self.space, self.rep,
                                   g * self.op * g.inv(), self.f)

    def __repr__(self):
        return "OrbitRepresentative(%s, f=%s)" % (self.rep, self.f.pretty())


def construct_representative(f, rep):
    """The distinguished orbit representative with charpoly f.

    Realizes multiplication by beta on L = Q[x]/(f): the pairing Gram on
    the power basis has the isotropic subspace span{1, ..., beta^(n-1)},
    which a hyperbolic completion turns into an isometry with the
    standard space; the companion matrix conjugates along it.
    """
    _check_tensor_rep(rep)
    _validate_charpoly(f, rep)
    d = f.degree
    n = (d - 1) // 2
    alg = EtaleAlgebra(f)
    base = QuadSpace(_pairing_gram(alg, alg.one(), rep))
    m_cols = []
    for i in range(n):
        col = [Fraction(0)] * d
        col[i] = Fraction(1)
        m_cols.append(tuple(col))
    u = hyperbolic_completion(base, m_cols)
    comp = Mat.companion(f)
    op = u.inv() * comp * u
    return OrbitRepresentative(standard_space(n), rep, op, f)


def _coerce_alpha(alg, alpha):
    if isinstance(alpha, EtaleElement):
        if alpha.alg != alg:
            raise RingMismatch("alpha lives in %r, expected %r"
                               % (alpha.alg, alg))
        return alpha
    return alg.const(Fraction(alpha))


def gram_alpha(f, alpha, rep):
    """The twisted quadratic space (L, <lambda,mu>_alpha) over Q.

    Sym2 wants N(alpha) a rational square; the skew case wants alpha
    tau-fixed with square norm.  Both keep det class (-1)^n.
    """
    _check_tensor_rep(rep)
    _validate_charpoly(f, rep)
    alg = EtaleAlgebra(f)
    alpha = _coerce_alpha(alg, alpha)
    if not alpha.is_unit():
        raise NonUnit("alpha must be a unit of L")
    if rep == ADJOINT and not is_tau_fixed(alpha):
        raise NotTauFixed("alpha must satisfy tau(alpha) = alpha")
    if not is_rational_square(alpha.norm()):
        raise NormNotSquare("N(alpha) = %s is not a rational square"
                            % alpha.norm())
    return QuadSpace(_pairing_gram(alg, alpha, rep))


def in_kernel_gamma(f, alpha, rep):
    """Whether the class of alpha gives a rational orbit with charpoly f.

    The twisted space splits exactly when the class dies in the
    cohomology of the full orthogonal group, so this is a split test.
    """
    return is_split_odd(gram_alpha(f, alpha, rep))


def _cyclic_candidates(d, tag):
    for i in range(d):
        col = [Fraction(0)] * d
        col[i] = Fraction(1)
        yield tuple(col)
    yield tuple(Fraction(1) for _ in range(d))
    rng = rng_for(tag)
    for _ in range(120):
        yield tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))


def _alpha_from_vector(orep, alg, base_gram, w):
    """alpha with top(alpha nu) matching <nu(T)w, w>, or None if w is not cyclic.

    Returns the pulled-back Gram too so the caller can cross-check it
    against the twisted pairing.
    """
    d = orep.space.dim
    op = orep.op
    pows = [w]
    for _ in range(d - 1):
        pows.append(op.apply(pows[-1]))
    kr = Mat.from_cols(pows)
    if kr.det() == 0:
        return None
    # <T^i w, T^j w> = K^T J K
    pulled = kr.transpose() * orep.space.gram * kr
    sign = -1 if orep.rep == ADJOINT and orep.n % 2 else 1
    alpha = alg.element(solve(base_gram, [sign * x for x in pulled.rows[0]]))
    return alpha, pulled


def recover_alpha(orep):
    """The unit of L = Q[x]/(f) carried by the operator.

    Searches for a cyclic vector w, reads off b_j = <T^j w, w>, and
    solves the base pairing for alpha; the pulled-back Gram is checked
    against gram_alpha exactly.  Well-defined up to c*tau(c) (skew) or
    squares (symmetric).  The cyclic vector lambda(T)w multiplies alpha
    by lambda^2, so for the symmetric pairing every cyclic vector gives
    the same square class and the first one is returned.  In the skew
    case lambda*tau(lambda) need not be a square, so among cyclic vectors
    we prefer one whose alpha is not provably a non-square, and the
    distinguished construction round-trips to a trivial class.  Most
    candidates are non-squares, so each is screened by every test of
    is_square but the lift (square_screen), and is_square decides only
    the ones nothing refutes.
    """
    f = orep.f
    if not is_separable(f):
        raise NonSeparable("charpoly %s is not separable" % f.pretty())
    alg = EtaleAlgebra(f)
    base_gram = _pairing_gram(alg, alg.one(), SYM2)
    first = None
    tested = 0
    for w in _cyclic_candidates(orep.space.dim, "cyclic:%s" % (f.c,)):
        got = _alpha_from_vector(orep, alg, base_gram, w)
        if got is None:
            continue
        alpha, pulled = got
        if not alpha.is_unit():
            raise NoCyclicVector("pulled-back pairing degenerate at a cyclic"
                                 " vector; charpoly %s" % f.pretty())
        twisted = _pairing_gram(alg, alpha, orep.rep)
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
                 "obstructed": "distinct"}


def same_orbit(o1, o2):
    """Decide whether two operators lie in one rational orbit.

    Differing characteristic polynomials settle it at once.  Otherwise
    the recovered units multiply to a class that must be trivial: a
    square for the symmetric pairing, a twisted norm c*tau(c) for the
    skew one.  The answer is a Verdict, "equal", "distinct" or
    "unknown", passing on the witness or certificate of the square /
    norm-equation test.  The square test always decides; only the bounded
    twisted-norm search can answer Unknown, an honest answer, never a
    guess.
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
    if v.status == "unknown":
        return Verdict("unknown", certificate="norm equation search exhausted")
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


def representative_from_alpha(f, alpha, rep):
    """An operator realizing the orbit of a kernel class alpha.

    Needs the twisted space to be split; the exact solver in quadform
    gives a maximal isotropic subspace in every odd dimension.
    Multiplication by beta is (skew-)self-adjoint for the twisted
    pairing as well, so the hyperbolic change of basis transports it to
    the standard space.
    """
    tw = gram_alpha(f, alpha, rep)
    if not is_split_odd(tw):
        raise NotSplit("the twisted space of alpha is not split; the class"
                       " is not in the kernel")
    u = hyperbolic_completion(tw, maximal_isotropic_subspace(tw))
    comp = Mat.companion(f)
    op = u.inv() * comp * u
    return OrbitRepresentative(standard_space((tw.dim - 1) // 2), rep, op, f)
