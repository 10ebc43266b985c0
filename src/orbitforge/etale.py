"""The algebra L = Q[x]/(f) for separable monic f, with involution support.

An element is an integer numerator vector over one positive denominator,
in lowest terms and reduced mod f; the Fraction coordinates are a view
built on first use. The modulus is read as f's own integer numerators F
over its denominator, so a product is an integer convolution and one
integer pseudo-division by F, the norm of a is the integer resultant
Res(f, a), a is a unit exactly when that norm is nonzero (f is
separable), and inverses and traces go through the integer multiplication
matrix. Every decision here is a Verdict, a status with its evidence.
Squareness in L* is decided: "true" carries an exactly verified witness,
"false" a norm, real-embedding or mod-p certificate, or the bound
certificate of one p-adic lift to a modulus computed from the input. The
real-embedding test is one Tarski query (the sum of the signs of a at the
real roots of f, by Sylvester's theorem), and roots are isolated only to
name one where a is negative. Ten probe primes q follow, each splitting
f mod q once by distinct degree and testing each part at once, a part of
one irreducible factor by the Legendre symbol of one resultant and one of
several by one power of a; only a part that fails is factored, to name a
non-residue factor. The lift runs from the first probe prime, on the
parts of that probe's split, as soon as a passes there, so a square is
decided by one split of f. The nine other probes run only when the lift
finds no root; since a square passes every probe, the verdict is the one
all ten probes before the lift would give. square_screen runs every test
but the lift, for callers whose inputs are mostly non-squares.

When f(-x) = -f(x), the algebra carries tau (x -> -x), splits as
Q x E with E = Q[x]/(g(x^2)), and K = Q[y]/(g) sits inside E as the
tau-fixed part. SkewData packages all of that with no second algebra for
E: the idempotent of the Q factor is g(x^2) / g(0), and E-components are
read in L. A bounded solver for the twisted norm equation r * tau(r) =
pi, used by orbit comparison, tries each c of its box once up to sign.
It sieves the candidates by their residues at a few degree-one places
of K, where a nonzero non-residue refutes a square, and filters the
survivors by integer resultants.
"""

import itertools
import math
import operator
from fractions import Fraction

from . import poly as P
from .arith import (
    is_prime,
    is_rational_square,
    legendre,
    rng_for,
)
from .errors import (
    Inconsistent,
    NonSeparable,
    NonUnit,
    NotMonic,
    NotOddPolynomial,
    NotTauFixed,
    ZeroDivisor,
)
from .matrix import Mat, solve
from .poly import Poly

# largest coefficient of the c in K that solve_tau_norm tries
TAU_NORM_HEIGHT = 3
# number of degree-one places of K that sieve solve_tau_norm's candidates
SIEVE_ROOTS = 6


class EtaleAlgebra:
    """Q[x]/(f) for monic separable f of degree >= 1.

    F and cf are f's integer numerators and denominator, so F = cf f is
    primitive with leading coefficient cf; every reduction mod f is a
    pseudo-division by F."""

    __slots__ = ("f", "disc", "deg", "F", "cf")

    def __init__(self, f):
        if not f.is_monic():
            raise NotMonic("modulus must be monic")
        if f.degree < 1:
            raise NonSeparable("modulus must have degree >= 1")
        d = P.discriminant(f)
        if d == 0:
            raise NonSeparable("modulus has a repeated root")
        self.f = f
        self.disc = d
        self.deg = f.degree
        self.F, self.cf = f.num, f.den

    def _reduce(self, A, den):
        """The element A / den for A a fresh integer list of any length
        (changed in place) and den > 0."""
        while A and A[-1] == 0:
            A.pop()
        if len(A) > self.deg:
            # cf^e A = Q F + R, and F is cf f
            _, A, e = P._pdivmod(A, self.F)
            den *= self.cf ** e
        return EtaleElement(self, A + [0] * (self.deg - len(A)), den)

    def element(self, coeffs):
        return self._reduce(*P._clear(coeffs))

    def from_poly(self, g):
        return self._reduce(list(g.num), g.den)

    def const(self, a):
        return self.element([a])

    def one(self):
        return self.const(1)

    def zero(self):
        return self.const(0)

    def beta(self):
        return self.element([0, 1])

    def random_element(self, rng, height=5):
        return self.element([rng.randint(-height, height) for _ in range(self.deg)])

    def __eq__(self, other):
        if isinstance(other, EtaleAlgebra):
            return self.f == other.f
        return NotImplemented

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return "EtaleAlgebra(%s)" % self.f.pretty()


class EtaleElement:
    """An element of L: integer numerators `num`, one per power of beta
    (reduced mod f), over one positive denominator `den`, in lowest terms.
    The pair is canonical, so equality and hashing compare it; `c` is the
    Fraction view, built on first use."""

    __slots__ = ("alg", "num", "den", "_c")

    def __init__(self, alg, num, den):
        g = math.gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        self.alg = alg
        self.num = tuple(num)
        self.den = den
        self._c = None

    @property
    def c(self):
        """The coordinates as Fractions."""
        if self._c is None:
            d = self.den
            self._c = tuple(Fraction(x, d) for x in self.num)
        return self._c

    def lift(self):
        return Poly.over(self.num, self.den)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, EtaleElement):
            return (self.num == other.num and self.den == other.den
                    and self.alg == other.alg)
        return NotImplemented

    def __hash__(self):
        return hash((self.alg.f, self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, EtaleElement):
            if other.alg is not self.alg and other.alg != self.alg:
                raise ZeroDivisor("elements of different algebras")
            return other
        return self.alg.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        return EtaleElement(self.alg, [ka * a + kb * b for a, b
                                       in zip(self.num, other.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return EtaleElement(self.alg, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, EtaleElement):
            n, d = Fraction(other).as_integer_ratio()
            return EtaleElement(self.alg, [a * n for a in self.num],
                                self.den * d)
        other = self._coerce(other)
        return self.alg._reduce(P._conv(self.num, other.num),
                                self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.alg.one()
        base = self
        if k < 0:
            base = base.inverse()
            k = -k
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_unit(self):
        """a is a unit iff gcd(a, f) = 1 iff N(a) = Res(f, a) != 0."""
        return self.norm() != 0

    def inverse(self):
        """Inverse in L: the x with (multiplication matrix) x = 1, by one
        fraction-free solve; ZeroDivisor if gcd(lift, f) is nontrivial,
        which is when no such x exists."""
        if not self:
            raise ZeroDivisor("zero is not invertible")
        try:
            x = solve(self.mult_matrix(), [1] + [0] * (self.alg.deg - 1))
        except Inconsistent:
            h = self.lift().gcd(self.alg.f)
            raise ZeroDivisor("element is a zero divisor: gcd = %s"
                              % h.pretty()) from None
        return self.alg.element(x)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def mult_matrix(self):
        """Matrix of multiplication by self on the power basis. Column
        i + 1 is beta times column i: with column i as integers over
        den cf^i, it is cf times the shifted column minus its top entry
        times F, over den cf^(i + 1)."""
        F, cf, d = self.alg.F, self.alg.cf, self.alg.deg
        cols = [list(self.num)]
        for _ in range(d - 1):
            v = cols[-1]
            cols.append([cf * x - v[-1] * y for x, y in zip([0] + v[:-1], F)])
        if cf != 1:
            cols = [[x * cf ** (d - 1 - i) for x in v]
                    for i, v in enumerate(cols)]
        return Mat(zip(*cols), self.den * cf ** (d - 1))

    def norm(self):
        """N(a) = Res(f, a), since f is monic."""
        return P.resultant(self.alg.f, self.lift())

    def trace(self):
        return self.mult_matrix().trace()

    def top_coeff(self):
        """Coefficient of beta^(deg-1) in the reduced representative."""
        return Fraction(self.num[-1], self.den)

    def __repr__(self):
        return "EtaleElement(%s)" % self.lift().pretty("b")


def apply_tau(a):
    """The involution x -> -x; requires f(-x) = -f(x)."""
    if any(a.alg.F[0::2]):
        raise NotOddPolynomial("modulus is not of the form x*g(x^2)")
    return EtaleElement(
        a.alg, [-v if k % 2 else v for k, v in enumerate(a.num)], a.den)


def is_tau_fixed(a):
    return not any(a.num[1::2])


class Verdict:
    """A decision with its evidence: "true", "solved" and "equal" carry
    a witness, "false", "obstructed" and "distinct" a non-empty
    certificate string, and "unknown" may carry one naming what ran out.
    Constructing a verdict without its evidence, or with any other
    status, raises ValueError."""

    __slots__ = ("status", "witness", "certificate")

    def __init__(self, status, witness=None, certificate=None):
        if status not in ("true", "solved", "equal", "false", "obstructed",
                          "distinct", "unknown"):
            raise ValueError("unknown verdict status %r" % (status,))
        if status in ("true", "solved", "equal") and witness is None:
            raise ValueError("verdict %r needs a witness" % status)
        if status in ("false", "obstructed", "distinct") and not certificate:
            raise ValueError("verdict %r needs a certificate" % status)
        self.status = status
        self.witness = witness
        self.certificate = certificate

    def __repr__(self):
        return "Verdict(%s, witness=%r, certificate=%r)" % (
            self.status, self.witness, self.certificate)


def _good_primes(alg, avoid, count):
    """First `count` odd primes keeping f separable and `avoid` a unit."""
    disc = alg.disc
    bad = 2 * alg.cf * disc.numerator * disc.denominator * avoid
    out, p = [], 3
    while len(out) < count:
        if is_prime(p) and bad % p != 0:
            out.append(p)
        p += 2
    return out


def _mulmod(a, b, F, m):
    return P.fp_mod(P.fp_mul(a, b, m), F, m)


def _hensel_sqrt(r, A, F, p, m):
    """Lift a square root r of A mod (p, F) to one mod (m, F), m = p^(2^j).

    F is monic with integer coefficients, so reduction mod (m, F) is
    exact. Each Newton step squares the modulus; the inverse of 2r is lifted
    alongside.
    """
    s = P.fp_invmod([2 * x for x in r], F, p)
    q = p
    while q < m:
        q *= q
        err = P.fp_sub(_mulmod(r, r, F, q), A, q)
        r = P.fp_sub(r, _mulmod(err, s, F, q), q)
        ts = _mulmod([2 * x for x in r], s, F, q)
        s = P.fp_sub([2 * x for x in s], _mulmod(s, ts, F, q), q)
    return r


def _part_is_residue(A, e, h, q):
    """Whether the unit A is a square in every factor field of F_q[x]/(h),
    h monic, the product of the irreducible factors of degree e.

    Euler: A is a square mod one such factor h' iff A^((q^e - 1)/2) = 1
    there, and that power is N(A)^((q - 1)/2), N(A) = Res(h', A) mod q.
    One factor (deg h = e) takes the Legendre symbol of one resultant;
    several (so e <= deg f / 2, and the power is cheap) the power mod h.
    """
    if len(h) - 1 == e:
        return legendre(P.fp_resultant(h, A, q), q) == 1
    return P.fp_powmod(A, (q ** e - 1) // 2, h, q) == [1]


def _exact_tests(a):
    """(verdict, probes): is_square's verdict from a alone, or None and
    the ten probe primes of a, odd, prime to disc(f) and making a a unit.
    A constant of an odd-degree algebra is decided at once, and a
    non-square norm or a negative value at a real root of f is a "false".
    """
    if not isinstance(a, EtaleElement):
        raise TypeError("is_square expects an EtaleElement")
    n = a.norm()
    if n == 0:
        raise NonUnit("is_square needs a unit of L")
    alg = a.alg
    # constants in an odd-degree algebra: square iff a rational square
    # (some factor field has odd degree, where sqrt of a rational is rational)
    if alg.deg % 2 == 1 and not any(a.num[1:]):
        c = a.c[0]
        if is_rational_square(c):
            r = Fraction(math.isqrt(c.numerator), math.isqrt(c.denominator))
            return Verdict("true", witness=alg.const(r)), None
        return Verdict(
            "false", certificate="constant %s is not a rational square" % c
        ), None
    if not is_rational_square(n):
        return Verdict(
            "false", certificate="norm %s is not a rational square" % n
        ), None
    # real-embedding certificates: a must be positive at every real root
    # of f, which holds exactly when the Tarski query TaQ(a, f) counts them
    # all; only a failing query isolates the roots, to name one
    f, g = alg.f, a.lift()
    if P.tarski_query(g, f) != P.count_real_roots(f):
        iv = next(iv for iv, (s,) in P.signs_at_roots([g], f) if s < 0)
        return Verdict(
            "false",
            certificate="negative at the real root of f in (%s, %s]" % iv,
        ), None
    return None, _good_primes(alg, (n * a.den ** (2 * alg.deg)).numerator, 10)


def _probe(a, q):
    """(parts, verdict) at the probe prime q: the distinct-degree split of
    f mod q, and the "false" of a non-residue factor, or None.

    One non-residue component anywhere is a sound certificate, since a
    square root would reduce mod q there. Each part h_e is tested at once
    (_part_is_residue), and only a failing part is factored, to name the
    factor."""
    A = [v * a.den for v in a.num]  # t^2 a
    Aq = [x % q for x in A]
    parts = P.fp_distinct_degree([x % q for x in a.alg.F], q)
    factors = next((P.fp_equal_degree(h, e, q) for e, h in parts
                    if not _part_is_residue(Aq, e, h, q)), [])
    for h in factors:
        if legendre(P.fp_resultant(h, A, q), q) == -1:
            return parts, Verdict(
                "false",
                certificate="non-residue in the factor %s mod %d"
                % (Poly(h).pretty(), q),
            )
    return parts, None


def _first_refutation(a, primes):
    """The verdict of the first of `primes` whose probe refutes a, or None."""
    for q in primes:
        v = _probe(a, q)[1]
        if v is not None:
            return v
    return None


def square_screen(a):
    """Every test of is_square but the lift, in is_square's order: the
    verdict of the first that decides a, or None when a passes them all.

    A caller whose inputs are mostly non-squares screens with this first
    and asks is_square only when nothing refutes: a non-square that passes
    the first probe is then refuted by a later probe instead of by a
    p-adic lift."""
    v, probes = _exact_tests(a)
    return v or _first_refutation(a, probes)


def is_square(a):
    """Decide whether a is a square in L*.

    Returns a Verdict: "true" with an exactly verified witness, or
    "false" with a certificate string. After the exact tests, f is split
    at the first probe prime p; if a passes there, its square root is
    lifted from p at once, and a square is decided by that one split. Only
    when the lift finds no root are the nine other probes run, in order,
    and a non-residue at one of them is the certificate; the lift's bound
    is the certificate when every probe passes. A square passes every
    probe, so the verdict is the one of all ten probes before the lift.
    """
    v, probes = _exact_tests(a)
    if v is not None:
        return v
    p = probes[0]
    parts, v = _probe(a, p)
    if v is not None:
        return v
    # the parts come in increasing degree, so this is fp_factor's order
    first = [h for e, part in parts for h in P.fp_equal_degree(part, e, p)]
    A = [x * a.den % p for x in a.num]
    rng = rng_for("is_square:%s:%s:ts" % (a.alg.f.c, a.c))
    roots = [P.fpx_sqrt(A, h, p, rng) for h in first]
    v = _lift_decision(a, a.den, a.alg.F, p, first, roots)
    if v.status == "true":
        return v
    return _first_refutation(a, probes[1:]) or v


def _lift_decision(a, t, fI, p, factors, roots):
    """Decide a, a square at the first probe p, by one p-adic lift from
    p, where `roots` are the square roots of t^2 a (theta basis) in the
    factors of f mod p.

    Integral model: with c the denominator of f, the monic integral
    F(x) = c^d f(x/c) (poly.integral_model) has the root theta' = c theta,
    and a has coefficients a_k / c^k in the theta' basis; with t2 the lcm
    of their denominators, A = t2^2 a is integral.

    Bound: a square root w of A is integral and F'(theta') O_L lies in
    Z[theta'], so g = F'(theta') w has integer coefficients. By Lagrange,
    g = sum_i w(theta_i) prod_{j != i} (x - theta_j) over the roots of F.
    Every |theta_i| <= R = 1 + max|F_k| (Cauchy), so |w(theta_i)|^2 =
    |A(theta_i)| <= S = sum |A_k| R^k, and every coefficient of g is at
    most G = d (1 + R)^(d - 1) (isqrt(S) + 1).

    Lift: p is odd, prime to disc(F), and A is a p-unit, so Z_p[theta']
    is the maximal order, split along the factors of F mod p, and in each
    factor A has exactly the two square roots lifting +-r_i. Each sign
    branch (global sign folded out) is Newton-lifted once to p^k > 2G.
    A square root w lies on one branch up to sign, so the symmetric
    residues of F'(theta') r mod (p^k, F) are +-g exactly, and w = g /
    F'(theta') passes the check w^2 == A. No branch passing certifies
    that a is not a square.
    """
    alg, d = a.alg, a.alg.deg
    c = alg.cf
    M = alg if c == 1 else EtaleAlgebra(P.integral_model(alg.f))
    F = M.F
    # a has coefficients a_k / c^k = a2[k] / den in the theta' basis
    a2 = [x * c ** (d - 1 - k) for k, x in enumerate(a.num)]
    den = t * c ** (d - 1)
    t2 = den // math.gcd(den, *a2)
    A_int = [x * t2 * t2 // den for x in a2]
    A = EtaleElement(M, A_int, 1)
    R = int(P.root_bound(M.f))
    S = sum(abs(x) * R ** i for i, x in enumerate(A_int))
    G = d * (1 + R) ** (d - 1) * (math.isqrt(S) + 1)
    k = 1
    while p ** k <= 2 * G:
        k *= 2
    m = p ** k
    dF = P._derivative(F)
    dF_inv = M.element(dF).inverse()
    # CRT basis: u_i = 1 mod h_i, 0 mod h_j (j != i), computed mod (p, f)
    fbar = [x % p for x in fI]
    crt_units = []
    for h in factors:
        rest = P.fp_divmod(fbar, h, p)[0]
        crt_units.append(P.fp_mul(rest, P.fp_invmod(rest, h, p), p))
    for signs in itertools.product((1, -1), repeat=len(factors) - 1):
        r0 = []
        for s, r, u in zip((1,) + signs, roots, crt_units):
            r0 = P.fp_add(r0, P.fp_mul([s * x for x in r], u, p), p)
        # into the theta' basis, as a root of A = (t2 / t)^2 t^2 a
        r0 = [t2 * x * pow(t * c ** i, -1, p) % p
              for i, x in enumerate(P.fp_mod(r0, fbar, p))]
        g = _mulmod(_hensel_sqrt(r0, A_int, F, p, m), dF, F, m)
        w = M.element([x - m if 2 * x > m else x for x in g]) * dF_inv
        if w * w == A:
            witness = EtaleElement(
                alg, [x * c ** i for i, x in enumerate(w.num)], w.den * t2)
            assert witness * witness == a
            return Verdict("true", witness=witness)
    return Verdict(
        "false",
        certificate="no square root of height <= %d modulo %d^%d" % (G, p, k),
    )


# ---------------------------------------------------------------------------
# the odd-symmetric case: L = k x E, K = tau-fixed part of E


class SkewData:
    """Decomposition data for f = x*g(x^2).

    L = Q[x]/(f) splits as Q x E with E = Q[x]/(g(x^2)); K = Q[y]/(g)
    embeds in E by y -> x^2. No algebra is built for E: its components
    are read in L, through the split idempotents e_k = g(x^2) / g(0),
    which is 1 at x = 0 and 0 mod g(x^2) (g(0) != 0 as f is separable),
    and e_E = 1 - e_k.
    """

    __slots__ = ("L", "g", "K", "e_E", "e_k")

    def __init__(self, L):
        f = L.f
        if any(f.num[0::2]):
            raise NotOddPolynomial("modulus is not of the form x*g(x^2)")
        self.L = L
        self.g = P.even_part(f)
        self.K = EtaleAlgebra(self.g)
        # g(x^2) / g(0) = sum f_(2k+1) x^(2k) / f_1, in f's numerators
        s = 1 if f.num[1] > 0 else -1
        num = [0] * L.deg
        num[0::2] = [s * c for c in f.num[1::2]]
        self.e_k = EtaleElement(L, num, s * f.num[1])
        self.e_E = L.one() - self.e_k

    def __repr__(self):
        return "SkewData(f=%s)" % self.L.f.pretty()


def skew_data(L):
    return SkewData(L)


def k_component(a):
    """Image of a in the Q factor of L = Q x E (evaluation at 0)."""
    return Fraction(a.num[0], a.den)


def K_component(skew, a):
    """The K-part of a tau-fixed element's E-component.

    a = A(x^2) with deg A <= n, and its E-component is (A mod g)(x^2).
    Raises NotTauFixed when a has odd terms.
    """
    if not is_tau_fixed(a):
        raise NotTauFixed("element is not fixed by the involution")
    return skew.K._reduce(list(a.num[0::2]), a.den)


def assemble(skew, c_k, e):
    """Element of L with k-component c_k and the E-component of e in L."""
    return skew.e_k * c_k + e * skew.e_E


def embed_pair(skew, kappa, c_k=1):
    """The element (c_k, kappa) of L = Q x E with kappa in K."""
    num = [0] * (2 * skew.K.deg)
    num[::2] = kappa.num
    return assemble(skew, c_k, skew.L._reduce(num, kappa.den))


def _degree_one_places(K):
    """Up to SIEVE_ROOTS pairs (q, y), y a root of G = K.F mod q, for the
    primes 11 <= q < 100 prime to 2 lc(G) disc(g), in increasing order,
    found by evaluating G at every y mod q.

    Such a q makes g integral and separable mod q, so each root is simple
    and theta -> y is the residue map of a degree-one place of K: an
    element r(theta), r an integer list, that is a square in K has r(y) a
    square mod q, or zero."""
    disc = K.disc
    bad = 2 * K.cf * disc.numerator * disc.denominator
    out = []
    for q in range(11, 100, 2):
        if not is_prime(q) or bad % q == 0:
            continue
        vals = [K.F[-1] % q] * q
        for a in reversed(K.F[:-1]):
            vals = [(v * y + a) % q for y, v in enumerate(vals)]
        out += [(q, y) for y, v in enumerate(vals) if v == 0]
        if len(out) >= SIEVE_ROOTS:
            break
    return out[:SIEVE_ROOTS]


def _tau_candidates(K, piK, places):
    """(c, r, N) for the c in K with coefficients at most TAU_NORM_HEIGHT
    in absolute value that no place of `places` refutes: c = 0 first,
    then by height, one of each pair +-c: the one whose first nonzero
    coefficient is negative, which is the one the lexicographic order of
    the box reaches first. c and -c give the same y c^2, so the same r
    and N.

    c is an integer tuple, r = t^2 (piK + y c^2) an integer list over t^2
    (t = piK.den) and N = Res(G, r) / cg^deg(r) = t^(2n) N(piK + y c^2),
    where G = cg g is g cleared to integers: a nonzero rational square
    exactly when the norm of piK + y c^2 is. r = [] and N = 0 when
    piK + y c^2 is zero.

    A place (q, y) refutes c when r(y) is a nonzero non-residue mod q, so
    that piK + y c^2 is not a square. r(y) is read as t^2 piK(y) + t^2 y
    c(y)^2 mod q for the c of one height at a time, before any r is
    built. A zero refutes nothing.
    """
    G, cg, n = K.F, K.cf, K.deg
    t = piK.den
    tA = [t * x for x in piK.num] + [0] * n  # t^2 piK; y c^2 has 2n terms
    tt = t * t
    # per place: the powers of y, t^2 piK(y) and t^2 y mod q, and the
    # squares mod q, 0 among them
    sieve = []
    for q, y in places:
        ys = [pow(y, k, q) for k in range(n)]
        sieve.append((q, ys, t * sum(map(operator.mul, piK.num, ys)) % q,
                      tt * y % q, {v * v % q for v in range(q // 2 + 1)}))
    zero = (0,) * n
    for h in range(TAU_NORM_HEIGHT + 1):
        # c <= zero: c is 0 or its first nonzero coefficient is negative
        cs = [c for c in itertools.product(range(-h, h + 1), repeat=n)
              if c <= zero and max(map(abs, c)) == h]
        for q, ys, a, b, squares in sieve:
            cs = [c for c in cs if (a + b * sum(map(operator.mul, c, ys)) ** 2)
                  % q in squares]
        for c in cs:
            r = tA[:]
            for k, v in enumerate(P._conv(c, c)):
                r[k + 1] += tt * v
            while r and r[-1] == 0:
                r.pop()
            N = (Fraction(P._int_resultant(G, r), cg ** (len(r) - 1))
                 if r else 0)
            yield c, r, N


def solve_tau_norm(skew, pi):
    """Bounded search for r in L* with r * tau(r) = pi (pi tau-fixed).

    Decomposes the equation: the k-part needs pi(0) to be a rational
    square; the E-part a^2 - y*c^2 = pi_K is attacked by enumerating the
    c in K with coefficients at most TAU_NORM_HEIGHT in absolute value, up
    to sign, and testing squareness of pi_K + y*c^2. The sign adds
    nothing: a + beta c and a - beta c have the same r tau(r), and the c
    kept comes first in the box, so the first solution found is the one
    the whole box gives. Each candidate is first sieved at the degree-one
    places of K above a few small primes (_degree_one_places): a nonzero
    non-residue there means pi_K + y*c^2 is not a square, so is_square
    would answer "false", and the candidate is skipped before its norm is
    computed. Skipping only candidates that can never be solved keeps
    every verdict, witness and certificate of the unsieved box. A
    surviving candidate stays an integer list, and its norm is one
    integer resultant against g cleared (_tau_candidates); an element of
    K is built, and is_square called, only when that norm is a nonzero
    rational square. Sound obstructions: pi(0) not a rational
    square, or pi_K negative at a real root y0 < 0 of g (there E is
    locally C and norms are positive), counted by Tarski queries.

    Returns a Verdict: "solved" with the witness r, "obstructed" with a
    certificate, or "unknown" when the box is exhausted.
    """
    if not pi.is_unit():
        raise NonUnit("pi must be a unit")
    if apply_tau(pi) != pi:
        raise NotTauFixed("pi must be tau-fixed")
    pk = k_component(pi)
    if not is_rational_square(pk):
        return Verdict(
            "obstructed",
            certificate="k-component %s is not a rational square" % pk,
        )
    piK = K_component(skew, pi)
    # pi_K negative at a root y0 < 0 of g obstructs: E is complex over that
    # real place of K, so norms are positive there.  Neither sign is 0
    # (g(0) != 0 as f is separable, and pi_K is a unit), so such roots
    # number the sum of (1 - sign y)(1 - sign pi_K) / 4 over the real
    # roots of g, four Tarski queries; only when there is one are the
    # roots isolated, once, to name the first
    g, y, s = skew.g, Poly.x(), piK.lift()
    if (P.count_real_roots(g) - P.tarski_query(y, g) - P.tarski_query(s, g)
            + P.tarski_query(y * s, g)):
        iv = next(iv for iv, (sy, sp) in P.signs_at_roots([y, s], g)
                  if sy < 0 and sp < 0)
        return Verdict(
            "obstructed",
            certificate="negative at a real root of g in (%s, %s] "
            "where the quadratic extension is complex" % iv,
        )
    rk = Fraction(math.isqrt(pk.numerator), math.isqrt(pk.denominator))
    tt = piK.den ** 2
    places = _degree_one_places(skew.K)
    for c, r, N in _tau_candidates(skew.K, piK, places):
        # is_square answers "false" unless N(piK + y c^2) is a nonzero
        # square
        if N == 0 or not is_rational_square(N):
            continue
        dec = is_square(skew.K._reduce(r, tt))
        if dec.status == "true":
            # root = a(beta^2) + beta*c(beta^2) on E, sqrt(pk) on k
            aK = dec.witness
            num = [0] * (2 * skew.K.deg)
            num[0::2] = aK.num
            num[1::2] = [aK.den * x for x in c]
            root = assemble(skew, rk, skew.L._reduce(num, aK.den))
            if root * apply_tau(root) == pi:
                return Verdict("solved", witness=root)
    return Verdict("unknown")
