"""The algebra L = Q[x]/(f) for separable monic f, with involution support.

Elements are coefficient vectors over Fraction, always kept reduced mod f.
Norms and traces go through the multiplication matrix. Squareness in L* is
a semi-decision: certified True (exact witness), certified False (norm,
real-embedding, or mod-p certificate), or Unknown when the p-adic lift
does not reconstruct within the precision budget.

When f(-x) = -f(x), the algebra carries tau (x -> -x), splits as
Q x E with E = Q[x]/(g(x^2)), and K = Q[y]/(g) sits inside E as the
tau-fixed part. SkewData packages all of that, plus a bounded solver for
the twisted norm equation r * tau(r) = pi used by orbit comparison.
"""

import itertools
import math
from fractions import Fraction

from . import poly as P
from .arith import (
    is_prime,
    is_rational_square,
    rational_reconstruction,
    rng_for,
)
from .errors import (
    NonSeparable,
    NonUnit,
    NotOddPolynomial,
    NotTauFixed,
    ZeroDivisor,
    ZeroInput,
)
from .matrix import Mat
from .poly import Poly


class EtaleAlgebra:
    """Q[x]/(f) for monic separable f of degree >= 1."""

    __slots__ = ("f", "disc", "deg")

    def __init__(self, f):
        if not f.is_monic():
            raise NonSeparable("modulus must be monic")
        if f.degree < 1:
            raise NonSeparable("modulus must have degree >= 1")
        d = P.discriminant(f)
        if d == 0:
            raise NonSeparable("modulus has a repeated root")
        self.f = f
        self.disc = d
        self.deg = f.degree

    def element(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.deg:
            return self.from_poly(Poly(c))
        c += [Fraction(0)] * (self.deg - len(c))
        return EtaleElement(self, tuple(c))

    def from_poly(self, g):
        r = g % self.f
        return self.element(list(r.c))

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
    __slots__ = ("alg", "c")

    def __init__(self, alg, c):
        self.alg = alg
        self.c = c

    def lift(self):
        return Poly(self.c)

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, EtaleElement):
            return self.alg == other.alg and self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash((self.alg.f, self.c))

    def _coerce(self, other):
        if isinstance(other, EtaleElement):
            if other.alg != self.alg:
                raise ZeroDivisor("elements of different algebras")
            return other
        return self.alg.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        return EtaleElement(self.alg, tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return EtaleElement(self.alg, tuple(-a for a in self.c))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, EtaleElement):
            q = Fraction(other)
            return EtaleElement(self.alg, tuple(a * q for a in self.c))
        if other.alg != self.alg:
            raise ZeroDivisor("elements of different algebras")
        return self.alg.from_poly(self.lift() * other.lift())

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
        return self.lift().gcd(self.alg.f).degree == 0 if self else False

    def inverse(self):
        """Inverse in L; ZeroDivisor if gcd(lift, f) is nontrivial."""
        if not self:
            raise ZeroDivisor("zero is not invertible")
        r0, r1 = self.alg.f, self.lift()
        s0, s1 = Poly(), Poly([1])
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ZeroDivisor("element is a zero divisor: gcd = %s" % r0.pretty())
        return self.alg.from_poly(s0 * (1 / r0[0]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def mult_matrix(self):
        """Matrix of multiplication by self on the power basis."""
        cols = []
        for i in range(self.alg.deg):
            cols.append(list((self * self.alg.element([0] * i + [1])).c))
        return Mat.from_cols(cols)

    def norm(self):
        return self.mult_matrix().det()

    def trace(self):
        return self.mult_matrix().trace()

    def top_coeff(self):
        """Coefficient of beta^(deg-1) in the reduced representative."""
        return self.c[-1]

    def __repr__(self):
        return "EtaleElement(%s)" % Poly(self.c).pretty("b")


def apply_tau(a):
    """The involution x -> -x; requires f(-x) = -f(x)."""
    f = a.alg.f
    if any(f[k] != 0 for k in range(0, f.degree + 1, 2)):
        raise NotOddPolynomial("modulus is not of the form x*g(x^2)")
    return EtaleElement(
        a.alg, tuple(-v if k % 2 else v for k, v in enumerate(a.c))
    )


def is_tau_fixed(a):
    return all(v == 0 for k, v in enumerate(a.c) if k % 2)


class SquareDecision:
    """Outcome of is_square: status 'true'/'false'/'unknown'.

    True carries a witness with witness^2 = a (verified before return);
    False carries a human-readable certificate string.
    """

    __slots__ = ("status", "witness", "certificate")

    def __init__(self, status, witness=None, certificate=None):
        self.status = status
        self.witness = witness
        self.certificate = certificate

    def is_true(self):
        return self.status == "true"

    def is_false(self):
        return self.status == "false"

    def is_unknown(self):
        return self.status == "unknown"

    def __repr__(self):
        if self.status == "true":
            return "SquareDecision(true, witness=%r)" % (self.witness,)
        if self.status == "false":
            return "SquareDecision(false, %s)" % (self.certificate,)
        return "SquareDecision(unknown)"


def _good_prime(f, avoid, start=3):
    """Smallest odd prime keeping f separable and `avoid` a unit."""
    fI, cf = f.integer_cleared()
    disc_num = P.discriminant(f)
    bad = 2 * cf * disc_num.numerator * disc_num.denominator * avoid
    p = max(start, 3)
    if p % 2 == 0:
        p += 1
    while True:
        if is_prime(p) and bad % p != 0:
            return p
        p += 2


def _zm_mul(a, b, fI, m):
    """Product of integer coefficient lists modulo (f, m), f monic integer."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    d = len(fI) - 1
    for k in range(len(out) - 1, d - 1, -1):
        t = out[k]
        if t:
            out[k] = 0
            for i in range(d):
                out[k - d + i] = (out[k - d + i] - t * fI[i]) % m
    out = out[:d]
    while out and out[-1] == 0:
        out.pop()
    return out


def _zm_sub(a, b, m):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _local_roots(A_int, fI, p, rng_tag):
    """Square roots of A in each factor of L mod a good prime p.

    Returns (factors, roots), or (None, bad_factor) when some component
    of A is a non-residue, which certifies A is not a square in L.
    """
    factors = P.fp_factor([x % p for x in fI], p, tag=rng_tag)
    roots = []
    rng = rng_for(rng_tag + ":ts")
    for h in factors:
        r = P.fpx_sqrt([x % p for x in A_int], h, p, rng)
        if r is None:
            return None, h
        roots.append(r)
    return factors, roots


def _sqrt_lift_candidates(A_int, fI, p, exponent, rng_tag):
    """All p-adic square roots of A mod (p^exponent-ish, f), by CRT branch.

    A_int: integer coefficient list of a p-unit square candidate.
    Yields (coeff list, modulus) pairs, one per sign branch (up to the
    global sign, which is folded out).
    """
    factors, roots = _local_roots(A_int, fI, p, rng_tag)
    if factors is None:
        return None, roots
    # CRT basis: u_i = 1 mod h_i, 0 mod h_j (j != i), computed mod (p, f)
    fbar = [x % p for x in fI]
    crt_units = []
    for h in factors:
        rest = P.fp_divmod(fbar, h, p)[0]
        inv = P.fp_invmod(rest, h, p)
        crt_units.append(P.fp_mod(P.fp_mul(rest, inv, p), fbar, p))
    # target precision: chain 1 -> 2 -> 4 ... >= exponent
    chain = [1]
    while chain[-1] < exponent:
        chain.append(chain[-1] * 2)
    m_final = p ** chain[-1]
    out = []
    signs_pool = [(1,) + s for s in itertools.product((1, -1), repeat=len(factors) - 1)]
    for signs in signs_pool:
        r0 = []
        for s, r, u in zip(signs, roots, crt_units):
            term = P.fp_mul([x * s % p for x in r], u, p)
            r0 = P.fp_add(r0, term, p)
        r0 = P.fp_mod(r0, fbar, p)
        # Newton lift with coupled inverse of 2r
        s0 = P.fp_invmod([2 * x % p for x in r0], fbar, p)
        r_cur = [x % p for x in r0]
        s_cur = [x % p for x in s0]
        for k in chain[1:]:
            m = p**k
            r2 = _zm_mul(r_cur, r_cur, fI, m)
            diff = _zm_sub(r2, [x % m for x in A_int], m)
            corr = _zm_mul(diff, s_cur, fI, m)
            r_cur = _zm_sub(r_cur, corr, m)
            two_r = [2 * x % m for x in r_cur]
            ts = _zm_mul(two_r, s_cur, fI, m)
            s_cur = _zm_sub([2 * x % m for x in s_cur], _zm_mul(s_cur, ts, fI, m), m)
        out.append((r_cur, m_final))
    return out, None


def is_square(a, precision=40):
    """Semi-decide whether a is a square in L*.

    Returns a SquareDecision. A 'true' answer always carries an exactly
    verified witness; a 'false' answer carries a certificate string.
    """
    if not isinstance(a, EtaleElement):
        raise TypeError("is_square expects an EtaleElement")
    if not a.is_unit():
        raise NonUnit("is_square needs a unit of L")
    alg = a.alg
    # constants in an odd-degree algebra: square iff a rational square
    # (some factor field has odd degree, where sqrt of a rational is rational)
    if alg.deg % 2 == 1 and all(v == 0 for v in a.c[1:]):
        c = a.c[0]
        if is_rational_square(c):
            r = Fraction(math.isqrt(c.numerator), math.isqrt(c.denominator))
            return SquareDecision("true", witness=alg.const(r))
        return SquareDecision(
            "false", certificate="constant %s is not a rational square" % c
        )
    n = a.norm()
    if not is_rational_square(n):
        return SquareDecision(
            "false", certificate="norm %s is not a rational square" % n
        )
    # real-embedding certificates: a must be nonnegative at every real root
    lift = a.lift()
    for iv in P.isolate_real_roots(alg.f):
        if P.sign_at_root(lift, alg.f, iv) < 0:
            return SquareDecision(
                "false",
                certificate="negative at the real root of f in (%s, %s]" % iv,
            )
    # p-adic lift + rational reconstruction
    t = 1
    for v in a.c:
        t = t * v.denominator // math.gcd(t, v.denominator)
    A = a * (t * t)  # integral now; witness scales back by 1/t
    A_int = [v.numerator for v in A.lift().c]
    nA = A.norm()
    fI = [x.numerator for x in alg.f.integer_cleared()[0].c]
    tag = "is_square:%s:%s" % (alg.f.c, a.c)
    # probe a run of good primes: one non-residue component anywhere is a
    # sound certificate, since the witness would reduce mod p there
    probes = []
    start = 3
    while len(probes) < 10:
        q = _good_prime(alg.f, abs(nA.numerator), start=start)
        probes.append(q)
        start = q + 1
    for q in probes:
        factors, bad = _local_roots(A_int, fI, q, tag)
        if factors is None:
            return SquareDecision(
                "false",
                certificate="non-residue in the factor %s mod %d"
                % (Poly(bad).pretty(), q),
            )
    p = probes[0]
    exponent = precision
    for _attempt in range(3):
        cands, bad_factor = _sqrt_lift_candidates(A_int, fI, p, exponent, tag)
        if cands is None:
            return SquareDecision(
                "false",
                certificate="non-residue in the factor %s mod %d"
                % (Poly(bad_factor).pretty(), p),
            )
        for r_coeffs, m in cands:
            rec = []
            ok = True
            for i in range(alg.deg):
                x = r_coeffs[i] if i < len(r_coeffs) else 0
                v = rational_reconstruction(x, m)
                if v is None:
                    ok = False
                    break
                rec.append(v)
            if not ok:
                continue
            w = alg.element(rec)
            if w * w == A:
                return SquareDecision("true", witness=w / t)
        exponent *= 2
    return SquareDecision("unknown")


# ---------------------------------------------------------------------------
# the odd-symmetric case: L = k x E, K = tau-fixed part of E


class SkewData:
    """Decomposition data for f = x*g(x^2).

    L = Q[x]/(f) splits as Q x E with E = Q[x]/(g(x^2)); K = Q[y]/(g)
    embeds in E by y -> x^2. e_E and e_k are the split idempotents in L.
    """

    __slots__ = ("L", "g", "K", "E", "e_E", "e_k")

    def __init__(self, L):
        f = L.f
        if any(f[k] != 0 for k in range(0, f.degree + 1, 2)):
            raise NotOddPolynomial("modulus is not of the form x*g(x^2)")
        self.L = L
        self.g = Poly([f[2 * k + 1] for k in range((f.degree + 1) // 2)])
        self.K = EtaleAlgebra(self.g)
        h = self.g.compose(Poly([0, 0, 1]))  # g(x^2)
        self.E = EtaleAlgebra(h)
        # idempotent e_E: 0 mod x, 1 mod g(x^2), so e_E = x*u(x) with
        # u the inverse of x modulo g(x^2) (exists: g(0) != 0).
        u = self.E.element([0, 1]).inverse()
        self.e_E = L.from_poly(Poly([0, 1]) * u.lift())
        self.e_k = L.one() - self.e_E
        assert self.e_E * self.e_E == self.e_E

    def __repr__(self):
        return "SkewData(f=%s)" % self.L.f.pretty()


def skew_data(L):
    return SkewData(L)


def k_component(a):
    """Image of a in the Q factor of L = Q x E (evaluation at 0)."""
    return a.lift()(0)


def embed_K(skew, kappa):
    """Image in E of kappa in K under y -> x^2."""
    return skew.E.from_poly(kappa.lift().compose(Poly([0, 0, 1])))


def E_component(skew, a):
    """Image of a in the E factor of L."""
    return skew.E.from_poly(a.lift() % skew.E.f)


def K_component(skew, a):
    """The K-part of a tau-fixed element's E-component.

    Raises NotTauFixed when the E-component has odd terms.
    """
    e = E_component(skew, a)
    if any(v != 0 for k, v in enumerate(e.c) if k % 2):
        raise NotTauFixed("element is not fixed by the involution")
    return skew.K.element([e.c[2 * k] for k in range(skew.K.deg)])


def assemble(skew, c_k, e_elem):
    """Element of L with k-component c_k and E-component e_elem."""
    a = skew.L.const(c_k) * skew.e_k
    b = skew.L.from_poly(e_elem.lift()) * skew.e_E
    return a + b


def embed_pair(skew, kappa, c_k=1):
    """The element (c_k, kappa) of L = Q x E with kappa in K."""
    return assemble(skew, c_k, embed_K(skew, kappa))


class TauNormOutcome:
    """Result of the twisted norm equation r*tau(r) = pi.

    status 'solved' (witness r), 'obstructed' (sound certificate that no
    solution exists), or 'unknown' (bounded search exhausted).
    """

    __slots__ = ("status", "witness", "certificate")

    def __init__(self, status, witness=None, certificate=None):
        self.status = status
        self.witness = witness
        self.certificate = certificate

    def __repr__(self):
        return "TauNormOutcome(%s)" % self.status


def solve_tau_norm(skew, pi, height=3, precision=40):
    """Bounded search for r in L* with r * tau(r) = pi (pi tau-fixed).

    Decomposes the equation: the k-part needs pi(0) to be a rational
    square; the E-part a^2 - y*c^2 = pi_K is attacked by enumerating small
    c in K and testing squareness of pi_K + y*c^2. Sound obstructions:
    pi(0) not a rational square, or pi_K negative at a real root y0 < 0
    of g (there E is locally C and norms are positive).
    """
    L = skew.L
    if not pi.is_unit():
        raise NonUnit("pi must be a unit")
    if apply_tau(pi) != pi:
        raise NotTauFixed("pi must be tau-fixed")
    pk = k_component(pi)
    if not is_rational_square(pk):
        return TauNormOutcome(
            "obstructed",
            certificate="k-component %s is not a rational square" % pk,
        )
    piK = K_component(skew, pi)
    gg = skew.g
    for iv in P.isolate_real_roots(gg):
        if P.sign_at_root(Poly([0, 1]), gg, iv) < 0:
            # negative root y0: E is complex over this real place of K,
            # so norms are positive there
            if P.sign_at_root(piK.lift(), gg, iv) < 0:
                return TauNormOutcome(
                    "obstructed",
                    certificate="negative at a real root of g in (%s, %s] "
                    "where the quadratic extension is complex" % iv,
                )
    rk = Fraction(math.isqrt(pk.numerator), math.isqrt(pk.denominator))
    y = skew.K.beta()
    # c = 0 first (tau-fixed square root), then small c by height
    n = skew.K.deg
    candidates = [skew.K.zero()]
    for h in range(1, height + 1):
        for coeffs in itertools.product(range(-h, h + 1), repeat=n):
            if max((abs(x) for x in coeffs), default=0) == h:
                candidates.append(skew.K.element(list(coeffs)))
    for c in candidates:
        rhs = piK + y * c * c
        if not rhs.is_unit():
            continue
        dec = is_square(rhs, precision=precision)
        if dec.is_true():
            aK = dec.witness
            # r = a(beta^2) + beta*c(beta^2) on E, sqrt(pk) on k
            a_L = aK.lift().compose(Poly([0, 0, 1]))
            c_L = Poly([0, 1]) * c.lift().compose(Poly([0, 0, 1]))
            rE = skew.E.from_poly(a_L + c_L)
            r = assemble(skew, rk, rE)
            if r * apply_tau(r) == pi:
                return TauNormOutcome("solved", witness=r)
    return TauNormOutcome("unknown")
