"""Dense univariate polynomials, exact over Q plus mod-p utilities.

A Poly holds integer coefficients `num`, ascending with no trailing zeros,
over one positive denominator `den`, in lowest terms; that pair is
canonical, so equality and hashing compare it, and `c` is the read-only
Fraction view, built on first use. Every kernel runs on the integers: a
product is an integer convolution, division is the integer pseudo-division
that also gives pseudo-remainders (one loop for monic, non-monic and
rational divisors), gcds follow the primitive pseudo-remainder sequence,
and resultants the fraction-free subresultant one; interpolation, a linear
system, is `matrix.interpolate`. Real-root work is exact and runs on one
chain: the Tarski chain of (g, f) is the signed remainder sequence of (f,
f'g mod f) as integer coefficient lists, each a positive multiple of the
rational one (primitive pseudo-remainders with the sign fixed), divided by
its last entry when f and f'g share roots, and evaluated by integer Horner
at rational points. Its variation count over (a, b] is the Tarski query
TaQ(g, f) there, the sum of the signs of g at the distinct real roots of f
(Sylvester). With g = 1 it counts and isolates the real roots of f in
intervals with rational endpoints; with any g, read at the two ends of
each isolating interval, it gives the sign of g at each root, never by
floating point.

Over F_p the distinct-degree split (fp_distinct_degree) is the one source
of factor structure; Cantor-Zassenhaus (fp_equal_degree) factors one of
its parts, so a caller holding the split factors only the parts it needs.
"""

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import NonSeparableModP, NotMonic, ZeroInput
from .arith import rng_for


class Poly:
    """A polynomial over Q: integer coefficients `num` (ascending,
    trailing zeros trimmed) over one positive denominator `den`, with
    gcd(den, *num) = 1; zero is () over 1."""

    __slots__ = ("num", "den", "_c")

    def __init__(self, coeffs=()):
        """The polynomial with the rational coefficients `coeffs`."""
        num, den = _clear(coeffs)
        while num and num[-1] == 0:
            num.pop()
        self.num, self.den, self._c = tuple(num), den, None

    @classmethod
    def over(cls, num, den):
        """The polynomial num / den for integers num and den != 0."""
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        num = [x // g for x in num]
        while num and num[-1] == 0:
            num.pop()
        out = cls.__new__(cls)
        out.num, out.den, out._c = tuple(num), den // g, None
        return out

    @property
    def c(self):
        """The coefficients as Fractions, ascending."""
        if self._c is None:
            d = self.den
            self._c = tuple(Fraction(x, d) for x in self.num)
        return self._c

    @classmethod
    def const(cls, a):
        return cls([a])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        out = cls([1])
        for r in roots:
            out = out * cls([-Fraction(r), 1])
        return out

    @property
    def degree(self):
        return len(self.num) - 1

    def is_zero(self):
        return not self.num

    def lc(self):
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    def is_monic(self):
        return bool(self.num) and self.num[-1] == self.den

    def __getitem__(self, k):
        if 0 <= k < len(self.num):
            return self.c[k]
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        return Poly.over([ka * a + kb * b for a, b
                          in zip_longest(self.num, other.num, fillvalue=0)],
                         den)

    __radd__ = __add__

    def __neg__(self):
        return Poly.over([-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            n, d = Fraction(other).as_integer_ratio()
            return Poly.over([a * n for a in self.num], self.den * d)
        if not self.num or not other.num:
            return Poly()
        return Poly.over(_conv(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("a polynomial power needs an exponent >= 0")
        out, base = Poly([1]), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # self = A / ca and other = B / cb with lc(B)^e A = Q B + R
        Q, R, e = _pdivmod(self.num, other.num)
        s = self.den * other.num[-1] ** e
        return Poly.over([other.den * x for x in Q], s), Poly.over(R, s)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        if isinstance(x, Poly):
            return self.compose(x)
        v, dk = _horner(self.num, *Fraction(x).as_integer_ratio())
        return Fraction(v, self.den * dk)

    def compose(self, other):
        out = Poly()
        for a in reversed(self.num):
            out = out * other + a
        return out * Fraction(1, self.den)

    def derivative(self):
        return Poly.over(_derivative(self.num), self.den)

    def monic(self):
        if self.is_zero():
            raise ZeroInput("zero polynomial has no monic normalization")
        return Poly.over(self.num, self.num[-1])

    def gcd(self, other):
        """The monic gcd (zero when both are zero), by the primitive
        pseudo-remainder sequence of the numerators."""
        A, B = self.num, other.num
        while B:
            R = _prem(A, B)
            c = _content(R)
            A, B = B, [x // c for x in R]
        return Poly.over(A, A[-1]) if A else Poly()

    def pretty(self, var="x"):
        if not self.num:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            a = self[k]
            if a == 0:
                continue
            if k == 0:
                term = str(a)
            else:
                xa = var if k == 1 else "%s^%d" % (var, k)
                if a == 1:
                    term = xa
                elif a == -1:
                    term = "-" + xa
                else:
                    term = "%s*%s" % (a, xa)
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return "Poly(%s)" % (self.pretty(),)


# ---------------------------------------------------------------------------
# resultant / discriminant (fraction-free subresultant PRS)


def _clear(xs):
    """(ints, c): the integers c * x for the rationals xs (ints, Fractions
    or anything Fraction() takes), c > 0 the lcm of their denominators."""
    rs = [(x, 1) if type(x) is int
          else (x if type(x) is Fraction else Fraction(x)).as_integer_ratio()
          for x in xs]
    c = math.lcm(*[d for _, d in rs])
    if c == 1:
        return [n for n, _ in rs], 1
    return [n * (c // d) for n, d in rs], c


def _content(c):
    return math.gcd(*c) or 1


def _deg(c):
    return len(c) - 1


def _conv(A, B):
    """Product of two nonempty integer coefficient lists."""
    out = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                out[i + j] += a * b
    return out


def _pdivmod(A, B):
    """(Q, R, e) for integer lists, B nonzero: lc(B)^e A = Q B + R with
    deg R < deg B, e the number of reduction steps taken."""
    dB, lb = _deg(B), B[-1]
    R = list(A)
    Q = [0] * max(len(A) - dB, 0)
    e = 0
    while R and _deg(R) >= dB:
        lr = R[-1]
        k = _deg(R) - dB
        if lb != 1:
            R = [lb * x for x in R]
            Q = [lb * x for x in Q]
        Q[k] += lr
        for i, b in enumerate(B):
            R[i + k] -= lr * b
        while R and R[-1] == 0:
            R.pop()
        e += 1
    return Q, R, e


def _prem(A, B):
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A mod B, integer lists."""
    _, R, e = _pdivmod(A, B)
    e = _deg(A) - _deg(B) + 1 - e
    if e > 0:
        m = B[-1] ** e
        R = [m * x for x in R]
    return R


def _int_resultant(A, B):
    """Resultant of two nonzero integer-coefficient lists."""
    if _deg(A) == 0:
        return A[0] ** _deg(B)
    if _deg(B) == 0:
        return B[0] ** _deg(A)
    s = 1
    if _deg(A) < _deg(B):
        if _deg(A) % 2 == 1 and _deg(B) % 2 == 1:
            s = -s
        A, B = B, A
    ca, cb = _content(A), _content(B)
    A = [x // ca for x in A]
    B = [x // cb for x in B]
    t = ca ** _deg(B) * cb ** _deg(A)
    g = h = 1
    while _deg(B) > 0:
        dA, dB = _deg(A), _deg(B)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        if not R:
            return 0
        div = g * h**delta
        A = B
        B = [x // div for x in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
    q = _deg(A)
    h = B[0] ** q // h ** (q - 1) if q > 1 else B[0]
    return s * t * h


def resultant(f, g):
    """Res(f, g) over Q; 0 when either argument is 0 or they share a root."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    return Fraction(_int_resultant(f.num, g.num),
                    f.den ** g.degree * g.den ** f.degree)


def discriminant(f):
    """disc(f) for monic f of degree >= 1."""
    if not f.is_monic():
        raise NotMonic("discriminant requires a monic polynomial")
    d = f.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


def is_separable(f):
    """f has degree >= 1 and no repeated root: Res(f, f') is the
    discriminant times a nonzero rational."""
    return f.degree >= 1 and resultant(f, f.derivative()) != 0


def even_part(f):
    """g with f(x) = x * g(x^2), for odd f."""
    return Poly.over(f.num[1::2], f.den)


def integral_model(f):
    """F(x) = c^d f(x/c) for monic f of degree d and c = f.den: monic with
    integer coefficients, its roots c times those of f."""
    if not f.is_monic():
        raise NotMonic("the integral model needs a monic polynomial")
    c, d = f.den, f.degree
    return Poly.over([a * c ** (d - 1 - i) for i, a in enumerate(f.num[:-1])]
                     + [1], 1)


# ---------------------------------------------------------------------------
# exact real roots: one Tarski chain


def _srs(A, B):
    """Signed remainder sequence of the integer lists A and B, deg B <
    deg A: A, B, then each -rem(P, Q) made primitive, where -rem(P, Q) is
    the pseudo-remainder negated unless lc(Q)^e < 0. Every entry is a
    positive multiple of the rational one, so sign variations agree."""
    chain = [A]
    while B:
        chain.append(B)
        if _deg(B) == 0:
            break
        R = _prem(chain[-2], B)
        if B[-1] > 0 or (_deg(chain[-2]) - _deg(B)) % 2 == 1:
            R = [-x for x in R]
        c = _content(R)
        B = [x // c for x in R]
    return chain


def _derivative(A):
    return [i * a for i, a in enumerate(A)][1:]


def _tarski_chain(g, f):
    """The signed remainder sequence of (F, R), R = F'G mod F, for the
    integer models F of f (deg f >= 1) and G of g, as integer lists.

    The pseudo-remainder is lc(F)^e R with e = deg G, negated back when
    that factor is negative. When the last entry D is not constant (f and
    F'G share roots), every entry is divided by D with its leading
    coefficient made positive, so each entry is a positive multiple of the
    rational one over the monic D, and no two consecutive entries vanish
    at one point."""
    F = list(f.num)
    R = _prem(_conv(_derivative(F), g.num), F) if g.num else []
    if F[-1] < 0 and _deg(g.num) % 2 == 1:
        R = [-x for x in R]
    chain = _srs(F, R)
    D = chain[-1]
    if _deg(D) > 0:
        c = _content(D) if D[-1] > 0 else -_content(D)
        D = [x // c for x in D]
        quotients = [_pdivmod(S, D)[0] for S in chain]
        chain = [[x // k for x in Q]
                 for Q, k in zip(quotients, map(_content, quotients))]
    return chain


def _horner(c, n, d):
    """(d^deg(c) c(n / d), d^deg(c)) for the integer list c, by Horner."""
    if not c:
        return 0, 1
    v, dk = c[-1], 1
    for a in reversed(c[:-1]):
        dk *= d
        v = v * n + a * dk
    return v, dk


def _sign_at(c, x):
    """Sign at x (a Fraction or +-math.inf) of the integer list c."""
    if not c:
        return 0
    if isinstance(x, float):  # +-math.inf
        s = 1 if c[-1] > 0 else -1
        return s if x > 0 or len(c) % 2 == 1 else -s
    v = _horner(c, x.numerator, x.denominator)[0]
    return (v > 0) - (v < 0)


def _variations(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def tarski_query(g, f):
    """TaQ(g, f): the sum of the signs of g at the distinct real roots of
    f, for f of degree >= 1.

    Sylvester: the Cauchy index of F'G / F over the real line is TaQ, and
    so is that of R / F for R = F'G mod F, which the Tarski chain counts
    as its sign variations at -infinity minus those at +infinity."""
    chain = _tarski_chain(g, f)
    return _variations(chain, -math.inf) - _variations(chain, math.inf)


def count_real_roots(f, lo=None, hi=None):
    """Distinct real roots of f in the half-open interval (lo, hi], empty
    when lo >= hi.

    None endpoints mean -infinity / +infinity. The count is the variation
    count of the Tarski chain of g = 1 at lo minus that at hi; since g > 0,
    a root at hi is counted and one at lo is not.
    """
    a = -math.inf if lo is None else Fraction(lo)
    b = math.inf if hi is None else Fraction(hi)
    if f.degree <= 0 or a >= b:
        return 0
    chain = _tarski_chain(Poly.const(1), f)
    return _variations(chain, a) - _variations(chain, b)


def root_bound(f):
    """A positive rational B with every real root of f in [-B, B] (Cauchy)."""
    m = max(map(abs, f.num[:-1]), default=0)
    return 1 + Fraction(m, abs(f.num[-1]))


def isolate_real_roots(f):
    """Disjoint rational intervals (lo, hi], one distinct real root each,
    in increasing order, by bisection of (-B, B] on the counts of one
    chain. Each interval carries the variation counts at its two ends, so
    the chain is evaluated once at each point."""
    if f.degree <= 0:
        return []
    chain = _tarski_chain(Poly.const(1), f)
    B = root_bound(f)
    out = []
    stack = [(-B, B, _variations(chain, -B), _variations(chain, B))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 0:
            continue
        if vlo - vhi == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = _variations(chain, mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    out.sort()
    return out


def signs_at_roots(gs, f):
    """[(interval, signs)] over the real roots of f in increasing order,
    the intervals as isolate_real_roots returns them and signs[i] the
    sign of gs[i] at the root of f inside the interval; the roots are
    isolated once for every g.

    One Tarski chain of (f, g) serves every root: its variation count
    over (lo, hi] is the sign of g at the root when f(lo) != 0. A root at
    an end is read directly: when f(hi) = 0 the sign is that of g(hi),
    and when f(lo) = 0 the count at lo has counted that root only if
    g(lo) > 0, so 1 is added back when g(lo) < 0. Adjacent intervals may
    share an end, so each chain is evaluated once at each distinct end
    it needs."""
    intervals = isolate_real_roots(f)
    if not intervals:
        return []
    roots = {x for iv in intervals for x in iv if _sign_at(f.num, x) == 0}
    ends = {x for lo, hi in intervals if hi not in roots for x in (lo, hi)}
    counts = []
    for g in gs:
        chain = _tarski_chain(g, f)
        counts.append({x: _variations(chain, x) for x in ends})
    out = []
    for lo, hi in intervals:
        signs = []
        for g, v in zip(gs, counts):
            if hi in roots:
                s = _sign_at(g.num, hi)
            else:
                s = v[lo] - v[hi]
                if lo in roots and _sign_at(g.num, lo) < 0:
                    s += 1
            signs.append(s)
        out.append(((lo, hi), tuple(signs)))
    return out


# ---------------------------------------------------------------------------
# polynomials over F_p (ascending int lists, p an odd prime)


def fp_normalize(c, p):
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def fp_from_poly(f, p):
    """Reduce a rational Poly mod p; denominators must be prime to p."""
    if f.den % p == 0:
        raise ZeroDivisionError("denominator divisible by %d" % p)
    inv = pow(f.den, -1, p)
    return fp_normalize([a * inv for a in f.num], p)


def fp_add(a, b, p):
    return fp_normalize([x + y for x, y in zip_longest(a, b, fillvalue=0)], p)


def fp_sub(a, b, p):
    return fp_normalize([x - y for x, y in zip_longest(a, b, fillvalue=0)], p)


def fp_mul(a, b, p):
    return fp_normalize(_conv(a, b), p) if a and b else []


def fp_divmod(a, b, p):
    """(q, r) with a = q b + r over F_p and deg r < deg b, both reduced
    mod p and normalized for any integer lists a and b; b must have a
    leading coefficient prime to p."""
    if not b:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        t = a[-1] * inv % p
        k = len(a) - len(b)
        if t:
            q[k] = t
            for i, y in enumerate(b):
                a[i + k] = (a[i + k] - t * y) % p
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, fp_normalize(a, p)


def fp_mod(a, b, p):
    return fp_divmod(a, b, p)[1]


def fp_gcd(a, b, p):
    a, b = fp_normalize(a, p), fp_normalize(b, p)
    while b:
        a, b = b, fp_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def fp_powmod(base, e, f, p):
    out, b = [1], fp_mod(base, f, p)
    while e:
        if e & 1:
            out = fp_mod(fp_mul(out, b, p), f, p)
        b = fp_mod(fp_mul(b, b, p), f, p)
        e >>= 1
    return out


def fp_is_separable(f, p):
    f = fp_normalize(f, p)
    df = [i * x for i, x in enumerate(f)][1:]
    return len(f) >= 2 and len(fp_gcd(f, df, p)) == 1


def _require_separable(f, p):
    if not fp_is_separable(f, p):
        raise NonSeparableModP("polynomial not separable mod %d" % p)


def fp_distinct_degree(f, p):
    """The distinct-degree split [(d, part)] of f mod p, which must be
    separable mod p: part is the monic product of the irreducible factors
    of degree d, and the degrees d strictly increase.

    The caller vouches for separability (a prime to disc(f) does), so it
    is not checked here; fp_count_factors and fp_factor check it.
    """
    f = fp_normalize(f, p)
    inv = pow(f[-1], -1, p)
    work = [x * inv % p for x in f]
    parts = []
    h = [0, 1]
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            parts.append((len(work) - 1, work))
            break
        h = fp_powmod(h, p, work, p)
        g = fp_gcd(fp_sub(h, [0, 1], p), work, p)
        if len(g) > 1:
            parts.append((d, g))
            work, r = fp_divmod(work, g, p)
            assert not r
            h = fp_mod(h, work, p)
    return parts


def fp_count_factors(f, p):
    """Number of irreducible factors of squarefree f mod p; raises
    NonSeparableModP when f is not separable mod p."""
    _require_separable(f, p)
    return sum((len(g) - 1) // d for d, g in fp_distinct_degree(f, p))


def fp_resultant(a, b, p):
    """Res(a, b) mod p by the Euclidean algorithm over F_p.

    For monic a irreducible mod p this is the norm of b mod a from
    F_p[x]/(a) to F_p.
    """
    a, b = fp_normalize(a, p), fp_normalize(b, p)
    if not a or not b:
        return 0
    out = 1
    while len(b) > 1:
        # Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
        r = fp_mod(a, b, p)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            out = -out
        out = out * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return out * pow(b[0], len(a) - 1, p) % p


def fp_invmod(a, f, p):
    """Inverse of a modulo (f, p) by extended Euclid; None if not a unit."""
    r0, r1 = fp_normalize(f, p), fp_mod(a, f, p)
    s0, s1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
    if len(r0) != 1:
        return None
    inv = pow(r0[0], -1, p)
    return fp_normalize([x * inv for x in s0], p)


def fpx_sqrt(a, h, p, rng):
    """Square root of a in the field F_p[x]/(h), h irreducible; None if
    a is a non-residue. Tonelli-Shanks with field arithmetic.

    With q - 1 = qq 2^s, qq odd, one exponentiation r = a^((qq + 1)/2)
    serves three ends: t = r^2 / a is a^qq, Euler's criterion
    a^((q - 1)/2) = 1 reads t^(2^(s - 1)) = 1 after s - 1 squarings, and
    r is the root itself when s = 1. A drawn z is a non-residue when
    c = z^qq has c^(2^(s - 1)) != 1, and that c starts the loop.
    """
    a = fp_mod(a, h, p)
    if not a:
        return []

    def squared(x, k):
        for _ in range(k):
            x = fp_mod(fp_mul(x, x, p), h, p)
        return x
    d = len(h) - 1
    qq, s = p**d - 1, 0
    while qq % 2 == 0:
        qq //= 2
        s += 1
    r = fp_powmod(a, (qq + 1) // 2, h, p)
    t = fp_mod(fp_mul(squared(r, 1), fp_invmod(a, h, p), p), h, p)
    if squared(t, s - 1) != [1]:
        return None
    if s == 1:
        return r
    while True:
        z = fp_normalize([rng.randrange(p) for _ in range(d)], p)
        if z:
            c = fp_powmod(z, qq, h, p)
            if squared(c, s - 1) != [1]:
                break
    m = s
    while t != [1]:
        t2, i = t, 0
        while t2 != [1]:
            t2 = squared(t2, 1)
            i += 1
        b = squared(c, m - i - 1)
        m = i
        c = squared(b, 1)
        t = fp_mod(fp_mul(t, c, p), h, p)
        r = fp_mod(fp_mul(r, b, p), h, p)
    return r


def fp_equal_degree(part, d, p):
    """The sorted irreducible factors of one part (d, part) of the
    distinct-degree split, by Cantor-Zassenhaus: a random a of degree
    below deg q splits q by gcd(a, q) or gcd(a^((p^d - 1)/2) - 1, q), or
    is drawn again. The factorization is unique, so the stream is seeded
    from (p, part) alone."""
    if len(part) - 1 == d:
        return [part]
    rng = rng_for("fp_equal_degree:%d:%s" % (p, tuple(part)))
    out, stack = [], [part]
    while stack:
        q = stack.pop()
        if len(q) - 1 == d:
            out.append(q)
            continue
        a = fp_normalize([rng.randrange(p) for _ in range(len(q) - 1)], p)
        g = fp_gcd(a, q, p)
        if len(g) == 1:
            b = fp_powmod(a, (p ** d - 1) // 2, q, p)
            g = fp_gcd(fp_sub(b, [1], p), q, p)
        stack += [g, fp_divmod(q, g, p)[0]] if 1 < len(g) < len(q) else [q]
    return sorted(out)


def fp_factor(f, p):
    """Full factorization of squarefree f mod p into monic irreducibles,
    sorted by (degree, coefficients): each part of the distinct-degree
    split, in increasing degree, factored by fp_equal_degree; raises
    NonSeparableModP when f is not separable mod p."""
    _require_separable(f, p)
    return [h for d, part in fp_distinct_degree(f, p)
            for h in fp_equal_degree(part, d, p)]
