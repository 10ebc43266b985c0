"""Integer and rational arithmetic helpers.

Everything here is exact: plain ints and fractions.Fraction throughout.
Factoring is trial division plus Brent's cycle-finding variant of the rho
method, under a budget of rho iterations so callers can bail out on hard
inputs; the budget counts steps, not seconds, so whether it runs out
depends on the input alone, never on the machine or its load.
"""

import hashlib
import math
import random
from fractions import Fraction

from .errors import FactorizationTimeout, Inconsistent, NotSquare, ZeroInput

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# rho iterations (steps y -> y^2 + c mod n) one factorize call may spend:
# 30 s at the 2.8e6 steps per second measured on an 82-bit n (shared
# 2-vCPU VM).  A round of Brent's loop that would pass it is not started;
# FactorizationTimeout is raised instead.
FACTOR_RHO_BUDGET = 84_000_000


def rng_for(tag):
    """A private random.Random stream, reproducible per tag: seeded by
    the sha256 of "0:" + tag, since hash() is salted per process."""
    h = hashlib.sha256(("0:" + tag).encode()).hexdigest()
    return random.Random(int(h, 16))


def is_prime(n):
    """Miller-Rabin with the thirteen prime bases 2..41.

    Deterministic for n < psi_13 = 3317044064679887385961981 (about
    3.3e24): below it no composite is a strong pseudoprime to every one
    of these bases.  From psi_13 up, True means only a probable prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n, rng, spent):
    """One attempt at a nontrivial factor of composite odd n, as (factor,
    rho iterations spent); `spent` counts those of earlier attempts."""
    if n % 2 == 0:
        return 2, spent
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            # the round advances y r times and walks at most r more steps
            if spent + 2 * r > FACTOR_RHO_BUDGET:
                raise FactorizationTimeout(
                    "factoring %d: %d of FACTOR_RHO_BUDGET = %d rho"
                    " iterations spent, the next round needs %d"
                    % (n, spent, FACTOR_RHO_BUDGET, 2 * r))
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += r + min(k, r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, spent


def factorize(n):
    """Prime factorization of a nonzero integer as a sorted dict {p: e}.

    The sign is dropped. Raises FactorizationTimeout rather than spend
    more than FACTOR_RHO_BUDGET rho iterations.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 1 << 12:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    spent = 0
    rng = rng_for("factorize:%d" % n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.append(root)
            stack.append(root)
            continue
        g, spent = _brent_rho(m, rng, spent)
        stack.append(g)
        stack.append(m // g)
    return dict(sorted(out.items()))


def squarefree_part(q):
    """The unique squarefree integer in the square class of a rational.

    squarefree_part(48) == 3, squarefree_part(-4) == -1,
    squarefree_part(Fraction(9, 2)) == 2.
    """
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("0 has no square class")
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    if q == 0:
        return True
    a, b = q.numerator, q.denominator
    ra, rb = math.isqrt(a), math.isqrt(b)
    return ra * ra == a and rb * rb == b


def legendre(a, p):
    """Legendre symbol (a|p) for odd prime p, values in {-1, 0, 1}."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime, got %d" % p)
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a, p):
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Raises NotSquare when a is a quadratic nonresidue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre(a, p) != 1:
        raise NotSquare("%d is not a square mod %d" % (a, p))
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def valuation(n, p):
    """Exponent of p in n (n a nonzero rational or integer)."""
    q = Fraction(n)
    if q == 0:
        raise ZeroInput("0 has infinite valuation")
    v = 0
    a = q.numerator
    while a % p == 0:
        a //= p
        v += 1
    b = q.denominator
    while b % p == 0:
        b //= p
        v -= 1
    return v


def crt(residues, moduli):
    """Solve x = r_i mod m_i; moduli need not be coprime.

    Raises Inconsistent when no solution exists. Returns (x, lcm).
    """
    x, m = 0, 1
    for r, n in zip(residues, moduli):
        g = math.gcd(m, n)
        if (r - x) % g != 0:
            raise Inconsistent("no solution to the congruence system")
        lcm = m // g * n
        t = ((r - x) // g * pow(m // g, -1, n // g)) % (n // g)
        x = (x + m * t) % lcm
        m = lcm
    return x, m
