"""Exact arithmetic the benchmark uses to build inputs and re-check outputs.

It shares no code with orbitforge on purpose: a witness the program
returns is verified here with independent arithmetic.  Polynomials are
ascending coefficient lists of Fractions (or ints), trimmed of trailing
zeros; elements of Q[x]/(f) are such lists of length < deg f.
"""

import math
from fractions import Fraction


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def psub(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                 for i in range(n)])


def pdivmod(a, b):
    """Quotient and remainder over Q; b must be nonzero."""
    a = [Fraction(x) for x in trim(a)]
    b = trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = Fraction(b[-1])
    while len(a) >= len(b):
        c = a[-1] / lead
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a = trim(a)
    return trim(q), a


def pgcd(a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return a


def peval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def derivative(a):
    return trim([k * a[k] for k in range(1, len(a))])


def is_separable(f):
    return len(pgcd(f, derivative(f))) == 1


def is_unit_mod(a, f):
    """Whether a is invertible in Q[x]/(f)."""
    return bool(trim(a)) and len(pgcd(f, a)) == 1


def mulmod(a, b, f):
    """Product in Q[x]/(f) for monic f."""
    return pdivmod(pmul(a, b), f)[1]


def tau(a):
    """x -> -x."""
    return trim([-v if k % 2 else v for k, v in enumerate(a)])


def det(rows):
    """Determinant of a square matrix over Q by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                k = m[r][c] / m[c][c]
                m[r] = [x - k * y for x, y in zip(m[r], m[c])]
    return out


def norm(a, f):
    """N(a) for a in Q[x]/(f), as the determinant of multiplication by a."""
    d = len(f) - 1
    cols = []
    cur = list(a)
    for _ in range(d):
        r = pdivmod(cur, f)[1]
        cols.append([r[i] if i < len(r) else 0 for i in range(d)])
        cur = pmul(r, [0, 1])
    return det([list(row) for row in zip(*cols)])


def charpoly(rows):
    """Ascending coefficients of det(xI - M), by Faddeev-LeVerrier."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    acc = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(m[i][t] * acc[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        acc = [[am[i][j] + (c if i == j else 0) for j in range(n)]
               for i in range(n)]
    return coeffs


def is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    a, b = q.numerator, q.denominator
    return math.isqrt(a) ** 2 == a and math.isqrt(b) ** 2 == b


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n):
    """Miller-Rabin with the first 13 prime bases (deterministic < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over F_p: ascending lists of ints in [0, p)


def fp_trim(a, p):
    return trim([x % p for x in a])


def fp_divmod(a, b, p):
    a = fp_trim(a, p)
    b = fp_trim(b, p)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
        a = trim(a)
    return trim(q), a


def fp_gcd(a, b, p):
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return a


def fp_powmod(base, e, f, p):
    out, cur = [1], fp_divmod(base, f, p)[1]
    while e:
        if e & 1:
            out = fp_divmod(pmul(out, cur), f, p)[1]
        cur = fp_divmod(pmul(cur, cur), f, p)[1]
        e >>= 1
    return out


def fp_factor_degrees(f, p):
    """Degrees of the irreducible factors of a squarefree f mod p, sorted,
    by distinct-degree factorization."""
    f = fp_trim(f, p)
    f = [x * pow(f[-1], -1, p) % p for x in f]
    out = []
    h = [0, 1]
    k = 0
    while len(f) > 1:
        k += 1
        if 2 * k > len(f) - 1:
            out.append(len(f) - 1)
            break
        h = fp_powmod(h, p, f, p)
        g = fp_gcd(f, psub(h, [0, 1]), p)
        if len(g) > 1:
            out += [k] * ((len(g) - 1) // k)
            f = fp_divmod(f, g, p)[0]
            h = fp_divmod(h, f, p)[1]
    return sorted(out)


def fp_is_squarefree(f, p):
    return len(fp_gcd(f, derivative(fp_trim(f, p)), p)) == 1


# ---------------------------------------------------------------------------
# orthogonal-group facts


def so_order(n, q):
    """|SO(2n+1, F_q)| for the split form: q^(n^2) prod (q^(2i) - 1)."""
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


# ---------------------------------------------------------------------------
# reading the CLI's rendering of polynomials in one variable


def parse_poly_text(text, var):
    """Coefficients of a polynomial printed as "3/2*b^2 - b + 1"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    terms = []
    i = 0
    while i < len(s):
        j = i + 1
        while j < len(s) and s[j] not in "+-":
            j += 1
        terms.append(s[i:j])
        i = j
    out = {}
    for t in terms:
        sign = -1 if t.startswith("-") else 1
        t = t.lstrip("+-")
        if var in t:
            coef, _, power = t.partition(var)
            coef = coef.rstrip("*") or "1"
            exp = int(power[1:]) if power.startswith("^") else 1
        else:
            coef, exp = t, 0
        out[exp] = out.get(exp, 0) + sign * Fraction(coef)
    top = max(out)
    return trim([out.get(k, Fraction(0)) for k in range(top + 1)])
