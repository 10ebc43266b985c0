"""Quadratic spaces over Q: diagonalization, local invariants, isometry,
isotropic vectors and maximal isotropic subspaces.

Classification uses the complete invariant set over Q: dimension,
signature, discriminant square class, and the Hasse symbol at every
place (finite support). The split test for odd dimension and the
constructive hyperbolic completion feed the orbit machinery.

Isotropic vectors come from an exact, deterministic solver that factors
only the determinant. The form is first minimized at each prime of its
determinant (Simon, "Solving quadratic equations using reduced unimodular
quadratic forms", Math. Comp. 74, 2005): the lattice is enlarged by x/p
while that keeps it integral, and a ternary is cut down by one more step
in the style of Legendre's lattice (Cremona-Rusin, Math. Comp. 72, 2003).
Every isotropic ternary and every split space end unimodular. There a
basis reduced against a Hermite majorant has short vectors of norm 0 or
+-1; splitting off norm +-1 vectors reaches an isotropic one, and
splitting off hyperbolic planes (Witt cancellation) extends it to a
maximal isotropic subspace. Each complement split off is the integer
kernel of its pairing rows (matrix.lattice_kernel), and each Gram on a
new basis is one congruence B^T g B.

The whole construction runs on integer rows over one denominator: the
lattice basis through minimization and reduction, the Hermite majorant,
and the vectors of the hyperbolic completion, whose linear systems go
through matrix._rref. The reduction is the integral LLL (de Weger;
Cohen, GTM 138, Algorithm 2.6.7), which takes the steps of the rational
one, so every reduced basis is the same. Fractions appear only in what a
public function returns.
"""

import functools
import math
from fractions import Fraction
from itertools import chain, count
from operator import mul

from .arith import (factorize, is_rational_square, legendre, sqrt_mod,
                    valuation)
from .errors import (
    Anisotropic,
    Degenerate,
    NonSquareComplement,
    NotIsotropic,
    NotSplit,
    WrongDimension,
    ZeroArgument,
)
from .matrix import Mat, _rref, lattice_kernel
from .poly import _clear

INF = "inf"


class QuadSpace:
    """A nondegenerate symmetric bilinear form on Q^dim, with its Gram
    determinant det, computed once by the nondegeneracy check; the
    factorization (_factors) and the invariants are kept once computed."""

    __slots__ = ("gram", "det", "_factors", "_invariants")

    def __init__(self, gram):
        if not isinstance(gram, Mat):
            gram = Mat(gram)
        if not gram.is_square():
            raise Degenerate("Gram matrix must be square")
        if gram.transpose() != gram:
            raise Degenerate("Gram matrix must be symmetric")
        self.det = gram.det()
        if self.det == 0:
            raise Degenerate("Gram matrix is singular")
        self.gram = gram

    @property
    def dim(self):
        return self.gram.nrows

    def bilinear(self, v, w):
        return sum(x * y for x, y in zip(self.gram.apply(w), v))

    def q(self, v):
        """The quadratic value <v, v>."""
        return self.bilinear(v, v)

    def __eq__(self, other):
        if isinstance(other, QuadSpace):
            return self.gram == other.gram
        return NotImplemented

    def __repr__(self):
        return "QuadSpace(%r)" % (self.gram,)


def standard_gram(n):
    """Anti-diagonal ones in dimension 2n+1 (the split space)."""
    if n < 1:
        raise WrongDimension("need n >= 1")
    d = 2 * n + 1
    return Mat([[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)])


@functools.cache
def standard_space(n):
    """The split space of dimension 2n+1, one object per n: basis e_1..e_n,
    u, f_n..f_1, so the Gram is standard_gram(n), det (-1)^n."""
    return QuadSpace(standard_gram(n))


def diagonalize(space):
    """(D, U) with U^T * gram * U = diag(D), all D entries nonzero."""
    return _diagonalize(space.gram.num, space.gram.den)


def _diagonalize(G, gd):
    """Congruence diagonalization of the nondegenerate symmetric matrix
    G / gd (integer rows G, gd > 0); returns (D, U), D a list of Fractions
    and U a Mat, with U^T (G / gd) U = diag(D).

    The form and U are integer rows over one denominator each. A pivot
    step clears column k from every later column at once: with e = |d| for
    the pivot d, both are scaled by e, the later block becomes
    e g_ij - s g_ik g_kj (s the sign of d), and the common content is
    divided out once.
    """
    g = [list(r) for r in G]
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    ud = 1

    def col_op(dst, src):
        # column_dst += column_src, mirrored on rows, tracked in u
        for i in range(n):
            g[i][dst] += g[i][src]
        for j in range(n):
            g[dst][j] += g[src][j]
        for i in range(n):
            u[i][dst] += u[i][src]

    def col_swap(a, b):
        for i in range(n):
            g[i][a], g[i][b] = g[i][b], g[i][a]
        g[a], g[b] = g[b], g[a]
        for i in range(n):
            u[i][a], u[i][b] = u[i][b], u[i][a]

    def divide_content(rows, den):
        c = math.gcd(den, *chain.from_iterable(rows))
        if c > 1:
            rows[:] = [[x // c for x in r] for r in rows]
        return den // c

    for k in range(n):
        if g[k][k] == 0:
            piv = next((j for j in range(k + 1, n) if g[j][j] != 0), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                # all remaining diagonal entries vanish; the later block
                # is nondegenerate, so row k has a nonzero entry in it
                j = next((j for j in range(k + 1, n) if g[k][j] != 0), None)
                if j is None:
                    raise Degenerate("form is degenerate")
                col_op(k, j)  # now g[k][k] = 2*g[k][j] != 0
        d = g[k][k]
        rest = [0] * (k + 1) + g[k][k + 1:]
        if not any(rest):
            continue
        e, s = abs(d), (1 if d > 0 else -1)
        for i in range(n):
            gi = g[i]
            if i > k:
                t = s * gi[k]
                g[i] = [e * x - t * y for x, y in zip(gi, rest)]
                g[i][k] = 0
            else:
                g[i] = [e * x for x in gi[:k + 1]] + [0] * (n - k - 1)
            t = s * u[i][k]
            u[i] = [e * x - t * y for x, y in zip(u[i], rest)]
        gd = divide_content(g, gd * e)
        ud = divide_content(u, ud * e)
    return [Fraction(g[i][i], gd) for i in range(n)], Mat(u, ud)


def hilbert_symbol(a, b, place):
    """The Hilbert symbol (a, b) at 'inf' or at a prime p."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    if place == INF or place == math.inf:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, beta = valuation(a, p) % 2, valuation(b, p) % 2
    u = a / Fraction(p) ** valuation(a, p)
    v = b / Fraction(p) ** valuation(b, p)
    if p == 2:
        un = u.numerator * u.denominator % 8
        vn = v.numerator * v.denominator % 8
        eps_u, eps_v = (un - 1) // 2 % 2, (vn - 1) // 2 % 2
        om_u, om_v = (un * un - 1) // 8 % 2, (vn * vn - 1) // 8 % 2
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    un = u.numerator * pow(u.denominator, -1, p) % p
    vn = v.numerator * pow(v.denominator, -1, p) % p
    out = 1
    if alpha and beta and (p - 1) // 2 % 2:
        out = -out
    if beta:
        out *= legendre(un, p)
    if alpha:
        out *= legendre(vn, p)
    return out


class FormInvariants:
    """Complete isometry invariants of a rational quadratic space.

    hasse support is stored as the set of places where the symbol is -1;
    everywhere else it is +1.
    """

    __slots__ = ("dim", "disc_class", "signature", "hasse_minus")

    def __init__(self, dim, disc_class, signature, hasse_minus):
        self.dim = dim
        self.disc_class = disc_class
        self.signature = signature
        self.hasse_minus = frozenset(hasse_minus)

    def hasse_at(self, place):
        return -1 if place in self.hasse_minus else 1

    def __eq__(self, other):
        if isinstance(other, FormInvariants):
            return (
                self.dim == other.dim
                and self.disc_class == other.disc_class
                and self.signature == other.signature
                and self.hasse_minus == other.hasse_minus
            )
        return NotImplemented

    def __repr__(self):
        return "FormInvariants(dim=%d, disc=%d, signature=%r, hasse_minus=%r)" % (
            self.dim,
            self.disc_class,
            self.signature,
            sorted(self.hasse_minus, key=str),
        )


def _factors(space):
    """(the factorization of space.det's numerator times its denominator,
    those primes together with the primes of the Gram's common
    denominator), factored once per space: the split test and the
    minimization read the same primes."""
    try:
        return space._factors
    except AttributeError:
        pass
    det = space.det
    det_fac = factorize(det.numerator * det.denominator)
    c = space.gram.den
    primes = set(det_fac) | (set(factorize(c)) if c > 1 else set())
    space._factors = (det_fac, primes)
    return space._factors


def invariants(space):
    """Signature, discriminant class, and Hasse symbols of the space.

    Only the determinant and the common denominator c of the Gram are
    factored: the lattice c Z^n is unimodular at every other odd prime,
    so the Hasse symbol is +1 there. Computed once per space: a refused
    space reads them to name its anisotropic places and again in the
    split test.
    """
    try:
        return space._invariants
    except AttributeError:
        pass
    dvals, _ = diagonalize(space)
    pos = sum(1 for d in dvals if d > 0)
    sig = (pos, len(dvals) - pos)
    det_primes, primes = _factors(space)
    disc = -1 if space.det < 0 else 1
    for q, e in det_primes.items():
        if e % 2:
            disc *= q
    places = [INF] + sorted({2} | primes)
    minus = set()
    prod = 1
    for v in places:
        # the product over i < j of (d_i, d_j)_v, grouped by bimultiplicativity
        # as the product over j of (d_1 ... d_(j-1), d_j)_v
        h, head = 1, dvals[0]
        for d in dvals[1:]:
            h *= hilbert_symbol(head, d, v)
            head *= d
        if h == -1:
            minus.add(v)
            prod = -prod
    assert prod == 1, "Hilbert product formula violated (internal bug)"
    space._invariants = FormInvariants(space.dim, disc, sig, minus)
    return space._invariants


def is_isometric(s1, s2):
    """Complete over Q: equal dim, signature, disc class, Hasse symbols."""
    return invariants(s1) == invariants(s2)


def is_split_odd(space):
    """Whether an odd-dim space is isometric to the standard split one."""
    if space.dim % 2 == 0 or space.dim < 3:
        raise WrongDimension("split test needs odd dimension >= 3")
    return invariants(space) == _split_invariants(space.dim // 2)


@functools.cache
def _split_invariants(n):
    return invariants(standard_space(n))


def hyperbolic_completion(space, m_cols):
    """Isometry U (columns) with U^T * gram * U = standard_gram(n).

    m_cols: basis of an n-dimensional totally isotropic subspace of the
    (2n+1)-dim space; the m_i become the first n basis vectors. Raises
    NotIsotropic / WrongDimension on bad input, NonSquareComplement when
    the 1-dim complement scalar is not a rational square (i.e. the space
    is not split with the standard determinant class).

    Every vector is integer entries over its own denominator and every
    pairing an integer dot product with the Gram's integer rows G. The
    dual vectors y_i solve G m_j . y = delta_ij, G y_k . y = 0 (k < i),
    each row scaled to integers with its right-hand side, and the
    complement z spans the kernel of the rows G m_j, G y_k; scaling rows
    leaves the reduced row echelon form unchanged, so matrix._rref gives
    the same y and z as the rational system would.
    """
    d = space.dim
    if d % 2 == 0 or d < 3:
        raise WrongDimension("need odd dimension >= 3")
    n = (d - 1) // 2
    if len(m_cols) != n:
        raise WrongDimension("need exactly n isotropic basis vectors")
    G, gd = space.gram.num, space.gram.den

    def pair_row(v):
        return [sum(map(mul, row, v)) for row in G]

    ms = [_clear(v) for v in m_cols]
    gm = [pair_row(v) for v, _ in ms]
    for i in range(n):
        for j in range(i, n):
            if sum(map(mul, gm[i], ms[j][0])):
                raise NotIsotropic("<m_%d, m_%d> != 0" % (i, j))
    if len(_rref([list(r) for r in gm], d)[0]) != n:
        raise WrongDimension("isotropic vectors are not independent")
    ys, gy = [], []
    for i in range(n):
        # G m_j / (gd c_j) . y = delta_ij, times gd c_j
        a = [r + [gd * c if j == i else 0]
             for j, (r, (_, c)) in enumerate(zip(gm, ms))]
        a += [r + [0] for r in gy]
        pivots, _, D = _rref(a, d)
        assert len(pivots) == len(a)
        y = [0] * d
        for r, j in enumerate(pivots):
            y[j] = a[r][d]
        # isotropize: y / D - (q(y / D) / 2) m_i, over 2 gd D^2 c_i
        m, c = ms[i]
        t = sum(map(mul, pair_row(y), y))
        y = [2 * gd * D * c * x - t * v for x, v in zip(y, m)]
        yd = 2 * gd * D * D * c
        k = math.gcd(yd, *y)
        ys.append(([v // k for v in y], yd // k))
        gy.append(pair_row(ys[-1][0]))
    a = [list(r) for r in gm + gy]
    pivots, _, D = _rref(a, d)
    assert len(pivots) == d - 1
    free = next(j for j in range(d) if j not in pivots)
    z = [0] * d
    z[free] = D
    for r, j in enumerate(pivots):
        z[j] = -a[r][free]
    c = Fraction(sum(map(mul, pair_row(z), z)), gd * D * D)
    if not is_rational_square(c):
        raise NonSquareComplement(
            "complement scalar %s is not a rational square" % c
        )
    # z / D over sqrt(c) = sn / sd, over a positive denominator
    sn, sd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    s = sd if D > 0 else -sd
    z = ([v * s for v in z], abs(D) * sn)
    cols = ms + [z] + ys[::-1]
    den = math.lcm(*(c for _, c in cols))
    u = Mat([[v[i] * (den // c) for v, c in cols] for i in range(d)], den)
    assert u.transpose() * space.gram * u == standard_space(n).gram
    return u


def _is_local_square(d, p):
    """Whether the squarefree integer d is a square in Q_p, p a prime."""
    if p == 2:
        return d % 8 == 1
    return d % p != 0 and legendre(d, p) == 1


def anisotropic_places(space):
    """The places where the space has no isotropic vector, in order.

    Serre's criteria on dimension, discriminant d and Hasse symbol e: a
    ternary is isotropic at v iff (-1, -d)_v = e_v, a quaternary iff d is
    not a local square or e_v = (-1, -1)_v, and five or more variables are
    isotropic at every finite place. Only 2, the primes of d and the
    places with e_v = -1 can fail.
    """
    if space.dim < 3:
        raise WrongDimension("anisotropic places are listed for dim >= 3")
    inv = invariants(space)
    out = [INF] if 0 in inv.signature else []
    if inv.dim >= 5:
        return out
    d = inv.disc_class
    for p in sorted({2} | set(factorize(d)) | (inv.hasse_minus - {INF})):
        if inv.dim == 3:
            iso = hilbert_symbol(-1, -d, p) == inv.hasse_at(p)
        else:
            iso = (not _is_local_square(d, p)
                   or inv.hasse_at(p) == hilbert_symbol(-1, -1, p))
        if not iso:
            out.append(p)
    return out


def _no_isotropic(space):
    """The error for a space the solver cannot finish: anisotropic
    (naming the places), or isotropic but not split."""
    places = anisotropic_places(space)
    if places:
        return Anisotropic("the form is anisotropic at %s"
                           % ", ".join(str(v) for v in places))
    return NotSplit("the form is isotropic but not split; in dimension %d"
                    " the solver needs a split space" % space.dim)


def _kernel_mod(rows, p):
    """Basis of the null space mod p of a square integer matrix."""
    m = len(rows)
    a = [[x % p for x in r] for r in rows]
    pivots = []
    for col in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                t = a[i][col]
                a[i] = [(x - t * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
    out = []
    for j in range(m):
        if j not in pivots:
            v = [0] * m
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = -a[i][j] % p
            out.append(v)
    return out


def _isotropic_mod(a, p):
    """A nonzero y with y^T a y = 0 mod p for a symmetric integer matrix,
    or None. Deterministic: mod 2 the form is linear in y; for odd p an
    orthogonal basis reduces it to c1 s^2 + c2 t^2 + c3 = 0, scanned over t.
    """
    d = len(a)
    if p == 2:
        for i in range(d):
            if a[i][i] % 2 == 0:
                return [int(j == i) for j in range(d)]
        return [int(j < 2) for j in range(d)] if d >= 2 else None

    def form(u, v):
        return sum(u[i] * a[i][j] * v[j]
                   for i in range(d) if u[i] for j in range(d) if v[j]) % p

    basis, vals = [], []
    for i in range(d):
        v = [int(j == i) for j in range(d)]
        for b, c in zip(basis, vals):
            t = form(v, b) * pow(c, -1, p) % p
            v = [(x - t * y) % p for x, y in zip(v, b)]
        c = form(v, v)
        if c == 0:
            return v
        basis.append(v)
        vals.append(c)
    if d < 2:
        return None
    inv1 = pow(vals[0], -1, p)
    if d == 2:
        r = -vals[1] * inv1 % p
        if legendre(r, p) != 1:
            return None
        s = sqrt_mod(r, p)
        return [(s * x + y) % p for x, y in zip(basis[0], basis[1])]
    for t in count():
        r = -(vals[1] * t * t + vals[2]) * inv1 % p
        if r == 0 or legendre(r, p) == 1:
            s = sqrt_mod(r, p)
            return [(s * x + t * y + z) % p
                    for x, y, z in zip(basis[0], basis[1], basis[2])]


def _minimize_at(g, basis, p):
    """Shrink the power of p in det g to zero, or return False.

    g is the integral Gram of the lattice spanned by basis = [B, c], the
    integer rows B over the one denominator c > 0 (the lattice vectors in
    the space's coordinates); both are updated in place. While p divides
    det g the kernel K of g mod p is nonzero. A vector x of K with
    g(x, x) = 0 mod p^2 makes x/p integral against the lattice, and adding
    it divides det by p^2. Without one, a ternary with p || det has a
    vector e off K with g(e, e) = 0 mod p; then g vanishes mod p on
    {z : g(z, e) = 0 mod p}, and that sublattice scaled by 1/p divides det
    by p. Nothing else is left for an isotropic ternary or a split space.
    """
    m = len(g)
    rows = basis[0]
    while True:
        ker = _kernel_mod(g, p)
        if not ker:
            return True
        a = [[v // p for v in r] for r in _congruent(g, ker)]
        y = _isotropic_mod(a, p)
        if y is not None:
            x = [sum(c * k[i] for c, k in zip(y, ker)) % p for i in range(m)]
            j = next(i for i in range(m) if x[i])
            inv = pow(x[j], -1, p)
            x = [v * inv % p for v in x]
            gx = [sum(r * v for r, v in zip(row, x)) for row in g]
            xgx = sum(v * w for v, w in zip(x, gx))
            assert xgx % (p * p) == 0 and all(v % p == 0 for v in gx)
            for i in range(m):
                g[i][j] = g[j][i] = gx[i] // p
            g[j][j] = xgx // (p * p)
            # the new row x B / (p c): the other rows move over p c,
            # unless p divides x B
            new = _combine(rows, x)
            if any(v % p for v in new):
                rows[:] = [[v * p for v in r] for r in rows]
                basis[1] *= p
            else:
                new = [v // p for v in new]
            rows[j] = new
            continue
        if m != 3 or len(ker) != 1:
            return False
        j = next(i for i in range(3) if ker[0][i])
        rest = [i for i in range(3) if i != j]
        y = _isotropic_mod([[g[r][s] for s in rest] for r in rest], p)
        if y is None:
            return False
        e = [0, 0, 0]
        for i, v in zip(rest, y):
            e[i] = v
        ell = [sum(r * v for r, v in zip(row, e)) % p for row in g]
        i0 = next(i for i in range(3) if ell[i])
        inv = pow(ell[i0], -1, p)
        cols = []
        for i in range(3):
            col = [0, 0, 0]
            if i == i0:
                col[i0] = p
            else:
                col[i] = 1
                col[i0] = -ell[i] * inv % p
            cols.append(col)
        new = _congruent(g, cols)
        assert all(v % p == 0 for r in new for v in r)
        g[:] = [[v // p for v in r] for r in new]
        rows[:] = [_combine(rows, c) for c in cols]


def _minimized(space):
    """(basis, g): a lattice of the space whose integral Gram g has
    det +-1, in a reduced basis = [B, c] (integer rows B over the
    denominator c), or raise. Starts from c Z^n with c the Gram's common
    denominator and minimizes at every prime of det(c^2 gram)."""
    m = space.dim
    c = space.gram.den
    g = [[x * c for x in row] for row in space.gram.num]
    basis = [[[c * (i == j) for i in range(m)] for j in range(m)], 1]
    for p in sorted(_factors(space)[1]):
        if not _minimize_at(g, basis, p):
            raise _no_isotropic(space)
    rows, c = basis
    k = math.gcd(c, *chain.from_iterable(rows))
    if k > 1:
        rows, c = [[v // k for v in r] for r in rows], c // k
    return _reduce(g, rows, c)


def _majorant(g):
    """(D, P, c): the diagonal D of g and its Hermite majorant
    V^T |D| V = P / c, integer rows P over c > 0, V the inverse of the
    diagonalizing matrix; P / c >= |g| and det(P / c) = |det g|."""
    dvals, u = _diagonalize(g, 1)
    v = u.inv()
    ad, c = _clear(dvals)
    ad = [abs(x) for x in ad]
    m, vn = len(g), v.num
    p = [[sum(a * r[i] * r[j] for a, r in zip(ad, vn)) for j in range(m)]
         for i in range(m)]
    c *= v.den * v.den
    k = math.gcd(c, *chain.from_iterable(p))
    if k > 1:
        p, c = [[x // k for x in r] for r in p], c // k
    return dvals, p, c


def _reduce(g, rows, c):
    """(basis, g) for the same lattice, the integer rows over c, in a
    basis LLL-reduced against a Hermite majorant: with det g = +-1 the
    Gram entries come out small, however large minimization left them,
    and so do the complements split off later."""
    h = _lll(*_majorant(g)[1:])[0]
    return ([_combine(rows, r) for r in h], c), _congruent(g, h)


def _lll(gram, den=1):
    """(H, mu, bstar): the rows of a unimodular integer matrix H form a
    basis (in the old coordinates) that is LLL-reduced, delta = 99/100,
    for the positive definite gram / den (integer rows gram, den > 0), with
    its Gram-Schmidt data as Fractions.

    Integral LLL on the Gram matrix (de Weger; Cohen, GTM 138, Algorithm
    2.6.7): d[i] is the Gram determinant of the first i vectors (d[0] = 1)
    and lam[k][j] = d[j + 1] mu[k][j], all integers, so every division is
    exact. Row k swaps with row k - 1 when B_k < (delta - mu^2) B_(k-1),
    B_k = d[k + 1] / d[k], that is when 100 d[k + 1] d[k - 1] <
    99 d[k]^2 - 100 lam^2; size reduction subtracts q = round(lam / d)
    times a row, rounding half to even. These are the steps of the
    rational algorithm (Cohen, 2.6.3), so H and mu are the same, and
    bstar[k] = B_k / den."""
    n = len(gram)
    g = [list(r) for r in gram]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    lam = [[0] * n for _ in range(n)]
    d = [1, g[0][0]] + [0] * (n - 1)

    def red(k, l):
        dl = d[l + 1]
        q, r = divmod(2 * lam[k][l] + dl, 2 * dl)
        if r == 0 and q % 2:
            q -= 1  # an exact tie lam / d = q - 1/2 goes to the even q - 1
        if q == 0:
            return
        h[k] = [a - q * b for a, b in zip(h[k], h[l])]
        gk, gl = g[k], g[l]
        gkk = gk[k] - 2 * q * gk[l] + q * q * gl[l]
        for i in range(n):
            gk[i] -= q * gl[i]
        gk[k] = gkk
        for i in range(n):
            g[i][k] = gk[i]
        lam[k][l] -= q * dl
        lk, ll = lam[k], lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for r in g:
            r[k], r[k - 1] = r[k - 1], r[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m_ = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m_ * m_) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m_ * t) // d[k]
            lam[i][k - 1] = (b * t + m_ * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = g[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        red(k, k - 1)
        t = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] * d[k] - 100 * t * t:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    mu = [[Fraction(lam[k][j], d[j + 1]) if j < k else Fraction(0)
           for j in range(n)] for k in range(n)]
    bstar = [Fraction(d[k + 1], d[k] * den) for k in range(n)]
    return h, mu, bstar


def _qval(g, x):
    return sum(a * sum(r * b for r, b in zip(row, x))
               for a, row in zip(x, g) if a)


def _congruent(g, vecs):
    """B^T g B for the columns vecs of B: the Gram of g on their span."""
    gv = [[sum(map(mul, row, v)) for row in g] for v in vecs]
    return [[sum(map(mul, u, x)) for x in gv] for u in vecs]


def _short_vectors(reduced, bound):
    """Integer x != 0 with x^T gram x <= bound, one of each +-x, shortest
    first, by Fincke-Pohst over reduced = _lll(gram). The walk runs in
    floating point, so a vector within rounding of the bound may be
    listed too; callers test what they use exactly."""
    h, mu, bstar = reduced
    n = len(h)
    fmu = [[float(v) for v in r] for r in mu]
    fb = [float(v) for v in bstar]
    x = [0] * n
    found = []

    def walk(i, rem):
        c = -sum(fmu[j][i] * x[j] for j in range(i + 1, n))
        r = math.sqrt(max(rem, 0.0) / fb[i]) + 1e-9
        for xi in range(math.ceil(c - r), math.floor(c + r) + 1):
            x[i] = xi
            left = rem - fb[i] * (xi - c) ** 2
            if i:
                walk(i - 1, left)
            elif any(x) and next(a for a in x if a) > 0:
                found.append((top - left, _combine(h, x)))
        x[i] = 0

    top = float(bound) * (1 + 1e-9) + 1e-9
    walk(n - 1, top)
    found.sort()
    return [v for _, v in found]


def _combine(rows, coeffs):
    """sum_k coeffs[k] * rows[k]."""
    return [sum(c * r[i] for c, r in zip(coeffs, rows) if c)
            for i in range(len(rows[0]))]


def _unimodular_isotropic(g):
    """Integer x != 0 with x^T g x = 0 for an integral g with det +-1, or
    None when g is definite.

    A Hermite majorant P >= |g| from a diagonalization has det 1, so in
    dimension <= 7 its shortest vector has P < 2 (Hermite constant) and
    g-value 0 or +-1. A norm s = +-1 vector b splits off; in the
    unimodular complement an isotropic vector, or one of norm -s, gives
    the answer. From rank 9 on, a complement can be definite with no
    vector of norm -s (E8 beside <-1>); the search then goes on to the
    next unit. Beyond dimension 7 the bound grows until a usable vector
    appears, as an isotropic one does in every indefinite unimodular
    lattice.

    A vector with P < 1 is isotropic, so the reduced basis is tried
    first; past it, every Gram-Schmidt norm is at least 0.74^(m-1) and
    the enumeration stays small.
    """
    m = len(g)
    for i in range(m):
        if g[i][i] == 0:
            return [int(k == i) for k in range(m)]
    dvals, maj, c = _majorant(g)
    if all(d > 0 for d in dvals) or all(d < 0 for d in dvals):
        return None
    if m == 2:
        # indefinite unimodular binary: b^2 - ac = 1, so it factors
        a, b = g[0][0], g[0][1]
        return [1 - b, a]
    reduced = _lll(maj, c)
    for x in reduced[0]:
        if _qval(g, x) == 0:
            return x
    bound, tried = 2, set()
    while True:
        vecs = _short_vectors(reduced, bound)
        vals = [_qval(g, x) for x in vecs]
        if 0 in vals:
            return vecs[vals.index(0)]
        for b, s in zip(vecs, vals):
            if abs(s) == 1 and tuple(b) not in tried:
                tried.add(tuple(b))
                x = _split_off_unit(g, b, s)
                if x is not None:
                    return x
        bound *= 2


def _split_off_unit(g, b, s):
    """An isotropic vector of the indefinite unimodular g from b with
    g(b, b) = s = +-1, or None when b's complement is definite without a
    vector of norm -s (from rank 9 on: -s E8 beside <s>)."""
    comp = lattice_kernel([[sum(map(mul, row, b)) for row in g]])
    gc = _congruent(g, comp)
    y = _unimodular_isotropic(gc)
    if y is not None:
        return _combine(comp, y)
    # the complement is definite of sign -s: a norm -s vector w makes b + w
    for w in _short_vectors(_lll([[-s * x for x in r] for r in gc]), 1):
        if _qval(gc, w) == -s:
            return [x + y for x, y in zip(b, _combine(comp, w))]
    return None


def _unit_dual(v):
    """Integer y with v . y = 1 for a primitive integer vector v."""
    cur, coef = 0, [0] * len(v)
    for i, a in enumerate(v):
        if a == 0:
            continue
        # extended gcd of (cur, a): s * cur + t * a = gcd
        r0, r1, s0, s1, t0, t1 = cur, a, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        coef = [s0 * c for c in coef]
        coef[i] += t0
        cur = r0
    assert abs(cur) == 1, "vector is not primitive"
    return [c * cur for c in coef]


def find_isotropic_vector(space):
    """A nonzero v with q(v) = 0, exactly and deterministically.

    Solves every isotropic ternary and, in any dimension, every form with
    a lattice of determinant +-1, split spaces included. Raises
    Anisotropic naming the places when there is no isotropic vector,
    NotSplit for an isotropic form of dimension >= 4 without such a
    lattice, and FactorizationTimeout (a BudgetExceeded) only when
    factoring the determinant ran out of arith.FACTOR_RHO_BUDGET.
    """
    if space.dim < 3:
        raise WrongDimension("isotropic vectors are solved in dimension >= 3")
    (rows, c), g = _minimized(space)
    x = _unimodular_isotropic(g)
    if x is None:
        raise _no_isotropic(space)
    return tuple(Fraction(v, c) for v in _combine(rows, x))


def maximal_isotropic_subspace(space):
    """dim // 2 independent, mutually orthogonal isotropic vectors.

    For a split space: after minimization the lattice is unimodular, an
    isotropic x and a y with g(x, y) = 1 span a unimodular hyperbolic
    plane, and its orthogonal complement is again split and unimodular
    (Witt cancellation), so the search recurses there with nothing left
    to factor. The vectors feed hyperbolic_completion unchanged.
    """
    if space.dim < 3:
        raise WrongDimension("maximal isotropic subspaces need dimension >= 3")
    (rows, c), g = _minimized(space)
    out = []
    for _ in range(space.dim // 2):
        x = _unimodular_isotropic(g)
        if x is None:
            raise _no_isotropic(space)
        div = math.gcd(*x)
        x = [v // div for v in x]
        out.append(tuple(Fraction(v, c) for v in _combine(rows, x)))
        gx = [sum(r * v for r, v in zip(row, x)) for row in g]
        y = _unit_dual(gx)
        gy = [sum(r * v for r, v in zip(row, y)) for row in g]
        comp = lattice_kernel([gx, gy])
        rows = [_combine(rows, col) for col in comp]
        g = _congruent(g, comp)
    return out
