"""Exact dense matrices over Q, plus integer-lattice column HNF.

A Mat holds integer rows `num` over one positive denominator `den`,
reduced so that gcd(den, every entry) = 1; that pair is canonical, so
equality and hashing compare it directly. Every kernel runs on the
integers: products and `apply` are integer dot products over the product
of the denominators, and one fraction-free Gauss-Jordan (`_rref`,
Bareiss's elimination run to the reduced form) serves every linear
system over Q: `det`, `inv`, `solve`, `kernel`, and `interpolate`, the
solve of a Vandermonde system. `charpoly` is Berkowitz's division-free
algorithm (Cohen, GTM 138, ch. 2). `rows` is the read-only Fraction view,
built on first use. Vectors are tuples of Fractions; inputs may hold ints.

Integer lattices are lists of integer columns: `hnf_columns` puts one in
Hermite form, and `lattice_kernel` takes the integer kernel of a matrix
from the Hermite form of its graph (Cohen, GTM 138, 2.4.3).
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import (DimensionMismatch, Inconsistent, NonIntegral, NotMonic,
                     NotSquare)
from .poly import Poly, _clear


class Mat:
    __slots__ = ("num", "den", "_rows")

    def __init__(self, rows, den=None):
        """A matrix from rows of rationals (ints, Fractions or anything
        Fraction() takes) or, when den is given, from integer rows over
        the positive denominator den."""
        rows = tuple(map(tuple, rows))
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs positive dimensions")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatch("ragged rows")
        if den is None:
            flat, den = _clear(chain.from_iterable(rows))
            rows = tuple(tuple(flat[i:i + w]) for i in range(0, len(flat), w))
        else:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                rows = tuple(tuple(x // g for x in r) for r in rows)
                den //= g
        self.num = rows
        self.den = den
        self._rows = None

    @property
    def rows(self):
        """The entries as Fractions, row by row."""
        if self._rows is None:
            d = self.den
            self._rows = tuple(tuple(Fraction(x, d) for x in r)
                               for r in self.num)
        return self._rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols):
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    @classmethod
    def companion(cls, f):
        """Companion matrix of a monic polynomial (multiplication by x)."""
        if not f.is_monic():
            raise NotMonic("companion matrix needs a monic polynomial")
        d, den = f.degree, f.den
        rows = [[0] * d for _ in range(d)]
        for i in range(1, d):
            rows[i][i - 1] = den
        for i in range(d):
            rows[i][d - 1] = -f.num[i]
        return cls(rows, den)

    @property
    def nrows(self):
        return len(self.num)

    @property
    def ncols(self):
        return len(self.num[0])

    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if isinstance(other, Mat):
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch in addition")
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        return Mat([[ka * a + kb * b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.num, other.num)], den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimensionMismatch("shape mismatch in product")
            bt = list(zip(*other.num))
            return Mat([[sum(map(mul, row, col)) for col in bt]
                        for row in self.num], self.den * other.den)
        n, d = Fraction(other).as_integer_ratio()
        return Mat([[a * n for a in r] for r in self.num], self.den * d)

    __rmul__ = __mul__

    def apply(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        vi, c = _clear(v)
        d = self.den * c
        return tuple(Fraction(sum(map(mul, row, vi)), d) for row in self.num)

    def transpose(self):
        return Mat(zip(*self.num), self.den)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def trace(self):
        if not self.is_square():
            raise NotSquare("trace of a non-square matrix")
        return Fraction(sum(r[i] for i, r in enumerate(self.num)), self.den)

    def det(self):
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        n = self.nrows
        pivots, sign, D = _rref([list(r) for r in self.num], n)
        return Fraction(sign * D if len(pivots) == n else 0, self.den ** n)

    def inv(self):
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n = self.nrows
        a = [list(r) + [int(i == j) for j in range(n)]
             for i, r in enumerate(self.num)]
        pivots, _, D = _rref(a, n)
        if len(pivots) < n:
            raise Inconsistent("matrix is singular")
        # a is now [D I | D num^-1], and (num / den)^-1 = den num^-1
        s = self.den if D > 0 else -self.den
        return Mat([[s * x for x in r[n:]] for r in a], abs(D))

    def charpoly(self):
        """Monic characteristic polynomial det(xI - M), exact.

        Berkowitz on the integer rows gives det(yI - num); with
        y = den x, the coefficient of x^k is that of y^k over
        den^(n - k), that is c_k den^k over den^n.
        """
        if not self.is_square():
            raise NotSquare("charpoly of a non-square matrix")
        n, d = self.nrows, self.den
        c = _berkowitz(self.num)
        return Poly.over([c[n - k] * d ** k for k in range(n + 1)], d ** n)

    def __repr__(self):
        return "Mat(%r)" % ([[str(x) for x in r] for r in self.rows],)


def _berkowitz(a):
    """Coefficients of det(xI - a), highest power first, for a square
    integer matrix, without division. Bordering the leading r x r block
    A by the row R, the column C and the corner a_rr multiplies its
    coefficient vector by the lower-triangular Toeplitz matrix whose first
    column is (1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C).

    Only +, -, * and sum touch the entries, so this runs over any
    commutative ring with elementwise + and *: census._charpolys passes
    int32 numpy columns, one entry over a whole stack of operators: the
    self-adjoint key stacks of the dimension-three censuses (p <= 7 under
    the census budget), the commutant elements of a dimension-five census
    at p = 3 and the generators at every admitted (d, p); skew-adjoint
    keys come from census._skew_keys, off power sums, instead.  With
    entries in [0, p) at the (d, p) the censuses admit, p <= 31 at d = 3
    and p = 3 at d = 5, every intermediate stays below 3 * 10^5, far
    inside int32; and as nothing is divided, arithmetic that wraps modulo
    2^32 still returns every coefficient that fits in int32 exactly."""
    c = [1, -a[0][0]]
    for r in range(1, len(a)):
        row = a[r][:r]
        block = [ai[:r] for ai in a[:r]]
        v = [ai[r] for ai in a[:r]]
        t = [1, -a[r][r], -sum(map(mul, row, v))]
        for _ in range(r - 1):
            v = [sum(map(mul, bi, v)) for bi in block]
            t.append(-sum(map(mul, row, v)))
        c = [sum(t[i - j] * c[j]
                 for j in range(max(0, i - r - 1), min(i, r) + 1))
             for i in range(r + 2)]
    return c


def _rref(a, ncols):
    """Fraction-free Gauss-Jordan on the integer rows a (lists, changed in
    place) over the first ncols columns; returns (pivots, sign, D).

    Each pivot p, found in column j, sets every other row to
    (p row - t pivot row) / prev, t the row's entry in column j and prev
    the pivot before p (1 at first), which leaves a row with t = 0 as it
    is when p = prev. No division leaves a remainder, since every entry is
    then a minor of the input (Bareiss, Math. Comp. 22, 1968). Pivot rows
    come first, every pivot column is cleared in the other rows, and every
    pivot entry ends equal to D, the last pivot (1 if there is none), so
    a / D is the reduced row echelon form. sign is the sign of the row
    swaps: a square input of full rank has determinant sign D."""
    n = len(a)
    pivots = []
    sign, prev = 1, 1
    for j in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, n) if a[i][j]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            sign = -sign
        pr = a[row]
        p = pr[j]
        for i in range(n):
            t = a[i][j]
            if i != row and (t or p != prev):
                a[i] = [(p * x - t * y) // prev for x, y in zip(a[i], pr)]
        pivots.append(j)
        prev = p
        if len(pivots) == n:
            break
    return pivots, sign, prev


def solve(M, b):
    """One exact solution x of M x = b (raises Inconsistent if none)."""
    n, m = M.nrows, M.ncols
    if len(b) != n:
        raise DimensionMismatch("right-hand side length mismatch")
    # M = num / den and b = bi / c: num y = bi gives x = den y / c
    bi, c = _clear(b)
    a = [list(r) + [x] for r, x in zip(M.num, bi)]
    pivots, _, D = _rref(a, m)
    for i in range(len(pivots), n):
        if a[i][m] != 0:
            raise Inconsistent("linear system has no solution")
    x = [Fraction(0)] * m
    for i, j in enumerate(pivots):
        x[j] = Fraction(M.den * a[i][m], c * D)
    return tuple(x)


def kernel(M):
    """Basis of the right null space of M, as a list of tuples."""
    m = M.ncols
    a = [list(r) for r in M.num]
    pivots, _, D = _rref(a, m)
    basis = []
    for j in sorted(set(range(m)) - set(pivots)):
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = Fraction(-a[i][j], D)
        basis.append(tuple(v))
    return basis


def interpolate(samples):
    """The polynomial of degree < len(samples) through the (u, value)
    pairs, at distinct nodes u: the solution of its Vandermonde system,
    built from integers. With the nodes written u = a / b over their
    common denominator b, the coefficients are c_k = d_k b^k for the
    solution d of [a^k] d = value. No samples give the zero polynomial."""
    samples = list(samples)
    if not samples:
        return Poly()
    nodes, b = _clear(u for u, _ in samples)
    V = Mat([[a ** k for k in range(len(nodes))] for a in nodes], 1)
    d = solve(V, [v for _, v in samples])
    return Poly([x * b ** k for k, x in enumerate(d)])


def hnf_columns(gens):
    """Column-style Hermite Normal Form of an integer column lattice.

    gens: list of integer column vectors (all the same length) spanning a
    lattice in Z^n. Returns the list of HNF basis columns: echelon with
    positive pivots, and in each pivot row the entries of earlier columns
    reduced into [0, pivot).
    """
    if not gens:
        return []
    n = len(gens[0])
    cols = []
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch("ragged generator list")
        col, c = _clear(g)
        if c != 1:
            raise NonIntegral("HNF needs integer entries")
        cols.append(col)
    m = len(cols)
    placed = 0
    for i in range(n):
        while True:
            nz = [j for j in range(placed, m) if cols[j][i] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][i] // cols[j0][i]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        nz = [j for j in range(placed, m) if cols[j][i] != 0]
        if not nz:
            continue
        j0 = nz[0]
        cols[placed], cols[j0] = cols[j0], cols[placed]
        if cols[placed][i] < 0:
            cols[placed] = [-x for x in cols[placed]]
        for j in range(placed):
            q = cols[j][i] // cols[placed][i]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[placed])]
        placed += 1
    return [tuple(c) for c in cols[:placed]]


def lattice_kernel(rows):
    """Hermite basis of {v in Z^m : R v = 0} for the integer rows R.

    Column operations on the graph columns (R e_j, e_j) act as R U over U
    for one unimodular U, so in their Hermite form the columns whose head
    vanishes carry a basis of ker R in their tails, itself in Hermite form.
    """
    k, m = len(rows), len(rows[0])
    graph = [[r[j] for r in rows] + [int(i == j) for i in range(m)]
             for j in range(m)]
    return [c[k:] for c in hnf_columns(graph) if not any(c[:k])]
