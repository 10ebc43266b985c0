"""Exact dense matrices over Q, plus integer-lattice column HNF.

Vectors are plain tuples of Fractions. Matrices are immutable;
all eliminations are exact (no pivoting heuristics needed over Q).
"""

from fractions import Fraction

from .errors import DimensionMismatch, Inconsistent, NonIntegral, NotSquare
from .poly import Poly


class Mat:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs positive dimensions")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatch("ragged rows")
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n, m=None):
        return cls([[0] * (m or n) for _ in range(n)])

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
            raise NotSquare("companion matrix needs a monic polynomial")
        d = f.degree
        rows = [[0] * d for _ in range(d)]
        for i in range(1, d):
            rows[i][i - 1] = 1
        for i in range(d):
            rows[i][d - 1] = -f[i]
        return cls(rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if isinstance(other, Mat):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch in addition")
        return Mat(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimensionMismatch("shape mismatch in product")
            bt = list(zip(*other.rows))
            return Mat(
                [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.rows]
            )
        return Mat([[a * Fraction(other) for a in r] for r in self.rows])

    __rmul__ = __mul__

    def apply(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def transpose(self):
        return Mat(list(zip(*self.rows)))

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def trace(self):
        if not self.is_square():
            raise NotSquare("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def det(self):
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        a = [list(r) for r in self.rows]
        n = self.nrows
        out = Fraction(1)
        for j in range(n):
            piv = next((i for i in range(j, n) if a[i][j] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != j:
                a[j], a[piv] = a[piv], a[j]
                out = -out
            out *= a[j][j]
            inv = 1 / a[j][j]
            for i in range(j + 1, n):
                if a[i][j]:
                    t = a[i][j] * inv
                    for k in range(j, n):
                        a[i][k] -= t * a[j][k]
        return out

    def inv(self):
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n = self.nrows
        a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(self.rows)]
        if len(_rref(a, n)) < n:
            raise Inconsistent("matrix is singular")
        return Mat([r[n:] for r in a])

    def charpoly(self):
        """Monic characteristic polynomial det(xI - M), exact.

        Similarity reduction to Hessenberg form, then the standard
        leading-minor recurrence.
        """
        if not self.is_square():
            raise NotSquare("charpoly of a non-square matrix")
        n = self.nrows
        h = [list(r) for r in self.rows]
        for j in range(n - 2):
            piv = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
            if piv is None:
                continue
            if piv != j + 1:
                h[j + 1], h[piv] = h[piv], h[j + 1]
                for row in h:
                    row[j + 1], row[piv] = row[piv], row[j + 1]
            for i in range(j + 2, n):
                if h[i][j]:
                    t = h[i][j] / h[j + 1][j]
                    h[i] = [x - t * y for x, y in zip(h[i], h[j + 1])]
                    for row in h:
                        row[j + 1] += t * row[i]
        ps = [Poly([1])]
        x = Poly.x()
        for m in range(1, n + 1):
            p = (x - h[m - 1][m - 1]) * ps[m - 1]
            sub = Fraction(1)
            for i in range(m - 1, 0, -1):
                sub *= h[i][i - 1]
                p = p - Poly.const(h[i - 1][m - 1] * sub) * ps[i - 1]
            ps.append(p)
        return ps[n]

    def __repr__(self):
        return "Mat(%r)" % ([[str(x) for x in r] for r in self.rows],)


def _rref(a, ncols):
    """Gauss-Jordan on the rows a (lists, changed in place) over the first
    ncols columns; returns the pivot columns. Pivot rows come first,
    scaled to pivot 1, with their pivot columns cleared elsewhere."""
    n = len(a)
    pivots = []
    for j in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, n) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][j]
        a[row] = [x * inv for x in a[row]]
        for i in range(n):
            if i != row and a[i][j]:
                t = a[i][j]
                a[i] = [x - t * y for x, y in zip(a[i], a[row])]
        pivots.append(j)
        if len(pivots) == n:
            break
    return pivots


def solve(M, b):
    """One exact solution x of M x = b (raises Inconsistent if none)."""
    n, m = M.nrows, M.ncols
    if len(b) != n:
        raise DimensionMismatch("right-hand side length mismatch")
    a = [list(r) + [Fraction(b[i])] for i, r in enumerate(M.rows)]
    pivots = _rref(a, m)
    for i in range(len(pivots), n):
        if a[i][m] != 0:
            raise Inconsistent("linear system has no solution")
    x = [Fraction(0)] * m
    for i, j in enumerate(pivots):
        x[j] = a[i][m]
    return tuple(x)


def kernel(M):
    """Basis of the right null space of M, as a list of tuples."""
    m = M.ncols
    a = [list(r) for r in M.rows]
    pivots = _rref(a, m)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -a[i][j]
        basis.append(tuple(v))
    return basis


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
        col = []
        for x in g:
            fx = Fraction(x)
            if fx.denominator != 1:
                raise NonIntegral("HNF needs integer entries")
            col.append(fx.numerator)
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
