from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitforge import matrix
from orbitforge.errors import Inconsistent, NonIntegral, NotMonic, NotSquare
from orbitforge.matrix import Mat
from orbitforge.poly import Poly


def test_mul_identity_and_inverse():
    m = Mat([[1, 2], [3, 5]])
    i2 = Mat.identity(2)
    assert m * i2 == m
    assert m * m.inv() == i2
    assert m.inv() * m == i2


def test_det_known():
    assert Mat([[1, 2], [3, 4]]).det() == -2
    assert Mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
    assert Mat([[2, 0], [0, 3]]).det() == 6
    assert Mat([[1, 2], [2, 4]]).det() == 0


def test_singular_inverse():
    with pytest.raises(Inconsistent):
        Mat([[1, 2], [2, 4]]).inv()


def test_charpoly_companion():
    f = Poly([-2, 0, 0, 1])  # x^3 - 2
    assert Mat.companion(f).charpoly() == f
    g = Poly([3, -1, 4, 0, 1])
    assert Mat.companion(g).charpoly() == g
    with pytest.raises(NotMonic):
        Mat.companion(Poly([1, 0, 2]))  # 2x^2 + 1


def test_charpoly_small():
    assert Mat([[0, 0], [0, 0]]).charpoly() == Poly([0, 0, 1])
    assert Mat([[0, 1], [1, 0]]).charpoly() == Poly([-1, 0, 1])
    assert Mat.diag([1, 2, 3]).charpoly() == Poly.from_roots([1, 2, 3])


entry = st.integers(min_value=-5, max_value=5)


@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
def test_charpoly_similarity_invariant(rows):
    m = Mat(rows)
    u = Mat([[1, 1, 0], [0, 1, 2], [0, 0, 1]])  # unipotent, invertible
    assert (u * m * u.inv()).charpoly() == m.charpoly()


@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
def test_charpoly_matches_det_definition(rows):
    m = Mat(rows)
    f = m.charpoly()
    # evaluate det(xI - M) at x = 7 directly
    x = 7
    d = (Mat.identity(3) * x - m).det()
    assert f(x) == d


def test_solve_and_kernel():
    m = Mat([[1, 2], [3, 4]])
    x = matrix.solve(m, (5, 6))
    assert m.apply(x) == (5, 6)
    sing = Mat([[1, 2], [2, 4]])
    with pytest.raises(Inconsistent):
        matrix.solve(sing, (1, 0))
    ker = matrix.kernel(sing)
    assert len(ker) == 1
    assert sing.apply(ker[0]) == (0, 0)


def test_solve_underdetermined():
    m = Mat([[1, 1, 1]])
    x = matrix.solve(m, (3,))
    assert sum(x) == 3


def test_hnf_identity():
    cols = matrix.hnf_columns([(1, 0), (0, 1)])
    assert cols == [(1, 0), (0, 1)]


def test_hnf_index_two_lattice():
    # oracle: the lattice spanned by (2,0), (0,2), (1,1) is
    # {(x, y) : x + y even}, index 2, HNF basis columns (1,1), (0,2)
    cols = matrix.hnf_columns([(2, 0), (0, 2), (1, 1)])
    assert cols == [(1, 1), (0, 2)]


def test_hnf_permutation_invariant():
    gens = [(4, 2), (2, 8), (6, 6)]
    base = matrix.hnf_columns(gens)
    import itertools

    for perm in itertools.permutations(gens):
        assert matrix.hnf_columns(list(perm)) == base


def test_hnf_rejects_rationals():
    with pytest.raises(NonIntegral):
        matrix.hnf_columns([(Fraction(1, 2), 0), (0, 1)])


def test_hnf_rank_deficient():
    cols = matrix.hnf_columns([(2, 4), (1, 2)])
    assert cols == [(1, 2)]


def test_apply_and_shape_errors():
    m = Mat([[1, 2, 3], [4, 5, 6]])
    assert m.apply((1, 0, 0)) == (1, 4)
    assert m.transpose().rows == ((1, 4), (2, 5), (3, 6))
    with pytest.raises(NotSquare):
        m.det()


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction definitions they replaced


def _ref_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in bt] for row in a]


def _ref_det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            out = -out
        out *= a[j][j]
        for i in range(j + 1, n):
            t = a[i][j] / a[j][j]
            for k in range(j, n):
                a[i][k] -= t * a[j][k]
    return out


def _ref_rref(a, ncols):
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
    return pivots


def _ref_inv(rows):
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    if len(_ref_rref(a, n)) < n:
        return None
    return [r[n:] for r in a]


def _ref_solve(rows, b):
    m = len(rows[0])
    a = [[Fraction(x) for x in r] + [Fraction(y)] for r, y in zip(rows, b)]
    pivots = _ref_rref(a, m)
    if any(a[i][m] != 0 for i in range(len(pivots), len(a))):
        return None
    x = [Fraction(0)] * m
    for i, j in enumerate(pivots):
        x[j] = a[i][m]
    return tuple(x)


def _ref_kernel(rows):
    m = len(rows[0])
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = _ref_rref(a, m)
    basis = []
    for j in (j for j in range(m) if j not in pivots):
        v = [Fraction(0)] * m
        v[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -a[i][j]
        basis.append(tuple(v))
    return basis


def _ref_charpoly(rows):
    """Hessenberg reduction and the leading-minor recurrence, on ascending
    coefficient lists of Fractions."""
    n = len(rows)
    h = [[Fraction(x) for x in r] for r in rows]
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

    def times_x_minus(c, a):
        return [-a * c[0]] + [c[k - 1] - a * (c[k] if k < len(c) else 0)
                              for k in range(1, len(c) + 1)]

    ps = [[Fraction(1)]]
    for m in range(1, n + 1):
        p = times_x_minus(ps[m - 1], h[m - 1][m - 1])
        sub = Fraction(1)
        for i in range(m - 1, 0, -1):
            sub *= h[i][i - 1]
            t = h[i - 1][m - 1] * sub
            for k, c in enumerate(ps[i - 1]):
                p[k] -= t * c
        ps.append(p)
    return ps[n]


def _random_rows(rng, n, m):
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 5, 12]))

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    shape = rng.random()
    if n > 1 and shape < 0.15:
        rows[rng.randrange(n)] = [Fraction(0)] * m           # a zero row
    elif n > 2 and shape < 0.35:
        i, j, k = rng.sample(range(n), 3)                    # rank deficient
        s, t = entry(), entry()
        rows[k] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    elif n > 1 and shape < 0.45:
        i, j = rng.sample(range(n), 2)                       # repeated row
        rows[j] = [Fraction(-3, 2) * x for x in rows[i]]
    return rows


def _cases(count, square=None):
    import random

    rng = random.Random("matrix-kernels")
    for _ in range(count):
        n = rng.randint(1, 6)
        m = n if square or rng.random() < 0.5 else rng.randint(1, 6)
        if square is False and m == n:
            m = n + 1
        yield rng, _random_rows(rng, n, m)


def test_mul_and_apply_match_fraction_definitions():
    for rng, a in _cases(300):
        k = rng.randint(1, 5)
        b = _random_rows(rng, len(a[0]), k)
        assert (Mat(a) * Mat(b)).rows == tuple(map(tuple, _ref_mul(a, b)))
        v = [row[0] for row in _random_rows(rng, len(a[0]), 1)]
        ref = _ref_mul(a, [[x] for x in v])
        assert Mat(a).apply(v) == tuple(r[0] for r in ref)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        assert (Mat(a) * s).rows == tuple(tuple(x * s for x in r) for r in a)


def test_det_inv_charpoly_match_fraction_definitions():
    singular = 0
    for rng, a in _cases(300, square=True):
        m = Mat(a)
        assert m.det() == _ref_det(a)
        ref = _ref_inv(a)
        if ref is None:
            singular += 1
            with pytest.raises(Inconsistent):
                m.inv()
        else:
            assert m.inv().rows == tuple(map(tuple, ref))
        f = m.charpoly()
        assert list(f.c) == _ref_charpoly(a)
        n = len(a)
        for x in (Fraction(0), Fraction(3), Fraction(-5, 2), Fraction(7, 3)):
            xi = [[x * (i == j) - a[i][j] for j in range(n)] for i in range(n)]
            assert f(x) == _ref_det(xi)
    assert singular > 20


def test_solve_kernel_match_fraction_definitions():
    inconsistent = nontrivial = 0
    for rng, a in _cases(400):
        b = [r[0] for r in _random_rows(rng, len(a), 1)]
        ref = _ref_solve(a, b)
        if ref is None:
            inconsistent += 1
            with pytest.raises(Inconsistent):
                matrix.solve(Mat(a), b)
        else:
            assert matrix.solve(Mat(a), b) == ref
        ker = matrix.kernel(Mat(a))
        assert ker == _ref_kernel(a)
        nontrivial += bool(ker)
        for v in ker:
            assert all(x == 0 for x in Mat(a).apply(v))
    assert inconsistent > 20 and nontrivial > 50


def test_storage_is_canonical():
    m = Mat([[Fraction(1, 2), Fraction(3, 4)], [0, Fraction(-5, 6)]])
    assert m.den == 12 and m.num == ((6, 9), (0, -10))
    half = Fraction(1, 2)
    assert Mat([[2, 4], [6, 8]], 4) == Mat([[half, 1], [3 * half, 2]])
    assert Mat([[2, 4], [6, 8]], 4).den == 2
    assert (m - m).den == 1 and (m * 0).num == ((0, 0), (0, 0))
    assert Mat([[Fraction(7, 3)]]).charpoly() == Poly([Fraction(-7, 3), 1])
    assert Mat([[Fraction(7, 3)]]).inv() == Mat([[Fraction(3, 7)]])


def _ref_polymul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_polyadd(a, b):
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_interpolate(samples):
    total = []
    for i, (ui, vi) in enumerate(samples):
        term = [vi]
        for j, (uj, _) in enumerate(samples):
            if j != i:
                term = _ref_polymul(term, [-uj / (ui - uj), 1 / (ui - uj)])
        total = _ref_polyadd(total, term)
    return total


def test_interpolate_matches_lagrange():
    import math
    import random

    rng = random.Random("interpolate")

    def coeff(den):
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-20, 20), rng.choice(den))

    round_trips = 0
    for _ in range(400):
        f = Poly([coeff([1, 1, 2, 3, 7]) for _ in range(rng.randint(0, 9))])
        nodes = rng.sample([Fraction(n, rng.choice([1, 2, 3]))
                            for n in range(-9, 10)], rng.randint(0, 6))
        samples = [(u, coeff([1, 2, 5])) for u in sorted(set(nodes))]
        p = matrix.interpolate(samples)
        assert list(p.c) == _ref_interpolate(samples)
        assert p.num == tuple(x * p.den for x in p.c)
        assert p.den > 0 and math.gcd(p.den, *p.num) == 1
        if len(samples) > f.degree:
            round_trips += 1
            values = iter([(u, f(u)) for u, _ in samples])  # one pass
            assert matrix.interpolate(values) == f
    assert round_trips > 50


# ---------------------------------------------------------------------------
# integer lattice kernels


def _unimodular(rng, n, steps=12):
    """A random integer matrix of determinant 1, as rows."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return u


def test_lattice_kernel_is_the_saturated_kernel():
    import random
    from itertools import combinations
    from math import gcd

    rng = random.Random("lattice-kernel")
    for _ in range(150):
        k, m = rng.randint(1, 3), rng.randint(3, 8)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(k)]
        basis = matrix.lattice_kernel(rows)
        for v in basis:
            assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
        assert len(basis) == len(matrix.kernel(Mat(rows)))  # m - rank
        assert matrix.hnf_columns(basis) == basis
        if basis:
            # the gcd of the maximal minors is 1: the kernel is saturated
            g = 0
            for sel in combinations(range(m), len(basis)):
                minor = Mat([[v[i] for v in basis] for i in sel]).det()
                g = gcd(g, minor.numerator)
            assert g == 1


def test_lattice_kernel_matches_projection_generators():
    # reference: the projections of the unit vectors onto the orthogonal
    # complement of a norm-s vector b, and of a hyperbolic plane (x, y)
    import random

    from orbitforge.quadform import standard_gram

    def gvec(g, v):
        return [sum(a * x for a, x in zip(row, v)) for row in g]

    rng = random.Random("lattice-kernel-projections")
    for _ in range(40):
        d = rng.choice((3, 5, 7))
        u = Mat(_unimodular(rng, d))
        uinv = u.inv()
        cols = [[int(x) for x in c] for c in uinv.cols()]
        # g = U^T D U with D = diag(+-1): b = U^-1 e_0 has norm s = D_00
        dg = [rng.choice((-1, 1)) for _ in range(d)]
        g = [[int(x) for x in r] for r in (u.transpose() * Mat.diag(dg) * u).rows]
        b, s = cols[0], dg[0]
        gb = gvec(g, b)
        gens = [[int(i == k) - s * gb[i] * b[k] for k in range(d)]
                for i in range(d)]
        assert matrix.hnf_columns(gens) == matrix.lattice_kernel([gb])
        # g = U^T J U with J anti-diagonal: x = U^-1 e_0 is isotropic and
        # y = U^-1 e_(d-1) has g(x, y) = 1
        g = [[int(v) for v in r]
             for r in (u.transpose() * standard_gram(d // 2) * u).rows]
        x, y = cols[0], cols[d - 1]
        gx, gy = gvec(g, x), gvec(g, y)
        c = sum(a * b for a, b in zip(y, gy))
        gens = [[int(i == k) - (gy[i] - c * gx[i]) * x[k] - gx[i] * y[k]
                 for k in range(d)] for i in range(d)]
        assert matrix.hnf_columns(gens) == matrix.lattice_kernel([gx, gy])
