import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import quadform as qf
from orbitforge.errors import (
    Anisotropic,
    Degenerate,
    NonSquareComplement,
    NotIsotropic,
    NotSplit,
    WrongDimension,
    ZeroArgument,
)
from orbitforge.matrix import Mat
from orbitforge.quadform import INF, QuadSpace


def D(*entries):
    return QuadSpace(Mat.diag(list(entries)))


def test_quadspace_validation():
    with pytest.raises(Degenerate):
        QuadSpace(Mat([[1, 2], [3, 4]]))  # not symmetric
    with pytest.raises(Degenerate):
        QuadSpace(Mat([[1, 1], [1, 1]]))  # singular


def test_diagonalize_hyperbolic_plane():
    s = QuadSpace(Mat([[0, 1], [1, 0]]))
    dvals, u = qf.diagonalize(s)
    assert u.transpose() * s.gram * u == Mat.diag(dvals)
    assert all(d != 0 for d in dvals)
    from orbitforge.arith import squarefree_part

    assert sorted(squarefree_part(d) for d in dvals) == [-2, 2]


def test_diagonalize_already_diagonal():
    s = D(1, -1, 3)
    dvals, u = qf.diagonalize(s)
    assert dvals == [1, -1, 3]
    assert u == Mat.identity(3)


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_diagonalize_random_symmetric(rows):
    m = Mat(rows)
    sym = m + m.transpose()
    if sym.det() == 0:
        return
    s = QuadSpace(sym)
    dvals, u = qf.diagonalize(s)
    assert u.transpose() * s.gram * u == Mat.diag(dvals)


def test_hilbert_symbol_examples():
    assert qf.hilbert_symbol(-1, -1, INF) == -1
    assert qf.hilbert_symbol(-1, 2, INF) == 1
    for p in (2, 3, 5, 7):
        assert qf.hilbert_symbol(1, 17, p) == 1
    assert qf.hilbert_symbol(2, 3, 3) == -1
    assert qf.hilbert_symbol(-1, -1, 2) == -1
    assert qf.hilbert_symbol(2, 2, 2) == 1  # 2*1^2 + 2*1^2 = 2^2
    assert qf.hilbert_symbol(2, 7, 7) == 1  # 2 is a QR mod 7
    assert qf.hilbert_symbol(3, 7, 7) == -1  # 3 is not
    with pytest.raises(ZeroArgument):
        qf.hilbert_symbol(0, 1, 3)


def _relevant_places(a, b):
    from orbitforge.arith import factorize, squarefree_part

    ps = {2}
    for x in (a, b):
        s = squarefree_part(x)
        ps.update(factorize(abs(s)))
    return [INF] + sorted(ps)


@settings(max_examples=60)
@given(st.integers(-40, 40).filter(lambda x: x != 0),
       st.integers(-40, 40).filter(lambda x: x != 0),
       st.integers(-40, 40).filter(lambda x: x != 0))
def test_hilbert_bimultiplicative(a, b, c):
    for v in _relevant_places(a * b, c):
        lhs = qf.hilbert_symbol(a * b, c, v)
        assert lhs == qf.hilbert_symbol(a, c, v) * qf.hilbert_symbol(b, c, v)


@settings(max_examples=60)
@given(st.integers(-50, 50).filter(lambda x: x != 0),
       st.integers(-50, 50).filter(lambda x: x != 0))
def test_hilbert_product_formula(a, b):
    prod = 1
    for v in _relevant_places(a, b):
        prod *= qf.hilbert_symbol(a, b, v)
    assert prod == 1


def test_invariants_examples():
    inv = qf.invariants(D(1, 1, 1))
    assert (inv.disc_class, inv.signature) == (1, (3, 0))
    assert not inv.hasse_minus

    inv = qf.invariants(D(-1, -1))
    assert inv.signature == (0, 2)
    assert inv.hasse_at(2) == -1
    assert inv.hasse_at(INF) == -1
    assert inv.hasse_at(3) == 1

    inv = qf.invariants(QuadSpace(qf.standard_gram(1)))
    assert inv.disc_class == -1
    assert inv.signature == (2, 1)


def test_hasse_symbol_by_prefix_products():
    # prod_{i<j} (d_i, d_j)_v = prod_{j>=2} (d_1 ... d_(j-1), d_j)_v, at
    # infinity, at 2 and at every prime of the entries; invariants takes
    # the right-hand side, and must agree with the pairwise definition
    import random
    from orbitforge.arith import factorize
    rng = random.Random(2113)
    for _ in range(120):
        dvals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 400),
                          rng.randint(1, 60))
                 for _ in range(rng.randint(3, 7))]
        primes = {2}
        for d in dvals:
            primes |= set(factorize(d.numerator * d.denominator))
        minus = set()
        for v in [INF] + sorted(primes):
            pairwise = math.prod(qf.hilbert_symbol(a, b, v)
                                 for i, a in enumerate(dvals)
                                 for b in dvals[i + 1:])
            prefix = math.prod(qf.hilbert_symbol(math.prod(dvals[:j]),
                                                 dvals[j], v)
                               for j in range(1, len(dvals)))
            assert prefix == pairwise
            if pairwise == -1:
                minus.add(v)
        assert qf.invariants(D(*dvals)).hasse_minus == minus


def test_is_isometric_examples():
    assert qf.is_isometric(D(1, -2), D(2, -1))
    assert not qf.is_isometric(D(1, 1), D(1, -1))
    assert not qf.is_isometric(D(1, -1), D(2, -2) if False else D(1, -3))
    # cross-check for diag(1,-2) ~ diag(2,-1): 2*1^2 - 1*1^2 = 1
    assert 2 * 1 - 1 == 1


@settings(max_examples=30)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_invariants_congruence_invariant(rows):
    u = Mat(rows)
    if u.det() == 0:
        return
    s = QuadSpace(qf.standard_gram(1))
    assert qf.invariants(QuadSpace(u.transpose() * s.gram * u)) == qf.invariants(s)


def test_is_split_odd():
    for n in range(1, 5):
        assert qf.is_split_odd(QuadSpace(qf.standard_gram(n)))
    assert qf.is_split_odd(D(1, 1, -1))
    assert not qf.is_split_odd(D(-1, -1, -1))
    assert not qf.is_split_odd(D(1, 1, 1))  # wrong disc class, definite
    with pytest.raises(WrongDimension):
        qf.is_split_odd(D(1, -1))


def test_hyperbolic_completion_standard():
    s = QuadSpace(qf.standard_gram(2))
    m = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
    u = qf.hyperbolic_completion(s, m)
    assert u.transpose() * s.gram * u == qf.standard_gram(2)


def test_hyperbolic_completion_diag():
    s = D(1, 1, -1)
    u = qf.hyperbolic_completion(s, [(1, 0, 1)])
    assert u.transpose() * s.gram * u == qf.standard_gram(1)


def test_hyperbolic_completion_errors():
    s = D(1, 1, -1)
    with pytest.raises(NotIsotropic):
        qf.hyperbolic_completion(s, [(1, 0, 0)])
    with pytest.raises(WrongDimension):
        qf.hyperbolic_completion(s, [(1, 0, 1), (0, 0, 0)])
    with pytest.raises(NonSquareComplement):
        qf.hyperbolic_completion(D(1, -1, 2), [(1, 1, 0)])


def test_find_isotropic_vector():
    for s in (D(1, 1, -1), D(1, 1, -2), D(2, 3, -5), D(1, -1, 7)):
        v = qf.find_isotropic_vector(s)
        assert any(v)
        assert s.q(v) == 0
    with pytest.raises(Anisotropic, match="inf"):
        qf.find_isotropic_vector(D(1, 1, 1))
    with pytest.raises(Anisotropic, match="7"):
        qf.find_isotropic_vector(D(1, 1, -7))  # anisotropic at 7
    # the kernel mod 3 is 2-dimensional, so the minimization at 3 refuses
    with pytest.raises(Anisotropic, match="at 2, 3$"):
        qf.find_isotropic_vector(D(1, 3, -6))


def test_split_implies_isotropic_dim3():
    # constructive cross-check of the split test on dim-3 instances
    import itertools

    for a, b, c in itertools.product((1, -1, 2, -2, 3, -3), repeat=3):
        s = D(a, b, c)
        if qf.is_split_odd(s):
            v = qf.find_isotropic_vector(s)
            assert s.q(v) == 0 and any(v)


def test_anisotropic_places():
    assert qf.anisotropic_places(D(1, 1, 1)) == [INF, 2]
    assert qf.anisotropic_places(D(1, 1, -7)) == [2, 7]
    assert qf.anisotropic_places(D(1, 1, -1)) == []
    assert qf.anisotropic_places(D(1, 1, 1, 1)) == [INF, 2]  # quaternions
    # 7 is not a sum of three squares in Q_2; -7 is no square in Q_7
    assert qf.anisotropic_places(D(1, 1, 1, -7)) == [2]
    assert qf.anisotropic_places(D(1, 1, 1, 1, -1)) == []


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.integers(1, 6))
def test_ternary_solver_agrees_with_local_invariants(rows, den):
    # exact in both directions: a vector when isotropic, else the places
    m = Mat(rows)
    g = m + m.transpose()
    if g.det() == 0:
        return
    s = QuadSpace(g * Fraction(1, den))
    places = qf.anisotropic_places(s)
    if places:
        with pytest.raises(Anisotropic):
            qf.find_isotropic_vector(s)
    else:
        v = qf.find_isotropic_vector(s)
        assert any(v) and s.q(v) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 5))
def test_maximal_isotropic_subspace_of_split_spaces(n, seed, scale):
    # a random integral change of basis of the split space, rescaled
    import random

    rng = random.Random(seed)
    d = 2 * n + 1
    while True:
        u = Mat([[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)])
        if u.det() != 0:
            break
    s = QuadSpace(u.transpose() * qf.standard_gram(n) * u
                  * Fraction(scale, rng.randint(1, 5)) ** 2)
    vecs = qf.maximal_isotropic_subspace(s)
    assert len(vecs) == n
    assert all(s.bilinear(v, w) == 0 for v in vecs for w in vecs)
    u2 = qf.hyperbolic_completion(s, vecs)
    assert u2.transpose() * s.gram * u2 == qf.standard_gram(n)


def _majorant_reference(g):
    """The Hermite majorant as one Fraction sum per entry: P_ij = sum_k
    |d_k| v_ki v_kj, V the inverse of the diagonalizing matrix."""
    dvals, u = qf._diagonalize(g, 1)
    v = u.inv().rows
    m = len(g)
    return dvals, [[sum(abs(d) * r[i] * r[j] for d, r in zip(dvals, v))
                    for j in range(m)] for i in range(m)]


def _moved(rng, base):
    """U^T base U as integer rows, U a product of 3m seeded integer
    elementary matrices."""
    m = base.nrows
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-3, 3)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    u = Mat(u)
    return [list(r) for r in (u.transpose() * base * u).num]


def test_majorant_matches_the_fraction_sums():
    # seeded unimodular Grams: a +-1 diagonal or a split form, moved by a
    # product of integer elementary matrices
    import random

    rng = random.Random(15001)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = 2 * n + 1
        base = (qf.standard_gram(n) if rng.random() < 0.5 else
                Mat.diag([rng.choice((1, -1)) for _ in range(m)]))
        g = _moved(rng, base)
        dvals, maj, c = qf._majorant(g)
        want_d, want = _majorant_reference(g)
        assert dvals == want_d
        assert [[Fraction(x, c) for x in r] for r in maj] == want


def _fraction_lll(gram):
    """Reference: the rational LLL (Cohen, Algorithm 2.6.3, on the Gram
    matrix, delta = 99/100) in Fractions, whose steps the integral one
    must take; (H, mu, bstar) as qf._lll returns them."""
    n = len(gram)
    g = [[Fraction(x) for x in r] for r in gram]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [g[0][0]] + [Fraction(0)] * (n - 1)

    def red(k, l):
        q = round(mu[k][l])
        if q == 0:
            return
        h[k] = [a - q * b for a, b in zip(h[k], h[l])]
        gkk = g[k][k] - 2 * q * g[k][l] + q * q * g[l][l]
        for i in range(n):
            g[k][i] -= q * g[l][i]
        g[k][k] = gkk
        for i in range(n):
            g[i][k] = g[k][i]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for r in g:
            r[k], r[k - 1] = r[k - 1], r[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        m_ = mu[k][k - 1]
        b = bstar[k] + m_ * m_ * bstar[k - 1]
        mu[k][k - 1] = m_ * bstar[k - 1] / b
        bstar[k] = bstar[k - 1] * bstar[k] / b
        bstar[k - 1] = b
        for i in range(k + 1, kmax + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m_ * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k):
                mu[k][j] = (g[k][j] - sum(mu[j][i] * mu[k][i] * bstar[i]
                                          for i in range(j))) / bstar[j]
            bstar[k] = g[k][k] - sum(mu[k][j] ** 2 * bstar[j]
                                     for j in range(k))
        red(k, k - 1)
        if bstar[k] < (Fraction(99, 100) - mu[k][k - 1]**2) * bstar[k - 1]:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return h, mu, bstar


# Grams where size reduction meets an exact tie mu = +-1/2 (or 5/2),
# which rounds half to even: the tie stays unreduced (or goes to 2)
LLL_TIES = ([[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[2, 5], [5, 13]],
            [[2, 0, 1], [0, 2, -1], [1, -1, 2]],
            [[4, 2, 2], [2, 4, 2], [2, 2, 4]])


def test_integral_lll_matches_the_fraction_lll():
    # seeded positive definite Grams B^T B of dimension 2 to 9, entries of
    # B mostly in {-1, 0, 1} so that exact ties come up, each also scaled
    # by a denominator; and the tie Grams above
    import random

    rng = random.Random(35)
    ties = 0
    cases = [(g, 1) for g in LLL_TIES]
    while len(cases) < 240:
        n = rng.randint(2, 9)
        top = rng.choice((1, 1, 2, 5))
        b = [[rng.randint(-top, top) for _ in range(n)]
             for _ in range(n + rng.randint(0, 2))]
        g = [[sum(r[i] * r[j] for r in b) for j in range(n)]
             for i in range(n)]
        if Mat(g).det() != 0:
            cases.append((g, rng.randint(1, 6)))
    for g, den in cases:
        want = _fraction_lll([[Fraction(x, den) for x in r] for r in g])
        got = qf._lll(g, den) if den > 1 else qf._lll(g)
        assert got == want, g
        ties += any(abs(m) == Fraction(1, 2) for r in want[1] for m in r)
    assert ties >= len(LLL_TIES)


def test_maximal_isotropic_subspace_needs_split():
    with pytest.raises(Anisotropic):
        qf.maximal_isotropic_subspace(D(1, 1, 1, 1, 1))
    # isotropic (Witt index 1) but not split
    with pytest.raises(NotSplit):
        qf.maximal_isotropic_subspace(D(1, 1, 1, 1, -1))


def _not_reached(*args):
    raise AssertionError("this path should not run")


def test_unimodular_isotropic_binary(monkeypatch):
    # b^2 - ac = 1 factors an indefinite unimodular binary: no reduction
    monkeypatch.setattr(qf, "_lll", _not_reached)
    for g in ([[1, 0], [0, -1]], [[1, 2], [2, 3]], [[-3, 5], [5, -8]]):
        x = qf._unimodular_isotropic(g)
        assert any(x) and qf._qval(g, x) == 0


def test_unimodular_isotropic_from_the_reduced_basis(monkeypatch):
    # U^T diag(+-1) U for seeded unimodular U: a reduced basis vector
    # with majorant below 1 is isotropic, and no enumeration runs
    import random

    monkeypatch.setattr(qf, "_short_vectors", _not_reached)
    rng = random.Random(22)
    hits = 0
    for _ in range(40):
        m = rng.randint(3, 7)
        g = _moved(rng, Mat.diag([1, -1] + [rng.choice((1, -1))
                                            for _ in range(m - 2)]))
        if any(g[i][i] == 0 for i in range(m)):
            continue  # a basis vector is isotropic: no reduction runs
        try:
            x = qf._unimodular_isotropic(g)
        except AssertionError:
            continue
        assert any(x) and qf._qval(g, x) == 0
        hits += 1
    assert hits >= 20


def test_unimodular_isotropic_splits_off_a_unit(monkeypatch):
    # with the isotropic vectors at bound 2 withheld, a unit b splits off:
    # its complement is indefinite (recursion) or definite (b + w)
    real = qf._short_vectors
    for entries in ((1, 1, -1), (1, -1, -1), (1, 1, 1, -1), (1, -1, -1, -1),
                    (1, 1, -1, -1, -1)):
        g = [[e if i == j else 0 for j, _ in enumerate(entries)]
             for i, e in enumerate(entries)]

        def withheld(reduced, bound, g=g):
            vecs = real(reduced, bound)
            if bound == 2 and len(reduced[0]) == len(g):
                vecs = [x for x in vecs if qf._qval(g, x) != 0]
            return vecs

        monkeypatch.setattr(qf, "_short_vectors", withheld)
        x = qf._unimodular_isotropic(g)
        assert any(x) and qf._qval(g, x) == 0, entries


def test_isotropic_vector_past_a_unit_with_an_e8_complement(monkeypatch):
    # <-1> + E8 is odd, indefinite and unimodular; the unit e0 has the
    # definite complement E8, which has no vector of norm 1
    e8 = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
        e8[a][b] = e8[b][a] = -1
    g = [[-1] + [0] * 8] + [[0] + r for r in e8]
    assert Mat(g).det() == -1
    assert qf._split_off_unit(g, [1] + [0] * 8, -1) is None
    split = []
    real = qf._split_off_unit

    def recorded(g, b, s):
        split.append(tuple(b))
        return real(g, b, s)

    monkeypatch.setattr(qf, "_split_off_unit", recorded)
    x = qf._unimodular_isotropic(g)
    assert any(x) and qf._qval(g, x) == 0
    # a unit that failed at one bound is not split again at the next
    assert split[0] == (1,) + (0,) * 8 and len(set(split)) == len(split)
    s = QuadSpace(g)
    v = qf.find_isotropic_vector(s)
    assert any(v) and s.q(v) == 0


def test_solver_names_the_factoring_budget(monkeypatch):
    # the solver lets the factoring budget's own exception through
    from orbitforge.errors import BudgetExceeded, FactorizationTimeout

    def broke(n):
        raise FactorizationTimeout("budget")

    monkeypatch.setattr(qf, "factorize", broke)
    with pytest.raises(FactorizationTimeout) as e:
        qf.find_isotropic_vector(D(1, 1, -2))
    assert isinstance(e.value, BudgetExceeded) and str(e.value) == "budget"


def test_factoring_budget_reaches_a_direct_solver_call(monkeypatch):
    # f = x^3 - 2, alpha = (10029 - b)^2: N(10029 - b) = 732713 * 1376699,
    # so factoring the twisted determinant needs rho, and 50 iterations
    # are not enough
    from orbitforge import arith
    from orbitforge.errors import BudgetExceeded, FactorizationTimeout
    from orbitforge.etale import EtaleAlgebra
    from orbitforge.orbits import SYM2, gram_alpha
    from orbitforge.poly import Poly
    f = Poly([-2, 0, 0, 1])
    c = EtaleAlgebra(f).element([10029, -1])
    assert c.norm() == 732713 * 1376699
    monkeypatch.setattr(arith, "FACTOR_RHO_BUDGET", 50)
    with pytest.raises(FactorizationTimeout) as e:
        qf.maximal_isotropic_subspace(gram_alpha(f, c * c, SYM2))
    assert isinstance(e.value, BudgetExceeded)
    assert "FACTOR_RHO_BUDGET = 50" in str(e.value)


def test_representative_from_alpha_factors_each_integer_once(monkeypatch):
    # the split test and the minimization read the same primes of the
    # twisted determinant and of the Gram's denominator: one factoring each
    from collections import Counter

    from orbitforge.etale import EtaleAlgebra
    from orbitforge.orbits import SYM2, representative_from_alpha
    from orbitforge.poly import Poly

    f = Poly([3, -1, 4, 1, -5, 9, -2, 1])
    alg = EtaleAlgebra(f)
    u = alg.element([7, -3, 2, 5, -1, 4, 6])
    seen = Counter()
    real = qf.factorize

    def counting(n, *args, **kwargs):
        seen[abs(n)] += 1
        return real(n, *args, **kwargs)

    monkeypatch.setattr(qf, "factorize", counting)
    o = representative_from_alpha(f, u * u, SYM2)
    assert o.op.charpoly() == f
    assert any(n > 1 for n in seen)
    assert all(k == 1 for k in seen.values()), seen
