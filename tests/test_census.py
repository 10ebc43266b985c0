"""Tests for finite censuses and local/real orbit counts."""

import hashlib
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.census import (CensusRow, charpoly_key, count_factors_fp,
                               finite_census, orbit_count_local,
                               orbit_count_real, so_order, _charpolys,
                               _digits_array, _gram_np,
                               _ops_from_digits, _orbit_labels,
                               _separable_keys, _so3_elements)
from orbitforge.errors import (BadPrime, BudgetExceeded, EvenPrime, EvenQ,
                               MaximalRankHypothesisFails, NonSeparableModP,
                               NotOperatorRep, WrongDimension)
from orbitforge.matrix import Mat
from orbitforge.orbits import (ADJOINT, STANDARD, SYM2,
                              construct_representative)
from orbitforge.poly import Poly, fp_count_factors

X3_MINUS_X = Poly([0, -1, 0, 1])
X3_PLUS_X = Poly([0, 1, 0, 1])
X3_PLUS_2X = Poly([0, 2, 0, 1])
X5_SKEW = Poly([0, 2, 0, 3, 0, 1])      # x(x^2+1)(x^2+2)
X5_TOTREAL = Poly([0, 4, 0, -5, 0, 1])  # x(x-1)(x+1)(x-2)(x+2)
X5_MINUS_X = Poly([0, -1, 0, 0, 0, 1])


@pytest.fixture(scope="module")
def census3_sym2():
    return finite_census(3, 1, SYM2)


@pytest.fixture(scope="module")
def census3_adj():
    return finite_census(3, 1, ADJOINT)


@pytest.fixture(scope="module")
def census5_sym2():
    return finite_census(5, 1, SYM2)


@pytest.fixture(scope="module")
def census5dim_adj():
    return finite_census(3, 2, ADJOINT)


# ---------------------------------------------------------------------------
# group order formula against direct enumeration

def test_so_order_frozen():
    # independently verified by the enumeration test below
    assert so_order(1, 3) == 24
    assert so_order(1, 5) == 120
    assert so_order(1, 7) == 336
    assert so_order(2, 3) == 51840


def test_so_order_bad_inputs():
    with pytest.raises(EvenQ):
        so_order(1, 4)
    with pytest.raises(EvenQ):
        so_order(1, 2)
    with pytest.raises(ValueError):
        so_order(0, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_group_enumeration_matches_formula(p):
    G = _so3_elements(p)
    assert len(G) == so_order(1, p)


def test_group_elements_are_isometries():
    J = _gram_np(3)
    for p in (3, 5, 7, 13):
        G = _so3_elements(p)
        keys = {g.tobytes() for g in G}
        assert len(keys) == len(G)
        assert np.all((G >= 0) & (G < p))
        assert np.all(G.transpose(0, 2, 1) @ J @ G % p == J)
        assert all(Mat(g.tolist()).det() % p == 1 for g in G)
    # closure under a few products
    G = _so3_elements(5)
    keys = {g.tobytes() for g in G}
    for i, j in [(0, 1), (10, 97), (53, 118), (119, 119)]:
        prod = G[i] @ G[j] % 5
        assert prod.tobytes() in keys


def _so3_by_column_search(p):
    """Reference enumeration: columns chosen left to right by their
    pairing conditions, one determinant per candidate."""
    vecs = _digits_array(p ** 3, 3, p)
    qv = (2 * vecs[:, 0] * vecs[:, 2] + vecs[:, 1] ** 2) % p
    iso = vecs[(qv == 0) & np.any(vecs != 0, axis=1)]
    unit = vecs[qv == 1]
    out = []
    for g1 in iso:
        b1 = vecs @ g1[::-1] % p
        for g2 in unit[unit @ g1[::-1] % p == 0]:
            b2 = vecs @ g2[::-1] % p
            for g3 in vecs[(qv == 0) & (b1 == 1) & (b2 == 0)]:
                m = np.stack([g1, g2, g3], axis=1)
                if Mat(m.tolist()).det() % p == 1:
                    out.append(m)
    return np.stack(out)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_group_enumeration_matches_column_search(p):
    G = _so3_elements(p)
    assert G.dtype == np.int64
    assert np.array_equal(G, _so3_by_column_search(p))


# ---------------------------------------------------------------------------
# orbit labels against a union-find oracle


def _orbit_minima(perms, m):
    """Smallest member of each element's orbit, by union-find with every
    root the smallest member of its set."""
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for perm in perms:
        for x, y in enumerate(perm.tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return np.array([find(x) for x in range(m)])


def _cycle(order):
    """The permutation sending order[i] to order[i + 1], cyclically."""
    perm = np.empty(len(order), dtype=np.int64)
    perm[order] = np.roll(order, -1)
    return perm


def _labels_match_oracle(perms):
    perms = np.stack(perms)
    assert np.array_equal(_orbit_labels(perms),
                          _orbit_minima(perms, perms.shape[1]))


N_CYCLE = 10 ** 5


@pytest.mark.parametrize("order", [
    np.arange(N_CYCLE),                                  # x -> x + 1
    np.arange(N_CYCLE)[::-1],                            # x -> x - 1
    # labels rise and fall twice around the cycle: two long basins
    np.concatenate([np.arange(0, N_CYCLE, 4), np.arange(1, N_CYCLE, 4)[::-1],
                    np.arange(2, N_CYCLE, 4), np.arange(3, N_CYCLE, 4)[::-1]]),
    np.random.default_rng(5).permutation(N_CYCLE),
], ids=["ascending", "descending", "two-basins", "random"])
def test_orbit_labels_one_long_cycle(order):
    _labels_match_oracle([_cycle(order)])


def test_orbit_labels_mixed_cycle_lengths():
    rng = np.random.default_rng(11)
    lengths = [1, 1, 2, 3, 5, 8, 64, 1000, 3000, 7]
    points = rng.permutation(sum(lengths))
    perm = np.empty(len(points), dtype=np.int64)
    start = 0
    for n in lengths:
        block = points[start:start + n]
        perm[block] = np.roll(block, -1)
        start += n
    _labels_match_oracle([perm])
    _labels_match_oracle([perm, np.argsort(perm)])


@pytest.mark.parametrize("seed", range(4))
def test_orbit_labels_random_permutation_groups(seed):
    # random generators preserving a hidden partition into blocks, so the
    # group has as many orbits as blocks
    rng = np.random.default_rng(seed)
    m = 5000
    cuts = np.sort(rng.choice(np.arange(1, m), size=40, replace=False))
    blocks = np.split(rng.permutation(m), cuts)
    perms = []
    for _ in range(1 + seed):
        perm = np.empty(m, dtype=np.int64)
        for block in blocks:
            perm[block] = rng.permutation(block)
        perms.append(perm)
    _labels_match_oracle(perms)
    assert len(np.unique(_orbit_labels(np.stack(perms)))) >= len(blocks)


# ---------------------------------------------------------------------------
# factor counting mod p

def test_count_factors_frozen():
    assert count_factors_fp(X3_MINUS_X, 5) == 3   # x(x-1)(x+1)
    assert count_factors_fp(X3_MINUS_X, 7) == 3
    assert count_factors_fp(Poly([1, 0, 1]), 3) == 1   # x^2+1 inert mod 3
    assert count_factors_fp(Poly([1, 1, 0, 1]), 5) == 1  # no roots mod 5
    assert count_factors_fp(X3_PLUS_X, 5) == 3    # x(x-2)(x+2)


def test_count_factors_errors():
    with pytest.raises(NonSeparableModP):
        count_factors_fp(Poly([0, 0, 0, 1]), 3)
    with pytest.raises(BadPrime):
        count_factors_fp(X3_MINUS_X, 9)
    with pytest.raises(BadPrime):
        count_factors_fp(Poly([Fraction(1, 3), 0, 1]), 3)


# ---------------------------------------------------------------------------
# vectorized characteristic polynomial against the exact one

def _exact_charpoly(m, p):
    """Ascending coefficients mod p of the exact rational charpoly."""
    return tuple(int(a) % p for a in Mat(m.tolist()).charpoly().c)


def _stack_charpolys(T, p):
    """_charpolys of a stack, as one ascending tuple per operator."""
    c = [np.broadcast_to(x, len(T)) for x in _charpolys(T, p)]
    return [tuple(int(x) for x in col[::-1]) for col in zip(*c)]


def test_charpoly3_matches_exact_lift():
    p = 5
    digits = _digits_array(p ** 6, 6, p)[23::9341]
    T = _ops_from_digits(digits, 3, SYM2, p)
    assert _stack_charpolys(T, p) == [_exact_charpoly(m, p) for m in T]


@pytest.mark.parametrize("d, p", [(3, 31), (5, 3), (7, 5)])
def test_charpolys_match_exact_on_seeded_stacks(d, p):
    # entries anywhere in [0, p), the all-(p - 1) operator among them
    rng = np.random.default_rng(1000 * d + p)
    T = rng.integers(0, p, size=(200, d, d))
    T[0] = p - 1
    got = _stack_charpolys(T, p)
    assert got == [_exact_charpoly(m, p) for m in T]
    dets = (-1) ** d * _charpolys(T, p)[d] % p
    assert dets.tolist() == [Mat(m.tolist()).det() % p for m in T]


# ---------------------------------------------------------------------------
# dimension three censuses

def test_census_sym2_p3_frozen(census3_sym2):
    r = census3_sym2
    assert r.group_order == 24
    assert r.space_size == 729  # 3^6 self-adjoint operators
    assert sum(row.operator_count for row in r.rows) == 729
    row = r.row((0, 2, 0, 1))   # x^3 - x mod 3, three factors so 4 orbits
    assert row.separable
    assert row.operator_count == 24
    assert row.orbit_count == 4
    assert row.orbit_sizes == (6, 6, 6, 6)
    assert row.stabilizer_orders == (4, 4, 4, 4)


def test_census_sym2_orbit_count_law(census3_sym2, census5_sym2):
    # 2^m orbits and group-order many operators per separable class
    for r in (census3_sym2, census5_sym2):
        seen_separable = 0
        for row in r.rows:
            if not row.separable:
                continue
            seen_separable += 1
            f = Poly(list(row.key))
            m = count_factors_fp(f, r.p) - 1
            assert row.orbit_count == 2 ** m
            assert row.operator_count == r.group_order
            for s, st_ in zip(row.orbit_sizes, row.stabilizer_orders):
                assert s * st_ == r.group_order
        assert seen_separable > 0


def test_census_adjoint_p3_frozen(census3_adj):
    r = census3_adj
    assert r.space_size == 27   # 3^3 skew-adjoint operators
    assert sum(row.operator_count for row in r.rows) == 27
    sep = [row for row in r.rows if row.separable]
    assert len(sep) == 2        # x^3+x and x^3+2x are the only separable odds
    assert r.row((0, 1, 0, 1)).orbit_sizes == (6,)
    assert r.row((0, 1, 0, 1)).stabilizer_orders == (4,)
    assert r.row((0, 2, 0, 1)).orbit_sizes == (12,)
    assert r.row((0, 2, 0, 1)).stabilizer_orders == (2,)


def test_census_standard_p3_frozen():
    r = finite_census(3, 1, STANDARD)
    assert r.space_size == 27
    assert sum(row.operator_count for row in r.rows) == 27
    zero_row = r.row(0)
    # the zero vector alone, then all nonzero null vectors in one orbit
    assert zero_row.orbit_sizes == (1, 8)
    for d in (1, 2):
        assert r.row(d).orbit_count == 1


def test_census_standard_null_count_independent():
    # direct scan oracle: 3^2 = 9 vectors of F_3^3 satisfy 2ac + b^2 = 0
    null = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (2 * a * c + b * b) % 3 == 0:
                    null += 1
    r = finite_census(3, 1, STANDARD)
    assert sum(r.row(0).orbit_sizes) == null


def test_census_rows_are_partitions(census3_adj):
    for row in census3_adj.rows:
        assert sum(row.orbit_sizes) == row.operator_count
        assert row.complete


def test_census_polys_filter(census3_sym2):
    r = finite_census(3, 1, SYM2, polys=[X3_MINUS_X])
    assert len(r.rows) == 1
    assert r.rows[0] == census3_sym2.row((0, 2, 0, 1))


def test_census_polys_need_operator_classes():
    # vectors have no characteristic polynomial to select by
    for n in (1, 2):
        with pytest.raises(NotOperatorRep):
            finite_census(3, n, STANDARD, polys=[X3_PLUS_X])


@pytest.mark.parametrize("rep", [ADJOINT, STANDARD])
def test_census_p31_within_budget(rep):
    # the largest prime the default budget admits for these spaces
    t0 = time.perf_counter()
    r = finite_census(31, 1, rep)
    assert time.perf_counter() - t0 < 10
    G = so_order(1, 31)
    assert r.group_order == G == 29760
    assert sum(row.operator_count for row in r.rows) == 31 ** 3
    for row in r.rows:
        assert None not in row.stabilizer_orders
        for s, st_ in zip(row.orbit_sizes, row.stabilizer_orders):
            assert s * st_ == G
    with pytest.raises(BudgetExceeded):
        finite_census(37, 1, rep)


# sha256 prefixes of repr((header, row tuples)), recorded from the
# exhaustive canonical-minimum partition that the closure engine replaced
FINGERPRINTS = {
    (3, 1, SYM2): '37560b49ee9fbc1c',
    (5, 1, SYM2): '6b3c5e9934ae9929',
    (7, 1, SYM2): 'a3fd4250e96b7bd5',
    (3, 1, ADJOINT): 'c6f50713a2d678ab',
    (5, 1, ADJOINT): '4ccd7c2e38ecdc38',
    (7, 1, ADJOINT): '4d4726948c9dcbce',
    (3, 1, STANDARD): 'bda0fd35a34e80ca',
    (5, 1, STANDARD): 'e74e232e14bc16fe',
    (7, 1, STANDARD): '9fdf041c3abe6917',
    (13, 1, ADJOINT): '5fd32861cb188780',
    (13, 1, STANDARD): 'e42cd5e7e3f73e38',
    (3, 2, STANDARD): 'b5139cc10018b48e',
    (3, 2, ADJOINT): '0ca44f8f9f606a97',
}


def _fingerprint(r):
    head = (r.p, r.n, r.rep, r.mode, r.group_order, r.space_size)
    rows = [row._tup() for row in r.rows]
    return hashlib.sha256(repr((head, rows)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", [None, "7"])
def test_census_fingerprints_pinned(seed, monkeypatch):
    # another seed draws other generators; the partition must not move
    if seed is None:
        monkeypatch.delenv("ORBITFORGE_SEED", raising=False)
    else:
        monkeypatch.setenv("ORBITFORGE_SEED", seed)
    for (p, n, rep), want in FINGERPRINTS.items():
        assert _fingerprint(finite_census(p, n, rep)) == want, (p, n, rep)
    r = finite_census(3, 2, SYM2, polys=[X5_MINUS_X])
    assert _fingerprint(r) == '29f0d8f6f1f01175'
    assert [row._tup() for row in r.rows] == [
        ((0, 2, 0, 0, 0, 1), True, None, (6480,), (8,), False)]


def test_census_error_paths():
    with pytest.raises(EvenPrime):
        finite_census(2, 1, SYM2)
    with pytest.raises(BadPrime):
        finite_census(9, 1, SYM2)
    with pytest.raises(BudgetExceeded):
        finite_census(11, 1, SYM2)
    with pytest.raises(BudgetExceeded):
        finite_census(5, 2, SYM2, polys=[X5_MINUS_X])
    with pytest.raises(BudgetExceeded):
        finite_census(3, 3, SYM2)
    with pytest.raises(BudgetExceeded):
        finite_census(3, 2, SYM2)   # self-adjoint mode needs explicit polys
    for n in (0, -1):
        with pytest.raises(WrongDimension):
            finite_census(3, n, SYM2)


@pytest.mark.parametrize("n, rep, keep", [(1, SYM2, -1), (2, ADJOINT, 4),
                                           (2, SYM2, 4)])
def test_census_certificate_refuses_too_few_generators(n, rep, keep,
                                                       monkeypatch):
    # dimension three without the non-square scaling, dimension five with
    # the unipotents of one basis vector only: both generate a proper
    # subgroup, and orbit-stabilizer must refuse the too-small orbits
    from orbitforge import census
    full = census._so_generators
    monkeypatch.setattr(census, "_so_generators",
                        lambda d, p: full(d, p)[:keep])
    polys = [X5_MINUS_X] if (n, rep) == (2, SYM2) else None
    with pytest.raises(AssertionError):
        finite_census(5 if n == 1 else 3, n, rep, polys=polys)


# ---------------------------------------------------------------------------
# dimension five

def test_census5_adjoint_accounting(census5dim_adj):
    r = census5dim_adj
    assert r.space_size == 3 ** 10
    assert sum(row.operator_count for row in r.rows) == 3 ** 10
    for row in r.rows:
        assert sum(row.orbit_sizes) == row.operator_count


def test_census5_adjoint_orbit_stabilizer(census5dim_adj):
    # the group itself is never enumerated: orbit closure under verified
    # generators times a directly measured stabilizer must hit the formula
    sep = [row for row in census5dim_adj.rows if row.separable]
    assert len(sep) == 4
    for row in sep:
        for s, st_ in zip(row.orbit_sizes, row.stabilizer_orders):
            assert s * st_ == so_order(2, 3) == 51840


def test_census5_adjoint_skew_row(census5dim_adj):
    row = census5dim_adj.row(charpoly_key(X5_SKEW, 3))  # x^5 + 2x mod 3
    assert row.separable
    assert row.orbit_sizes == (6480,)
    assert row.stabilizer_orders == (8,)


def test_census5_sym2_orbit_stabilizer():
    r = finite_census(3, 2, SYM2, polys=[X5_MINUS_X])
    row = r.rows[0]
    assert row.complete is False
    assert row.orbit_count is None
    assert row.operator_count is None
    assert row.orbit_sizes[0] * row.stabilizer_orders[0] == 51840


def test_census5_standard_rows():
    r = finite_census(3, 2, STANDARD)
    assert r.space_size == 243
    assert sum(row.operator_count for row in r.rows) == 243
    # direct scan oracle for the null count: 3^4 = 81 vectors pair to zero
    assert r.row(0).orbit_sizes == (1, 80)
    assert r.row(1).orbit_count == 1
    assert r.row(2).orbit_count == 1


def test_charpoly5_skew_matches_exact():
    digits = _digits_array(3 ** 10, 10, 3)[17::5003]
    T = _ops_from_digits(digits, 5, ADJOINT, 3)
    got = _stack_charpolys(T, 3)
    assert got == [_exact_charpoly(m, 3) for m in T]
    assert all(c[0] == c[2] == c[4] == 0 for c in got)


def test_census5_sym2_constructs_every_separable_quintic():
    # the sample representative is the rational construction from the
    # lifted key: for every separable monic quintic mod 3 its denominator
    # is prime to 3 and it reduces to an operator with that charpoly
    for low in product(range(3), repeat=5):
        fc = list(low) + [1]
        try:
            fp_count_factors(fc, 3)
        except NonSeparableModP:
            continue
        op = construct_representative(Poly(fc), SYM2).op
        assert op.den % 3
        T = np.array([[x * pow(op.den, -1, 3) % 3 for x in r] for r in op.num])
        assert _exact_charpoly(T, 3) == tuple(fc)


# ---------------------------------------------------------------------------
# local orbit counts at good primes

def test_local_count_sym2_frozen():
    assert orbit_count_local(X3_MINUS_X, 5, SYM2) == 10   # split: m = 2
    assert orbit_count_local(X3_MINUS_X, 3, SYM2) == 10
    assert orbit_count_local(Poly([1, 1, 0, 1]), 5, SYM2) == 1   # inert: m = 0
    # root at 2 plus an irreducible quadratic mod 5: m = 1
    assert orbit_count_local(Poly([-1, -1, 0, 1]), 5, SYM2) == 3


def test_local_count_adjoint_frozen():
    assert orbit_count_local(X3_PLUS_X, 3, ADJOINT) == 1
    assert orbit_count_local(X3_PLUS_X, 5, ADJOINT) == 1   # x^2+1 splits mod 5
    assert orbit_count_local(X3_PLUS_2X, 3, ADJOINT) == 1
    # both x^2+1 and x^2+2 stay irreducible mod 7: m = 2
    assert orbit_count_local(X5_SKEW, 7, ADJOINT) == 2


def test_local_count_bad_primes():
    with pytest.raises(BadPrime):
        orbit_count_local(X3_MINUS_X, 2, SYM2)
    with pytest.raises(BadPrime):
        orbit_count_local(Poly([-1, -1, 0, 1]), 23, SYM2)  # 23 | disc
    with pytest.raises(BadPrime):
        orbit_count_local(X3_MINUS_X, 15, SYM2)


@settings(deadline=None, max_examples=40)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.sampled_from([5, 7, 11, 13]))
def test_local_count_sym2_law(a, b, c, p):
    f = Poly([c, b, a, 1])
    from orbitforge.poly import is_separable, discriminant
    if not is_separable(f) or discriminant(f).numerator % p == 0:
        return
    k = count_factors_fp(f, p)
    expected = {1: 1, 2: 3, 3: 10}[k]
    assert orbit_count_local(f, p, SYM2) == expected


# ---------------------------------------------------------------------------
# real orbit counts

def test_real_count_sym2_frozen():
    total, fibers = orbit_count_real(X5_TOTREAL, SYM2)
    assert total == 10          # C(5, 2)
    assert fibers == {0: 1, 2: 10, 4: 5}
    assert sum(fibers.values()) == 2 ** 4
    total, fibers = orbit_count_real(X3_MINUS_X, SYM2)
    assert total == 3           # C(3, 1)
    assert fibers == {1: 3, 3: 1}
    assert sum(fibers.values()) == 2 ** 2


def test_real_count_adjoint_frozen():
    total, fibers = orbit_count_real(X5_SKEW, ADJOINT)
    assert total == 2           # C(2, 1): even part (y+1)(y+2)
    assert fibers == {0: 1, 1: 2, 2: 1}
    total, fibers = orbit_count_real(X3_PLUS_X, ADJOINT)
    assert total == 1
    assert fibers == {0: 1, 1: 1}


def test_real_count_precondition_failures():
    with pytest.raises(MaximalRankHypothesisFails):
        orbit_count_real(Poly([-2, 0, 0, 1]), SYM2)   # one real root only
    with pytest.raises(MaximalRankHypothesisFails):
        orbit_count_real(X3_MINUS_X, ADJOINT)   # even part root is positive
    with pytest.raises(MaximalRankHypothesisFails):
        orbit_count_real(Poly([0, -1, 0, 0, 0, 1]), ADJOINT)  # roots +-1


def test_real_count_fiber_sums():
    for f in (X3_MINUS_X, X5_TOTREAL):
        n = (f.degree - 1) // 2
        _, fibers = orbit_count_real(f, SYM2)
        assert sum(fibers.values()) == 2 ** (2 * n)
    for f in (X3_PLUS_X, X5_SKEW):
        n = (f.degree - 1) // 2
        _, fibers = orbit_count_real(f, ADJOINT)
        assert sum(fibers.values()) == 2 ** n


def _factors_or_raises(fc, p):
    try:
        fp_count_factors(fc, p)
    except NonSeparableModP:
        return False
    return True


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_separable_keys_match_factoring_dim3(p):
    # every monic cubic mod p, keyed (c2 p + c1) p + c0 as the census keys it
    keys = np.arange(p ** 3)
    flags = _separable_keys(keys, 1, p).tolist()
    for key, flag in zip(keys.tolist(), flags):
        fc = [key % p, key // p % p, key // (p * p), 1]
        assert flag == _factors_or_raises(fc, p), fc


def test_separable_keys_match_factoring_dim5_skew():
    p = 3
    keys = np.array([(e2 * p * p + e4) * p for e2 in range(p)
                     for e4 in range(p)])
    flags = _separable_keys(keys, 2, p).tolist()
    for key, flag in zip(keys.tolist(), flags):
        fc = [key // p ** i % p for i in range(5)] + [1]
        assert fc[0] == fc[2] == fc[4] == 0
        assert flag == _factors_or_raises(fc, p), fc
