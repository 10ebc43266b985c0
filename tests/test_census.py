"""Tests for finite censuses and local/real orbit counts."""

import dataclasses
import hashlib
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.census import (CensusRow, charpoly_key, finite_census,
                               so_order, _charpolys, _actions, _closure,
                               _digits_array, _field_bits, _skew_keys,
                               _free_positions, _generator_tables, _gram_np,
                               _op_digits, _ops_from_digits,
                               _orbit_labels, _packed_images, _packed_words,
                               _separable_keys, _so3_actions,
                               _so3_elements, _so_generators,
                               _stabilizer_counts)
from orbitforge.errors import (BadPrime, BudgetExceeded, EvenPrime, EvenQ,
                               MaximalRankHypothesisFails, NonSeparableModP,
                               NotMonic, NotOddPolynomial, NotOperatorRep,
                               WrongDegree, WrongDimension)
from orbitforge.matrix import Mat
from orbitforge.orbits import (ADJOINT, STANDARD, SYM2,
                              construct_representative, count_factors_fp,
                              orbit_count_local, orbit_count_real)
from orbitforge.poly import Poly, fp_count_factors

X3_MINUS_X = Poly([0, -1, 0, 1])
X3_PLUS_X = Poly([0, 1, 0, 1])
X3_PLUS_2X = Poly([0, 2, 0, 1])
X5_SKEW = Poly([0, 2, 0, 3, 0, 1])      # x(x^2+1)(x^2+2)
X5_TOTREAL = Poly([0, 4, 0, -5, 0, 1])  # x(x-1)(x+1)(x-2)(x+2)
X5_MINUS_X = Poly([0, -1, 0, 0, 0, 1])
# the two factorization types mod 3 that the census-fp workload samples
X5_TYPE_2_3 = Poly([1, 2, 1, 0, 0, 1])    # (x^2+1)(x^3+2x+1) mod 3
X5_TYPE_1_1_3 = Poly([0, 1, 0, 2, 1, 1])  # x(x+1)(x^3+2x+1) mod 3
X5_IRREDUCIBLE = Poly([1, -1, 0, 0, 0, 1])  # x^5 - x + 1, irreducible mod 3


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


def _closure_codes(gens, p):
    """The group generated by gens (k, d, d) mod p, closed under
    multiplication from the identity, each matrix encoded as the base-p
    integer of its entries."""
    d = gens.shape[1]
    place = p ** np.arange(d * d, dtype=np.int64)
    frontier = np.eye(d, dtype=np.int64)[None]
    seen = {int(frontier.reshape(-1) @ place)}
    while len(frontier):
        prods = (frontier[:, None] @ gens[None] % p).reshape(-1, d, d)
        codes, first = np.unique(prods.reshape(len(prods), -1) @ place,
                                 return_index=True)
        fresh = [i for c, i in zip(codes.tolist(), first.tolist())
                 if c not in seen]
        frontier = prods[fresh]
        seen.update(codes.tolist())
    return seen


@pytest.mark.parametrize("d, p", [(3, p) for p in (3, 5, 7, 11, 13, 17, 19,
                                                  23, 29, 31)] + [(5, 3)])
def test_root_generators_generate(d, p):
    # the 2n short-root elements and the non-square scaling generate the
    # whole group, which makes every census orbit an SO orbit
    gens = _so_generators(d, p)
    assert len(gens) == d
    group = _closure_codes(gens, p)
    assert len(group) == so_order(d // 2, p)
    if d == 3:
        place = p ** np.arange(9, dtype=np.int64)
        G = _so3_elements(p)
        assert group == set((G.reshape(len(G), -1) @ place).tolist())


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
    vecs = _digits_array(3, p).astype(np.int64)
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
    perm = np.empty(len(order), dtype=order.dtype)
    perm[order] = np.roll(order, -1)
    return perm


def _labels_match_oracle(perms):
    perms = np.stack(perms)
    labels = _orbit_labels(perms)
    assert labels.dtype == perms.dtype
    assert np.array_equal(labels, _orbit_minima(perms, perms.shape[1]))


N_CYCLE = 10 ** 5


@pytest.mark.parametrize("order", [
    np.arange(N_CYCLE),                                  # x -> x + 1
    np.arange(N_CYCLE)[::-1],                            # x -> x - 1
    # labels rise and fall twice around the cycle: two long basins
    np.concatenate([np.arange(0, N_CYCLE, 4), np.arange(1, N_CYCLE, 4)[::-1],
                    np.arange(2, N_CYCLE, 4), np.arange(3, N_CYCLE, 4)[::-1]]),
    np.random.default_rng(5).permutation(N_CYCLE),
    # labels take the dtype of the images they are given
    np.random.default_rng(5).permutation(N_CYCLE).astype(np.int32),
], ids=["ascending", "descending", "two-basins", "random", "random-int32"])
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
# packed words, their images and the bitset closure against direct references


def _encode(x, p):
    """Encoded indices of digit rows x (..., w), most significant first."""
    return x @ p ** np.arange(x.shape[-1])[::-1]


def _direct_images(index, d, rep, p):
    """Reference images, under every generator, of encoded indices of the
    rows a census of rep labels: their digits times _actions(...) mod p,
    re-encoded, as (k, len(index)) int64; the census's tables are not
    read.  Where the census labels the trace-zero self-adjoint operators
    (p ∤ d), each row gets back the T[n][n] that makes its trace zero and
    its image loses it again."""
    mats = _actions(_so_generators(d, p), d, rep, p)
    mid = (_free_positions(d, SYM2).index((d // 2, d // 2))
           if rep == SYM2 and d % p else None)
    w = mats.shape[1] - (mid is not None)
    x = np.asarray(index)[:, None] // p ** np.arange(w)[::-1] % p
    if mid is not None:
        x = np.insert(x, mid, 0, axis=1)
        T = _ops_from_digits(x, d, SYM2, p).astype(np.int64)
        x[:, mid] = -np.trace(T, axis1=1, axis2=2) % p
    out = np.empty((len(mats), len(x)), dtype=np.int64)
    for img, M in zip(out, mats):
        y = x @ M % p
        img[:] = _encode(y if mid is None else np.delete(y, mid, axis=1), p)
    return out


def _every_image(d, p, rep):
    """The census's images of every labelled index, from its tables."""
    tables = _generator_tables(d, p, rep)
    a, b = np.divmod(np.arange(p ** tables[2]), tables[1].shape[1])
    return _packed_images(*tables, a, b, p)


@pytest.mark.parametrize("d, rep, p", [(3, SYM2, 7), (3, ADJOINT, 31),
                                       (5, ADJOINT, 3), (5, SYM2, 3)])
def test_digit_tables_match_direct_product(d, rep, p):
    # each word packs the digits of a half-row's image, x @ M % p, in
    # fields of _field_bits(p) bits
    mats = _actions(_so_generators(d, p), d, rep, p)
    w = mats.shape[1]
    weights = 1 << _field_bits(p) * np.arange(w)[::-1]
    for words, rows in zip(_packed_words(mats, p),
                           (mats[:, :w // 2], mats[:, w // 2:])):
        x = _digits_array(rows.shape[1], p).astype(np.int64)
        assert words.dtype == np.int64
        assert np.array_equal(words, x @ rows % p @ weights)


def _closure_bool(start, d, p, visited):
    """Reference closure of the self-adjoint census in dimension d: the
    orbit of start marked in visited, one bool per encoded index, and its
    size, over the direct images."""
    frontier = np.array([start], dtype=np.int64)
    visited[start] = True
    size = 0
    while len(frontier):
        size += len(frontier)
        images = _direct_images(frontier, d, SYM2, p)
        frontier = np.unique(images[~visited[images]])
        visited[frontier] = True
    return size


def _closure_matches_bool_reference(start, tables, p, d):
    count = p ** tables[2]
    size, bits = _closure(start, tables, p)
    assert len(bits) == -(-count // 8)
    visited = np.zeros(count, dtype=bool)
    assert size == _closure_bool(start, d, p, visited)
    marked = np.unpackbits(bits, bitorder="little")
    assert not marked[count:].any()
    assert np.array_equal(marked[:count].astype(bool), visited)
    return size, bits


def test_closure_bitset_matches_bool_reference_dim3():
    # 7^5 is not a multiple of 8, so the last byte of the bitset is partial
    p = 7
    tables = _generator_tables(3, p, SYM2)
    starts = np.random.default_rng(14).integers(0, p ** 5, size=20).tolist()
    sizes = [_closure_matches_bool_reference(s, tables, p, 3)[0]
             for s in starts + [0, p ** 5 - 1]]
    assert sizes[-2] == 1 and max(sizes) > 1


@pytest.mark.parametrize("f, size", [(X5_TYPE_2_3, 25920),
                                     (X5_TYPE_1_1_3, 12960),
                                     (X5_IRREDUCIBLE, 51840)],
                         ids=["2-3", "1-1-3", "irreducible"])
def test_closure_bitset_matches_bool_reference_dim5(f, size, monkeypatch):
    # the closures the dimension-five sample census itself runs; an
    # irreducible quintic has trivial stabilizer, so its orbit, the whole
    # group, is the largest
    from orbitforge import census
    calls = []

    def spy(start, tables, p):
        out = _closure_matches_bool_reference(start, tables, p, 5)
        calls.append(out[0])
        return out
    monkeypatch.setattr(census, "_closure", spy)
    assert finite_census(3, 2, SYM2, polys=[f]).rows[0].orbit_sizes == (size,)
    assert calls == [size]


@pytest.mark.parametrize("p, rep", [
    (p, rep) for p in (3, 5, 7, 13) for rep in (SYM2, ADJOINT, STANDARD)
] + [(31, ADJOINT), (31, STANDARD)])
def test_packed_images_match_images_dim3(p, rep):
    # every index of the census's dimension-three tables: two packed words
    # and the chunk decoder give the images of the direct product
    w = _generator_tables(3, p, rep)[2]
    assert np.array_equal(_every_image(3, p, rep),
                          _direct_images(np.arange(p ** w), 3, rep, p))
    assert _field_bits(p) == {3: 3, 5: 4, 7: 4, 13: 5, 31: 6}[p]


@pytest.mark.parametrize("rep, count", [(SYM2, 20000), (ADJOINT, 3 ** 10)])
def test_packed_images_match_images_dim5(rep, count):
    # seeded indices of the 3^14 trace-zero self-adjoint rows the samples
    # close over, and every row of the skew-adjoint space, against the
    # images of the direct product
    tables = _generator_tables(5, 3, rep)
    w = tables[2]
    index = (np.arange(count) if count == 3 ** w else
             np.random.default_rng(5).integers(0, 3 ** w, size=count))
    a, b = np.divmod(index, tables[1].shape[1])
    assert np.array_equal(_packed_images(*tables, a, b, 3),
                          _direct_images(index, 5, rep, 3))


def _trace_zero_rows(d, p, count, seed):
    """count seeded free-coordinate rows of trace-zero self-adjoint
    operators: random operators less tr/d times the identity, read off
    their entries, so no trace formula of the census is used."""
    w = len(_free_positions(d, SYM2))
    x = np.random.default_rng(seed).integers(0, p, size=(count, w))
    T = _ops_from_digits(x, d, SYM2, p).astype(np.int64)
    t = np.trace(T, axis1=1, axis2=2) * pow(d, -1, p) % p
    T = (T - t[:, None, None] * np.eye(d, dtype=np.int64)) % p
    assert not np.any(np.trace(T, axis1=1, axis2=2) % p)
    return _op_digits(T, d, SYM2)


@pytest.mark.parametrize("d, p", [(3, 5), (3, 7), (5, 3)])
def test_trace_zero_tables_match_direct_product(d, p):
    # the census's tables act on trace-zero rows without T[n][n]: they
    # must agree with the whole-space action x @ M % p, whose images of
    # trace-zero rows are trace-zero again
    mats = _actions(_so_generators(d, p), d, SYM2, p)
    mid = _free_positions(d, SYM2).index((d // 2, d // 2))
    tables = _generator_tables(d, p, SYM2)
    assert tables[2] == mats.shape[1] - 1
    x = _trace_zero_rows(d, p, 3000, seed=d * p)
    y = x @ mats % p
    T = _ops_from_digits(y.reshape(-1, y.shape[-1]), d, SYM2, p)
    assert not np.any(np.trace(T.astype(np.int64), axis1=1, axis2=2) % p)
    x0, y0 = np.delete(x, mid, axis=1), np.delete(y, mid, axis=2)
    a, b = np.divmod(_encode(x0, p), tables[1].shape[1])
    assert np.array_equal(_packed_images(*tables, a, b, p), _encode(y0, p))


@pytest.mark.parametrize("d, p, rep", [(3, 3, SYM2), (3, 7, ADJOINT),
                                       (3, 5, STANDARD), (5, 3, ADJOINT)])
def test_unsplit_tables_are_whole_space_tables(d, p, rep):
    # at p | d, and for spaces without scalars, every coordinate is kept,
    # and every index maps as the whole-space direct product says
    w = len(_free_positions(d, rep))
    assert _generator_tables(d, p, rep)[2] == w
    x = _digits_array(w, p).astype(np.int64)
    want = np.stack([_encode(x @ M % p, p)
                     for M in _actions(_so_generators(d, p), d, rep, p)])
    assert np.array_equal(_every_image(d, p, rep), want)


def _whole_space_census(p, wanted=None):
    """Reference for the dimension-three self-adjoint census: all p^6
    operators labelled over the whole-space direct product, as {key:
    (operator count, sorted orbit sizes)}, restricted to the wanted keys
    if given."""
    x = _digits_array(6, p).astype(np.int64)
    lab = _orbit_labels(np.stack([
        _encode(x @ M % p, p)
        for M in _actions(_so_generators(3, p), 3, SYM2, p)]))
    c = _charpolys(_ops_from_digits(_digits_array(6, p), 3, SYM2, p), p)
    keys = (c[1] * p + c[2]) * p + c[3]
    reps, sizes = np.unique(lab, return_counts=True)
    out = {}
    for key, count in zip(*np.unique(keys, return_counts=True)):
        row = (int(key) % p, int(key) // p % p, int(key) // p ** 2, 1)
        if wanted is None or row in wanted:
            out[row] = (int(count), sorted(sizes[keys[reps] == key].tolist()))
    return out


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("polys", [None, [X3_MINUS_X, X3_PLUS_X,
                                          Poly([3, 3, 0, 1]),
                                          Poly([-1, 3, -3, 1]),
                                          Poly([2, 0, 2, 1])]],
                         ids=["all", "polys"])
def test_sym2_census_modulo_scalars_matches_whole_space(p, polys):
    # every orbit of the census, labelled on the trace-zero operators and
    # translated by the scalars, against the whole space labelled at once
    r = finite_census(p, 1, SYM2, polys=polys)
    wanted = None if polys is None else {charpoly_key(f, p) for f in polys}
    want = _whole_space_census(p, wanted)
    got = {row.key: (row.operator_count, sorted(row.orbit_sizes))
           for row in r.rows}
    assert got == want
    assert len(got) == (len(wanted) if polys else p ** 3)
    assert r.space_size == p ** 6


# ---------------------------------------------------------------------------
# working memory


MEMORY_BOUND = 8 * 2 ** 20


@pytest.mark.parametrize("p, n, rep, polys", [
    (7, 1, SYM2, None), (3, 2, ADJOINT, None),
    (3, 2, SYM2, [X5_TYPE_2_3]), (3, 2, SYM2, [X5_TYPE_1_1_3]),
], ids=["sym2-dim3-p7", "adjoint-dim5-p3", "sym2-sample-2-3",
        "sym2-sample-1-1-3"])
def test_census_working_memory_bounded(p, n, rep, polys):
    # peak traced allocations, numpy arrays included, measured with the
    # group data built: 1.6 MiB for sym2 at p = 7, 5.8 MiB for the
    # dimension-five adjoint census (its int64 images, read one generator
    # at a time, and the label passes over them; its skew keys, read off
    # the digits, stay below them), and 1.7 and 1.3 MiB for the samples'
    # packed sums and images (1.9 and 1.5 MiB when the call also builds
    # their tables)
    peak = _traced_peak(lambda: finite_census(p, n, rep, polys=polys))
    assert peak < MEMORY_BOUND, "%.1f MiB" % (peak / 2 ** 20)


def test_so3_elements_memory_bounded():
    # the dimension-three group at the largest admitted prime, built by
    # the first census there: 5.7 MiB traced as the image of PGL(2, F_31),
    # 18.9 MiB for a search pairing every isotropic with every unit vector
    peak = _traced_peak(lambda: _so3_elements(31))
    assert peak < MEMORY_BOUND, "%.1f MiB" % (peak / 2 ** 20)


def test_so3_actions_memory_bounded():
    # the group's actions at the largest admitted prime, built uncached as
    # the first adjoint census there builds them: 5.7 MiB traced, set by
    # _so3_elements, with the conjugation blocked over the group; 16.3
    # MiB when its (N, w, 3, 3) int64 temporaries span the whole group
    peak = _traced_peak(lambda: _so3_actions.__wrapped__(31, ADJOINT))
    assert peak < MEMORY_BOUND, "%.1f MiB" % (peak / 2 ** 20)


def _traced_peak(call):
    """Peak traced allocation of call(), numpy arrays included, in bytes
    above what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


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


def test_inseparable_input_raises_at_count_and_census():
    # x^5 + x^3 = x^3 (x^2 + 1): the distinct-degree split trusts its
    # caller, so both entry points check separability mod p themselves
    f = Poly([0, 0, 0, 1, 0, 1])
    with pytest.raises(NonSeparableModP):
        count_factors_fp(f, 3)
    with pytest.raises(NonSeparableModP):
        finite_census(3, 2, SYM2, polys=[Poly([0, 2, 0, 0, 0, 1]), f])


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
    digits = _digits_array(6, p)[23::9341]
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


@pytest.mark.parametrize("w, p", [(6, 7), (6, 5), (3, 31), (3, 3)])
def test_stabilizer_counts_match_batched_product(w, p):
    # the batched int64 product x @ acts as the reference, on seeded rows
    # and actions with the all-(p - 1) ones among them, where the sums
    # reach their bound w (p - 1)^2 (216 in uint8 at (6, 7)); acts[2:20]
    # fix the rows x[1:10], acts[20:40] the row x[0] through large sums
    rng = np.random.default_rng(100 * w + p)
    x = rng.integers(0, p, size=(40, w))
    acts = rng.integers(0, p, size=(60, w, w))
    acts[0], acts[1], x[0] = np.eye(w, dtype=np.int64), p - 1, p - 1
    acts[2:20] = np.eye(w, dtype=np.int64)
    acts[2:20, 0] = rng.integers(0, p, size=(18, w))
    x[1:10, 0] = 0
    acts[20:40, -1] = (1 - acts[20:40, :-1].sum(axis=1)) % p
    want = np.all(x @ acts % p == x, axis=2).sum(axis=0)
    assert _stabilizer_counts(x, acts, p).tolist() == want.tolist()
    assert want.min() >= 1 and want.max() > 1


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


def test_census_polys_equal_mod_p_give_one_row():
    # x^5 + 5x and x^5 - x are x^5 + 2x mod 3: one class, so one row, in
    # first-seen order, in the orbit-sample census as in the full one
    x5_plus_x = Poly([0, 1, 0, 0, 0, 1])
    r = finite_census(3, 2, SYM2, polys=[
        Poly([0, 2, 0, 0, 0, 1]), x5_plus_x, Poly([0, 5, 0, 0, 0, 1]),
        X5_MINUS_X])
    assert [row.key for row in r.rows] == [(0, 2, 0, 0, 0, 1),
                                           (0, 1, 0, 0, 0, 1)]
    assert r.rows[0] == finite_census(3, 2, SYM2, polys=[X5_MINUS_X]).rows[0]
    assert r.rows[1] == finite_census(3, 2, SYM2, polys=[x5_plus_x]).rows[0]
    r = finite_census(3, 1, SYM2, polys=[X3_MINUS_X, Poly([0, 2, 0, 1])])
    assert [row.key for row in r.rows] == [(0, 2, 0, 1)]


def test_census_polys_need_operator_classes():
    # vectors have no characteristic polynomial to select by
    for n in (1, 2):
        with pytest.raises(NotOperatorRep):
            finite_census(3, n, STANDARD, polys=[X3_PLUS_X])


@pytest.mark.parametrize("p, n, rep, polys, error", [
    (5, 1, ADJOINT, [Poly([1, 0, 0, 1])], NotOddPolynomial),   # x^3 + 1
    (3, 2, SYM2, [Poly([0, 1, 0, 0, 0, 1]), X3_PLUS_X], WrongDegree),
    (3, 2, SYM2, [X5_MINUS_X, Poly([0, 0, 0, 1, 0, 1])], NonSeparableModP),
    (3, 1, SYM2, [X3_MINUS_X, Poly([0, 1, 0, 2])], NotMonic),
    (3, 2, STANDARD, [X5_MINUS_X], NotOperatorRep),
], ids=["odd-dim3", "degree-sample", "separable-sample", "monic", "vectors"])
def test_census_polys_refused_before_any_work(p, n, rep, polys, error,
                                              monkeypatch):
    # every requested polynomial is checked before the first generator
    # table, orbit label or closure, and the oddness rule holds at n = 1
    from orbitforge import census

    def started(*args):
        raise AssertionError("census work began before polys were checked")

    for name in ("_generator_tables", "_orbit_labels", "_closure"):
        monkeypatch.setattr(census, name, started)
    with pytest.raises(error):
        finite_census(p, n, rep, polys=polys)


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
    # the widest fields, 6 bits, 2 digit sums per decoder chunk; recorded
    # from the digit-column reader that the packed words replaced
    (31, 1, ADJOINT): '62f192eebc4ed6f8',
    (31, 1, STANDARD): '8fa59c221cf054d6',
}


def _fingerprint(r):
    head = (r.p, r.n, r.rep, r.mode, r.group_order, r.space_size)
    rows = [dataclasses.astuple(row) for row in r.rows]
    return hashlib.sha256(repr((head, rows)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", [None, "7"])
def test_census_fingerprints_pinned(seed, monkeypatch):
    # the generators are fixed, so a stray seed variable must never reach
    # a census
    if seed is None:
        monkeypatch.delenv("ORBITFORGE_SEED", raising=False)
    else:
        monkeypatch.setenv("ORBITFORGE_SEED", seed)
    for (p, n, rep), want in FINGERPRINTS.items():
        assert _fingerprint(finite_census(p, n, rep)) == want, (p, n, rep)
    r = finite_census(3, 2, SYM2, polys=[X5_MINUS_X])
    assert _fingerprint(r) == '29f0d8f6f1f01175'
    assert [dataclasses.astuple(row) for row in r.rows] == [
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


@pytest.mark.parametrize("n, rep, keep", [(1, SYM2, -1), (2, ADJOINT, 2),
                                           (2, SYM2, 2)])
def test_census_certificate_refuses_too_few_generators(n, rep, keep,
                                                       monkeypatch):
    # dimension three without the non-square scaling, dimension five with
    # the root elements of two basis vectors only: both generate a proper
    # subgroup, and orbit-stabilizer must refuse the too-small orbits
    from orbitforge import census
    full = census._so_generators
    monkeypatch.setattr(census, "_so_generators",
                        lambda d, p: full(d, p)[:keep])
    # the kept tables were built from the full set: a fresh, empty table
    # cache builds them from the truncated one, and leaves with the patch
    monkeypatch.setattr(census, "_generator_tables",
                        cache(census._generator_tables.__wrapped__))
    polys = [X5_MINUS_X] if (n, rep) == (2, SYM2) else None
    with pytest.raises(AssertionError):
        finite_census(5 if n == 1 else 3, n, rep, polys=polys)


# ---------------------------------------------------------------------------
# the group data, built once per process


def _group_caches():
    from orbitforge import census
    return (census._so_generators, census._generator_tables,
            census._so3_actions, census._field_decoder)


def _clear_group_caches():
    for f in _group_caches():
        f.cache_clear()


@pytest.mark.parametrize("d, p, rep", [(3, 3, SYM2), (3, 7, ADJOINT),
                                       (3, 13, STANDARD), (5, 3, SYM2),
                                       (5, 3, ADJOINT)])
def test_cached_group_data_refuses_writes(d, p, rep):
    from orbitforge import census
    # the generator tables are two arrays of packed words and their width
    arrays = [census._so_generators(d, p),
              *census._generator_tables(d, p, rep)[:2],
              census._field_decoder(p)]
    if d == 3:
        # the int64 group is rebuilt for each set of actions, not kept
        assert not hasattr(census._so3_elements, "cache_info")
        arrays.append(census._so3_actions(p, rep))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


@pytest.mark.parametrize("p, n, rep, polys", [
    (p, 1, rep, None) for rep in (SYM2, ADJOINT, STANDARD) for p in (3, 5, 7)
] + [(3, 2, SYM2, [X5_TYPE_2_3]), (3, 2, SYM2, [X5_TYPE_1_1_3])])
def test_census_equal_with_cleared_and_warm_cache(p, n, rep, polys):
    _clear_group_caches()
    cold = finite_census(p, n, rep, polys=polys)
    built = [f.cache_info().misses for f in _group_caches()]
    warm = finite_census(p, n, rep, polys=polys)
    assert [f.cache_info().misses for f in _group_caches()] == built
    assert cold == warm
    assert _fingerprint(cold) == _fingerprint(warm)


def test_refused_census_builds_no_group_data():
    _clear_group_caches()
    for p, n, rep in [(11, 1, SYM2), (5, 2, ADJOINT), (3, 3, STANDARD),
                      (3, 2, SYM2)]:
        with pytest.raises(BudgetExceeded):
            finite_census(p, n, rep)
    assert all(f.cache_info().currsize == 0 for f in _group_caches())


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


def _berkowitz_keys(digits, d, rep, p):
    """The census encoding of _charpolys on the assembled operators."""
    c = _charpolys(_ops_from_digits(digits, d, rep, p), p)
    return sum(c[d - i] * p ** i for i in range(d))


@pytest.mark.parametrize("d, p", [(3, p) for p in (3, 5, 7, 11, 13, 17, 19,
                                                   23, 29, 31)] + [(5, 3)])
def test_skew_keys_match_berkowitz_on_every_row(d, p):
    # every digit row of every admitted skew-adjoint space, the last one
    # all p - 1, where the power sums reach their largest sizes
    digits = _digits_array(d * (d - 1) // 2, p)
    assert np.all(digits[-1] == p - 1)
    want = _berkowitz_keys(digits, d, ADJOINT, p)
    got = _skew_keys(digits, d, p)
    assert np.array_equal(got, want)
    assert got.dtype.itemsize <= 2


@pytest.mark.parametrize("p, n", [(3, 1), (13, 1), (3, 2)])
def test_adjoint_census_builds_no_key_stack(p, n, monkeypatch):
    # with the group data built, an adjoint census assembles no operator
    # stack but one orbit representative at a time, and Berkowitz runs in
    # dimension five only, on the at most p^5 commutant elements of
    # _stab_order5, never over the 3^10 digit rows
    from orbitforge import census
    want = finite_census(p, n, ADJOINT)
    rows, stacks = [], []
    ops, berkowitz = census._ops_from_digits, census._berkowitz

    def ops_spy(digits, *args):
        rows.append(len(digits))
        return ops(digits, *args)

    def berkowitz_spy(a):
        stacks.append(np.shape(a)[2:])
        return berkowitz(a)
    monkeypatch.setattr(census, "_ops_from_digits", ops_spy)
    monkeypatch.setattr(census, "_berkowitz", berkowitz_spy)
    assert finite_census(p, n, ADJOINT) == want
    assert set(rows) <= {1}
    assert all(len(s) == 1 and s[0] <= p ** 5 for s in stacks)
    assert bool(stacks) == (n == 2)


def test_charpoly5_skew_matches_exact():
    digits = _digits_array(10, 3)[17::5003]
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


def test_real_count_builds_one_chain(monkeypatch):
    # one Tarski chain of g = 1 per question, the error message included
    from orbitforge import poly
    builds = []
    chain = poly._tarski_chain

    def counted(g, f):
        builds.append(f)
        return chain(g, f)

    monkeypatch.setattr(poly, "_tarski_chain", counted)
    assert orbit_count_real(X5_SKEW, ADJOINT)[0] == 2
    assert len(builds) == 1
    del builds[:]
    with pytest.raises(MaximalRankHypothesisFails,
                       match="^1 of 3 roots are real$"):
        orbit_count_real(Poly([-2, 0, 0, 1]), SYM2)
    assert len(builds) == 1


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


@pytest.mark.parametrize("place", [0, 2, 4])
def test_separable_keys_refuse_non_odd_quintics(place):
    # a key with c0, c2 or c4 nonzero is not skew; read as x (y^2 + e2 y
    # + e4) it could hand _stab_order5 a non-separable operator
    p = 3
    skew = (1 * p * p + 2) * p   # x^5 + x^3 + 2x, separable mod 3
    assert _separable_keys(np.array([skew]), 2, p).tolist() == [True]
    bad = np.array([skew, skew + p ** place])
    with pytest.raises(AssertionError, match="odd quintics"):
        _separable_keys(bad, 2, p)
