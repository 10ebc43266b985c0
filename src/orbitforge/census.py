"""Orbit counting: finite-field censuses, local counts, real counts.

Three independent counting routes live here.  finite_census enumerates
actual operators over F_p and partitions them into orbits with one
engine: every census is the isometry group acting linearly on the free
coordinates of its space, so each of its 2n + 1 fixed generators (the
short-root elements and a non-square torus element) permutes the
encoded element indices.  Two small digit tables per generator, one for
the high and one for the low half of the digits, give the image of any
index in O(w) work, and of the whole space as one outer sum.  Orbits are
then labelled in a few whole-array passes: every element takes the
smallest label along its images, pointers are jumped until stable, and
each orbit ends labelled by its smallest index.  The dimension-five
self-adjoint space is too large to label whole; it is sampled one orbit
per requested polynomial, by breadth-first closure over the same tables
from the rational representative of the polynomial's lifted key reduced
mod p, marking the visited indices in a bitset of p^w / 8 bytes.
Characteristic polynomials and determinants of whole stacks of
operators come from matrix._berkowitz run on int32 entry columns.

Working memory follows what a census keeps, not the arithmetic it
does: digit rows are held in the smallest unsigned type (one byte per
digit), the class keys of a full census are computed over blocks of at
most KEY_BLOCK digit rows, so each operator stack and its Berkowitz
temporaries exist for one block at a time, and orbit labels take the
dtype of the images (int32 below 2^31 elements).

The group data depends on (d, p) alone: the verified generators, their
digit tables for each representation and, in dimension three, the
enumerated group and its actions are built once per process, by the
first census that passes the budget check and needs them, and kept as
read-only arrays: about 1 MB for every census at p <= 13 and in
dimension five, and 2.1 MB for the group at p = 31, the largest admitted
prime.  Nothing that depends on the counted elements is kept.

A closure test proves generation; each orbit whose stabilizer is
measured directly (over the enumerated group in dimension three, over
the commutant in dimension five) must also satisfy orbit size times
stabilizer order equals the group order, so the census depends on no
closed formula.  orbit_count_local evaluates the closed-form count at a
good odd prime from the factorization type of the invariant polynomial.
orbit_count_real evaluates the archimedean count, which only applies
when the relevant polynomial has the maximal number of real roots.

numpy appears in this module only, for the bulk mod-p linear algebra of
the enumeration censuses.  Everything is integer arithmetic throughout;
floats never enter.
"""

from functools import cache
from math import comb

import numpy as np

from .arith import is_prime
from .errors import (BadPrime, BudgetExceeded, EvenPrime, EvenQ,
                     MaximalRankHypothesisFails, NonSeparableModP, NotMonic,
                     NotOddPolynomial, NotOperatorRep, WrongDegree,
                     WrongDimension)
from .matrix import _berkowitz
from .orbits import (STANDARD, SYM2, _check_rep, _check_tensor_rep,
                     _validate_charpoly, construct_representative)
from .poly import (Poly, count_real_roots, discriminant, even_part,
                   fp_count_factors, fp_from_poly, fp_is_separable)

# estimated conjugations (space size times group order) a census may run
CONJUGATION_BUDGET = 2 ** 31
# digit rows per block of class keys in a full census: every census of at
# most this many elements (all of p = 13 and p = 31) runs as one block
KEY_BLOCK = 2 ** 15
# the bit of each index within its byte of a closure's visited bitset
_BITS = (1 << np.arange(8)).astype(np.uint8)


def so_order(n, q):
    """Order of the special orthogonal group of the split form in 2n+1
    variables over the field with q elements: q^(n^2) * prod(q^(2i) - 1).

    q must be an odd prime power; the censuses cross-check this formula
    against direct group enumeration.
    """
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    if q < 3 or q % 2 == 0:
        raise EvenQ("order formula needs an odd prime power, got %d" % q)
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def _reduce_mod(f, p):
    """f mod p as a coefficient list of the same degree, or BadPrime."""
    try:
        fc = fp_from_poly(f, p)
    except ZeroDivisionError:
        raise BadPrime("coefficient denominator divisible by %d" % p)
    if len(fc) - 1 != f.degree:
        raise BadPrime("leading coefficient vanishes mod %d" % p)
    return fc


def count_factors_fp(f, p):
    """Number of irreducible factors of f mod p, by distinct-degree splitting.

    Raises NonSeparableModP when the reduction is inseparable and BadPrime
    when p kills a denominator or the leading coefficient.
    """
    if p < 2 or not is_prime(p):
        raise BadPrime("%d is not prime" % p)
    return fp_count_factors(_reduce_mod(f, p), p)


def orbit_count_local(f, p, rep):
    """Orbit count over the p-adic field at a good odd prime.

    Good means p does not divide 2 disc(f) (nor any coefficient
    denominator); otherwise BadPrime.  With m + 1 irreducible factors of
    f mod p the self-adjoint count is 2^(2m-1) + 2^(m-1), read as 1 when
    m = 0.  For skew-adjoint operators, writing f = x g(x^2), m instead
    counts the factors of g mod p that stay irreducible under x -> x^2,
    and the count is 2^(m-1), again 1 when m = 0.
    """
    _check_tensor_rep(rep)
    _validate_charpoly(f, rep)
    if p == 2:
        raise BadPrime("p = 2 is never a good prime here")
    if not is_prime(p):
        raise BadPrime("%d is not prime" % p)
    d = discriminant(f)
    if d.numerator % p == 0:
        raise BadPrime("%d divides the discriminant" % p)
    # count_factors_fp checks the denominators: g's are f's odd ones
    if rep == SYM2:
        m = count_factors_fp(f, p) - 1
        return 1 if m == 0 else (1 << (2 * m - 1)) + (1 << (m - 1))
    g = even_part(f)
    m = 2 * count_factors_fp(g, p) - count_factors_fp(g(Poly([0, 0, 1])), p)
    return 1 if m == 0 else 1 << (m - 1)


def orbit_count_real(f, rep):
    """Orbit count over the reals, with its fiber table, as (total, fibers).

    Self-adjoint case: needs f totally real (2n+1 real roots), else
    MaximalRankHypothesisFails.  The count is C(2n+1, n) and the fiber
    table maps each k = n mod 2 to C(2n+1, k).  Skew case: writing
    f = x g(x^2), needs g totally real with all roots negative; the count
    is C(n, floor(n/2)) and the fibers are C(n, k) for k = 0..n.  Root
    counts are Tarski queries of g = 1 (count_real_roots), so the
    precondition check is exact, and each case counts once: at most n
    roots of g are real, so all are real and negative exactly when n are
    negative.
    """
    _check_tensor_rep(rep)
    _validate_charpoly(f, rep)
    deg = f.degree
    nn = (deg - 1) // 2
    if rep == SYM2:
        real = count_real_roots(f)
        if real != deg:
            raise MaximalRankHypothesisFails(
                "%d of %d roots are real" % (real, deg))
        fibers = {k: comb(deg, k) for k in range(nn % 2, deg + 1, 2)}
        return comb(deg, nn), fibers
    g = even_part(f)
    if count_real_roots(g, None, 0) != nn:
        raise MaximalRankHypothesisFails(
            "need all %d roots of the even part real and negative" % nn)
    fibers = {k: comb(nn, k) for k in range(nn + 1)}
    return comb(nn, nn // 2), fibers


# ---------------------------------------------------------------------------
# mod-p matrix utilities


def _gram_np(d):
    return np.fliplr(np.eye(d, dtype=np.int64))


def _charpolys(T, p):
    """Coefficients mod p of det(xI - T), highest power first, for a stack
    T of N d x d operators: matrix._berkowitz on the d x d grid of entry
    columns over the stack.  In odd dimension d the determinant is -c[d]."""
    cols = np.ascontiguousarray(T.transpose(1, 2, 0), dtype=np.int32)
    return [c % p for c in _berkowitz(cols)]


def _digits_array(width, p):
    """(p^width, width) array: row i holds the base-p digits of i, most
    significant first, so consecutive leading digits give contiguous rows.

    Digits are held in the smallest unsigned type that holds p - 1 (uint8
    at every admitted p); a caller that does arithmetic on them widens
    its rows first."""
    grid = np.indices((p,) * width, dtype=np.min_scalar_type(p - 1))
    return grid.reshape(width, -1).T


# ---------------------------------------------------------------------------
# the three-dimensional group, fully enumerated


@cache
def _so3_elements(p):
    """Every proper isometry of the split three-dimensional form over F_p,
    as an (N, 3, 3) array.

    The columns (g1, g2, g3) of an isometry pair like the basis: g1 is
    isotropic and nonzero, g2 is a unit vector orthogonal to g1, and g3
    pairs to 1 with g1, to 0 with g2 and to 0 with itself.  Every such
    (g1, g2) pair is taken at once; g3 is then unique: the conditions
    B(g1, h) = 1, B(g2, h) = 0 cut out a line h + t g1, and the isotropic
    point on it is g3 = h - B(h, h)/2 g1.  The determinant filter keeps the
    proper half.  Elements come in the order of (g1, g2) as base-p digit
    rows.  Built once per p and kept, read-only.
    """
    vecs = _digits_array(3, p).astype(np.int64)
    qv = (2 * vecs[:, 0] * vecs[:, 2] + vecs[:, 1] ** 2) % p
    iso = vecs[(qv == 0) & np.any(vecs != 0, axis=1)]
    unit = vecs[qv == 1]
    i, j = np.nonzero(iso[:, ::-1] @ unit.T % p == 0)
    g1, g2 = iso[i], unit[j]
    # B(x, y) = (J x) . y.  With n = J g1 x J g2, nonzero as g1 and g2 are
    # independent, h = (J g2 x e_k) / n_k for any k with n_k != 0 pairs to
    # 0 with g2 and to 1 with g1.
    n = np.cross(g1[:, ::-1], g2[:, ::-1]) % p
    k = np.argmax(n != 0, axis=1)
    inv = np.array([0] + [pow(c, -1, p) for c in range(1, p)], dtype=np.int64)
    scale = inv[n[np.arange(len(n)), k]]
    h = np.cross(g2[:, ::-1], np.eye(3, dtype=np.int64)[k]) * scale[:, None] % p
    qh = (2 * h[:, 0] * h[:, 2] + h[:, 1] ** 2) * inv[2] % p
    g3 = (h - qh[:, None] * g1) % p
    G = np.stack([g1, g2, g3], axis=2)
    G = G[-_charpolys(G, p)[3] % p == 1]
    G.setflags(write=False)
    return G


# ---------------------------------------------------------------------------
# census report structure


class CensusRow:
    """One invariant-polynomial class (or vector label) of a census.

    key is the ascending coefficient tuple of the monic polynomial mod p
    for the two tensor representations, or the integer label q(v)/2 mod p
    for vectors.  complete says whether orbit_sizes lists every orbit of
    the class; orbit-generation rows sample a single orbit and leave
    operator_count unset.  stabilizer_orders aligns with orbit_sizes and
    holds None where no independent stabilizer measurement was made.
    """

    __slots__ = ("key", "separable", "operator_count", "orbit_sizes",
                 "stabilizer_orders", "complete")

    def __init__(self, key, separable, operator_count, orbit_sizes,
                 stabilizer_orders, complete):
        self.key = key
        self.separable = separable
        self.operator_count = operator_count
        self.orbit_sizes = tuple(orbit_sizes)
        self.stabilizer_orders = tuple(stabilizer_orders)
        self.complete = complete

    @property
    def orbit_count(self):
        return len(self.orbit_sizes) if self.complete else None

    def _tup(self):
        return (self.key, self.separable, self.operator_count,
                self.orbit_sizes, self.stabilizer_orders, self.complete)

    def __eq__(self, other):
        return isinstance(other, CensusRow) and self._tup() == other._tup()

    def __repr__(self):
        return "CensusRow(key=%r, separable=%r, ops=%r, orbits=%r, stabs=%r)" % (
            self.key, self.separable, self.operator_count, self.orbit_sizes,
            self.stabilizer_orders)


class FiniteCensusReport:
    """Census output: per-class rows plus the global accounting.

    mode is "full" when the element space was enumerated exhaustively and
    "orbit-sample" when rows were generated from explicit polynomials by
    orbit closure.  group_order is the directly enumerated group size in
    dimension three and None in dimension five, where the group is never
    listed.
    """

    __slots__ = ("p", "n", "rep", "mode", "group_order", "space_size", "rows")

    def __init__(self, p, n, rep, mode, group_order, space_size, rows):
        self.p = p
        self.n = n
        self.rep = rep
        self.mode = mode
        self.group_order = group_order
        self.space_size = space_size
        self.rows = list(rows)

    def row(self, key):
        for r in self.rows:
            if r.key == key:
                return r
        raise KeyError(key)

    def __eq__(self, other):
        return (isinstance(other, FiniteCensusReport)
                and (self.p, self.n, self.rep, self.mode, self.group_order,
                     self.space_size) == (other.p, other.n, other.rep,
                                          other.mode, other.group_order,
                                          other.space_size)
                and self.rows == other.rows)

    def __repr__(self):
        return "FiniteCensusReport(p=%d, n=%d, rep=%r, rows=%d)" % (
            self.p, self.n, self.rep, len(self.rows))


def charpoly_key(f, p):
    """Ascending coefficient tuple of monic f mod p, for row lookup.

    Raises NotMonic for a non-monic f: rows are keyed without the leading
    coefficient, so any other one would silently select the monic row.
    """
    if not f.is_monic():
        raise NotMonic("census rows need monic polynomials, got %s"
                       % f.pretty())
    return tuple(_reduce_mod(f, p))


# ---------------------------------------------------------------------------
# the representation spaces and the linear group action on them


def _free_positions(d, rep):
    """The coordinates that determine an element: every entry of a vector,
    or the operator entries above the anti-diagonal, plus the anti-diagonal
    itself for self-adjoint operators.  An element's encoded index reads
    these entries, in this order, as base-p digits."""
    if rep == STANDARD:
        return tuple(range(d))
    last = d - 1 if rep == SYM2 else d - 2
    return tuple((i, j) for i in range(d) for j in range(d) if i + j <= last)


def _ops_from_digits(digits, d, rep, p):
    """Assemble d x d operators from free-entry digit rows, as an (N, d, d)
    view of (d, d, N) int32 entry columns, which _charpolys reads uncopied.

    A self-adjoint operator equals its reflection across the anti-diagonal;
    a skew-adjoint one is minus that reflection, which kills the
    anti-diagonal entries.
    """
    cols = np.zeros((d, d, len(digits)), dtype=np.int32)
    for k, (i, j) in enumerate(_free_positions(d, rep)):
        cols[i, j] = x = digits[:, k]
        if i + j != d - 1:
            cols[d - 1 - j, d - 1 - i] = x if rep == SYM2 else (p - x) % p
    return cols.transpose(2, 0, 1)


def _op_digits(T, d, rep):
    """Free-entry digits of operators, along a new last axis: the inverse
    of _ops_from_digits on reduced entries."""
    rows, cols = zip(*_free_positions(d, rep))
    return T[..., list(rows), list(cols)]


@cache
def _so_generators(d, p):
    """Fixed generators of the proper isometries of the split form in
    dimension d = 2n + 1, as a (2n + 1, d, d) array verified against the
    form; no seed is involved.

    The first 2n are the short-root elements, in basis order: for each
    isotropic basis vector u the unipotent x -> x + B(x,v) u - B(x,u) v -
    (q(v)/2) B(x,u) u with v the middle basis vector, q(v)/2 = 1/2.  The
    last is the hyperbolic scaling by a non-square.  For odd p the
    short-root elements generate Omega, of index 2 in SO (their
    commutators give the long-root elements, as 2 is a unit), and the
    scaling, of non-square spinor norm, adds the other coset (Steinberg,
    Lectures on Chevalley Groups, section 3).  test_root_generators_generate
    in tests/test_census.py closes the set at every admitted (d, p) and
    finds the whole group.  Built once per (d, p) and kept, read-only.
    """
    J = _gram_np(d)
    eye = np.eye(d, dtype=np.int64)
    v = eye[d // 2]
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    gens = np.stack([(eye + np.outer(u, J @ v) - np.outer(v, J @ u)
                      - pow(2, -1, p) * np.outer(u, J @ u)) % p
                     for u in np.delete(eye, d // 2, axis=0)]
                    + [np.diag([c] + [1] * (d - 2) + [pow(c, -1, p)])])
    assert (np.all(gens.transpose(0, 2, 1) @ J @ gens % p == J)
            and np.all(-_charpolys(gens, p)[d] % p == 1))
    gens.setflags(write=False)
    return gens


def _actions(gs, d, rep, p):
    """The (k, w, w) matrices of the isometries gs on digit rows: a row x
    of w free coordinates maps to x @ M % p.

    Vectors transform by g, so M = g^T.  Operators transform by
    T -> g T g^-1, linear in T; row k of M holds the digits of the k-th
    basis operator conjugated, with g^-1 = J g^T J for an isometry.
    """
    if rep == STANDARD:
        return gs.transpose(0, 2, 1)
    J = _gram_np(d)
    w = len(_free_positions(d, rep))
    basis = _ops_from_digits(np.eye(w, dtype=np.int64), d, rep, p)
    ginv = J @ gs.transpose(0, 2, 1) @ J
    conj = gs[:, None] @ basis[None] % p @ ginv[:, None] % p
    return _op_digits(conj, d, rep)


def _digit_tables(mats, p):
    """Per generator, the images of the high and the low digits of a row:
    (hi, lo) of shapes (k, w, p^h) and (k, w, p^l), h = w // 2, l = w - h.

    The action is linear, so the image of the index x = a p^l + b has the
    digits (hi[:, :, a] + lo[:, :, b]) mod p: O(w) work per element in
    place of a w x w product.  Entries are stored in the smallest
    unsigned type that holds the sum of two of them.
    """
    k, w = mats.shape[:2]
    small = np.min_scalar_type(2 * p - 2)
    wrap = small.type(p)

    def table(rows):
        # built digit axis outermost, so every add runs over contiguous
        # (k, w) blocks, then laid out (k, w, p^m) for the lookups
        t = np.zeros((1, k, w), dtype=small)
        for r in rows.transpose(1, 0, 2):
            step = (np.arange(p)[:, None, None] * r % p).astype(small)
            t = (t[:, None] + step).reshape(-1, k, w)
            # t < 2p - 1, and the unsigned t - p wraps past t when t < p
            np.minimum(t, t - wrap, out=t)
        return np.ascontiguousarray(t.transpose(1, 2, 0))
    return table(mats[:, :w // 2]), table(mats[:, w // 2:])


@cache
def _generator_tables(d, p, rep):
    """The digit tables (hi, lo) of _so_generators(d, p) acting on the
    free coordinates of rep: group constants, built once per (d, p, rep)
    and kept, read-only."""
    tables = _digit_tables(_actions(_so_generators(d, p), d, rep, p), p)
    for t in tables:
        t.setflags(write=False)
    return tables


@cache
def _so3_actions(p, rep):
    """The digit actions (G, w, w) of every element of _so3_elements(p) on
    the free coordinates of rep, in the smallest unsigned type that holds
    p - 1: group constants, built once per (p, rep) and kept, read-only."""
    acts = _actions(_so3_elements(p), 3, rep, p).astype(
        np.min_scalar_type(p - 1))
    acts.setflags(write=False)
    return acts


def _images(hi, lo, a, b, p):
    """Encoded images, under every generator, of the indices a p^l + b.

    a and b broadcast: 1-d arrays give the images of a list of indices;
    a column of every high half against a row of every low half gives
    the whole space as one outer sum, encoded a digit column at a time.
    """
    w = hi.shape[1]
    shape = (len(hi),) + np.broadcast_shapes(np.shape(a), np.shape(b))
    out = np.zeros(shape, dtype=np.int32 if p ** w < 2 ** 31 else np.int64)
    col = np.empty(shape, dtype=hi.dtype)
    wrap = hi.dtype.type(p)
    for j in range(w):
        np.add(hi[:, j].take(a, axis=1), lo[:, j].take(b, axis=1), out=col)
        # col < 2p, and the unsigned col - p wraps past col when col < p
        np.minimum(col, col - wrap, out=col)
        out *= p
        out += col
    return out


def _orbit_labels(images):
    """The smallest member of each element's orbit under the permutations
    images (k, m), by min-label propagation.

    A label is always a member of its element's orbit and never grows.
    Until every element's label equals its images' labels, passes run:
    for each generator, a pass lowers both an element's label and the
    label of the element it names (which hooks that whole tree at once)
    to the smaller of its own label and its image's label, and pointers
    are then jumped until every label is a fixed point.  Each such pass
    lowers some label, so passes end; the final labels are constant on
    orbits, so each is its orbit's minimum.  Propagation alone can need a
    pass per element on one long cycle; hooking brings that to a few.
    Labels take the dtype of images (int32 below 2^31 elements), so every
    working array is as narrow as the indices it holds.
    """
    lab = np.arange(images.shape[1], dtype=images.dtype)
    while not all(np.array_equal(lab[img], lab) for img in images):
        for img in images:
            there = lab[img]
            low = np.minimum(lab, there)
            hooked = low.copy()
            np.minimum.at(hooked, lab, low)
            np.minimum.at(hooked, there, low)
            lab = hooked
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
    return lab


def _closure(start, hi, lo, p):
    """Orbit of the element with encoded index start under the generators
    with digit tables (hi, lo), by breadth-first closure, as its size and
    its bitset.

    The bitset marks the visited indices among all p^w encoded ones in
    p^w / 8 bytes: index i is bit i & 7 of byte i >> 3."""
    low = lo.shape[2]
    visited = np.zeros(-(-p ** hi.shape[1] // 8), dtype=np.uint8)
    frontier = np.array([start], dtype=np.int64)
    size = 0
    while len(frontier):
        np.bitwise_or.at(visited, frontier >> 3, _BITS[frontier & 7])
        size += len(frontier)
        images = _images(hi, lo, frontier // low, frontier % low, p)
        seen = visited[images >> 3] & _BITS[images & 7]
        frontier = np.unique(images[seen == 0])
    return size, visited


def _stabilizer_counts(x, acts, p):
    """How many of the group elements with digit actions acts (G, w, w)
    fix each digit row of x (R, w).

    One (R, w) @ (w, G) product per output digit, summed from w broadcast
    outer products, reduced mod p and compared with that digit of every
    row.  Entries stay at most w (p - 1)^2, so they are held in the
    smallest unsigned type that fits: uint8 for the sym2 census at p = 7.
    """
    w = x.shape[1]
    small = np.min_scalar_type(w * (p - 1) ** 2)
    xs, a = x.astype(small), acts.transpose(2, 1, 0).astype(small)
    fixed = True
    for j in range(w):
        prod = xs[:, :1] * a[j, :1]
        for k in range(1, w):
            prod += xs[:, k:k + 1] * a[j, k:k + 1]
        fixed = fixed & (prod % p == xs[:, j:j + 1])
    return np.count_nonzero(fixed, axis=1)


# ---------------------------------------------------------------------------
# dimension five: characteristic polynomials, direct stabilizers, samples


def _stab_order5(T, p):
    """Stabilizer order of a separable 5x5 operator, measured directly.

    The commutant of an operator with squarefree characteristic polynomial
    is the polynomial algebra it generates, so running over all p^5
    coefficient vectors and keeping the isometries of determinant one is
    an exhaustive count, independent of any group-order formula.
    """
    J = _gram_np(5)
    pows = [np.eye(5, dtype=np.int64)]
    for _ in range(4):
        pows.append(pows[-1] @ T % p)
    P = np.stack(pows)
    coeffs = _digits_array(5, p)
    cands = np.tensordot(coeffs, P, axes=(1, 0)) % p
    E = np.matmul(np.matmul(cands.transpose(0, 2, 1), J), cands) % p
    good = cands[np.all(E == J, axis=(1, 2))]
    return int(np.sum(-_charpolys(good, p)[5] % p == 1))


def _census5_sym2(p, polys):
    """Orbit-sample census for self-adjoint operators in dimension five:
    one orbit per requested class mod p, in first-seen order, closed
    under the generating set and certified by orbit-stabilizer with a
    directly measured stabilizer."""
    if polys is None:
        raise BudgetExceeded(
            "enumerating p^15 self-adjoint operators is out of budget; "
            "pass explicit polynomials for orbit generation")
    width = len(_free_positions(5, SYM2))
    hi, lo = _generator_tables(5, p, SYM2)
    rows, seen = [], set()
    for f in polys:
        fc = charpoly_key(f, p)
        if len(fc) != 6:
            raise WrongDegree("dimension-five rows need monic quintics")
        if fc in seen:
            continue
        seen.add(fc)
        if not fp_is_separable(list(fc), p):
            raise NonSeparableModP("polynomial not separable mod %d" % p)
        op = construct_representative(Poly(list(fc)), SYM2).op
        assert op.den % p
        inv = pow(op.den, -1, p)
        T0 = np.array([[x * inv % p for x in r] for r in op.num])
        assert [c % p for c in _berkowitz(T0.tolist())] == list(fc[::-1])
        start = int(_op_digits(T0, 5, SYM2) @ p ** np.arange(width)[::-1])
        size = _closure(start, hi, lo, p)[0]
        stab = _stab_order5(T0, p)
        assert size * stab == so_order(2, p)
        rows.append(CensusRow(tuple(fc), True, None, [size], [stab], False))
    return FiniteCensusReport(p, 2, SYM2, "orbit-sample", None,
                              p ** width, rows)


# ---------------------------------------------------------------------------
# full censuses


def _separable_keys(keys, n, p):
    """Whether each encoded operator class is separable mod p, read off
    its discriminant in one vectorized pass. Dimension three keys
    (c2 p + c1) p + c0 for x^3 + c2 x^2 + c1 x + c0, whose discriminant is
    c2^2 c1^2 - 4 c1^3 - 4 c2^3 c0 - 27 c0^2 + 18 c2 c1 c0; dimension five
    keys e2 p^3 + e4 p for the skew x^5 + e2 x^3 + e4 x = x (y^2 + e2 y + e4)
    at y = x^2, separable iff e4 (e2^2 - 4 e4) != 0."""
    if n == 1:
        c0, c1, c2 = keys % p, keys // p % p, keys // (p * p) % p
        disc = (c2 * c2 * c1 * c1 - 4 * c1 * c1 * c1 - 4 * c2 * c2 * c2 * c0
                - 27 * c0 * c0 + 18 * c2 * c1 * c0)
    else:
        e4, e2 = keys // p % p, keys // p ** 3 % p
        disc = e4 * (e2 * e2 - 4 * e4)
    return disc % p != 0


def _charpoly_keys(digits, d, rep, p):
    """Encoded characteristic polynomials mod p of the operators with
    these digit rows: x^d + c_(d-1) x^(d-1) + ... + c_0 encodes as the
    base-p number with digits c_(d-1) ... c_0."""
    c = _charpolys(_ops_from_digits(digits, d, rep, p), p)
    return sum(c[d - i] * p ** i for i in range(d))


def _full_census(p, n, rep, polys):
    """Every element of the space, partitioned class by class into the
    orbits of verified generators.

    Classes are the vector labels q(v)/2 or the characteristic polynomials
    mod p; orbits never cross them.  Characteristic polynomials are taken
    over blocks of KEY_BLOCK digit rows, one operator stack at a time.
    Orbits are the labels of _orbit_labels over the generator images of
    the whole space; polys, when given, keeps only the orbits of the
    wanted classes.  Every orbit
    whose stabilizer is measured directly is certified: size times
    stabilizer must equal the group order.  Dimension three measures all
    stabilizers at once over the enumerated group; dimension five measures
    those of separable operator classes over the commutant and leaves the
    rest None.
    """
    d = 2 * n + 1
    if polys is not None:
        if rep == STANDARD:
            raise NotOperatorRep("vector censuses have no polynomial classes")
        wanted = []
        for f in polys:
            k = charpoly_key(f, p)
            if len(k) != d + 1:
                raise WrongDegree("census rows need degree %d" % d)
            if n == 2 and (k[0] or k[2] or k[4]):
                raise NotOddPolynomial("skew rows need odd quintics")
            wanted.append(sum(c * p ** i for i, c in enumerate(k[:-1])))
    width = len(_free_positions(d, rep))
    digits = _digits_array(width, p)
    hi, lo = _generator_tables(d, p, rep)
    if rep == STANDARD:
        x = digits.astype(np.int64)
        qv = np.einsum("ni,ij,nj->n", x, _gram_np(d), x) % p
        keys = qv * pow(2, -1, p) % p
    else:
        keys = np.empty(len(digits), dtype=np.int32)
        for s in range(0, len(digits), KEY_BLOCK):
            keys[s:s + KEY_BLOCK] = _charpoly_keys(digits[s:s + KEY_BLOCK],
                                                   d, rep, p)
    images = _images(hi, lo, np.arange(hi.shape[2])[:, None],
                     np.arange(lo.shape[2])[None], p).reshape(len(hi), -1)
    lab = _orbit_labels(images)
    assert np.array_equal(keys[lab], keys)
    reps, sizes = np.unique(lab, return_counts=True)
    if polys is not None:
        keep = np.isin(keys[reps], wanted)
        reps, sizes = reps[keep], sizes[keep]
    if n == 1:
        acts = _so3_actions(p, rep)
        group_order = order = len(acts)
        stabs = _stabilizer_counts(digits[reps], acts, p).tolist()
    else:
        group_order, order = None, so_order(n, p)
        stabs = [None] * len(reps)
    order_by = np.lexsort((sizes, keys[reps]))
    row_keys, starts = np.unique(keys[reps][order_by], return_index=True)
    counts = np.bincount(keys)
    seps = ([None] * len(row_keys) if rep == STANDARD
            else _separable_keys(row_keys, n, p).tolist())
    rows = []
    for key, sep, first, last in zip(row_keys.tolist(), seps, starts.tolist(),
                                     starts[1:].tolist() + [len(reps)]):
        if rep == STANDARD:
            row_key = key
        else:
            row_key = tuple(key // p ** i % p for i in range(d)) + (1,)
        orbits = order_by[first:last].tolist()
        if n == 2 and sep:
            for o in orbits:
                T0 = _ops_from_digits(digits[reps[o]][None], d, rep, p)[0]
                stabs[o] = _stab_order5(T0, p)
        row = CensusRow(row_key, sep, int(counts[key]),
                        [int(sizes[o]) for o in orbits],
                        [stabs[o] for o in orbits], True)
        assert all(t is None or s * t == order
                   for s, t in zip(row.orbit_sizes, row.stabilizer_orders))
        assert sum(row.orbit_sizes) == row.operator_count
        rows.append(row)
    if polys is None:
        assert sum(r.operator_count for r in rows) == p ** width
    return FiniteCensusReport(p, n, rep, "full", group_order, p ** width,
                              rows)


# ---------------------------------------------------------------------------
# entry point


def finite_census(p, n, rep, polys=None):
    """Census of the representation space over F_p with orbit partition.

    One engine serves every census.  Each element is a row of w free
    coordinates with an encoded index below p^w, and each verified
    generator of the isometry group permutes those indices; its images
    come from two digit tables of p^(w/2) rows.  An enumerated space is
    partitioned by min-label propagation over the images of every
    element, each orbit labelled by its smallest index.  Dimension three
    (n = 1) enumerates every operator (or vector) and the whole group,
    and certifies every orbit by orbit-stabilizer against a stabilizer
    counted over the group.  Dimension five (n = 2) runs at p = 3 only:
    skew-adjoint and vector spaces are enumerated in full, with separable
    operator orbits certified against a stabilizer measured over the
    commutant, while the self-adjoint space is sampled one certified
    orbit per requested polynomial, by breadth-first closure from the
    exact rational representative of its key reduced mod p.  polys,
    when given, restricts the operator rows of a full census to the
    wanted classes after the whole space is labelled; vector censuses
    refuse it with NotOperatorRep.

    Raises EvenPrime at p = 2, BadPrime for composite p, WrongDimension
    for n < 1, BudgetExceeded when the estimated conjugation work passes
    CONJUGATION_BUDGET or no census mode covers (p, n, rep).
    """
    _check_rep(rep)
    if p == 2:
        raise EvenPrime("census needs an odd prime")
    if not is_prime(p):
        raise BadPrime("%d is not prime" % p)
    if n < 1:
        raise WrongDimension("need n >= 1, got %d" % n)
    if n == 1:
        width = len(_free_positions(3, rep))
        if p ** width * so_order(1, p) > CONJUGATION_BUDGET:
            raise BudgetExceeded("about %d conjugations needed"
                                 % (p ** width * so_order(1, p)))
        return _full_census(p, n, rep, polys)
    if n == 2:
        if p != 3:
            raise BudgetExceeded("dimension five runs at p = 3 only")
        if rep == SYM2:
            return _census5_sym2(p, polys)
        return _full_census(p, n, rep, polys)
    raise BudgetExceeded("no census mode for n = %d" % n)
