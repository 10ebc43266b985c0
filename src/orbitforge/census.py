"""Finite-field orbit censuses.

finite_census enumerates actual operators over F_p and partitions them
into orbits with one engine: every census is the isometry group acting
linearly on the free coordinates of its space, so each of its 2n + 1
fixed generators (the short-root elements and a non-square torus
element) permutes the encoded element indices.  Two small tables of
packed words per generator, one for the high and one for the low half
of the digits, each word an image's digits in fields wide enough for
the sum of two, give the image of any index: one add of two words gives
every digit sum at once, and a lookup per chunk of fields reduces and
encodes them.  The same reader gives the images of a frontier and, one
generator at a time, of the whole space.  Orbits of a whole space are
then labelled in a few whole-array passes: every element takes the
smallest label along its images, pointers are jumped until stable, and
each orbit ends labelled by its smallest index.

A self-adjoint space at p ∤ d is censused modulo scalars, as Bhargava
and Gross work with the trace-zero operators: translation by tI
commutes with conjugation and sends the characteristic polynomial f(x)
to f(x - t), and the trace-zero operators complement F_p·I, so every
orbit is a trace-zero orbit plus tI.  Only the p^(w - 1) trace-zero
operators are labelled, keyed and measured, and each of their orbits is
translated by every tI.  At p | d the identity has trace zero, so there,
and for the skew-adjoint and vector spaces, which hold no scalars, the
whole space is labelled.  The dimension-five self-adjoint space is too
large to label; it is sampled one orbit per requested polynomial, by
breadth-first closure over the same trace-zero tables from the rational
representative of the polynomial's lifted key reduced mod p and
translated to trace zero, marking the visited indices in a bitset of
p^(w - 1) / 8 bytes.  A generator permutes the indices, so each round
keeps, generator by generator, the images whose bit is still clear and
sets their bits before the next: the next frontier has no repeats and
no sort runs.  The class keys of a skew-adjoint space are read off its
free digits: Newton's identities give the characteristic polynomial
x^d + e2 x^(d-2) + e4 x^(d-4) from tr T^2 and tr T^4, formed in small
signed integers with no operator stack.  Characteristic polynomials and
determinants of stacks of self-adjoint operators, of the generators and
of commutant elements come from matrix._berkowitz run on int32 entry
columns.

Working memory follows what a census keeps, not the arithmetic it
does: digit rows are held in the smallest unsigned type (one byte per
digit), the class keys of a full census are computed over blocks of at
most KEY_BLOCK digit rows, so each self-adjoint operator stack and its
Berkowitz temporaries, or the power sums of each skew-adjoint block,
exist for one block at a time, the actions of the enumerated group are
conjugated in blocks of at most KEY_BLOCK temporary entries, and the
whole-space images are read one generator at a time.  Images and orbit
labels are int64, numpy's index type, so no gather converts its
indices.

The group data depends on (d, p) alone: the verified generators, their
packed words for each representation, the chunk decoder of each p and,
in dimension three, the actions of the enumerated group are built once
per process, by the first census that passes the budget gate and needs
them, and kept as read-only arrays: under 1 MB for every census at
p <= 13 and in dimension five, and 0.27 MB per representation for the
group's actions at p = 31, the largest admitted prime.  The enumerated
group itself (int64) is rebuilt for each set of actions rather than
kept.  Nothing that depends on the counted elements is kept.

A closure test proves generation; each orbit whose stabilizer is
measured directly (over the enumerated group in dimension three, over
the commutant in dimension five) must also satisfy orbit size times
stabilizer order equals the group order, so the census depends on no
closed formula.  The closed-form local and real orbit counts live in
orbits.

numpy appears in this module only, for the bulk mod-p linear algebra of
the enumeration censuses.  Everything is integer arithmetic throughout;
floats never enter.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .arith import is_prime
from .errors import (BadPrime, BudgetExceeded, EvenPrime, EvenQ,
                     NonSeparableModP, NotMonic, NotOddPolynomial,
                     NotOperatorRep, WrongDegree, WrongDimension)
from .matrix import _berkowitz
from .orbits import (ADJOINT, STANDARD, SYM2, _check_rep, _reduce_mod,
                     construct_representative)
from .poly import Poly, fp_is_separable

# estimated conjugations (space size times group order) a census may run.
# The estimate counts the whole space of p^w elements on purpose, also
# where a census labels only its p^(w - 1) trace-zero operators: the
# budget bounds the size of the report's space, and so keeps refusing the
# self-adjoint census at p = 11 in dimension three
CONJUGATION_BUDGET = 2 ** 31
# digit rows per block of class keys in a full census: every census of at
# most this many elements (all of p = 13 and p = 31) runs as one block
KEY_BLOCK = 2 ** 15
# the bit of each index within its byte of a closure's visited bitset
_BITS = (1 << np.arange(8)).astype(np.uint8)
# the widest chunk of packed digit sums one decoder lookup reads
_CHUNK_BITS = 15


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


def _so3_elements(p):
    """Every proper isometry of the split three-dimensional form over F_p,
    as an (N, 3, 3) array: the image of PGL(2, F_p) = SO(3, F_p) acting on
    binary quadratic forms, sorted by the digit codes of columns 1 and 2.

    g = (a b; c d) sends F = AX^2 + BXY + CY^2 to F(aX + cY, bX + dY) /
    det g, keeping B^2 - 4AC, the split form in the coordinates
    (A, B, -2C).  One g per class, the first nonzero entry of its top row
    1, gives each of the p(p^2 - 1) elements once.  Column j is the image
    of the j-th basis form X^2, XY, -Y^2 / 2.
    """
    a, b, c, d = np.indices((2, p, p, p), dtype=np.int64).reshape(4, -1)
    det = (a * d - b * c) % p
    keep = ((a == 1) | (b == 1)) & (det != 0)
    a, b, c, d, det = a[keep], b[keep], c[keep], d[keep], det[keep]
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    G = np.stack([a * a, a * b, -b * b * inv[2],
                  2 * a * c, a * d + b * c, -b * d,
                  -2 * c * c, -2 * c * d, d * d], axis=1).reshape(-1, 3, 3)
    G *= inv[det][:, None, None]
    G %= p
    place = p ** np.arange(2, -1, -1, dtype=np.int64)
    codes = (G[:, :, 0] @ place) * p ** 3 + G[:, :, 1] @ place
    return G[np.argsort(codes)]


# ---------------------------------------------------------------------------
# census report structure


@dataclass(slots=True)
class CensusRow:
    """One invariant-polynomial class (or vector label) of a census.

    key is the ascending coefficient tuple of the monic polynomial mod p
    for the two tensor representations, or the integer label q(v)/2 mod p
    for vectors.  complete says whether orbit_sizes lists every orbit of
    the class; orbit-generation rows sample a single orbit and leave
    operator_count unset.  stabilizer_orders aligns with orbit_sizes and
    holds None where no independent stabilizer measurement was made.
    """

    key: tuple | int
    separable: bool | None
    operator_count: int | None
    orbit_sizes: tuple
    stabilizer_orders: tuple
    complete: bool

    @property
    def orbit_count(self):
        return len(self.orbit_sizes) if self.complete else None


@dataclass(slots=True)
class FiniteCensusReport:
    """Census output: per-class rows plus the global accounting.

    mode is "full" when the element space was enumerated exhaustively and
    "orbit-sample" when rows were generated from explicit polynomials by
    orbit closure.  group_order is the directly enumerated group size in
    dimension three and None in dimension five, where the group is never
    listed.
    """

    p: int
    n: int
    rep: str
    mode: str
    group_order: int | None
    space_size: int
    rows: list = field(repr=False)

    def row(self, key):
        for r in self.rows:
            if r.key == key:
                return r
        raise KeyError(key)


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


def _scalar_split(d, p, rep):
    """Where a census of rep splits off the scalar operators F_p·I: the
    index of the middle anti-diagonal entry T[n][n] among the free
    coordinates, which the labelled rows leave out, or None.

    Self-adjoint operators at p ∤ d are the trace-zero ones plus F_p·I, as
    tr I = d is a unit, and a census labels the trace-zero ones only; on
    them T[n][n] = -2 (T[0][0] + ... + T[n-1][n-1]).  At p | d the identity
    has trace zero and complements nothing, and skew-adjoint operators and
    vectors hold no scalars: there nothing is split off.
    """
    if rep == SYM2 and d % p:
        return _free_positions(d, rep).index((d // 2, d // 2))
    return None


def _lift(rows, d, p, rep):
    """The free coordinates of labelled digit rows: the trace-zero rows of
    a split census with T[n][n] put back, any other rows as they are."""
    mid = _scalar_split(d, p, rep)
    if mid is None:
        return rows
    diag = [_free_positions(d, rep).index((i, i)) for i in range(d // 2)]
    upper = rows[:, diag].sum(axis=1, dtype=np.int64)
    return np.insert(rows, mid, -2 * upper % p, axis=1)


def _translations(d, p, rep):
    """The free coordinates (s, w) of the scalars tI that carry labelled
    orbits to the others: every t in F_p where the census splits off the
    scalars, t = 0 alone where it does not."""
    w = len(_free_positions(d, rep))
    if _scalar_split(d, p, rep) is None:
        return np.zeros((1, w), dtype=np.int64)
    eye = [int(i == j) for i, j in _free_positions(d, rep)]
    return np.outer(np.arange(p), eye)


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
    basis operator conjugated, with g^-1 = J g^T J for an isometry.  The
    conjugation runs over blocks of the group, each block's (block, w, d,
    d) int64 temporaries holding at most KEY_BLOCK entries.
    """
    if rep == STANDARD:
        return gs.transpose(0, 2, 1)
    J = _gram_np(d)
    w = len(_free_positions(d, rep))
    basis = _ops_from_digits(np.eye(w, dtype=np.int64), d, rep, p)
    out = np.empty((len(gs), w, w), dtype=np.int64)
    step = KEY_BLOCK // (w * d * d)
    for s in range(0, len(gs), step):
        g = gs[s:s + step, None]
        ginv = J @ g.transpose(0, 1, 3, 2) @ J
        out[s:s + step] = _op_digits(g @ basis % p @ ginv % p, d, rep)
    return out


@cache
def _generator_tables(d, p, rep):
    """The packed words (hi_words, lo_words) of _packed_words for
    _so_generators(d, p) acting on the labelled rows of rep, and the
    rows' width w: group constants, built once per (d, p, rep) and kept,
    read-only.

    Where _scalar_split splits off the scalars (self-adjoint operators at
    p ∤ d) the labelled rows are the w - 1 free coordinates of the
    trace-zero operators, which the action preserves: each row is lifted,
    acted on, and its image's T[n][n] dropped again.  Elsewhere they are
    all w free coordinates."""
    mats = _actions(_so_generators(d, p), d, rep, p)
    mid = _scalar_split(d, p, rep)
    if mid is not None:
        basis = _lift(np.eye(mats.shape[1] - 1, dtype=np.int64), d, p, rep)
        mats = np.delete(basis @ mats % p, mid, axis=2)
    words = _packed_words(mats, p)
    for t in words:
        t.setflags(write=False)
    return words + (mats.shape[1],)


@cache
def _so3_actions(p, rep):
    """The digit actions (G, w, w) of every element of _so3_elements(p) on
    the free coordinates of rep, in the smallest unsigned type that holds
    p - 1: group constants, built once per (p, rep) and kept, read-only;
    the int64 group they come from is not kept."""
    acts = _actions(_so3_elements(p), 3, rep, p).astype(
        np.min_scalar_type(p - 1))
    acts.setflags(write=False)
    return acts


def _field_bits(p):
    """Bits per packed digit: enough for the sum 2p - 2 of two digits."""
    return (2 * p - 2).bit_length()


def _packed_words(mats, p):
    """Per generator, the images of the high and the low digits of a row
    under the actions mats (k, w, w), packed: (hi_words, lo_words) of
    shapes (k, p^h) and (k, p^l), h = w // 2, l = w - h, each word the w
    image digits of a half-row, most significant digit in the top field
    of _field_bits(p) bits (42 bits for the 14 trace-zero digits of the
    dimension-five self-adjoint census at p = 3).

    The action is linear, so the image of the index x = a p^l + b has the
    digits of hi_words[a] + lo_words[b] reduced mod p: a field holds a
    digit below p, so the fields of the sum hold the digit sums below
    2p - 1, and no carry crosses a field.  Each half's digit images are
    built one digit at a time in the smallest unsigned type that holds
    the sum of two of them, then packed by one product with the field
    weights.  Words are int64, numpy's index type, so the chunks cut from
    their sums index the decoder without a conversion pass."""
    k, w = mats.shape[:2]
    bits = _field_bits(p)
    assert w * bits < 64
    small = np.min_scalar_type(2 * p - 2)
    wrap = small.type(p)
    weights = 1 << bits * np.arange(w - 1, -1, -1, dtype=np.int64)

    def pack(rows):
        # built digit axis outermost, so every add runs over contiguous
        # (k, w) blocks
        t = np.zeros((1, k, w), dtype=small)
        for r in rows.transpose(1, 0, 2):
            step = (np.arange(p)[:, None, None] * r % p).astype(small)
            t = (t[:, None] + step).reshape(-1, k, w)
            # t < 2p - 1, and the unsigned t - p wraps past t when t < p
            np.minimum(t, t - wrap, out=t)
        return np.ascontiguousarray((t @ weights).T)
    return pack(mats[:, :w // 2]), pack(mats[:, w // 2:])


@cache
def _field_decoder(p):
    """The base-p value, each digit reduced mod p, of every chunk of c =
    _CHUNK_BITS // _field_bits(p) packed digit sums (5 sums at p = 3):
    read-only, built once per p in the smallest unsigned type that holds
    p^c - 1."""
    bits = _field_bits(p)
    c = _CHUNK_BITS // bits
    chunk = np.arange(1 << (bits * c), dtype=np.uint16)
    out = np.zeros(len(chunk), dtype=np.min_scalar_type(p ** c - 1))
    for i in reversed(range(c)):
        out *= p
        out += (chunk >> (bits * i) & ((1 << bits) - 1)) % p
    out.setflags(write=False)
    return out


def _packed_images(hi_words, lo_words, w, a, b, p):
    """Encoded images of the indices a p^l + b of w digits, as int64, from
    the packed words of _packed_words: per image one add of two words and
    one _field_decoder lookup per chunk of fields, most significant chunk
    first.

    The words may be every generator's rows (k, p^m), giving images along
    a new first axis, or one generator's row.  a and b broadcast: 1-d
    arrays give the images of a list of indices, a column of every high
    half against a row of every low half gives the whole space."""
    decode = _field_decoder(p)
    bits = _field_bits(p)
    c = _CHUNK_BITS // bits
    sums = hi_words.take(a, axis=-1) + lo_words.take(b, axis=-1)
    low = (w - 1) // c * c
    out = decode[sums >> bits * low].astype(np.int64)
    for i in range(low - c, -1, -c):
        out *= p ** c
        out += decode[sums >> bits * i & (1 << bits * c) - 1]
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
    Labels take the dtype of images: int64, numpy's index type, in every
    census.
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


def _closure(start, tables, p):
    """Orbit of the element with encoded index start under the generators
    with tables (hi_words, lo_words, w) of _generator_tables, by
    breadth-first closure, as its size and its bitset.

    The bitset marks the visited indices among all p^w encoded ones in
    p^w / 8 bytes: index i is bit i & 7 of byte i >> 3.  Each generator
    permutes the indices, so its images of a frontier without repeats
    have none either; a round keeps, generator by generator, the images
    whose bit is still clear and sets their bits before the next
    generator, so the kept images, concatenated, are the next frontier
    without repeats and no sort runs.  Each round reads every generator's
    images of the frontier in one call of _packed_images."""
    w, low = tables[2], tables[1].shape[1]
    visited = np.zeros(-(-p ** w // 8), dtype=np.uint8)
    visited[start >> 3] = _BITS[start & 7]
    frontier = np.array([start])
    size = 0
    while len(frontier):
        size += len(frontier)
        a, b = np.divmod(frontier, low)
        kept = []
        for img in _packed_images(*tables, a, b, p):
            img = img[visited[img >> 3] & _BITS[img & 7] == 0]
            np.bitwise_or.at(visited, img >> 3, _BITS[img & 7])
            kept.append(img)
        frontier = np.concatenate(kept)
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


def _census5_sym2(p, keys):
    """Orbit-sample census for self-adjoint operators in dimension five:
    one orbit per requested key, in first-seen order, closed under the
    generating set and certified by orbit-stabilizer with a directly
    measured stabilizer.

    p ∤ 5 at the one admitted prime, so the closure runs modulo scalars:
    from the trace-zero T0 - (tr T0 / 5) I, over the trace-zero rows of
    _generator_tables, whose bitset takes p^(w - 1) / 8 bytes.  The
    translate by the scalar has the same orbit size and stabilizer."""
    width = len(_free_positions(5, SYM2))
    mid = _scalar_split(5, p, SYM2)
    tables = _generator_tables(5, p, SYM2)
    rows = []
    for fc in dict.fromkeys(keys):
        op = construct_representative(Poly(list(fc)), SYM2).op
        assert op.den % p
        inv = pow(op.den, -1, p)
        T0 = np.array([[x * inv % p for x in r] for r in op.num])
        assert [c % p for c in _berkowitz(T0.tolist())] == list(fc[::-1])
        t = np.trace(T0) * pow(5, -1, p) % p
        x = np.delete(_op_digits((T0 - t * np.eye(5, dtype=np.int64)) % p,
                                 5, SYM2), mid)
        start = int(x @ p ** np.arange(len(x))[::-1])
        size = _closure(start, tables, p)[0]
        stab = _stab_order5(T0, p)
        assert size * stab == so_order(2, p)
        rows.append(CensusRow(fc, True, None, (size,), (stab,), False))
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
    at y = x^2, separable iff e4 (e2^2 - 4 e4) != 0; any other dimension-five
    key is refused, so a self-adjoint one cannot be misread as skew."""
    if n == 1:
        c0, c1, c2 = keys % p, keys // p % p, keys // (p * p) % p
        disc = (c2 * c2 * c1 * c1 - 4 * c1 * c1 * c1 - 4 * c2 * c2 * c2 * c0
                - 27 * c0 * c0 + 18 * c2 * c1 * c0)
    else:
        assert not np.any(keys % p | keys // p ** 2 % p | keys // p ** 4), (
            "dimension-five keys must be odd quintics (c0 = c2 = c4 = 0)")
        e4, e2 = keys // p % p, keys // p ** 3 % p
        disc = e4 * (e2 * e2 - 4 * e4)
    return disc % p != 0


def _charpoly_keys(digits, d, rep, p):
    """Encoded characteristic polynomials mod p of the operators with
    these digit rows: x^d + c_(d-1) x^(d-1) + ... + c_0 encodes as the
    base-p number with digits c_(d-1) ... c_0.

    Self-adjoint keys come from _charpolys on the assembled operator
    stack; skew-adjoint keys from _skew_keys, on the digit rows alone."""
    if rep == ADJOINT:
        return _skew_keys(digits, d, p)
    c = _charpolys(_ops_from_digits(digits, d, rep, p), p)
    return sum(c[d - i] * p ** i for i in range(d))


def _skew_keys(digits, d, p):
    """Encoded characteristic polynomials mod p of the skew-adjoint
    operators T with these digit rows, d = 3 or 5, by Newton's identities.

    det(xI - T) = x^d + e2 x^(d-2) + e4 x^(d-4) (e4 only at d = 5): tr T
    and tr T^3 vanish, and with s2 = tr T^2 and s4 = tr T^4 the integer
    lift T, each entry a digit or the negated digit at its mirror
    position, has e2 = -s2/2 and e4 = (s2^2/2 - s4)/4.  Both divisions are
    exact over the integers (e2 and e4 are sums of principal minors), so
    they are shifts.  S = T^2 is self-adjoint, S_ji = S_(d-1-i)(d-1-j), so
    its entries on and above the anti-diagonal give s2 = sum S_ii and s4 =
    sum S_ij S_ji, an entry off the anti-diagonal counted twice, once for
    its mirror.  With m = p - 1, at most d - 1 nonzero entries in a row
    of T (its anti-diagonal is zero) bound |S_ij| <= (d - 1) m^2, |s2| <=
    b = d (d - 1) m^2 and |s4| <= b^2, so every intermediate fits the
    smallest signed type holding b at d = 3 and 3 b^2 / 2 at d = 5 (int8
    or int16 at every admitted (d, p)), as does the key, below p^(d - 1);
    each coefficient is reduced mod p once, at the end."""
    b = d * (d - 1) * (p - 1) ** 2
    small = np.min_scalar_type(-(b if d == 3 else 3 * b * b // 2))
    T = [[None] * d for _ in range(d)]
    for k, (i, j) in enumerate(_free_positions(d, ADJOINT)):
        T[i][j] = x = digits[:, k].astype(small)
        T[d - 1 - j][d - 1 - i] = -x

    def square(i, j):
        terms = [T[i][k] * T[k][j] for k in range(d)
                 if T[i][k] is not None and T[k][j] is not None]
        return sum(terms[1:], terms[0])
    # s2 reads the diagonal of S only; s4, at d = 5, every entry
    S = {(i, j): square(i, j) for i in range(d) for j in range(d - i)
         if d == 5 or i == j}
    s2 = 2 * sum(S[i, i] for i in range(d // 2)) + S[d // 2, d // 2]
    key = -(s2 >> 1) % p * p ** (d - 2)
    if d == 5:
        s4 = sum(S[i, j] * S[j, i] * (1 if i + j == d - 1 else 2)
                 for i, j in S)
        key += ((s2 * s2 >> 1) - s4 >> 2) % p * p
    return key


def _full_census(p, n, rep, wanted):
    """Every element of the space, partitioned class by class into the
    orbits of verified generators.

    Classes are the vector labels q(v)/2 or the characteristic polynomials
    mod p; orbits never cross them.  The labelled space is the trace-zero
    operators where _scalar_split splits off the scalars (self-adjoint
    operators at p ∤ d), and the whole space elsewhere.  Its orbits are the
    labels of _orbit_labels over the int64 images of every labelled row,
    read from the packed words one generator at a time into a (k, p^w)
    array, its classes are taken by _charpoly_keys over blocks of
    KEY_BLOCK lifted rows (one self-adjoint operator stack at a time; the
    skew-adjoint keys come from the digits, with no stack), and its
    stabilizers are measured on the lifted orbit representatives.  Each
    labelled orbit O then gives the orbits O + tI of every translation in
    _translations, with O's size, stabilizer and class count; their
    classes are those of the translated representatives.  wanted, when
    given, keeps only the orbits of the classes with those row keys.
    Every orbit whose stabilizer is measured directly is certified: size
    times stabilizer must equal the group order.
    Dimension three measures all stabilizers at once over the enumerated
    group; dimension five measures those of separable operator classes
    over the commutant and leaves the rest None.
    """
    d = 2 * n + 1

    def classes(x):
        if rep == STANDARD:
            x = x.astype(np.int64)
            qv = np.einsum("ni,ij,nj->n", x, _gram_np(d), x) % p
            return qv * pow(2, -1, p) % p
        return _charpoly_keys(x, d, rep, p)

    width = len(_free_positions(d, rep))
    hi_words, lo_words, w = _generator_tables(d, p, rep)
    digits = _digits_array(w, p)
    keys = np.empty(len(digits), dtype=np.int32)
    for s in range(0, len(digits), KEY_BLOCK):
        keys[s:s + KEY_BLOCK] = classes(_lift(digits[s:s + KEY_BLOCK],
                                              d, p, rep))
    high, low = hi_words.shape[1], lo_words.shape[1]
    images = np.empty((len(hi_words), high * low), dtype=np.int64)
    for img, hw, lw in zip(images, hi_words, lo_words):
        img.reshape(high, low)[:] = _packed_images(
            hw, lw, w, np.arange(high)[:, None], np.arange(low), p)
    lab = _orbit_labels(images)
    assert np.array_equal(keys[lab], keys)
    labelled, sizes = np.unique(lab, return_counts=True)
    lifted = _lift(digits[labelled], d, p, rep)
    shifts = _translations(d, p, rep)
    reps = ((lifted[:, None] + shifts) % p).reshape(-1, width)
    source = np.repeat(np.arange(len(labelled)), len(shifts))
    rep_keys = classes(reps) if len(shifts) > 1 else keys[labelled]
    assert np.array_equal(rep_keys[::len(shifts)], keys[labelled])
    if wanted is not None:
        keep = np.isin(rep_keys, [sum(c * p ** i for i, c in enumerate(k[:-1]))
                                  for k in wanted])
        reps, source, rep_keys = reps[keep], source[keep], rep_keys[keep]
    sizes, counts = sizes[source], np.bincount(keys)[keys[labelled]][source]
    if n == 1:
        acts = _so3_actions(p, rep)
        group_order = order = len(acts)
        stabs = _stabilizer_counts(lifted, acts, p)[source].tolist()
    else:
        group_order, order = None, so_order(n, p)
        stabs = [None] * len(reps)
    order_by = np.lexsort((sizes, rep_keys))
    row_keys, starts = np.unique(rep_keys[order_by], return_index=True)
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
                T0 = _ops_from_digits(reps[o][None], d, rep, p)[0]
                stabs[o] = _stab_order5(T0, p)
        row = CensusRow(row_key, sep, int(counts[orbits[0]]),
                        tuple(int(sizes[o]) for o in orbits),
                        tuple(stabs[o] for o in orbits), True)
        assert all(t is None or s * t == order
                   for s, t in zip(row.orbit_sizes, row.stabilizer_orders))
        assert sum(row.orbit_sizes) == row.operator_count
        rows.append(row)
    if wanted is None:
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
    come from two tables of p^(w/2) packed words.  An enumerated space is
    partitioned by min-label propagation over the images of every
    element, each orbit labelled by its smallest index.  Self-adjoint
    spaces at p ∤ d are partitioned modulo scalars: the trace-zero
    operators, a complement of F_p·I when d is a unit mod p, are labelled
    on w - 1 coordinates, and each of their orbits O gives the p orbits
    O + tI, of the same size and stabilizer, with characteristic
    polynomial f(x - t) for f that of O.  At p | d (p = 3 in dimension
    three) the identity has trace zero, so that space, like the
    skew-adjoint and vector spaces, is labelled whole.  Dimension three
    (n = 1) enumerates every operator (or vector) and the whole group,
    and certifies every orbit by orbit-stabilizer against a stabilizer
    counted over the group.  Dimension five (n = 2) runs at p = 3 only:
    skew-adjoint and vector spaces are enumerated in full, with separable
    operator orbits certified against a stabilizer measured over the
    commutant, while the self-adjoint space is sampled one certified
    orbit per requested polynomial, by breadth-first closure over the
    trace-zero operators from the exact rational representative of its
    key reduced mod p, translated to trace zero; each round reads the
    frontier's images and keeps, generator by generator, those not yet in
    the visited bitset, so no frontier is sorted.  polys, when given,
    restricts the operator rows of a full census to the wanted classes
    after the labelled space is partitioned.  space_size counts the whole
    space, p^w, in every mode.

    Raises EvenPrime at p = 2, BadPrime for composite p, WrongDimension
    for n < 1, BudgetExceeded when the estimated conjugation work passes
    CONJUGATION_BUDGET or no census mode covers (p, n, rep, polys).  polys
    are then checked and keyed once: NotOperatorRep for vectors, NotMonic,
    WrongDegree unless of degree 2n + 1, NotOddPolynomial in a skew census
    at every n, NonSeparableModP in the dimension-five sample.  Every
    refusal comes before any work.
    """
    _check_rep(rep)
    if p == 2:
        raise EvenPrime("census needs an odd prime")
    if not is_prime(p):
        raise BadPrime("%d is not prime" % p)
    if n < 1:
        raise WrongDimension("need n >= 1, got %d" % n)
    if n > 2:
        raise BudgetExceeded("no census mode for n = %d" % n)
    if n == 1:
        need = p ** len(_free_positions(3, rep)) * so_order(1, p)
        if need > CONJUGATION_BUDGET:
            raise BudgetExceeded(
                "about %d conjugations needed, past CONJUGATION_BUDGET = %d"
                % (need, CONJUGATION_BUDGET))
    elif p != 3:
        raise BudgetExceeded("dimension five runs at p = 3 only")
    elif rep == SYM2 and polys is None:
        raise BudgetExceeded(
            "the 3^15 self-adjoint operators of dimension five are "
            "sampled, not enumerated; pass explicit polynomials for "
            "orbit generation")
    keys = None
    if polys is not None:
        if rep == STANDARD:
            raise NotOperatorRep("vector censuses have no polynomial classes")
        keys = []
        for f in polys:
            k = charpoly_key(f, p)
            if len(k) != 2 * n + 2:
                raise WrongDegree("census rows need degree %d, got %s"
                                  % (2 * n + 1, f.pretty()))
            if rep == ADJOINT and any(k[0::2]):
                raise NotOddPolynomial("skew census rows need odd polynomials"
                                       " mod %d, got %s" % (p, f.pretty()))
            if n == 2 and rep == SYM2 and not fp_is_separable(list(k), p):
                raise NonSeparableModP("polynomial not separable mod %d" % p)
            keys.append(k)
    if n == 2 and rep == SYM2:
        return _census5_sym2(p, keys)
    return _full_census(p, n, rep, keys)
