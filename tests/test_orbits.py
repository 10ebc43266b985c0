"""Tests for the operator-orbit engine."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.arith import is_rational_square
from orbitforge.errors import (Anisotropic, DimensionMismatch, NoCyclicVector,
                               NonSeparable, NonUnit, NormNotSquare,
                               NotOddPolynomial, NotSplit, NotTauFixed,
                               RingMismatch, WrongDegree, WrongDimension,
                               ZeroDiscriminant)
from orbitforge.etale import (EtaleAlgebra, apply_tau, embed_pair, is_square,
                             skew_data)
from orbitforge.matrix import Mat
from orbitforge.orbits import (ADJOINT, NULL_LABEL, STANDARD, SYM2, ZERO_LABEL,
                               OrbitRepresentative, adjoint_op, classify_vector,
                               construct_representative, gram_alpha,
                               in_kernel_gamma, recover_alpha,
                               representative_from_alpha, same_orbit,
                               stabilizer_info, standard_space)
from orbitforge.poly import Poly, is_separable
from orbitforge.quadform import is_isometric, is_split_odd

X3_MINUS_X = Poly([0, -1, 0, 1])
X3_PLUS_X = Poly([0, 1, 0, 1])
X3_MINUS_2 = Poly([-2, 0, 0, 1])
X5_SKEW = Poly([0, 2, 0, 3, 0, 1])  # x(x^2+1)(x^2+2)


def frac_mat(rows):
    return Mat([[Fraction(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# standard space and adjoints

def test_standard_space_n1_gram():
    sp = standard_space(1)
    assert sp.gram == frac_mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_standard_space_dets():
    for n in range(1, 5):
        sp = standard_space(n)
        assert sp.gram.det() == (-1) ** n
        assert is_split_odd(sp)


def test_standard_space_rejects_n0():
    with pytest.raises(WrongDimension):
        standard_space(0)


def test_adjoint_identity():
    sp = standard_space(2)
    assert adjoint_op(Mat.identity(5), sp) == Mat.identity(5)


def test_adjoint_reflects_antidiagonal():
    sp = standard_space(1)
    d = Mat.diag([Fraction(2), Fraction(3), Fraction(5)])
    assert adjoint_op(d, sp) == Mat.diag([Fraction(5), Fraction(3), Fraction(2)])


@given(st.lists(st.integers(min_value=-9, max_value=9),
                min_size=9, max_size=9))
def test_adjoint_involution(entries):
    sp = standard_space(1)
    t = frac_mat([entries[0:3], entries[3:6], entries[6:9]])
    assert adjoint_op(adjoint_op(t, sp), sp) == t


def test_adjoint_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        adjoint_op(Mat.identity(4), standard_space(2))


# ---------------------------------------------------------------------------
# construction of distinguished representatives

def test_construct_sym2_self_adjoint():
    o = construct_representative(X3_MINUS_X, SYM2)
    g = o.space.gram
    assert g * o.op == o.op.transpose() * g
    assert o.op.charpoly() == X3_MINUS_X


def test_construct_adjoint_skew():
    o = construct_representative(X3_PLUS_X, ADJOINT)
    g = o.space.gram
    assert g * o.op == -(o.op.transpose() * g)
    assert o.op.charpoly() == X3_PLUS_X


def test_construct_rejects_repeated_root():
    with pytest.raises(NonSeparable):
        construct_representative(Poly([0, 0, 0, 1]), SYM2)


def test_construct_rejects_even_polynomial_part():
    with pytest.raises(NotOddPolynomial):
        construct_representative(Poly([-1, -1, 0, 1]), ADJOINT)


def test_construct_rejects_wrong_degree():
    with pytest.raises(WrongDegree):
        construct_representative(Poly([1, 2, 1, 0, 1]), SYM2)
    with pytest.raises(WrongDegree):
        construct_representative(Poly([-1, 0, 1]), SYM2)


def test_construct_degree_five():
    f = Poly([3, -1, -4, 2, 0, 1])
    assert is_separable(f)
    o = construct_representative(f, SYM2)
    assert o.op.charpoly() == f
    oa = construct_representative(X5_SKEW, ADJOINT)
    assert oa.op.charpoly() == X5_SKEW


@settings(deadline=None, max_examples=15)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3))
def test_construct_random_cubics(coeffs):
    f = Poly(coeffs + [1])
    if not is_separable(f):
        return
    o = construct_representative(f, SYM2)
    g = o.space.gram
    assert o.op.charpoly() == f
    assert g * o.op == o.op.transpose() * g


# ---------------------------------------------------------------------------
# twisted pairings

def test_gram_alpha_base_example():
    got = gram_alpha(X3_MINUS_X, 1, SYM2)
    assert got.gram == frac_mat([[0, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_gram_alpha_norm_condition():
    alg = EtaleAlgebra(X3_MINUS_2)
    with pytest.raises(NormNotSquare):
        gram_alpha(X3_MINUS_2, alg.beta(), SYM2)


def test_gram_alpha_square_constant_isometric():
    for f in (X3_MINUS_X, X3_MINUS_2):
        base = gram_alpha(f, 1, SYM2)
        tw = gram_alpha(f, Fraction(9, 4), SYM2)
        assert is_isometric(base, tw)


def test_gram_alpha_rejects_nonunit():
    alg = EtaleAlgebra(X3_MINUS_X)
    with pytest.raises(NonUnit):
        gram_alpha(X3_MINUS_X, alg.beta(), SYM2)


def test_gram_alpha_adjoint_needs_tau_fixed():
    alg = EtaleAlgebra(X3_PLUS_X)
    with pytest.raises(NotTauFixed):
        gram_alpha(X3_PLUS_X, alg.one() + alg.beta(), ADJOINT)


def test_gram_alpha_det_class():
    # det of the twisted Gram stays (-1)^n up to squares
    alg = EtaleAlgebra(X3_MINUS_X)
    a = alg.element([1, 0, 1])
    d = gram_alpha(X3_MINUS_X, a, SYM2).gram.det()
    assert d < 0
    from orbitforge.arith import squarefree_part
    assert squarefree_part(d) == -1


# ---------------------------------------------------------------------------
# kernel membership

def test_in_kernel_trivial_class():
    assert in_kernel_gamma(X3_MINUS_X, 1, SYM2)
    assert in_kernel_gamma(X3_MINUS_2, 1, SYM2)
    assert in_kernel_gamma(X3_PLUS_X, 1, ADJOINT)
    assert in_kernel_gamma(X5_SKEW, 1, ADJOINT)


def test_in_kernel_descent_style_class():
    alg = EtaleAlgebra(X3_MINUS_2)
    assert in_kernel_gamma(X3_MINUS_2, alg.element([3, -1, 0]), SYM2)


def test_in_kernel_sign_interpolant():
    # component values (1,-1,-1) at the roots (0,1,-1): the twist is
    # negative definite, hence not split
    alg = EtaleAlgebra(X3_MINUS_X)
    a = alg.element([1, 0, -2])
    assert a.lift()(Fraction(0)) == 1
    assert a.lift()(Fraction(1)) == -1
    assert a.lift()(Fraction(-1)) == -1
    assert not in_kernel_gamma(X3_MINUS_X, a, SYM2)


def test_in_kernel_positive_interpolant():
    # component values (1,2,2): norm 4, split twist
    alg = EtaleAlgebra(X3_MINUS_X)
    a = alg.element([1, 0, 1])
    assert in_kernel_gamma(X3_MINUS_X, a, SYM2)


# ---------------------------------------------------------------------------
# alpha recovery

def test_recover_round_trip_sym2():
    for f in (X3_MINUS_X, X3_MINUS_2):
        o = construct_representative(f, SYM2)
        a = recover_alpha(o)
        dec = is_square(a)
        assert dec.status == "true"
        assert dec.witness * dec.witness == a


def test_recover_round_trip_adjoint():
    for f in (X3_PLUS_X, X5_SKEW):
        o = construct_representative(f, ADJOINT)
        a = recover_alpha(o)
        assert is_square(a).status != "false"


def test_recover_conjugation_invariant():
    o = construct_representative(X3_MINUS_X, SYM2)
    g = frac_mat([[2, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    o2 = o.conjugate(g)
    a1 = recover_alpha(o)
    a2 = recover_alpha(o2)
    assert is_square(a1 * a2).status == "true"


def test_recover_alpha_fallbacks(monkeypatch):
    # with the candidates limited, recover_alpha keeps the first alpha when
    # the screen refutes every one, and raises when none is cyclic
    from orbitforge import orbits
    f = Poly([0, 2, 0, 1])  # x(x^2 + 2)
    sk = skew_data(EtaleAlgebra(f))
    o = representative_from_alpha(
        f, embed_pair(sk, sk.K.const(2), c_k=1), ADJOINT)
    zero = (Fraction(0),) * 3
    refuted = [zero, (0, 1, 0), (3, 1, -3), (-2, -2, 0)]
    alg = EtaleAlgebra(f)
    first = orbits._alpha_from_vector(
        o, alg, orbits._pairing_gram(alg.one(), SYM2).inv(), refuted[1])[0]
    monkeypatch.setattr(orbits, "_cyclic_candidates",
                        lambda d, tag: iter(refuted))
    assert recover_alpha(o) == first
    assert is_square(first).status == "false"
    monkeypatch.setattr(orbits, "_cyclic_candidates",
                        lambda d, tag: iter([zero, (1, 1, 1)]))
    with pytest.raises(NoCyclicVector):
        recover_alpha(o)


@pytest.mark.parametrize("f, rep", [(X3_MINUS_X, SYM2), (X5_SKEW, ADJOINT)])
def test_recover_alpha_skips_a_zero_candidate(f, rep, monkeypatch):
    # the zero vector pulls the form back to 0, so its alpha is 0, no
    # unit: recover_alpha moves on to the candidates it would have tried
    from orbitforge import orbits
    o = construct_representative(f, rep)
    alg = EtaleAlgebra(f)
    zero = (Fraction(0),) * f.degree
    assert orbits._alpha_from_vector(
        o, alg, orbits._pairing_gram(alg.one(), SYM2).inv(),
        zero)[0] == alg.zero()
    want = recover_alpha(o)
    candidates = orbits._cyclic_candidates
    monkeypatch.setattr(orbits, "_cyclic_candidates", lambda d, tag: (
        itertools.chain([zero], candidates(d, tag))))
    assert recover_alpha(o) == want


def test_no_representative_over_a_repeated_root():
    # a representative carries L = Q[x]/(f), and building L over (x-1)^3
    # is the separability check
    f = Poly([-1, 3, -3, 1])  # (x-1)^3
    with pytest.raises(NonSeparable):
        OrbitRepresentative(standard_space(1), SYM2, Mat.identity(3),
                            EtaleAlgebra(f))
    with pytest.raises(NonSeparable):
        construct_representative(f, SYM2)


def test_recover_alpha_reuses_the_representative_algebra(monkeypatch):
    from orbitforge import orbits
    g = frac_mat([[2, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    alg = EtaleAlgebra(X3_MINUS_X)
    reps = [construct_representative(X3_MINUS_X, SYM2),
            construct_representative(X5_SKEW, ADJOINT),
            representative_from_alpha(X3_MINUS_X, alg.element([1, 0, 1]),
                                      SYM2)]
    reps.append(reps[0].conjugate(g))
    assert reps[3].alg is reps[0].alg
    assert reps[2].alg is alg
    built = []

    def counted(f):
        built.append(f)
        return EtaleAlgebra(f)

    monkeypatch.setattr(orbits, "EtaleAlgebra", counted)
    for o in reps:
        assert recover_alpha(o).alg is o.alg
    assert built == []


def test_alpha_brings_its_own_algebra():
    # an element alpha is read in its own L, whose modulus must be f; the
    # charpoly checks still come first
    beta = EtaleAlgebra(X3_MINUS_2).beta()
    with pytest.raises(RingMismatch):
        gram_alpha(X3_MINUS_X, beta, SYM2)
    with pytest.raises(RingMismatch):
        representative_from_alpha(X3_MINUS_X, beta, SYM2)
    with pytest.raises(NonSeparable):
        gram_alpha(Poly([-1, 3, -3, 1]), beta, SYM2)
    with pytest.raises(NotOddPolynomial):
        in_kernel_gamma(X3_MINUS_2, EtaleAlgebra(X3_PLUS_X).one(), ADJOINT)


# ---------------------------------------------------------------------------
# orbit comparison

def test_same_orbit_conjugates():
    o = construct_representative(X3_MINUS_X, SYM2)
    g = frac_mat([[3, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]])
    out = same_orbit(o, o.conjugate(g))
    assert out.status == "equal"
    assert out.witness is not None


def test_same_orbit_charpoly_distinct():
    o1 = construct_representative(X3_PLUS_X, ADJOINT)
    o2 = construct_representative(Poly([0, -4, 0, 1]), ADJOINT)
    out = same_orbit(o1, o2)
    assert out.status == "distinct"
    assert "charpoly" in out.certificate


def test_same_orbit_sym2_local_certificate():
    alg = EtaleAlgebra(X3_MINUS_X)
    o1 = construct_representative(X3_MINUS_X, SYM2)
    o2 = representative_from_alpha(X3_MINUS_X, alg.element([1, 0, 1]), SYM2)
    out = same_orbit(o1, o2)
    assert out.status == "distinct"
    assert "non-residue" in out.certificate


def test_same_orbit_adjoint_real_certificate():
    sk = skew_data(EtaleAlgebra(X5_SKEW))
    ap = embed_pair(sk, sk.K.const(-1))
    o1 = construct_representative(X5_SKEW, ADJOINT)
    o2 = representative_from_alpha(X5_SKEW, ap, ADJOINT)
    out = same_orbit(o1, o2)
    assert out.status == "distinct"
    assert "real root" in out.certificate


def test_same_orbit_unknown_when_the_norm_search_runs_out():
    # alpha = c tau(c) puts o2 in o1's orbit, but the tau-norm search box
    # holds no witness for the recovered class: the answer is "unknown",
    # an honest one, never "distinct", and it names the budget it ran out
    # of
    f = Poly([0, 1, 0, -1, 0, 1])  # x^5 - x^3 + x
    L = EtaleAlgebra(f)
    c = L.element([2, -1, -5, 1, 3])
    o1 = construct_representative(f, ADJOINT)
    o2 = representative_from_alpha(f, c * apply_tau(c), ADJOINT)
    out = same_orbit(o1, o2)
    assert out.status == "unknown"
    assert out.certificate == ("no solution with the coefficients of c at"
                               " most TAU_NORM_HEIGHT = 3")


def test_skew_data_builds_K_only(monkeypatch):
    # E's idempotent has a closed form in L, and stabilizer_info reads
    # the moduli of K and E off f: it builds L alone, as the separability
    # check, and never K or E
    L = EtaleAlgebra(X5_SKEW)
    built = []
    init = EtaleAlgebra.__init__

    def counted(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(EtaleAlgebra, "__init__", counted)
    sk = skew_data(L)
    assert built == [Poly([2, 3, 1])] and sk.K.f == built[0]
    del built[:]
    info = stabilizer_info(X5_SKEW, ADJOINT)
    assert built == [X5_SKEW]
    assert info.detail == {"K": Poly([2, 3, 1]),
                           "E": Poly([2, 0, 3, 0, 1])}


def test_same_orbit_rebuild_from_trivial_class():
    o1 = construct_representative(X3_MINUS_X, SYM2)
    o2 = representative_from_alpha(X3_MINUS_X, 1, SYM2)
    assert same_orbit(o1, o2).status == "equal"


def test_same_orbit_rep_mismatch():
    o1 = construct_representative(X3_PLUS_X, SYM2)
    o2 = construct_representative(X3_PLUS_X, ADJOINT)
    with pytest.raises(RingMismatch):
        same_orbit(o1, o2)


def test_representative_from_alpha_needs_split():
    alg = EtaleAlgebra(X3_MINUS_X)
    with pytest.raises(NotSplit):
        representative_from_alpha(X3_MINUS_X, alg.element([1, 0, -2]), SYM2)


# ---------------------------------------------------------------------------
# seeded corpus of kernel classes: every one gets an operator

CORPUS_HEIGHTS = (10, 100, 10**3, 10**6)


def _from_values(roots, vals):
    """The element of Q[x]/(prod (x - r)) with the given value at each root."""
    f = Poly.from_roots(roots)
    alg = EtaleAlgebra(f)
    total = alg.zero()
    for r, v in zip(roots, vals):
        num, den = alg.one(), Fraction(1)
        for s in roots:
            if s != r:
                num = num * (alg.beta() - s)
                den *= r - s
        total = total + num * (Fraction(v) / den)
    return f, total


def _values(elem, roots):
    g = elem.lift()
    return [g(r) for r in roots]


def _split_sym2_class(rng, dim, height):
    """Values at distinct integer roots of a unit that is in the kernel but
    is not a square: adjacent roots pair into hyperbolic planes through
    a_i / f'(r_i) = -a_j / f'(r_j), and the last value makes the norm a
    square (the construction of perfbench/gen.isotropic_class).  The
    roots lie in [-4, 4], or [-5, 5] for eleven of them."""
    top = max(4, dim // 2)
    roots = sorted(rng.sample(range(-top, top + 1), dim))
    df = Poly.from_roots(roots).derivative()
    while True:
        vals = []
        for i in range(0, dim - 1, 2):
            aj = Fraction(rng.choice((-1, 1)) * rng.randint(1, height))
            vals += [-aj * df(roots[i]) / df(roots[i + 1]), aj]
        norm = Fraction(1)
        for v in vals:
            norm *= v
        vals.append(norm * rng.randint(1, 3) ** 2)
        if not all(is_rational_square(v) for v in vals):
            return roots, vals


def _split_adjoint_class(rng, dim, height):
    """Values of a tau-fixed unit on the roots 0, +-r of an odd split f. The
    pairs {r, -r} span hyperbolic planes for any value, so a square value
    at 0 puts the class in the kernel."""
    rs = rng.sample(range(1, 8), dim // 2)
    roots = sorted([0] + rs + [-r for r in rs])
    vals = {0: Fraction(rng.randint(1, height)) ** 2}
    for r in rs:
        vals[r] = vals[-r] = Fraction(rng.choice((-1, 1))
                                      * rng.randint(1, height))
    return roots, [vals[r] for r in roots]


def _check_corpus_class(roots, vals, rep):
    f, alpha = _from_values(roots, vals)
    o = representative_from_alpha(f, alpha, rep)
    assert o.op.charpoly() == f
    prod = [a * b for a, b in zip(_values(recover_alpha(o), roots), vals)]
    if rep == SYM2:
        # a square in L = Q^d: a rational square at every root
        assert all(is_rational_square(v) for v in prod)
    else:
        # c tau(c) takes the value c(r) c(-r) on each pair, c(0)^2 at 0
        assert is_rational_square(prod[roots.index(0)])


@pytest.mark.parametrize("dim", (3, 5, 7, 9, 11))
@pytest.mark.parametrize("rep", (SYM2, ADJOINT))
def test_corpus_of_split_classes(rep, dim):
    # past dimension seven, one class at height 10 each
    rng = random.Random("corpus:%s:%d" % (rep, dim))
    make = _split_sym2_class if rep == SYM2 else _split_adjoint_class
    cases = [(h, 2) for h in CORPUS_HEIGHTS] if dim <= 7 else [(10, 1)]
    for height, count in cases:
        for _ in range(count):
            _check_corpus_class(*make(rng, dim, height), rep)


def test_corpus_dim5_isotropic_classes():
    # the classes perfbench/gen.isotropic_class builds at heights 2 to 100;
    # an isotropic-plane box and random scan failed on every one of them
    rng = random.Random("corpus:isotropic_class:5")
    for height in (2, 3, 5, 10, 30, 100):
        _check_corpus_class(*_split_sym2_class(rng, 5, height), SYM2)


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_corpus_of_squares(dim):
    # u^2 over a random (mostly irreducible) f: the class is trivial
    rng = random.Random("corpus:squares:%d" % dim)
    for height in (10, 10**3):
        while True:
            f = Poly([rng.randint(-5, 5) for _ in range(dim)] + [1])
            if f[0] != 0 and is_separable(f):
                break
        alg = EtaleAlgebra(f)
        while True:
            u = alg.element([rng.randint(-height, height) for _ in range(dim)])
            if u.is_unit():
                break
        o = representative_from_alpha(f, u * u, SYM2)
        assert o.op.charpoly() == f
        assert is_square(recover_alpha(o)).status == "true"


# ---------------------------------------------------------------------------
# one construction path: the solver decides the split

NOT_IN_KERNEL = ("the twisted space of alpha is not split; the class is"
                 " not in the kernel")


def _square_norm_sym2_class(rng, dim):
    """(f, alpha): a unit of Q^dim given by its values at distinct integer
    roots, any signs and sizes, the last value making the norm a square."""
    roots = sorted(rng.sample(range(-4, 5), dim))
    vals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 12))
            for _ in range(dim - 1)]
    norm = Fraction(1)
    for v in vals:
        norm *= v
    vals.append(norm * rng.randint(1, 3) ** 2)
    return _from_values(roots, vals)


def _square_norm_adjoint_class(rng, dim):
    """(f, alpha): a tau-fixed unit h(beta^2) over f = x g(x^2), g random
    and mostly irreducible.  N(alpha) = h(0) N_K(h)^2, so a square h(0)
    makes the norm a square."""
    while True:
        f = Poly([0] + [v for _ in range(dim // 2)
                        for v in (rng.randint(-4, 4), 0)] + [1])
        if not is_separable(f):
            continue
        coeffs = [0] * dim
        coeffs[0] = rng.randint(1, 3) ** 2
        for k in range(2, dim, 2):
            coeffs[k] = rng.randint(-6, 6)
        alpha = EtaleAlgebra(f).element(coeffs)
        if alpha.is_unit():
            return f, alpha


@pytest.mark.parametrize("rep, dim", [(SYM2, 3), (SYM2, 5), (SYM2, 7),
                                      (ADJOINT, 3), (ADJOINT, 5)])
def test_representative_exactly_on_kernel_classes(rep, dim):
    # the solver alone decides the split: an operator with charpoly f
    # exactly when the local invariants put the class in the kernel, and
    # otherwise the refusal the invariants name.  Random square-norm
    # classes mostly fall outside the kernel from dimension five on, so
    # every other class is a split one built into it
    rng = random.Random("kernel-equivalence:%s:%d" % (rep, dim))
    if rep == SYM2:
        split, square_norm = _split_sym2_class, _square_norm_sym2_class
    else:
        split, square_norm = _split_adjoint_class, _square_norm_adjoint_class
    seen = set()
    for i in range(8):
        f, alpha = (_from_values(*split(rng, dim, 10)) if i % 2
                    else square_norm(rng, dim))
        kernel = in_kernel_gamma(f, alpha, rep)
        seen.add(kernel)
        if kernel:
            assert representative_from_alpha(f, alpha, rep).op.charpoly() == f
        else:
            with pytest.raises(NotSplit) as err:
                representative_from_alpha(f, alpha, rep)
            assert str(err.value) == NOT_IN_KERNEL
    assert seen == {True, False}


def test_representative_from_alpha_reads_no_invariants(monkeypatch):
    # on the success path the solver's subspace is the split test: no
    # local invariants, and the one determinant of the twisted space's
    # nondegeneracy check, which its factored primes reuse
    from orbitforge import quadform
    rng = random.Random("one-path-spy")
    classes = []
    for dim in (3, 5, 7):
        f, alpha = _from_values(*_split_sym2_class(rng, dim, 10))
        classes.append((f, alpha, SYM2))
        f, alpha = _from_values(*_split_adjoint_class(rng, dim, 10))
        classes.append((f, alpha, ADJOINT))
        standard_space(dim // 2)
    calls = {"det": 0, "invariants": 0}
    det, invariants = Mat.det, quadform.invariants

    def counted_det(self):
        calls["det"] += 1
        return det(self)

    def counted_invariants(space):
        calls["invariants"] += 1
        return invariants(space)

    monkeypatch.setattr(Mat, "det", counted_det)
    monkeypatch.setattr(quadform, "invariants", counted_invariants)
    for f, alpha, rep in classes:
        assert representative_from_alpha(f, alpha, rep).f == f
    assert calls == {"det": len(classes), "invariants": 0}


def test_refused_class_computes_its_invariants_once(monkeypatch):
    # a class outside the kernel reads the invariants of its twisted space
    # twice, to name the anisotropic places and in the split test; they
    # are computed once, and each computation diagonalizes the space once
    from orbitforge import quadform
    rng = random.Random("one-invariants-per-refusal")
    refused = []
    for rep, dim, make in ((SYM2, 3, _square_norm_sym2_class),
                           (SYM2, 5, _square_norm_sym2_class),
                           (ADJOINT, 3, _square_norm_adjoint_class),
                           (ADJOINT, 5, _square_norm_adjoint_class)):
        while True:
            f, alpha = make(rng, dim)
            if not in_kernel_gamma(f, alpha, rep):
                refused.append((f, alpha, rep))
                break
    calls = []
    diagonalize = quadform.diagonalize

    def counted(space):
        calls.append(space)
        return diagonalize(space)

    monkeypatch.setattr(quadform, "diagonalize", counted)
    for f, alpha, rep in refused:
        with pytest.raises(NotSplit) as err:
            representative_from_alpha(f, alpha, rep)
        assert str(err.value) == NOT_IN_KERNEL
    assert len(calls) == len(refused)


@pytest.mark.parametrize("error", (NotSplit, Anisotropic))
def test_solver_fault_on_a_kernel_class_stays_visible(error, monkeypatch):
    # a solver refusal on a split space is a fault in the solver, not a
    # class outside the kernel: its own error comes out
    from orbitforge import orbits
    f, alpha = _from_values(*_split_sym2_class(random.Random("fault"), 5, 10))
    assert in_kernel_gamma(f, alpha, SYM2)

    def faulty(space):
        raise error("solver fault")

    monkeypatch.setattr(orbits, "maximal_isotropic_subspace", faulty)
    with pytest.raises(error) as err:
        representative_from_alpha(f, alpha, SYM2)
    assert str(err.value) == "solver fault"


def _recover_alpha_deciding_each(orep):
    """Reference: recover_alpha as it was before the screen, asking
    is_square for a decision on each of the first eight candidates."""
    from orbitforge import orbits
    f = orep.f
    alg = EtaleAlgebra(f)
    base_inv = orbits._pairing_gram(alg.one(), SYM2).inv()
    first, tested = None, 0
    for w in orbits._cyclic_candidates(orep.space.dim, "cyclic:%s" % (f.c,)):
        alpha = orbits._alpha_from_vector(orep, alg, base_inv, w)[0]
        if not alpha.is_unit():
            continue
        if orep.rep == SYM2:
            return alpha
        if first is None:
            first = alpha
        if tested < 8:
            tested += 1
            if is_square(alpha).status == "false":
                continue
        return alpha
    return first


def _seeded_operators(rep, dim, rng):
    """Operators with charpoly over random f: the distinguished one, and
    the representatives of split classes (values at the roots of a split
    f) and of (1, kappa) for a rational kappa (adjoint)."""
    while True:
        f = Poly([0 if rep == ADJOINT and k % 2 == 0 else rng.randint(-3, 3)
                  for k in range(dim)] + [1])
        if is_separable(f):
            break
    out = [construct_representative(f, rep)]
    make = _split_sym2_class if rep == SYM2 else _split_adjoint_class
    for height in (2, 10):
        roots, vals = make(rng, dim, height)
        out.append(representative_from_alpha(*_from_values(roots, vals)[:2],
                                              rep))
    if rep == ADJOINT:
        for kappa in (-1, 2, -3):
            f = Poly([0] + [v for c in _ADJ_G[dim] for v in (c, 0)][:-1])
            sk = skew_data(EtaleAlgebra(f))
            alpha = embed_pair(sk, sk.K.const(kappa), c_k=1)
            if in_kernel_gamma(f, alpha, ADJOINT):
                out.append(representative_from_alpha(f, alpha, ADJOINT))
    return out


# even parts g with negative real roots, f = x g(x^2)
_ADJ_G = {3: (2, 1), 5: (4, 5, 1), 7: (6, 11, 6, 1)}


@pytest.mark.parametrize("dim", (3, 5, 7))
@pytest.mark.parametrize("rep", (SYM2, ADJOINT))
def test_recover_alpha_matches_deciding_each_candidate(rep, dim,
                                                       monkeypatch):
    # the screen refutes exactly the candidates is_square calls "false",
    # and is_square decides the ones it passes, so the alpha chosen is the
    # one the parent loop chose
    from orbitforge import etale, orbits
    rng = random.Random("recover:%s:%d" % (rep, dim))
    screened, decided = [], []
    screen = etale.square_screen

    def counted_screen(a):
        v = screen(a)
        screened.append(None if v is None else v.status)
        return v

    def counted_is_square(a):
        decided.append(a)
        return is_square(a)

    monkeypatch.setattr(orbits, "square_screen", counted_screen)
    monkeypatch.setattr(orbits, "is_square", counted_is_square)
    for o in _seeded_operators(rep, dim, rng):
        assert recover_alpha(o) == _recover_alpha_deciding_each(o)
    assert len(decided) == screened.count(None)
    # a symmetric alpha is returned unscreened; the skew candidates of
    # dimension 3 here are constants of L, decided by their value
    if rep == SYM2:
        assert screened == []
    elif dim > 3:
        assert screened.count("false") >= 10
    if (rep, dim) == (ADJOINT, 5):
        assert screened.count(None) >= 1


# ---------------------------------------------------------------------------
# vector orbits

def test_classify_hyperbolic_combination():
    sp = standard_space(1)
    for d in (1, 5, Fraction(-3, 4)):
        w = (Fraction(1), Fraction(0), Fraction(d))
        assert classify_vector(w, sp) == d


def test_classify_null_and_zero():
    sp = standard_space(2)
    assert classify_vector((1, 0, 0, 0, 0), sp) == NULL_LABEL
    assert classify_vector((0, 0, 0, 0, 0), sp) == ZERO_LABEL


def test_classify_respects_group_action():
    sp = standard_space(1)
    g = frac_mat([[2, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    assert g.transpose() * sp.gram * g == sp.gram
    for w in ((1, 2, 3), (0, 1, 0), (1, 1, -2)):
        wf = tuple(Fraction(x) for x in w)
        assert classify_vector(g.apply(wf), sp) == classify_vector(wf, sp)


def test_classify_dimension_check():
    with pytest.raises(DimensionMismatch):
        classify_vector((1, 0, 0), standard_space(2))


# ---------------------------------------------------------------------------
# stabilizers

def test_stabilizer_sym2_order():
    info = stabilizer_info(X3_MINUS_X, SYM2)
    assert info.kind == "two-torsion"
    assert info.order == 4
    assert info.dimension == 0
    info5 = stabilizer_info(Poly([3, -1, -4, 2, 0, 1]), SYM2)
    assert info5.order == 16


def test_stabilizer_adjoint_torus():
    info = stabilizer_info(X3_PLUS_X, ADJOINT)
    assert info.kind == "torus"
    assert info.dimension == 1
    assert info.detail["K"] == Poly([1, 1])
    assert info.detail["E"] == Poly([1, 0, 1])
    info5 = stabilizer_info(X5_SKEW, ADJOINT)
    assert info5.dimension == 2


def test_stabilizer_standard():
    info = stabilizer_info(8, STANDARD, n=2)
    assert info.kind == "orthogonal"
    assert info.detail["disc_class"] == 2
    assert info.detail["space_dim"] == 4
    with pytest.raises(ZeroDiscriminant):
        stabilizer_info(0, STANDARD)
    for n in (0, -2):
        with pytest.raises(WrongDimension):
            stabilizer_info(8, STANDARD, n=n)
