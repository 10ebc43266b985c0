from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitforge import poly
from orbitforge.errors import NonSeparableModP, NotMonic
from orbitforge.poly import Poly

X = Poly.x()


def P(*coeffs):
    """Ascending-coefficient constructor shorthand."""
    return Poly(coeffs)


def test_basic_arithmetic():
    f = P(-2, 0, 0, 1)  # x^3 - 2
    g = P(1, 1)  # x + 1
    assert (f + g).c == (Fraction(-1), Fraction(1), Fraction(0), Fraction(1))
    assert (f * g).degree == 4
    assert f(3) == 25
    assert f.derivative() == P(0, 0, 3)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_pow_negative_exponent_raises():
    assert P(1, 1) ** 0 == P(1)
    assert P(1, 1) ** 2 == P(1, 2, 1)
    with pytest.raises(ValueError):
        P(1, 1) ** -1


def test_compose():
    f = P(0, 0, 1)  # x^2
    g = P(1, 1)  # x + 1
    assert f.compose(g) == P(1, 2, 1)
    assert g.compose(f) == P(1, 0, 1)


def test_from_roots_and_gcd():
    f = Poly.from_roots([1, -1, 0])
    assert f == P(0, -1, 0, 1)
    g = Poly.from_roots([1, 2])
    assert f.gcd(g) == P(-1, 1)


coeffs = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=6
).map(Poly)


@given(coeffs, coeffs)
def test_divmod_identity(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


def test_resultant_linear_is_evaluation():
    g = P(3, -1, 2, 5)
    for a in (0, 1, -2, Fraction(3, 7)):
        f = P(-Fraction(a), 1)  # x - a
        assert poly.resultant(f, g) == g(a)


def test_resultant_multiplicative():
    f = P(1, 0, 1)  # x^2 + 1
    g1 = P(-2, 1)
    g2 = P(3, 1, 1)
    lhs = poly.resultant(f, g1 * g2)
    assert lhs == poly.resultant(f, g1) * poly.resultant(f, g2)


def test_resultant_shared_root():
    f = Poly.from_roots([2, 3])
    g = Poly.from_roots([3, 5])
    assert poly.resultant(f, g) == 0


def test_discriminant_examples():
    # oracle: depressed cubic formula -4p^3 - 27q^2 for x^3 + px + q
    assert poly.discriminant(P(0, -1, 0, 1)) == 4
    assert poly.discriminant(P(-2, 0, 0, 1)) == -108
    assert poly.discriminant(P(0, 0, 1)) == 0
    # oracle: quadratic b^2 - 4c for x^2 + bx + c
    assert poly.discriminant(P(-1, 1, 1)) == 5
    with pytest.raises(NotMonic):
        poly.discriminant(P(1, 0, 2))


def test_discriminant_quintic():
    # oracle: disc(x^5 - x) = 5^5 * (-1)^... ; computed two independent ways:
    # product over roots 0, ±1, ±i of f'(r) is 4 * 4 * (-4-...)
    # frozen from a direct expansion by hand: disc = -2^8
    f = P(0, -1, 0, 0, 0, 1)
    d = poly.discriminant(f)
    # cross-check against the root-product definition using exact division:
    # disc = (-1)^{10} N(f'(beta)) computed via resultant in the other order
    assert d == poly.resultant(f, f.derivative())
    assert d == -256


def test_count_real_roots():
    f = P(0, -1, 0, 1)  # x^3 - x: roots -1, 0, 1
    assert poly.count_real_roots(f) == 3
    assert poly.count_real_roots(f, 0, None) == 1
    assert poly.count_real_roots(f, Fraction(-1, 2), Fraction(1, 2)) == 1
    g = P(-2, 0, 0, 1)  # x^3 - 2: one real root
    assert poly.count_real_roots(g) == 1
    h = P(1, 0, 1)  # x^2 + 1
    assert poly.count_real_roots(h) == 0
    # (lo, hi] is empty when lo >= hi
    assert poly.count_real_roots(f, 1, -1) == 0
    assert poly.count_real_roots(f, 2, -2) == 0
    assert poly.count_real_roots(f, 0, 0) == 0


def test_count_real_roots_with_multiplicity_collapsed():
    f = P(0, 0, 1) * P(-1, 1)  # x^2 (x-1)
    assert poly.count_real_roots(f) == 2


def test_isolate_real_roots():
    f = P(0, -1, 0, 1)
    ivs = poly.isolate_real_roots(f)
    assert len(ivs) == 3
    for (lo, hi), root in zip(ivs, (-1, 0, 1)):
        assert lo < root <= hi
    assert poly.isolate_real_roots(P(1, 0, 1)) == []


def test_isolate_real_roots_evaluates_each_point_once(monkeypatch):
    # each interval carries the variation counts at its two ends, so the
    # bisection evaluates the chain once at each point it visits
    points = []
    variations = poly._variations

    def counted(chain, x):
        points.append(x)
        return variations(chain, x)

    monkeypatch.setattr(poly, "_variations", counted)
    roots = range(1, 8)
    ivs = poly.isolate_real_roots(Poly.from_roots(roots))
    assert all(lo < r <= hi for (lo, hi), r in zip(ivs, roots))
    assert len(ivs) == 7
    assert len(points) == len(set(points)) == 19


def test_signs_at_roots_evaluates_each_end_once(monkeypatch):
    # adjacent isolating intervals share an end, and each g chain is
    # evaluated once there: one _variations call per distinct end per
    # chain, besides the isolation's own chain of g = 1
    f = Poly.from_roots(range(1, 8))
    one = poly._tarski_chain(Poly.const(1), f)
    points = {}
    variations = poly._variations

    def counted(chain, x):
        if chain != one:
            points.setdefault(id(chain), []).append(x)
        return variations(chain, x)

    monkeypatch.setattr(poly, "_variations", counted)
    got = poly.signs_at_roots([X, X - 4], f)
    ends = {x for iv, _ in got for x in iv}
    assert len(got) == 7 and len(ends) == 8
    assert [s for _, s in got] == [(1, -1), (1, -1), (1, -1), (1, 0),
                                   (1, 1), (1, 1), (1, 1)]
    assert len(points) == 2
    for xs in points.values():
        assert len(xs) == len(set(xs)) == 8 and set(xs) == ends


def test_sign_at_root():
    f = P(-3, 0, 1)  # x^2 - 3: roots -sqrt(3), sqrt(3)

    def signs(g):
        return [s for _, (s,) in poly.signs_at_roots([g], f)]

    assert signs(X) == [-1, 1]
    # g(+-sqrt(3)) = 3 - 2 = 1 > 0 on both roots
    assert signs(P(-2, 0, 1)) == [1, 1]
    # 1 - sqrt(3) < 0 < 1 + sqrt(3)
    assert signs(P(1, 1)) == [-1, 1]
    # roots shared with g read 0
    assert signs(f * P(1, 1)) == [0, 0]
    assert signs(P(0, 3, 0, -1)) == [0, 0]  # 3x - x^3 = -x f
    assert poly.signs_at_roots([X], P(1, 0, 1)) == []


def test_fp_factor_degrees():
    # oracle: x^3 - x = x(x-1)(x+1) mod 5, one part of three linears
    assert poly.fp_distinct_degree([0, -1, 0, 1], 5) == [(1, [0, 4, 0, 1])]
    # oracle: -1 is a non-residue mod 3, so x^2 + 1 is irreducible
    assert poly.fp_distinct_degree([1, 0, 1], 3) == [(2, [1, 0, 1])]
    # x (x^2 + 1) mod 3: a linear part, then a quadratic one
    assert poly.fp_distinct_degree([0, 1, 0, 1], 3) == [(1, [0, 1]),
                                                        (2, [1, 0, 1])]
    # the split trusts its caller to pass a separable f; the functions
    # that take any f mod p check it
    for check in (poly.fp_count_factors, poly.fp_factor):
        with pytest.raises(NonSeparableModP):
            check([0, 0, 0, 1], 3)


def test_the_split_does_not_check_separability(monkeypatch):
    calls = []
    separable = poly.fp_is_separable

    def counted(f, p):
        calls.append(p)
        return separable(f, p)

    monkeypatch.setattr(poly, "fp_is_separable", counted)
    assert poly.fp_distinct_degree([0, 1, 0, 1], 3) == [(1, [0, 1]),
                                                        (2, [1, 0, 1])]
    assert calls == []
    assert poly.fp_count_factors([0, 1, 0, 1], 3) == 2
    assert calls == [3]


def test_fp_count_and_irreducible():
    assert poly.fp_count_factors([0, -1, 0, 1], 5) == 3
    assert poly.fp_count_factors([1, 0, 1], 3) == 1
    # irreducible: the split is one part of the full degree
    assert poly.fp_distinct_degree([1, 0, 1], 3) == [(2, [1, 0, 1])]
    # (x+2)(x+3) mod 5
    assert poly.fp_distinct_degree([1, 0, 1], 5) == [(1, [1, 0, 1])]
    assert poly.fp_distinct_degree([1, 1], 7) == [(1, [1, 1])]


def test_fp_factor_product_roundtrip():
    cases = [
        ([0, -1, 0, 1], 5),
        ([1, 0, 1], 3),
        ([2, 0, 0, 0, 0, 1], 7),  # x^5 + 2 mod 7
        ([3, 1, 0, 1, 0, 0, 1], 11),
    ]
    for f, p in cases:
        f = poly.fp_normalize(f, p)
        factors = poly.fp_factor(f, p)
        prod = [1]
        for q in factors:
            assert poly.fp_distinct_degree(q, p) == [(len(q) - 1, q)]
            prod = poly.fp_mul(prod, q, p)
        assert prod == f
        assert len(factors) == poly.fp_count_factors(f, p)


def test_fp_factor_is_the_split_factored_part_by_part():
    # seeded random squarefree monic f mod p, deg f up to 12 > p at p = 3,
    # 5, 7: the parts come in strictly increasing degree d, each is the
    # product of its sorted degree-d factors, and fp_factor is those
    # factors part after part
    import random
    rng = random.Random(17017)
    seen_long = 0
    for _ in range(200):
        p = rng.choice((3, 5, 7, 11))
        f = [rng.randrange(p) for _ in range(rng.randint(1, 12))] + [1]
        if not poly.fp_is_separable(f, p):
            continue
        seen_long += len(f) - 1 > p
        parts = poly.fp_distinct_degree(f, p)
        assert [d for d, _ in parts] == sorted({d for d, _ in parts})
        want = []
        for d, part in parts:
            hs = poly.fp_equal_degree(part, d, p)
            assert hs == sorted(hs)
            prod = [1]
            for h in hs:
                assert len(h) - 1 == d and h[-1] == 1
                prod = poly.fp_mul(prod, h, p)
            assert prod == part
            want.extend(hs)
        assert poly.fp_factor(f, p) == want
        assert want == sorted(want, key=lambda h: (len(h), h))
        assert poly.fp_count_factors(f, p) == len(want)
    assert seen_long >= 20


def test_fp_powmod():
    # Fermat: x^p = x mod (f, p) exactly when f splits into linears... use
    # the additive Frobenius check on a concrete value instead
    f = [1, 0, 1]  # x^2 + 1 mod 3 = F_9
    x9 = poly.fp_powmod([0, 1], 9, f, 3)
    assert x9 == [0, 1]  # Frobenius squared is identity on F_9
    x3 = poly.fp_powmod([0, 1], 3, f, 3)
    assert x3 == [0, 2]  # conjugate -x


# ---------------------------------------------------------------------------
# integer kernels against the Fraction definitions they replace


def _rational_poly(rng, deg, den=1):
    c = [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(deg)]
    return Poly(c + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                              rng.randint(1, den))])


def _fraction_sturm(f):
    """The rational signed remainder sequence of (f, f'), each entry
    divided by the monic last one."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    last = chain[-1].monic()
    return [q // last for q in chain]


def test_integer_sturm_chain_is_a_positive_rescaling():
    # the Tarski chain of g = 1, the one Sturm chain left
    import random
    rng = random.Random(4101)
    for _ in range(60):
        f = _rational_poly(rng, rng.randint(1, 7), den=4)
        if rng.random() < 0.3:
            f = f * _rational_poly(rng, 1) ** 2  # a repeated root
        want = _fraction_sturm(f)
        got = poly._tarski_chain(P(1), f)
        assert len(got) == len(want)
        for ints, q in zip(got, want):
            assert len(ints) == len(q.c)
            ratios = {Fraction(a) / b for a, b in zip(ints, q.c) if b}
            assert len(ratios) == 1 and ratios.pop() > 0
            assert all(a == 0 for a, b in zip(ints, q.c) if not b)


def test_integer_sign_at_matches_fraction_evaluation():
    import math
    import random
    rng = random.Random(4102)
    for _ in range(300):
        f = _rational_poly(rng, rng.randint(0, 6), den=5)
        ints = list(f.num)
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 16))
        v = f(x)
        assert poly._sign_at(ints, x) == (v > 0) - (v < 0)
        assert poly._sign_at(ints, math.inf) == (1 if f.lc() > 0 else -1)
        far = Fraction(10**6)
        v = f(-far)
        assert poly._sign_at(ints, -math.inf) == (v > 0) - (v < 0)


def _refine_interval(f, interval):
    """Halve an isolating interval of f once, keeping the root inside."""
    lo, hi = interval
    mid = (lo + hi) / 2
    return (lo, mid) if poly.count_real_roots(f, lo, mid) == 1 else (mid, hi)


def _root_signs(g, f, intervals):
    """Reference signs of g at the roots of f isolated by `intervals`: a
    root shared with f (through gcd(f, g)) has sign 0; otherwise the
    interval shrinks until g has no root inside it, and g is evaluated at
    its right end."""
    h = f.gcd(g)
    out = []
    for lo, hi in intervals:
        if h.degree >= 1 and poly.count_real_roots(h, lo, hi) > 0:
            out.append(0)
            continue
        while poly.count_real_roots(g, lo, hi) > 0:
            lo, hi = _refine_interval(f, (lo, hi))
        v = g(hi)
        out.append((v > 0) - (v < 0))
    return out


def test_signs_at_roots_match_sign_at_root_and_rational_roots():
    import random
    rng = random.Random(4103)
    for _ in range(40):
        roots = sorted({Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 5))})
        f = Poly.from_roots(roots) * P(rng.randint(1, 4), 0, 1)
        g = _rational_poly(rng, rng.randint(0, 5), den=3)
        if rng.random() < 0.3:
            g = g * P(-roots[0], 1)  # g vanishes at a root of f
        got = poly.signs_at_roots([g], f)
        assert [iv for iv, _ in got] == poly.isolate_real_roots(f)
        for (iv, (s,)), r in zip(got, roots):
            v = g(r)
            assert iv[0] < r <= iv[1]
            assert s == (v > 0) - (v < 0)
    # against the gcd-and-refinement reference: rational roots, which
    # bisection often puts at an interval end, repeated roots of f, roots
    # shared with g and negative leading coefficients; each call reads g
    # and -g from one isolation
    ends = {"lo": 0, "hi": 0, "shared": 0}
    for _ in range(300):
        if rng.random() < 0.5:
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                     for _ in range(rng.randint(1, 5))]
            f = Poly.from_roots(roots) * _rational_poly(rng, rng.randint(0, 2))
        else:
            f = _rational_poly(rng, rng.randint(1, 7), den=4)
            if rng.random() < 0.3:
                f = f * _rational_poly(rng, 1) ** 2  # a repeated root
        g = _rational_poly(rng, rng.randint(0, 6), den=4)
        if rng.random() < 0.3:
            shared = _rational_poly(rng, 1, den=3)
            f, g = f * shared, g * shared
        got = poly.signs_at_roots([g, -g], f)
        ivs = [iv for iv, _ in got]
        assert ivs == poly.isolate_real_roots(f)
        assert [s for _, (s, _) in got] == _root_signs(g, f, ivs)
        assert all(t == -s for _, (s, t) in got)
        ends["lo"] += sum(f(lo) == 0 for lo, _ in ivs)
        ends["hi"] += sum(f(hi) == 0 for _, hi in ivs)
        ends["shared"] += sum(s == 0 for _, (s, _) in got)
    assert min(ends.values()) >= 10, ends


def test_tarski_query_sums_the_signs_at_roots():
    # Sylvester's theorem against root isolation: rational coefficients,
    # negative leading coefficients, repeated roots of f and roots that g
    # shares with f
    import random
    rng = random.Random(4110)
    seen = set()
    for _ in range(2000):
        f = _rational_poly(rng, rng.randint(1, 6), den=4)
        g = _rational_poly(rng, rng.randint(0, 5), den=4)
        if rng.random() < 0.2:
            f = f * _rational_poly(rng, 1) ** 2
        if rng.random() < 0.2:
            shared = _rational_poly(rng, 1, den=3)
            f, g = f * shared, g * shared
        want = sum(s for _, (s,) in poly.signs_at_roots([g], f))
        assert poly.tarski_query(g, f) == want
        assert poly.tarski_query(P(1), f) == poly.count_real_roots(f)
        seen.add(want)
    assert len(seen) >= 9


def test_fp_resultant_residuosity_matches_fpx_sqrt():
    import random
    from orbitforge.arith import legendre
    rng = random.Random(4104)
    for _ in range(80):
        p = rng.choice((3, 5, 7, 11, 13, 31))
        a = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
        b = [rng.randrange(-50, 50) for _ in range(rng.randint(1, 7))]
        # the mod-p resultant is the reduction of the rational one
        assert poly.fp_resultant(a, b, p) == \
            poly.resultant(Poly(a), Poly(b)) % p
        if not poly.fp_is_separable(a, p):
            continue
        for h in poly.fp_factor(a, p):
            if not poly.fp_mod(b, h, p):
                assert poly.fp_resultant(h, b, p) == 0
                continue
            residue = legendre(poly.fp_resultant(h, b, p), p) == 1
            root = poly.fpx_sqrt(b, h, p, rng)
            assert residue == (root is not None)


def test_fp_divmod_reduces_and_normalizes_the_remainder():
    # deg a < deg b leaves the loop unrun: the remainder is still reduced
    assert poly.fp_mod([7, 0], [1, 0, 1], 7) == []
    assert poly.fp_mod([1, 0], [1, 0, 1], 7) == [1]
    assert poly.fp_divmod([-1, 9, 0], [1, 0, 1], 7) == ([], [6, 2])
    assert poly.fp_divmod([], [3], 7) == ([], [])
    # untouched low coefficients and a leading coefficient divisible by p
    assert poly.fp_divmod([10, 3, 15], [1, 1], 7) == ([2, 1], [1])
    assert poly.fp_divmod([9, 0, 7, 7], [0, 1], 7) == ([], [2])
    import random
    rng = random.Random(5719)
    for _ in range(300):
        p = rng.choice((3, 5, 7, 31))
        a = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randint(0, 8))]
        b = [rng.randrange(-p, p) for _ in range(rng.randint(0, 4))]
        b.append(rng.randrange(1, p) + p * rng.randint(-2, 2))
        q, r = poly.fp_divmod(a, b, p)
        assert r == poly.fp_normalize(r, p) and len(r) < len(b)
        assert poly.fp_add(poly.fp_mul(q, b, p), r, p) == \
            poly.fp_normalize(a, p)


def test_fp_division_by_a_leading_coefficient_divisible_by_p():
    # b = 3x + 1 is the constant 1 mod 3: every function reads b mod p
    assert poly.fp_divmod([1, 2, 1], [1, 3], 3) == ([1, 2, 1], [])
    assert poly.fp_mod([1, 2, 1], [1, 3], 3) == []
    for b in ([0, 0, 3], [3], [-6, 9]):
        with pytest.raises(ZeroDivisionError):
            poly.fp_divmod([1, 2], b, 3)
    import random
    rng = random.Random(6127)
    for _ in range(300):
        p = rng.choice((3, 5, 7, 31))
        a = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randint(0, 8))]
        b = [rng.randrange(-p, p) for _ in range(rng.randint(0, 3))]
        b.append(rng.randrange(1, p))
        padded = b + [p * rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        padded[-1] = p * rng.choice((-2, -1, 1, 2))
        assert poly.fp_divmod(a, padded, p) == poly.fp_divmod(a, b, p)
        assert poly.fp_mod(a, padded, p) == poly.fp_mod(a, b, p)
        e = rng.randrange(20)
        assert poly.fp_powmod(a, e, padded, p) == poly.fp_powmod(a, e, b, p)
        assert poly.fp_invmod(a, padded, p) == poly.fp_invmod(a, b, p)


def test_fp_invmod_of_a_non_unit_is_none():
    f = [1, 0, 1]  # x^2 + 1, irreducible mod 3 and mod 7
    assert poly.fp_invmod([3], f, 3) is None
    assert poly.fp_invmod([0], f, 3) is None
    assert poly.fp_invmod([], f, 3) is None
    assert poly.fp_invmod([7, 0], f, 7) is None
    assert poly.fp_invmod([4], f, 3) == [1]
    assert poly.fp_invmod([0, 8], f, 7) == [0, 6]
    assert poly.fp_invmod([1, 1], [0, 1, 1], 5) is None  # x + 1 | x^2 + x


def _fpx_sqrt_by_euler_power(a, h, p, rng):
    """Reference: Tonelli-Shanks with Euler's criterion and the
    non-residue test each a full exponentiation."""
    a = poly.fp_mod(a, h, p)
    if not a:
        return []
    d = len(h) - 1
    q = p**d
    if poly.fp_powmod(a, (q - 1) // 2, h, p) != [1]:
        return None
    if q % 4 == 3:
        return poly.fp_powmod(a, (q + 1) // 4, h, p)
    qq, s = q - 1, 0
    while qq % 2 == 0:
        qq //= 2
        s += 1
    while True:
        z = poly.fp_normalize([rng.randrange(p) for _ in range(d)], p)
        if z and poly.fp_powmod(z, (q - 1) // 2, h, p) != [1]:
            break
    m, c = s, poly.fp_powmod(z, qq, h, p)
    t = poly.fp_powmod(a, qq, h, p)
    r = poly.fp_powmod(a, (qq + 1) // 2, h, p)

    def sq(x):
        return poly.fp_mod(poly.fp_mul(x, x, p), h, p)
    while t != [1]:
        t2, i = t, 0
        while t2 != [1]:
            t2 = sq(t2)
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = sq(b)
        m = i
        c = sq(b)
        t = poly.fp_mod(poly.fp_mul(t, c, p), h, p)
        r = poly.fp_mod(poly.fp_mul(r, b, p), h, p)
    return r


def test_fpx_sqrt_matches_the_euler_power_reference():
    # the same root and the same draws, residues and non-residues, at
    # every 2-adic depth s of p^d - 1 the primes below 100 give
    import random
    rng = random.Random(2450)
    primes = (3, 5, 7, 13, 17, 29, 41, 73, 97)
    outcomes = set()
    for _ in range(400):
        p, d = rng.choice(primes), rng.randint(1, 5)
        while True:
            h = [rng.randrange(p) for _ in range(d)] + [1]
            if poly.fp_is_separable(h, p) and poly.fp_count_factors(h, p) == 1:
                break
        a = poly.fp_normalize([rng.randrange(p) for _ in range(d)], p)
        if rng.random() < 0.5:
            a = poly.fp_mod(poly.fp_mul(a, a, p), h, p)
        seed = rng.random()
        ours, ref = random.Random(seed), random.Random(seed)
        root = poly.fpx_sqrt(a, h, p, ours)
        assert root == _fpx_sqrt_by_euler_power(a, h, p, ref)
        assert ours.random() == ref.random()
        if root is not None:
            assert poly.fp_mod(poly.fp_mul(root, root, p), h, p) == a
        outcomes.add(root is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# integer products and division against the Fraction definitions they
# replaced


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_divmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    d, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= d and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < d:
            break
        k = len(r) - 1 - d
        t = r[-1] / lb
        q[k] = t
        for i, y in enumerate(b):
            r[i + k] -= t * y
        r.pop()
    for c in (q, r):
        while c and c[-1] == 0:
            c.pop()
    return q, r


def _ref_add(a, b):
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [x / a[-1] for x in a]


def _ref_resultant(a, b):
    """Res(a, b) by Euclid over Q: (-1)^(mn) lc(b)^(m - deg r) Res(b, r)."""
    if not a or not b:
        return 0
    m, n = len(a) - 1, len(b) - 1
    if n == 0:
        return b[0] ** m
    r = _ref_divmod(a, b)[1]
    if not r:
        return 0
    return (-1) ** (m * n) * b[-1] ** (m - len(r) + 1) * _ref_resultant(b, r)


def _assert_canonical(p, want):
    """p is the polynomial with Fraction coefficients want, stored as
    integer numerators over one positive denominator in lowest terms."""
    import math
    assert list(p.c) == want
    assert p.num == tuple(x * p.den for x in p.c)
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1


def test_mul_divmod_match_fraction_definitions():
    import random

    rng = random.Random("poly-kernels")

    def coeff(den):
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-20, 20), rng.choice(den))

    divisors = [P(Fraction(1, 3), Fraction(1, 2), 0, 1),    # x^3 + x/2 + 1/3
                P(-2, 0, 0, 1), P(5), P(Fraction(-3, 4)), P(1, 2, 0, 3)]
    others = [Poly(), P(0, 0), P(Fraction(7, 2))]    # zero and constants
    kinds = {"monic": 0, "non-monic": 0, "rational": 0}
    for _ in range(400):
        f = Poly([coeff([1, 1, 2, 3, 7]) for _ in range(rng.randint(0, 9))])
        kind = rng.choice(sorted(kinds))
        dens = [1] if kind != "rational" else [1, 2, 5, 6]
        g = [coeff(dens) for _ in range(rng.randint(0, 5))]
        lead = {"monic": Fraction(1), "rational": Fraction(1),
                "non-monic": Fraction(rng.choice([-6, -1, 2, 3, 9]),
                                      rng.choice([1, 1, 4]))}[kind]
        g = Poly(g + [lead])
        kinds[kind] += 1
        a = list(f.c)
        k = coeff([1, 3, 4])
        _assert_canonical(-f, [-x for x in a])
        _assert_canonical(f * k, [k * x for x in a] if k else [])
        for h in [g] + divisors + others:
            b = list(h.c)
            _assert_canonical(f * h, _ref_mul(a, b))
            _assert_canonical(f + h, _ref_add(a, b))
            _assert_canonical(f - h, _ref_add(a, [-x for x in b]))
            _assert_canonical(f.gcd(h), _ref_gcd(a, b) if a or b else [])
            assert poly.resultant(f, h) == _ref_resultant(a, b)
            if h.is_zero():
                continue
            q, r = divmod(f, h)
            assert (list(q.c), list(r.c)) == _ref_divmod(a, b)
            _assert_canonical(q, list(q.c))
            _assert_canonical(r, list(r.c))
            assert f % h == r and f // h == q
        if f.degree >= 1:
            m = f.monic()
            d = f.degree
            assert poly.discriminant(m) == (-1) ** (d * (d - 1) // 2) * \
                _ref_resultant(list(m.c), list(m.derivative().c))
    assert min(kinds.values()) > 100


def test_divmod_by_rational_monic_divisor():
    g = P(Fraction(1, 3), Fraction(1, 2), 0, 1)    # x^3 + x/2 + 1/3
    f = P(1, 0, 0, 0, 0, 1)                        # x^5 + 1
    q, r = divmod(f, g)
    assert q == P(Fraction(-1, 2), 0, 1)
    assert r == P(Fraction(7, 6), Fraction(1, 4), Fraction(-1, 3))
    assert q * g + r == f
