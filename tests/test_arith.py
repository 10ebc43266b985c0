import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitforge import arith
from orbitforge.errors import (FactorizationTimeout, Inconsistent, NotSquare,
                               ZeroInput)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert arith.is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not arith.is_prime(561)
    assert not arith.is_prime(1729)
    assert arith.is_prime(2**61 - 1)
    assert not arith.is_prime(2**67 - 1)


def test_is_prime_strong_pseudoprime_to_bases_2_to_37():
    # psi_12, the least composite that passes Miller-Rabin to every prime
    # base up to 37; the base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not arith.is_prime(psi12)


def test_factorize_known():
    # oracle: hand factorization
    assert arith.factorize(48) == {2: 4, 3: 1}
    assert arith.factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert arith.factorize(1) == {}
    assert arith.factorize(10**12 + 39) == {10**12 + 39: 1}


def test_factorize_semiprime():
    p, q = 1000003, 1000033
    assert arith.factorize(p * q) == {p: 1, q: 1}


def test_factorize_budget_counts_rho_steps(monkeypatch):
    # two 40-bit primes: rho needs about 2^20 steps, far past 10^4
    p, q = 2 ** 40 - 87, 2 ** 40 + 15
    assert arith.is_prime(p) and arith.is_prime(q)
    monkeypatch.setattr(arith, "FACTOR_RHO_BUDGET", 10 ** 4)
    msgs = []
    for _ in range(2):
        with pytest.raises(FactorizationTimeout) as e:
            arith.factorize(p * q)
        msgs.append(str(e.value))
    # a step count, not a clock: the same input stops at the same step
    assert msgs[0] == msgs[1]
    assert msgs[0] == ("factoring %d: 8190 of FACTOR_RHO_BUDGET = 10000 rho"
                       " iterations spent, the next round needs 8192"
                       % (p * q))
    monkeypatch.undo()
    assert arith.factorize(999983 * 1000003) == {999983: 1, 1000003: 1}


def _factorize_by_trial_division(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    # trial division stops at 2^12; larger factors, prime powers among
    # them, come from the primality test, the square test and rho
    import random
    rng = random.Random(2112)
    mid = (4099, 4111, 65537, 524287, 999979, 999983)  # primes
    corpus = [rng.randrange(2, 10 ** 12) for _ in range(60)]
    corpus += [rng.randrange(2, 10 ** 6) for _ in range(60)]
    corpus += [p * q for p in mid for q in mid]
    corpus += [4099 ** 3, 9973 ** 3, 4099 ** 2 * 4111, 8 * 4111 ** 3,
               3 ** 5 * 999983]
    for n in corpus:
        assert n < 10 ** 12
        got = arith.factorize(n)
        assert got == _factorize_by_trial_division(n), n
        assert list(got) == sorted(got)


def test_factorize_zero():
    with pytest.raises(ZeroInput):
        arith.factorize(0)


def test_squarefree_part_examples():
    assert arith.squarefree_part(48) == 3
    assert arith.squarefree_part(-4) == -1
    assert arith.squarefree_part(Fraction(9, 2)) == 2
    assert arith.squarefree_part(1) == 1
    assert arith.squarefree_part(Fraction(-50, 27)) == -6


@given(
    st.integers(min_value=-300, max_value=300).filter(lambda a: a != 0),
    st.integers(min_value=1, max_value=50),
)
def test_squarefree_part_square_invariance(a, b):
    assert arith.squarefree_part(a * b * b) == arith.squarefree_part(a)


def test_is_rational_square():
    assert arith.is_rational_square(Fraction(49, 81))
    assert not arith.is_rational_square(Fraction(2))
    assert not arith.is_rational_square(-4)
    assert arith.is_rational_square(0)


def test_legendre_known():
    # oracle: quadratic residues mod 11 are {1, 3, 4, 5, 9}
    for a in range(1, 11):
        want = 1 if a in (1, 3, 4, 5, 9) else -1
        assert arith.legendre(a, 11) == want
    assert arith.legendre(22, 11) == 0


def test_sqrt_mod_roundtrip():
    for p in (3, 5, 7, 13, 17, 101, 10007):
        for a in range(p):
            try:
                r = arith.sqrt_mod(a, p)
            except NotSquare:
                assert arith.legendre(a, p) == -1
                continue
            assert r * r % p == a % p


def test_valuation():
    assert arith.valuation(48, 2) == 4
    assert arith.valuation(Fraction(9, 2), 2) == -1
    assert arith.valuation(Fraction(9, 2), 3) == 2
    with pytest.raises(ZeroInput):
        arith.valuation(0, 5)


def test_crt_basic():
    x, m = arith.crt([2, 3], [3, 5])
    assert m == 15 and x % 3 == 2 and x % 5 == 3
    x, m = arith.crt([1, 4, 1], [2, 3, 4])  # non-coprime, consistent
    assert x % 2 == 1 and x % 3 == 1 and x % 4 == 1
    with pytest.raises(Inconsistent):
        arith.crt([0, 1], [2, 4])


def test_rng_deterministic():
    a = arith.rng_for("tag").random()
    b = arith.rng_for("tag").random()
    c = arith.rng_for("other").random()
    assert a == b
    assert a != c
