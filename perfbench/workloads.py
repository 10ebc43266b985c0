"""The three workloads: what each round asks of orbitforge and how every
answer is checked.

WORKLOADS maps each name to (round, tail): round(seed, index) builds the
ops of one round, tail(seed) the ops run once after the rounds (or None).
Rounds are stratified: every round holds the same number of ops of each
cell (a cell is one kind of request at one size), drawn afresh from
(seed, index).  Only public entry points are called, always with their
default budgets.
"""

from fractions import Fraction

import numpy as np

from exact import (charpoly, det, fp_factor_degrees, fp_is_squarefree,
                   is_rational_square, is_unit_mod, mulmod, norm,
                   parse_poly_text, pmul, so_order, tau, trim)
from gen import (definite_class, fp_monic_of_type, isotropic_class,
                 list_text, monic, nonzero, odd_monic, poly_text,
                 prime_value_points, rng_for, split_monic, square, unit,
                 values_text)
from ops import (Op, cli_error_op, cli_op, from_exception, ok, unknown,
                 wrong)

SYM2, ADJOINT, STANDARD = "sym2", "adjoint", "standard"


def _same(a, b):
    return trim([Fraction(x) for x in a]) == trim([Fraction(x) for x in b])


# ---------------------------------------------------------------------------
# census-fp


# (p, n, rep) run in full; the dimension-three primes stop at 7 for sym2
# (the default budget refuses 11) and at 13 for the other two, the largest
# whose census fits a round (p = 31 is admitted but takes minutes).
CENSUS_FULL = ([(p, 1, rep) for rep in (SYM2, ADJOINT, STANDARD)
                for p in (3, 5, 7)]
               + [(13, 1, ADJOINT), (13, 1, STANDARD),
                  (3, 2, STANDARD), (3, 2, ADJOINT)])
# dimension-five sym2 samples: one quintic per factorization type mod 3,
# so each round closes orbits of the same sizes (25920 and 12960; an
# irreducible quintic's orbit is all of SO(5, F_3), twice the (2, 3) one)
QUINTIC_TYPES = ((2, 3), (1, 1, 3))
# built to exceed the default budget
CENSUS_REFUSAL = (11, 1, SYM2)


def _census_width(n, rep):
    d = 2 * n + 1
    return {STANDARD: d, SYM2: d * (d + 1) // 2, ADJOINT: d * (d - 1) // 2}[rep]


def check_census(rep_obj, p, n, rep, quintic=None):
    """The identities every census report must satisfy."""
    r = rep_obj
    if (r.p, r.n, r.rep) != (p, n, rep):
        return wrong("report for %r" % ((r.p, r.n, r.rep),))
    G = so_order(n, p)
    if r.space_size != p ** _census_width(n, rep):
        return wrong("space_size %d" % r.space_size)
    if r.group_order is not None and r.group_order != G:
        return wrong("group_order %d != so_order %d" % (r.group_order, G))
    if n == 1 and r.group_order is None:
        return wrong("dimension three must enumerate the group")
    if len({str(row.key) for row in r.rows}) != len(r.rows):
        return wrong("repeated row keys")
    for row in r.rows:
        stabs = row.stabilizer_orders
        for size, stab in zip(row.orbit_sizes, stabs or ()):
            if stab is not None and size * stab != G:
                return wrong("orbit %d x stabilizer %d != |G| in row %s"
                             % (size, stab, row.key))
        if row.complete and sum(row.orbit_sizes) != row.operator_count:
            return wrong("orbits of row %s do not sum to its count" % (row.key,))
        if rep == SYM2 and row.complete and row.separable:
            k = len(fp_factor_degrees(list(row.key), p))
            if len(row.orbit_sizes) != 2 ** (k - 1):
                return wrong("separable sym2 row %s has %d orbits, not 2^%d"
                             % (row.key, len(row.orbit_sizes), k - 1))
    if quintic is None:
        if r.mode != "full":
            return wrong("mode %s" % r.mode)
        if sum(row.operator_count for row in r.rows) != r.space_size:
            return wrong("rows do not sum to space_size")
    else:
        if r.mode != "orbit-sample" or len(r.rows) != 1:
            return wrong("expected one orbit-sample row")
        row = r.rows[0]
        if list(row.key) != [c % p for c in quintic]:
            return wrong("sample row key %s" % (row.key,))
        if len(row.orbit_sizes) != 1 or row.stabilizer_orders[0] is None:
            return wrong("sample row without a measured stabilizer")
    return ok("%d rows" % len(r.rows))


def _census_op(p, n, rep, quintic=None):
    from orbitforge import census
    from orbitforge.poly import Poly

    if quintic is None:
        call = lambda: census.finite_census(p, n, rep)
        cell = "census/dim%d/%s/p%d" % (2 * n + 1, rep, p)
    else:
        call = lambda: census.finite_census(p, n, rep, polys=[Poly(quintic)])
        cell = "census/dim5/sym2-sample"

    def check(value, exc):
        if exc is not None:
            return from_exception(exc)
        return check_census(value, p, n, rep, quintic)
    return Op(cell, (p, n, rep, quintic), call, check)


def _census_refusal_op():
    from orbitforge import census
    p, n, rep = CENSUS_REFUSAL

    def check(value, exc):
        if exc is None:
            return wrong("census (%d, %d, %s) was not refused" % CENSUS_REFUSAL)
        return from_exception(exc, expected=("BudgetExceeded",))
    return Op("census/refusal", CENSUS_REFUSAL,
              lambda: census.finite_census(p, n, rep), check)


def census_round(seed, index):
    rng = rng_for("census-fp", seed, index)
    ops = [_census_op(*spec) for spec in CENSUS_FULL]
    for degrees in QUINTIC_TYPES:
        q = fp_monic_of_type(rng, 3, 5, degrees)
        ops.append(_census_op(3, 2, SYM2, quintic=q))
    ops.append(_census_refusal_op())
    return ops


# ---------------------------------------------------------------------------
# square-heights


SQUARE_CELLS = [(3, 10), (3, 10 ** 3), (3, 10 ** 6), (5, 10), (5, 10 ** 3),
                (7, 10), (7, 10 ** 3)]
TAU_CELLS = [(3, 10), (3, 10 ** 3), (3, 10 ** 6), (5, 10), (5, 10 ** 3),
             (5, 10 ** 6), (7, 10)]


def _algebra_element(f, a):
    from orbitforge.etale import EtaleAlgebra
    from orbitforge.poly import Poly
    return EtaleAlgebra(Poly(f)).element(a)


def check_square(f, a, is_square_truth):
    """Check a SquareDecision for a (a square when is_square_truth)."""
    def check(dec, exc):
        if exc is not None:
            return from_exception(exc)
        if dec.status == "true":
            if dec.witness is None or not _same(
                    mulmod(list(dec.witness.c), list(dec.witness.c), f), a):
                return wrong("witness does not square to the input")
            return ok("true")
        if dec.status == "false":
            if is_square_truth:
                return wrong("a constructed square was called non-square")
            cert = dec.certificate or ""
            if cert.startswith("norm") and is_rational_square(norm(a, f)):
                return wrong("norm certificate on a square norm")
            return ok("false")
        if dec.status == "unknown":
            return unknown()
        return wrong("status %r" % dec.status)
    return check


def _is_square_op(cell, f, a, truth):
    from orbitforge import etale
    return Op(cell, (f, a), lambda: etale.is_square(_algebra_element(f, a)),
              check_square(f, a, truth), verdict=True)


def _tau_norm_op(cell, f, pi, solvable):
    from orbitforge import etale
    from orbitforge.poly import Poly

    def call():
        L = etale.EtaleAlgebra(Poly(f))
        return etale.solve_tau_norm(etale.skew_data(L), L.element(pi))

    def check(out, exc):
        if exc is not None:
            return from_exception(exc)
        if out.status == "solved":
            r = list(out.witness.c)
            if not _same(mulmod(r, tau(r), f), pi):
                return wrong("witness r has r tau(r) != pi")
            return ok("solved")
        if out.status == "obstructed":
            if solvable:
                return wrong("obstruction on a constructed norm r tau(r)")
            return ok("obstructed")
        if out.status == "unknown":
            return unknown()
        return wrong("status %r" % out.status)
    return Op(cell, (f, pi), call, check, verdict=True)


def squares_round(seed, index):
    rng = rng_for("square-heights", seed, index)
    ops = []
    for deg, h in SQUARE_CELLS:
        f = monic(rng, deg)
        u = unit(rng, f, h)
        ops.append(_is_square_op("is_square/d%d/h%d/square" % (deg, h), f,
                                 square(u, f), True))
        v = unit(rng, f, h)
        ops.append(_is_square_op("is_square/d%d/h%d/random" % (deg, h), f,
                                 v, False))
    for deg, h in TAU_CELLS:
        f = odd_monic(rng, deg)
        while not negative_roots(f):
            f = odd_monic(rng, deg)
        # r = a(x^2) + x c(x^2): even part of height h, odd part of
        # height 1, inside the bounded search (which tries height <= 3)
        while True:
            r = [rng.randint(-h, h) if k % 2 == 0 else rng.randint(-1, 1)
                 for k in range(deg)]
            pi = mulmod(r, tau(r), f)
            if is_unit_mod(pi, f):
                break
        ops.append(_tau_norm_op("tau_norm/d%d/h%d/norm" % (deg, h), f, pi,
                                True))
        # random tau-fixed pi with a square k-part (so N(pi) is a square),
        # one with and one without a sign obstruction: the two end in
        # very different amounts of work, so they are separate cells
        for kind, want in (("random", False), ("random-negative", True)):
            while True:
                pi = unit(rng, f, h, parity=0)
                pi[0] = rng.randint(1, 10) ** 2
                if is_unit_mod(pi, f) and negative_where_complex(f, pi) == want:
                    break
            ops.append(_tau_norm_op("tau_norm/d%d/h%d/%s" % (deg, h, kind), f,
                                    pi, False))
    rng.shuffle(ops)
    return ops


def negative_where_complex(f, pi):
    """Whether the K-part of pi is negative at some negative real root of
    g, f = x g(x^2), where E is complex (a sign obstruction).  Floating
    point is used only to sort inputs into cells, never to check."""
    piK = pi[0::2]
    return any(np.polyval(piK[::-1], y) < 0 for y in negative_roots(f))


def negative_roots(f):
    """Negative real roots of g, f = x g(x^2), in floating point."""
    return [y.real for y in np.roots(f[1::2][::-1])
            if abs(y.imag) < 1e-9 and y.real < 0]


def squares_tail(seed):
    """A square of degree 7 whose norm is a product of two ~70-bit primes.

    is_square(w^2) must answer "true".  Deciding it needs no factoring,
    but is_square factors the norm first and runs into the 30 s budget of
    arith.factorize: the known defect, counted as a failed op.
    """
    rng = rng_for("square-heights", seed, "tail")
    while True:
        f = monic(rng, 7)
        cs = prime_value_points(rng, f, 2, 500, 1000)
        if cs is not None:
            break
    c1, c2 = cs
    w = [c1 * c2, -(c1 + c2), 1]       # (c1 - x)(c2 - x), N(w) = f(c1) f(c2)
    a = square(w, f)
    return [_is_square_op("is_square/d7/hard-norm/square", f, a, True)]


# ---------------------------------------------------------------------------
# cli-mix


def _poly_arg(rng, f):
    return "--poly=" + (poly_text(f) if rng.random() < 0.5 else list_text(f))


def _check_construct(f, rep):
    d = len(f) - 1

    def check(obj):
        op = [[Fraction(v) for v in row] for row in obj["result"]["operator"]]
        if obj["result"]["dim"] != d or len(op) != d:
            return wrong("dimension")
        if not _same(charpoly(op), f):
            return wrong("operator charpoly differs from the input")
        # adjoint for the antidiagonal form: J T^t J, i.e. reflect
        star = [[op[d - 1 - j][d - 1 - i] for j in range(d)] for i in range(d)]
        sign = 1 if rep == SYM2 else -1
        if any(star[i][j] != sign * op[i][j] for i in range(d) for j in range(d)):
            return wrong("operator is not %s-adjoint" % rep)
        checks = obj["checks"]
        if checks.get("charpoly_matches") is not True or \
                checks.get("adjointness") is not True:
            return wrong("checks %r" % checks)
        return ok()
    return check


def _recovered(f, alpha_text, rep):
    """The unit the orbit of alpha carries, as recomputed for checking."""
    from orbitforge.cli import parse_alpha
    from orbitforge.etale import EtaleAlgebra
    from orbitforge.orbits import recover_alpha, representative_from_alpha
    from orbitforge.poly import Poly
    P = Poly(f)
    alg = EtaleAlgebra(P)
    o = representative_from_alpha(P, parse_alpha(alpha_text, alg), rep)
    return list(recover_alpha(o).c)


def _check_same_orbit(f, rep, a1, a2, truth):
    def check(obj):
        res = obj["result"]
        st = res["status"]
        if st == "unknown":
            return unknown(res["reason"] or "")
        if st != truth:
            return wrong("same-orbit said %s on a pair built %s" % (st, truth))
        if st == "distinct":
            return ok("distinct")
        if res["witness"] is None:
            return wrong("equal without a witness")
        w = parse_poly_text(res["witness"], "b")
        prod = mulmod(_recovered(f, a1, rep), _recovered(f, a2, rep), f)
        lhs = mulmod(w, w if rep == SYM2 else tau(w), f)
        if not _same(lhs, prod):
            return wrong("witness does not verify")
        return ok("equal")
    return check


def _check_kernel(truth):
    def check(obj):
        if obj["result"]["in_kernel"] is not truth:
            return wrong("in_kernel %r, built %r" % (obj["result"]["in_kernel"],
                                                     truth))
        return ok()
    return check


def _check_descend(f, d, x0, y0):
    deg = len(f) - 1

    def check(obj):
        want = [Fraction(d * x0), Fraction(-d)] + [Fraction(0)] * (deg - 2)
        if [Fraction(c) for c in obj["result"]["alpha_coords"]] != want:
            return wrong("descent class %r" % obj["result"]["alpha_coords"])
        if Fraction(obj["result"]["norm"]) != Fraction(d) ** (deg + 1) * y0 ** 2:
            return wrong("norm %s" % obj["result"]["norm"])
        if obj["checks"]["in_kernel"] is not True:
            return wrong("descent class outside the kernel")
        return ok()
    return check


def _check_pencil(obj):
    res = obj["result"]
    if res["match"] is not True or Fraction(res["proportionality"]) == 0:
        return wrong("pencil identity failed: %r" % res)
    return ok()


def _check_lattice(truth):
    def check(obj):
        res = obj["result"]
        if res["valid"] is not truth:
            return wrong("lattice-verify said %r, built %r" % (res["valid"],
                                                                truth))
        if truth:
            g = [[Fraction(v) for v in row] for row in res["gram"]]
            d = len(g)
            if any(v.denominator != 1 for row in g for v in row):
                return wrong("gram not integral")
            if any(g[i][j] != g[j][i] for i in range(d) for j in range(d)):
                return wrong("gram not symmetric")
            if abs(det(g)) != 1:
                return wrong("gram not unimodular")
        elif not (res["reason"] or "").startswith("norm"):
            return wrong("reason %r" % res["reason"])
        return ok()
    return check


def _local_count_expect(f, p, rep):
    if rep == SYM2:
        m = len(fp_factor_degrees(f, p)) - 1
        return 1 if m == 0 else 2 ** (2 * m - 1) + 2 ** (m - 1)
    g = f[1::2]
    g2 = [0] * (2 * len(g) - 1)
    g2[::2] = g
    m = 2 * len(fp_factor_degrees(g, p)) - len(fp_factor_degrees(g2, p))
    return 1 if m == 0 else 2 ** (m - 1)


def _check_local(f, p, rep):
    def check(obj):
        if obj["checks"]["factors_mod_p"] != len(fp_factor_degrees(f, p)):
            return wrong("factor count mod %d" % p)
        if obj["result"]["count"] != _local_count_expect(f, p, rep):
            return wrong("local count %r" % obj["result"]["count"])
        return ok()
    return check


def _check_real(deg, rep):
    from math import comb
    n = (deg - 1) // 2

    def check(obj):
        want = comb(deg, n) if rep == SYM2 else comb(n, n // 2)
        if obj["result"]["count"] != want:
            return wrong("real count %r, want %d" % (obj["result"]["count"],
                                                     want))
        return ok()
    return check


def _check_stab(kind, order=None, dimension=None):
    def check(obj):
        res = obj["result"]
        if (res["kind"], res["order"], res["dimension"]) != (kind, order,
                                                             dimension):
            return wrong("stabilizer %r" % res)
        return ok()
    return check


def _check_classify(w):
    d = len(w)
    q = sum(w[i] * w[d - 1 - i] for i in range(d))

    def check(obj):
        label = obj["result"]["label"]
        if all(x == 0 for x in w):
            want = "zero"
        elif q == 0:
            want = "null-nonzero"
        else:
            want = str(Fraction(q, 2))
        if label != want:
            return wrong("label %r, want %r" % (label, want))
        return ok()
    return check


def reduced_forms(d):
    """Primitive reduced forms of discriminant d < 0."""
    from math import gcd
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a) == 0:
                c = (b * b - d) // (4 * a)
                if c >= a and not (b < 0 and a == c) \
                        and gcd(gcd(a, b), c) == 1:
                    out.append((a, b, c))
        a += 1
    return out


def _check_bqf_reduce(a, b, c):
    from math import gcd

    def check(obj):
        ra, rb, rc = obj["result"]["form"]
        if rb * rb - 4 * ra * rc != b * b - 4 * a * c:
            return wrong("discriminant changed")
        if gcd(gcd(ra, rb), rc) != gcd(gcd(a, b), c):
            return wrong("content changed")
        if not (-ra < rb <= ra <= rc) or (rb < 0 and ra == rc):
            return wrong("form %r is not reduced" % ([ra, rb, rc],))
        return ok()
    return check


def _check_classgroup(d):
    def check(obj):
        if obj["result"]["h"] != len(reduced_forms(d)):
            return wrong("class number %r" % obj["result"]["h"])
        return ok()
    return check


def _check_bqf_census(d):
    def check(obj):
        res = obj["result"]
        if res["class_number"] != len(reduced_forms(d)):
            return wrong("class number %r" % res["class_number"])
        agree = res["orbit_count"] == res["class_number"] and not res["witnesses"]
        if res["agreement"] is not agree:
            return wrong("agreement flag inconsistent")
        return ok()
    return check


def _check_cli_census(p, n, rep):
    def check(obj):
        from types import SimpleNamespace as NS
        res = obj["result"]
        rows = [NS(key=tuple(int(k) for k in r["key"]) if isinstance(r["key"], list)
                   else int(r["key"]), separable=r["separable"],
                   operator_count=r["operator_count"],
                   orbit_sizes=r["orbit_sizes"],
                   stabilizer_orders=r["stabilizer_orders"],
                   complete=r["complete"]) for r in res["rows"]]
        report = NS(p=res["p"], n=res["n"], rep=res["rep"], mode=res["mode"],
                    group_order=res["group_order"],
                    space_size=res["space_size"], rows=rows)
        return check_census(report, p, n, rep)
    return check


def _adjoint_distinct_pairs():
    """(f, kappa): f = x g(x^2) with g's roots real and negative, and the
    class (1, kappa) of L = Q x E in the kernel; kappa < 0 is negative at
    a place where E is complex, so it is never a norm (distinct)."""
    return [([0, 4, 0, 5, 0, 1], -1), ([0, 4, 0, 5, 0, 1], -2),
            ([0, 4, 0, 5, 0, 1], -3), ([0, 2, 0, 3, 0, 1], -1),
            ([0, 2, 0, 3, 0, 1], -2), ([0, 5, 0, 6, 0, 1], -1),
            ([0, 10, 0, 7, 0, 1], -1)]


def _tau_fixed_pair(f, kappa):
    """Coefficients of the element (1, kappa) of L = Q x E, kappa in Q:
    kappa + (1 - kappa) e_k, where the idempotent e_k = g(x^2) / g(0) is 1
    at x = 0 and 0 on E."""
    g0 = f[1]
    gx2 = [f[k + 1] if k % 2 == 0 else 0 for k in range(len(f) - 1)]
    return [Fraction(kappa) * (k == 0) + (1 - Fraction(kappa)) * c / g0
            for k, c in enumerate(gx2)]


def cli_round(seed, index):
    rng = rng_for("cli-mix", seed, index)
    ops = []

    # construct: degrees 3, 5, 7 in both reps
    for deg in (3, 5, 7):
        for rep, f in ((SYM2, monic(rng, deg)), (ADJOINT, odd_monic(rng, deg))):
            ops.append(cli_op("construct/%s/d%d" % (rep, deg),
                              ["construct", "--rep=" + rep, _poly_arg(rng, f)],
                              _check_construct(f, rep)))

    # same-orbit in dimension three: alpha2 = alpha u^2 is equal, a split
    # class that is not a square is distinct.  Classes stay small: the
    # isotropic-vector scan grows with their height.
    f = monic(rng, 3, height=2)
    u = unit(rng, f, 1)
    ops.append(_same_orbit_op(rng, f, SYM2, "1", list_text(square(u, f)),
                              "equal", "squares"))
    f, roots = split_monic(rng, 3, -3, 3)
    vals = isotropic_class(rng, f, roots, height=2)
    u = [rng.choice((-2, -1, 1, 2)) for _ in roots]
    ops.append(_same_orbit_op(rng, f, SYM2, "1",
                              values_text([b * b for b in u]), "equal", "split"))
    ops.append(_same_orbit_op(rng, f, SYM2, "1", values_text(vals),
                              "distinct", "split"))
    f = odd_monic(rng, 3, height=5)
    u = unit(rng, f, 1, parity=0)
    ops.append(_same_orbit_op(rng, f, ADJOINT, "1", list_text(square(u, f)),
                              "equal", "squares"))
    # adjoint, dimension five: (1, kappa) with kappa < 0 is never a norm
    f, kappa = rng.choice(_adjoint_distinct_pairs())
    ops.append(_same_orbit_op(rng, f, ADJOINT, "1",
                              list_text(_tau_fixed_pair(f, kappa)),
                              "distinct", "negative"))

    # kernel: squares and isotropic classes are in, definite ones are out
    deg = rng.choice((3, 5))
    f = monic(rng, deg)
    ops.append(cli_op("kernel/square", ["kernel", _poly_arg(rng, f),
                                        "--alpha=" + list_text(square(
                                            unit(rng, f, 2), f))],
                      _check_kernel(True)))
    f, roots = split_monic(rng, deg)
    ops.append(cli_op("kernel/isotropic",
                      ["kernel", _poly_arg(rng, f),
                       "--alpha=" + values_text(isotropic_class(rng, f, roots))],
                      _check_kernel(True)))
    ops.append(cli_op("kernel/definite",
                      ["kernel", _poly_arg(rng, f),
                       "--alpha=" + values_text(definite_class(rng, roots, f))],
                      _check_kernel(False)))

    # descend and pencil-check on a point of d y^2 = f(x)
    for deg in (3, 5):
        f = monic(rng, deg)
        while True:
            x0 = rng.randint(-6, 6)
            d = sum(c * x0 ** k for k, c in enumerate(f))
            if d != 0:
                break
        ops.append(cli_op("descend/d%d" % deg,
                          ["descend", _poly_arg(rng, f),
                           "--point=%d,1" % x0, "--d=%d" % d],
                          _check_descend(f, d, x0, 1)))
        ops.append(cli_op("pencil-check/d%d" % deg,
                          ["pencil-check", _poly_arg(rng, f),
                           "--alpha=" + list_text([d * x0, -d]), "--d=%d" % d],
                          _check_pencil))

    # lattice-verify: (u), u^2 (or u tau(u)) is valid; a non-square scalar
    # fails the norm condition
    for rep in (SYM2, ADJOINT):
        deg = rng.choice((3, 5))
        f = monic(rng, deg) if rep == SYM2 else odd_monic(rng, deg)
        u = unit(rng, f, 2)
        alpha = mulmod(u, u if rep == SYM2 else tau(u), f)
        ops.append(cli_op("lattice-verify/%s/valid" % rep,
                          ["lattice-verify", "--rep=" + rep, _poly_arg(rng, f),
                           "--alpha=" + list_text(alpha),
                           "--ideal=" + list_text(u)],
                          _check_lattice(True)))
    f = monic(rng, 3)
    ops.append(cli_op("lattice-verify/sym2/invalid",
                      ["lattice-verify", "--rep=sym2", _poly_arg(rng, f),
                       "--alpha=" + str(rng.choice((2, 3, 5, 6, 7)))],
                      _check_lattice(False)))

    # local-count at a good prime, real-count on maximal-rank polynomials
    for rep in (SYM2, ADJOINT):
        deg = rng.choice((3, 5, 7))
        while True:
            f = monic(rng, deg) if rep == SYM2 else odd_monic(rng, deg)
            p = rng.choice((3, 5, 7, 11, 13))
            if fp_is_squarefree(f, p):     # p does not divide disc(f)
                break
        ops.append(cli_op("local-count/%s" % rep,
                          ["local-count", "--rep=" + rep, _poly_arg(rng, f),
                           "--p=%d" % p], _check_local(f, p, rep)))
    deg = rng.choice((3, 5, 7))
    f, _ = split_monic(rng, deg)
    ops.append(cli_op("real-count/sym2", ["real-count", "--rep=sym2",
                                          _poly_arg(rng, f)],
                      _check_real(deg, SYM2)))
    deg = rng.choice((3, 5, 7))
    g, _ = split_monic(rng, (deg - 1) // 2, lo=-9, hi=-1)
    f = [0] * (deg + 1)
    f[1::2] = g
    ops.append(cli_op("real-count/adjoint", ["real-count", "--rep=adjoint",
                                             _poly_arg(rng, f)],
                      _check_real(deg, ADJOINT)))

    # stab-info in all three reps
    deg = rng.choice((3, 5, 7))
    n = (deg - 1) // 2
    ops.append(cli_op("stab-info/sym2", ["stab-info", "--rep=sym2",
                                         _poly_arg(rng, monic(rng, deg))],
                      _check_stab("two-torsion", 2 ** (2 * n), 0)))
    ops.append(cli_op("stab-info/adjoint", ["stab-info", "--rep=adjoint",
                                            _poly_arg(rng, odd_monic(rng, deg))],
                      _check_stab("torus", None, n)))
    ops.append(cli_op("stab-info/standard",
                      ["stab-info", "--rep=standard",
                       "--label=%d/%d" % (nonzero(rng, 10), rng.randint(1, 5)),
                       "--n=%d" % n], _check_stab("orthogonal")))

    # classify
    for dim in (3, 5):
        w = [rng.randint(-5, 5) for _ in range(dim)]
        ops.append(cli_op("classify/d%d" % dim,
                          ["classify", "--vector=" + ",".join(map(str, w))],
                          _check_classify(w)))

    # bqf
    for _ in range(2):
        a, c = rng.randint(1, 40), rng.randint(1, 40)
        b = rng.randint(-9, 9)
        while b * b >= 4 * a * c:
            b //= 2
        ops.append(cli_op("bqf/reduce", ["bqf", "reduce",
                                         "--form=%d,%d,%d" % (a, b, c)],
                          _check_bqf_reduce(a, b, c)))
    d = -rng.choice([k for k in range(3, 400) if k % 4 in (0, 3)])
    ops.append(cli_op("bqf/classgroup", ["bqf", "classgroup", "--d=%d" % d],
                      _check_classgroup(d)))
    d = -rng.choice([k for k in range(3, 80) if k % 4 in (0, 3)])
    ops.append(cli_op("bqf/census", ["bqf", "census", "--d=%d" % d,
                                     "--bound=30"], _check_bqf_census(d)))

    # one tiny census
    p, rep = rng.choice([(3, SYM2), (3, ADJOINT), (3, STANDARD), (5, ADJOINT),
                         (5, STANDARD)])
    ops.append(cli_op("census/tiny",
                      ["census", "--p=%d" % p, "--n=1", "--rep=" + rep],
                      _check_cli_census(p, 1, rep)))

    # inputs built to be rejected: a usage error and two domain errors
    ops.append(cli_error_op("error/usage",
                            ["construct", "--rep=sym2",
                             "--poly=" + rng.choice(["x^^3", "x^3 + * 2",
                                                     "[1,2", "y^3 - 1"])], 2))
    f = monic(rng, 4)
    ops.append(cli_error_op("error/even-degree",
                            ["construct", "--rep=sym2", _poly_arg(rng, f)], 1,
                            "WrongDegree"))
    f = [-rng.randint(-3, 3), 1]
    f = pmul(pmul(f, f), f)
    ops.append(cli_error_op("error/non-separable",
                            ["kernel", _poly_arg(rng, f), "--alpha=1"], 1,
                            "NonSeparable"))
    rng.shuffle(ops)
    return ops


def _same_orbit_op(rng, f, rep, a1, a2, truth, tag):
    argv = ["same-orbit", "--rep=" + rep, _poly_arg(rng, f), "--alpha=" + a1,
            "--alpha2=" + a2]
    return cli_op("same-orbit/%s/d%d/%s/%s" % (rep, len(f) - 1, truth, tag),
                  argv,
                  _check_same_orbit(f, rep, a1, a2, truth), verdict=True)


WORKLOADS = {
    "census-fp": (census_round, None),
    "cli-mix": (cli_round, None),
    "square-heights": (squares_round, squares_tail),
}
