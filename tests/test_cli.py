"""Command-line interface: parsing, dispatch, exit codes, JSON shape."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import orbitforge
from orbitforge import cli, poly
from orbitforge.arith import rng_for
from orbitforge.cli import (EXPONENT_BUDGET, parse_alpha, parse_fraction,
                            parse_poly, run)
from orbitforge.errors import BudgetExceeded, NotSplit, ParseError
from orbitforge.etale import EtaleAlgebra
from orbitforge.matrix import Mat
from orbitforge.poly import Poly


# ---------------------------------------------------------------------------
# polynomial parsing


def test_parse_poly_terms():
    assert parse_poly("x^3 - 2") == Poly([-2, 0, 0, 1])
    assert parse_poly("x^3-2") == Poly([-2, 0, 0, 1])
    assert parse_poly("  x ^ 3  -  2 ") == Poly([-2, 0, 0, 1])
    assert parse_poly("-x") == Poly([0, -1])
    assert parse_poly("7") == Poly([7])
    assert parse_poly("3/4*x^2 + 1/2") == Poly([Fraction(1, 2), 0,
                                                Fraction(3, 4)])


def test_parse_poly_star_optional():
    assert parse_poly("2x") == parse_poly("2*x") == Poly([0, 2])
    assert parse_poly("2x^3 + x") == Poly([0, 1, 0, 2])


def test_parse_poly_repeated_exponents_sum():
    assert parse_poly("x + x + 1") == Poly([1, 2])
    assert parse_poly("x^2 - x^2 + 3") == Poly([3])


def test_parse_poly_coefficient_list():
    assert parse_poly("[0,-1,0,1]") == Poly([0, -1, 0, 1])
    assert parse_poly(" [ 1/2 , -3 ] ") == Poly([Fraction(1, 2), -3])


@pytest.mark.parametrize("text, want", [
    ("[- 1]", [-1]), (" [ -1/2 ,3 ] ", [Fraction(-1, 2), 3]),
    ("\t[0]\n", [0]), ("[-0,1]", [0, 1]),
    ("[%s]" % ("9" * 4300), [10 ** 4300 - 1]),
    ("[]", None), ("[ ]", None), ("[1,]", None), ("[,1]", None),
    ("[+1]", None), ("[1 2]", None), ("[1],[2]", None), ("[[1]]", None),
    ("[1]]", None), ("[", None), ("[1/0]", None), ("[1 /2]", None),
    ("[1/ 2]", None), ("[--1]", None), ("[-]", None), ("[\u0663]", None),
    ("[%s]" % ("9" * 4301), None),
])
def test_parse_poly_coefficient_list_edges(text, want):
    # each item of a bracketed list is read by parse_fraction: these are
    # the values and refusals of the list grammar it replaced
    if want is None:
        with pytest.raises(ParseError):
            parse_poly(text)
    else:
        assert parse_poly(text) == Poly(want)


def test_parse_poly_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_poly("x^^3")
    assert "position 2" in str(e.value)
    for bad in ("", "   ", "x + * 2", "y^2", "2**x", "[1,2", "[1,2] junk",
                "[]", "x^", "3//2", "1/0*x", "x^\u00b2", "x^\u0663",
                "x - " + "9" * 4301, "x^" + "9" * 4301):
        with pytest.raises(ParseError):
            parse_poly(bad)
    assert parse_poly("x - " + "9" * 4300) == Poly([-(10 ** 4300 - 1), 1])


def test_exponents_past_the_budget_exit_one(capsys):
    # a term's exponent sizes a dense list: it is checked before any is
    # built, in --poly and in --alpha alike
    assert parse_poly("x^%d" % EXPONENT_BUDGET).degree == EXPONENT_BUDGET
    with pytest.raises(BudgetExceeded):
        parse_poly("x^%d" % (EXPONENT_BUDGET + 1))
    for argv in (["kernel", "--poly", "x^99999999", "--alpha", "1"],
                 ["kernel", "--poly", "x^3 - x", "--alpha", "b^99999999"],
                 ["construct", "--rep", "sym2", "--poly", "x^100000"]):
        start = time.monotonic()
        assert run(argv) == 1
        assert time.monotonic() - start < 1
        assert "EXPONENT_BUDGET" in capsys.readouterr().err


def test_parse_poly_pretty_round_trip():
    rng = rng_for("cli-round-trip")
    for _ in range(150):
        deg = rng.randrange(0, 7)
        c = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
             for _ in range(deg)]
        c.append(Fraction(rng.randrange(1, 10)))
        f = Poly(c)
        assert parse_poly(f.pretty()) == f


def test_parse_fraction():
    assert parse_fraction("3/2") == Fraction(3, 2)
    assert parse_fraction(" -5 ") == -5
    for bad in ("", "x", "3/0", "1 2"):
        with pytest.raises(ParseError):
            parse_fraction(bad)


# ---------------------------------------------------------------------------
# algebra-element parsing


def test_parse_alpha_forms():
    alg = EtaleAlgebra(Poly([-2, 0, 0, 1]))
    assert parse_alpha("3", alg) == alg.const(3)
    assert parse_alpha("3 - b", alg) == alg.const(3) - alg.beta()
    assert parse_alpha("beta^2 - 1", alg) == \
        alg.beta() * alg.beta() - alg.one()
    assert parse_alpha("[3,-1,0]", alg) == alg.const(3) - alg.beta()


def test_parse_alpha_component_values():
    alg = EtaleAlgebra(Poly([0, -1, 0, 1]))
    a = parse_alpha("crt:1,1,4", alg)
    # components are listed at the roots in increasing order: -1, 0, 1
    lifted = a.lift()
    assert lifted(Fraction(-1)) == 1
    assert lifted(Fraction(0)) == 1
    assert lifted(Fraction(1)) == 4
    assert a.norm() == 4


def test_parse_alpha_component_values_need_split_modulus():
    alg = EtaleAlgebra(Poly([-2, 0, 0, 1]))
    with pytest.raises(NotSplit):
        parse_alpha("crt:1,1,1", alg)
    split = EtaleAlgebra(Poly([0, -1, 0, 1]))
    with pytest.raises(ParseError):
        parse_alpha("crt:1,2", split)


def test_rational_roots_build_one_sturm_chain(monkeypatch):
    # isolating the roots builds one chain; refining each interval by the
    # sign of F builds none
    calls = []

    def counting(g, f):
        calls.append(f)
        return chain(g, f)

    chain = poly._tarski_chain
    monkeypatch.setattr(poly, "_tarski_chain", counting)
    roots = [Fraction(-5, 3), -2, Fraction(1, 2), 1, 3]
    assert cli._rational_roots(Poly.from_roots(roots)) == sorted(roots)
    assert len(calls) == 1


def _rational_roots_by_sturm(f):
    """Reference: each isolating interval of the integral model refined
    below width 1 by Sturm counts, as _rational_roots did before it
    bisected by the sign of F."""
    c = f.den
    F = poly.integral_model(f)
    roots = []
    for lo, hi in poly.isolate_real_roots(F):
        for _ in range(int(hi - lo).bit_length()):
            mid = (lo + hi) / 2
            if poly.count_real_roots(F, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        k = math.floor(hi)
        if k > lo and F(k) == 0:
            roots.append(Fraction(k, c))
    return roots


def test_rational_roots_match_sturm_refinement():
    # split, partly split and irreducible separable moduli with
    # denominators, against the Sturm-refinement search
    import random
    rng = random.Random(21301)
    kinds = {"split": 0, "partly split": 0, "irreducible": 0}
    while min(kinds.values()) < 40:
        kind = rng.choice(sorted(kinds))
        k = {"split": rng.randint(1, 5), "partly split": rng.randint(1, 3),
             "irreducible": 0}[kind]
        roots = [Fraction(rng.randint(-40, 40), rng.randint(1, 6))
                 for _ in range(k)]
        f = Poly.from_roots(roots)
        if kind != "split":
            # x^m - r for m = 2, 3 is irreducible when r's numerator is
            # a prime, so r is neither a square nor a cube
            m = rng.choice((2, 3))
            r = Fraction(rng.choice((2, 3, 5, 7)), rng.randint(1, 9))
            if abs(r.numerator) == 1:
                continue
            r *= rng.choice((1, -1))
            shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            f = f * (Poly([0, 1]) ** m - r).compose(Poly([-shift, 1]))
        if not poly.is_separable(f):
            continue
        kinds[kind] += 1
        got = cli._rational_roots(f)
        assert got == _rational_roots_by_sturm(f)
        assert sorted(got) == sorted(set(roots))


def test_parse_alpha_component_values_at_large_roots(capsys):
    # roots come from isolating intervals, not from the divisors of the
    # constant term: neither a root at 5 * 10^11 nor a large constant
    # term with no rational root takes a scan
    roots = [Fraction(-7, 3), Fraction(1, 2), Fraction(5 * 10 ** 11)]
    f = Poly([1])
    for r in roots:
        f = f * Poly([-r, 1])
    lifted = parse_alpha("crt:1,2,3", EtaleAlgebra(f)).lift()
    assert [lifted(r) for r in roots] == [1, 2, 3]
    start = time.monotonic()
    assert run(["kernel", "--poly", "x^3 - x + 100000000",
                "--alpha", "crt:1,1,1"]) == 1
    assert time.monotonic() - start < 1
    assert "NotSplit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dispatch helpers


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    obj = json.loads(out)
    assert list(obj) == ["schema", "command", "inputs", "result", "checks"]
    assert obj["schema"] == "1"
    return obj


def test_construct_json(capsys):
    obj = run_json(capsys, ["construct", "--rep", "sym2",
                            "--poly", "x^3 - 2"])
    assert obj["command"] == "construct"
    assert obj["result"]["operator"] == [["0", "0", "2"], ["1", "0", "0"],
                                         ["0", "1", "0"]]
    assert obj["checks"] == {"charpoly_matches": True, "adjointness": True}


def test_construct_human(capsys):
    assert run(["construct", "--rep", "adjoint", "--poly", "x^3 - x"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "dim: 3" in lines
    at = lines.index("operator:")
    rows = lines[at + 1:at + 4]
    assert all(row.startswith("  [") for row in rows)
    assert len(json.loads(rows[0])) == 3
    assert not lines[at + 4].startswith(" ")


def test_classify_labels(capsys):
    obj = run_json(capsys, ["classify", "--vector", "1,0,1"])
    assert obj["result"]["label"] == "1"
    obj = run_json(capsys, ["classify", "--vector", "0,0,0"])
    assert obj["result"]["label"] == "zero"
    obj = run_json(capsys, ["classify", "--vector", "1,0,0"])
    assert obj["result"]["label"] == "null-nonzero"
    assert run(["classify", "--vector", "1,2"]) == 2


def test_kernel_command(capsys):
    obj = run_json(capsys, ["kernel", "--poly", "x^3 - x",
                            "--alpha", "crt:1,1,4"])
    assert obj["result"]["in_kernel"] is True
    assert obj["checks"]["norm"] == "4"
    # (2,2,1) twists to an isotropic form, so the orbit still exists
    obj = run_json(capsys, ["kernel", "--poly", "x^3 - x",
                            "--alpha", "crt:2,2,1"])
    assert obj["result"]["in_kernel"] is True
    # (-1,1,-1) against derivative signs (+,-,+) gives a definite form
    obj = run_json(capsys, ["kernel", "--poly", "x^3 - x",
                            "--alpha", "crt:-1,1,-1"])
    assert obj["result"]["in_kernel"] is False


def test_kernel_rejects_inseparable_modulus(capsys):
    assert run(["kernel", "--poly", "x^3", "--alpha", "1"]) == 1
    err = capsys.readouterr().err
    assert "NonSeparable" in err


def test_kernel_rejects_non_monic_modulus(capsys):
    assert run(["kernel", "--poly", "2*x^3+x", "--alpha", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: NotMonic: ")


def test_same_orbit_equal_and_distinct(capsys):
    obj = run_json(capsys, ["same-orbit", "--rep", "sym2",
                            "--poly", "x^3 - x", "--alpha", "crt:1,1,4"])
    assert obj["result"]["status"] == "equal"
    assert obj["result"]["witness"] is not None
    obj = run_json(capsys, ["same-orbit", "--rep", "sym2",
                            "--poly", "x^3 - x", "--alpha", "crt:2,2,1"])
    assert obj["result"]["status"] == "distinct"


def test_same_orbit_dimension_seven(capsys):
    # x(x^2-1)(x^2-4)(x^2-9); the second class pairs roots (-3,-2), (-1,0),
    # (1,2) into hyperbolic planes and is not a square
    poly = "x^7 - 14*x^5 + 49*x^3 - 36*x"
    obj = run_json(capsys, ["same-orbit", "--rep", "sym2", "--poly", poly,
                            "--alpha", "crt:1,1,1,1,1,1,1",
                            "--alpha2", "crt:1,4,9,1,1,4,1"])
    assert obj["result"]["status"] == "equal"
    assert obj["result"]["witness"] is not None
    obj = run_json(capsys, ["same-orbit", "--rep", "sym2", "--poly", poly,
                            "--alpha", "1",
                            "--alpha2", "crt:6,1,8/3,2,-2/5,-1,64/5"])
    assert obj["result"]["status"] == "distinct"


def test_same_orbit_json_ignores_the_environment(capsys, monkeypatch):
    # every randomized search draws from a fixed per-purpose stream, so
    # the bytes depend on the arguments alone, whatever ORBITFORGE_SEED says
    argv = ["same-orbit", "--rep", "sym2",
            "--poly", "x^5 + 6*x^4 - 2*x^2 - 6*x - 4",
            "--alpha", "2517*b^4 + 64*b^3 - 437*b^2 - 2244*b - 1696", "--json"]
    outs = []
    for value in (None, "7"):
        if value is None:
            monkeypatch.delenv("ORBITFORGE_SEED", raising=False)
        else:
            monkeypatch.setenv("ORBITFORGE_SEED", value)
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    result = json.loads(outs[0])["result"]
    assert result["status"] == "equal" and result["witness"] == "b + 1"


def test_descend_command(capsys):
    obj = run_json(capsys, ["descend", "--poly", "x^3 - 2",
                            "--point", "3,5"])
    assert obj["result"]["alpha_coords"] == ["3", "-1", "0"]
    assert obj["result"]["norm"] == "25"
    assert obj["checks"]["in_kernel"] is True
    obj = run_json(capsys, ["descend", "--poly", "x^3 - 2",
                            "--point", "inf"])
    assert obj["result"]["norm"] == "1"
    assert run(["descend", "--poly", "x^3 - 2", "--point", "1,1"]) == 1
    assert "NotOnCurve" in capsys.readouterr().err


def test_descend_twist(capsys):
    # 9 y^2 = x^3 - 2 carries (3, 5/3)
    obj = run_json(capsys, ["descend", "--poly", "x^3 - 2",
                            "--point", "3,5/3", "--d", "9"])
    assert obj["checks"]["in_kernel"] is True
    assert obj["result"]["alpha_coords"] == ["27", "-9", "0"]


def test_descend_weierstrass_point_is_domain_error(capsys):
    assert run(["descend", "--poly", "x^3 - x", "--point=-1,0",
                "--d", "2"]) == 1
    assert "WeierstrassPoint" in capsys.readouterr().err


def test_pencil_check_command(capsys):
    obj = run_json(capsys, ["pencil-check", "--poly", "x^3 - 2",
                            "--alpha", "3 - b"])
    assert obj["result"]["match"] is True
    assert obj["result"]["proportionality"] == "25"


def test_census_command(capsys):
    obj = run_json(capsys, ["census", "--p", "3", "--n", "1",
                            "--rep", "adjoint"])
    rows = {tuple(r["key"]): r for r in obj["result"]["rows"]}
    assert rows[("0", "1", "0", "1")]["orbit_sizes"] == [6]
    assert rows[("0", "2", "0", "1")]["orbit_sizes"] == [12]
    assert obj["result"]["group_order"] == 24
    assert run(["census", "--p", "4", "--n", "1", "--rep", "sym2"]) == 1
    assert "BadPrime" in capsys.readouterr().err


def test_local_count_refuses_a_strong_pseudoprime(capsys):
    # psi_12 passes Miller-Rabin to the bases 2..37; read as a prime it
    # reached poly.fp_divmod and died with a ValueError traceback
    assert run(["local-count", "--rep", "sym2", "--poly", "x^3 - x - 1",
                "--p", "318665857834031151167461"]) == 1
    assert capsys.readouterr().err.startswith("error: BadPrime: ")


def test_census_poly_filter(capsys):
    obj = run_json(capsys, ["census", "--p", "3", "--n", "1",
                            "--rep", "adjoint", "--poly", "[0,1,0,1]"])
    assert len(obj["result"]["rows"]) == 1
    assert obj["result"]["rows"][0]["operator_count"] == 6


def test_census_poly_of_wrong_shape_is_domain_error(capsys):
    for argv, name in (
            (["--p", "3", "--n", "2", "--rep", "adjoint", "--poly", "x^5+1"],
             "NotOddPolynomial"),
            (["--p", "5", "--rep", "sym2", "--poly", "x^2+1"], "WrongDegree"),
            (["--p", "3", "--n", "2", "--rep", "sym2", "--poly", "x^3+1"],
             "WrongDegree"),
            (["--p", "5", "--rep", "adjoint", "--poly", "x^3+1"],
             "NotOddPolynomial")):
        assert run(["census"] + argv) == 1
        assert capsys.readouterr().err.startswith("error: %s: " % name)


def test_census_poly_with_vector_rep_is_usage_error(capsys):
    # vectors have no characteristic polynomial to filter on
    assert run(["census", "--p", "3", "--n", "1", "--rep", "standard",
                "--poly", "x^3+x"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ")


def test_census_poly_must_be_monic(capsys):
    # the leading coefficient must not be dropped to select the monic row
    for n, rep, poly in (("1", "adjoint", "2*x^3 + x"),
                         ("2", "sym2", "2*x^5 + x")):
        assert run(["census", "--p", "3", "--n", n, "--rep", rep,
                    "--poly", poly]) == 1
        assert capsys.readouterr().err.startswith("error: NotMonic: ")


@pytest.mark.parametrize("argv, calls", [
    (["same-orbit", "--rep", "sym2", "--poly", "x^3 - x - 1",
      "--alpha", "4"], 1),
    (["kernel", "--poly", "x^3 - x - 1", "--alpha", "4"], 1),
    (["construct", "--rep", "sym2", "--poly", "x^3 - x - 1"], 1),
    (["local-count", "--rep", "sym2", "--poly", "x^3 - x - 1",
      "--p", "5"], 1),
    (["descend", "--poly", "x^3 - x + 1", "--point", "1,1"], 1),
    # L, and K = Q[y]/(g) for the twisted norm equation
    (["same-orbit", "--rep", "adjoint", "--poly", "x^5 + 3*x^3 + x",
      "--alpha", "1"], 2),
    (["pencil-check", "--poly", "x^3 - x - 1", "--alpha", "4"], 1),
    (["lattice-verify", "--rep", "sym2", "--poly", "x^3 - 2",
      "--alpha", "1"], 1),
    (["real-count", "--rep", "sym2", "--poly", "x^3 - x"], 1),
    (["stab-info", "--rep", "adjoint", "--poly", "x^3 + x"], 1),
], ids=["same-orbit", "kernel", "construct", "local-count", "descend",
        "same-orbit-adjoint", "pencil-check", "lattice-verify", "real-count",
        "stab-info"])
def test_separability_is_decided_once_per_algebra(argv, calls, capsys,
                                                  monkeypatch):
    # Res(f, f') is computed once for each EtaleAlgebra(f) an op builds,
    # as its discriminant test, and nowhere else; an op builds L once and
    # passes it along with alpha and the representatives built on it
    resultant, pairs = poly.resultant, []

    def counted(f, g):
        if g == f.derivative():
            pairs.append(f)
        return resultant(f, g)

    monkeypatch.setattr(poly, "resultant", counted)
    assert run(argv + ["--json"]) == 0
    capsys.readouterr()
    assert len(pairs) == calls


@pytest.mark.parametrize("poly_text", ["x^4 - 2", "x^4 - 2*x^2 + 1"],
                         ids=["separable", "repeated-root"])
@pytest.mark.parametrize("argv", [
    ["kernel", "--alpha", "1"],
    ["same-orbit", "--rep", "sym2", "--alpha", "1"],
    ["pencil-check", "--alpha", "1"],
    ["lattice-verify", "--rep", "sym2", "--alpha", "1"],
], ids=["kernel", "same-orbit", "pencil-check", "lattice-verify"])
def test_even_degree_refused_before_any_resultant(argv, poly_text, capsys,
                                                   monkeypatch):
    # the degree is checked before --alpha builds L, so an even-degree f
    # is WrongDegree whether or not it is separable, and Res(f, f') is
    # never computed
    calls = []

    def spy(f):
        calls.append(f)
        raise AssertionError("discriminant of %s" % f.pretty())

    monkeypatch.setattr(poly, "discriminant", spy)
    assert run(argv + ["--poly", poly_text]) == 1
    assert capsys.readouterr().err.startswith("error: WrongDegree: ")
    assert calls == []


def test_descend_computes_its_class_once(capsys, monkeypatch):
    from orbitforge import descent
    calls = []

    def spy(curve, pt):
        calls.append(pt)
        return descent_class(curve, pt)

    descent_class = descent.descent_class
    monkeypatch.setattr(descent, "descent_class", spy)
    monkeypatch.setattr(cli, "descent_class", spy)
    for point in ("1,1", "inf"):
        calls.clear()
        obj = run_json(capsys, ["descend", "--poly", "x^3 - x + 1",
                                "--point", point])
        assert obj["checks"]["in_kernel"] is True
        assert len(calls) == 1


def test_local_count_command(capsys):
    obj = run_json(capsys, ["local-count", "--rep", "sym2",
                            "--poly", "x^3 - x", "--p", "5"])
    assert obj["result"]["count"] == 10
    assert obj["checks"]["factors_mod_p"] == 3


def test_real_count_command(capsys):
    obj = run_json(capsys, ["real-count", "--rep", "sym2",
                            "--poly", "[0,4,0,-5,0,1]"])
    assert obj["result"]["count"] == 10
    assert obj["result"]["fibers"] == {"0": 1, "2": 10, "4": 5}
    assert run(["real-count", "--rep", "sym2", "--poly", "x^3 + x"]) == 1


def test_lattice_verify_valid(capsys):
    obj = run_json(capsys, ["lattice-verify", "--rep", "sym2",
                            "--poly", "x^3 - 2", "--alpha", "1"])
    assert obj["result"]["valid"] is True
    assert obj["result"]["gram"] == [["0", "0", "1"], ["0", "1", "0"],
                                     ["1", "0", "0"]]


def test_lattice_verify_with_ideal_generators(capsys):
    obj = run_json(capsys, ["lattice-verify", "--rep", "adjoint",
                            "--poly", "x^3 - 4*x", "--alpha", "9 - b^2",
                            "--ideal", "3 + b"])
    assert obj["result"]["valid"] is True


def test_lattice_verify_inverts_each_ideal_basis_once(capsys, monkeypatch):
    # I, tau(I), (alpha) and I tau(I) are each inverted once, when built;
    # the x-stability checks and the containment test reuse that inverse
    calls = []

    def counting(m):
        calls.append(m)
        return inv(m)

    inv = Mat.inv
    monkeypatch.setattr(Mat, "inv", counting)
    obj = run_json(capsys, ["lattice-verify", "--rep", "adjoint",
                            "--poly", "x^3 - 4*x", "--alpha", "9 - b^2",
                            "--ideal", "3 + b"])
    assert obj["result"]["valid"] is True
    assert len(calls) == 4


def test_lattice_verify_invalid_stays_exit_zero(capsys):
    obj = run_json(capsys, ["lattice-verify", "--rep", "sym2",
                            "--poly", "x^3 - 2", "--alpha", "b"])
    assert obj["result"]["valid"] is False
    assert obj["result"]["reason"].startswith("norm")
    assert obj["result"]["gram"] is None


def test_lattice_verify_empty_ideal_is_a_usage_error(capsys):
    # an explicit empty generator list is not the default unit ideal
    base = ["lattice-verify", "--rep", "sym2", "--poly", "x^3 - 2",
            "--alpha", "1"]
    for ideal in ("", ";", " "):
        assert run(base + ["--ideal", ideal, "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage error: ")
    assert run(base + ["--json"]) == 0


def test_lattice_verify_rational_modulus_is_a_domain_failure(capsys):
    # the ideal (b) of Q[x]/(x^3 - x/2) has the non-integral b^3 = b/2
    assert run(["lattice-verify", "--rep", "sym2", "--poly", "x^3 - 1/2*x",
                "--alpha", "1", "--ideal", "b"]) == 1
    assert capsys.readouterr().err.startswith("error: NonIntegral: ")


def test_bqf_reduce_command(capsys):
    obj = run_json(capsys, ["bqf", "reduce", "--form", "12,-37,31"])
    assert obj["result"]["form"] == [5, -1, 6]
    assert obj["checks"] == {"disc_preserved": True,
                             "content_preserved": True}
    assert run(["bqf", "reduce", "--form", "1,3,1"]) == 1


def test_bqf_classgroup_command(capsys):
    obj = run_json(capsys, ["bqf", "classgroup", "--d", "-23"])
    assert obj["result"]["h"] == 3
    assert obj["result"]["forms"] == [[1, 1, 6], [2, 1, 3], [2, -1, 3]]
    assert obj["result"]["table"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_bqf_census_command(capsys):
    obj = run_json(capsys, ["bqf", "census", "--d", "-23", "--bound", "50"])
    assert obj["result"]["agreement"] is True
    assert obj["result"]["orbit_count"] == 3
    obj = run_json(capsys, ["bqf", "census", "--d", "-23", "--bound", "2"])
    assert obj["result"]["agreement"] is False
    assert obj["result"]["witnesses"]


def test_stab_info_command(capsys):
    obj = run_json(capsys, ["stab-info", "--rep", "standard",
                            "--label", "3/2", "--n", "2"])
    assert obj["result"]["kind"] == "orthogonal"
    obj = run_json(capsys, ["stab-info", "--rep", "sym2",
                            "--poly", "x^3 - x"])
    assert obj["result"]["kind"] == "two-torsion"
    assert obj["result"]["order"] == 4
    obj = run_json(capsys, ["stab-info", "--rep", "adjoint",
                            "--poly", "x^3 - 4*x"])
    assert obj["result"]["kind"] == "torus"
    assert obj["result"]["dimension"] == 1
    assert obj["result"]["detail"]["E"] == "x^2 - 4"


def test_stab_info_missing_argument_is_usage(capsys):
    assert run(["stab-info", "--rep", "standard"]) == 2
    assert run(["stab-info", "--rep", "sym2"]) == 2


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_usage_failures_exit_two(capsys):
    assert run(["construct", "--rep", "sym2", "--poly", "x^^3"]) == 2
    assert "position" in capsys.readouterr().err
    assert run(["no-such-command"]) == 2
    assert run(["construct", "--rep", "bogus", "--poly", "x"]) == 2
    assert run(["construct"]) == 2
    capsys.readouterr()


def test_domain_failures_exit_one(capsys):
    assert run(["kernel", "--poly", "x^3 - 2", "--alpha", "crt:1,1,1"]) == 1
    assert "NotSplit" in capsys.readouterr().err
    assert run(["pencil-check", "--poly", "x^3 - 2", "--alpha", "b"]) == 1
    assert "NormNotSquare" in capsys.readouterr().err


def test_factoring_budget_exits_one_and_names_itself(capsys, monkeypatch):
    # alpha = (10029 - b)^2 over x^3 - 2: the twisted determinant needs rho,
    # and 50 iterations are not enough
    from orbitforge import arith
    monkeypatch.setattr(arith, "FACTOR_RHO_BUDGET", 50)
    for argv in (["same-orbit", "--poly", "x^3 - 2", "--alpha",
                  "b^2 - 20058*b + 100580841"],
                 ["kernel", "--poly", "x^3 - 2", "--alpha",
                  "[100580841,-20058,1]"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FactorizationTimeout: ")
        assert "FACTOR_RHO_BUDGET = 50" in err


def test_nonpositive_n_is_a_dimension_failure(capsys):
    for argv in (["census", "--p", "3", "--n", "0", "--rep", "sym2"],
                 ["census", "--p", "3", "--n", "-1", "--rep", "adjoint"],
                 ["stab-info", "--rep", "standard", "--label", "1",
                  "--n", "-2"],
                 ["stab-info", "--rep", "standard", "--label", "1",
                  "--n", "0"]):
        assert run(argv) == 1
        assert "WrongDimension" in capsys.readouterr().err


def _readme_commands():
    """The orbit invocations of the README's command-line block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(x)[1:] for x in lines if x.startswith("orbit ")]


def test_readme_examples_run(capsys):
    commands = _readme_commands()
    assert len(commands) >= 14
    for argv in commands:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out
        assert run(argv + ["--json"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["schema"] == "1"


def _text_fields(text):
    """(key, value) per top-level line of the text view: a row block
    "key:" gives the list of its indented JSON rows, any other line its
    string as printed."""
    fields = []
    for line in text.splitlines():
        if line.startswith("  "):
            fields[-1][1].append(json.loads(line))
        elif line.endswith(":"):
            fields.append((line[:-1], []))
        else:
            key, value = line.split(": ", 1)
            fields.append((key, value))
    return fields


def test_text_view_prints_the_json_fields(capsys):
    # one top-level line per key of result, then of checks, in the JSON
    # order, with the value the JSON holds: a string as it is, anything
    # else as JSON
    for argv in _readme_commands():
        obj = run_json(capsys, argv)
        assert run(argv) == 0, argv
        fields = _text_fields(capsys.readouterr().out)
        want = [*obj["result"].items(), *obj["checks"].items()]
        assert [k for k, _ in fields] == [k for k, _ in want], argv
        for (key, got), (_, value) in zip(fields, want):
            if isinstance(got, str) and not isinstance(value, str):
                got = json.loads(got)
            assert got == value, (argv, key)


def test_readme_json_matches_the_golden_file(capsys):
    # tests/golden/readme_json.json pins the exit code and --json stdout of
    # every README invocation plus a dimension-5 same-orbit, as
    # `python -m orbitforge.cli ARGS --json` printed them
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "readme_json.json")
    with open(path) as fh:
        golden = json.load(fh)
    assert [shlex.split(e["args"]) for e in golden[:-1]] == _readme_commands()
    assert golden[-1]["args"].startswith("same-orbit --rep sym2 --poly \"x^5")
    for entry in golden:
        argv = shlex.split(entry["args"]) + ["--json"]
        assert run(argv) == entry["exit"], argv
        assert capsys.readouterr().out == entry["stdout"], argv


def test_help_exits_zero(capsys):
    with_help = run(["--help"])
    assert with_help == 0
    assert "construct" in capsys.readouterr().out


def test_json_output_is_deterministic(capsys):
    argv = ["census", "--p", "3", "--n", "1", "--rep", "sym2", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    argv = ["same-orbit", "--rep", "sym2", "--poly", "x^3 - x",
            "--alpha", "crt:1,1,4", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_closed_stdout_exits_1_without_traceback():
    # the reader closes the pipe before the first write: the program's
    # flush meets EPIPE, which must end in exit 1 and a quiet stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        orbitforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["construct", "--rep", "sym2", "--poly", "x^3 - 2",
                  "--json"],
                 ["classify", "--vector", "1,0,-2"]):
        proc = subprocess.Popen([sys.executable, "-m", "orbitforge.cli"]
                                + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err


def test_parser_reuse_matches_fresh_processes(capsys):
    # one process: a usage error, then two different subcommands; each
    # must print the same bytes and exit code as a fresh process
    calls = [["same-orbit", "--bogus"],
             ["classify", "--vector", "1,0,-2", "--json"],
             ["kernel", "--poly", "x^3 - x", "--alpha", "crt:2,2,1"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        orbitforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        code = run(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "orbitforge.cli"]
                               + argv, capture_output=True, text=True,
                               env=env, timeout=60)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr)
    assert code == 0


# ---------------------------------------------------------------------------
# a seeded fuzz corpus: valid and malformed values for every subcommand

# per kind of value: valid values, then malformed or out-of-domain ones;
# small heights only, so that no budget is approached
_FUZZ_VALUES = {
    "rep": (["sym2", "adjoint"], ["standard", "bogus", ""]),
    "rep3": (["sym2", "adjoint", "standard"], ["bogus", ""]),
    "poly": (["x^3 - 2", "x^3 - x", "x^3 + x", "x^3 + 2*x", "x^3 - 3*x + 1",
              "x^5 - x", "x^5 + 3*x^3 + 2*x", "x^5 - 5*x^3 + 4*x",
              "[0,2,0,3,0,1]", "x^3 - 1/2"],
             ["2*x^3 + x", "x^2 - 2", "x^3", "x^4 + 1", "x^101", "x^^3",
              "y^3 - 2", "", "[1,2", "1/0*x"]),
    "alpha": (["1", "4", "-1", "2", "b + 1", "b^2", "b^2 + 2*b + 1",
               "1 - b^2", "[1,1,0]", "crt:1,1,4", "crt:2,2,1"],
              ["0", "[1,2]", "crt:1,2", "crt:", "x", "", "b^200", "[1,"]),
    "vector": (["1,0,1", "1,0,-2", "0,0,0", "1,0,0", "1,0,0,0,1",
                "1/2,0,3"], ["1,2", "a,b,c", "", "1,,1"]),
    "point": (["inf", "1,1", "2,3", "0,0", "-1,0", "o"],
              ["1,2,3", "x", ""]),
    "d": (["1", "2", "-1", "1/2"], ["0", "3/0", "a", ""]),
    "p": (["3", "5", "7", "11", "23"], ["2", "9", "0", "-3", "1", "p", ""]),
    "n": (["1", "2"], ["3", "0", "-1", "x"]),
    "ideal": (["2;b", "b", "1", "3;b+1", "b^2;2"], ["0", "", ";"]),
    "form": (["1,1,1", "2,1,3", "1,0,-2", "3,5,7", "-1,1,-1"],
             ["0,0,0", "1,2", "a,b,c", "1/2,1,1"]),
    "D": (["-3", "-4", "-23", "-47", "-84"], ["5", "0", "1", "-2", "x"]),
    "bound": (["10", "30"], ["0", "-5", "x"]),
    "label": (["1", "2", "-3", "1/2"], ["0", "a"]),
}

# subcommand: its words, then its flags and the kind of value each takes
_FUZZ_GRAMMAR = [
    (["construct"], [("--rep", "rep"), ("--poly", "poly")]),
    (["classify"], [("--vector", "vector")]),
    (["kernel"], [("--rep", "rep"), ("--poly", "poly"), ("--alpha", "alpha")]),
    (["same-orbit"], [("--rep", "rep"), ("--poly", "poly"),
                      ("--alpha", "alpha"), ("--alpha2", "alpha")]),
    (["descend"], [("--poly", "poly"), ("--point", "point"), ("--d", "d")]),
    (["pencil-check"], [("--poly", "poly"), ("--alpha", "alpha"),
                        ("--d", "d")]),
    (["census"], [("--p", "p"), ("--n", "n"), ("--rep", "rep3"),
                  ("--poly", "poly")]),
    (["local-count"], [("--rep", "rep"), ("--poly", "poly"), ("--p", "p")]),
    (["real-count"], [("--rep", "rep"), ("--poly", "poly")]),
    (["lattice-verify"], [("--rep", "rep"), ("--poly", "poly"),
                          ("--alpha", "alpha"), ("--ideal", "ideal")]),
    (["bqf", "reduce"], [("--form", "form")]),
    (["bqf", "classgroup"], [("--d", "D")]),
    (["bqf", "census"], [("--d", "D"), ("--bound", "bound")]),
    (["stab-info"], [("--rep", "rep3"), ("--poly", "poly"),
                     ("--label", "label"), ("--n", "n")]),
]


def fuzz_corpus(seed, count):
    """count orbit argv lists, reproducible per seed: the subcommands in
    turn, each flag dropped with probability 0.05 and given a malformed
    value with probability 0.1, now and then a stray word, and --json
    half the time. A census at n = 2 runs at p = 3, where it is
    admitted."""
    rng = rng_for("cli-fuzz:%d" % seed)
    out = []
    for i in range(count):
        words, flags = _FUZZ_GRAMMAR[i % len(_FUZZ_GRAMMAR)]
        argv = list(words)
        for flag, kind in flags:
            if rng.random() < 0.05:
                continue
            valid, malformed = _FUZZ_VALUES[kind]
            argv += [flag, rng.choice(malformed if rng.random() < 0.1
                                      else valid)]
        if words == ["census"] and dict(zip(argv[1::2],
                                            argv[2::2])).get("--n") == "2":
            argv += ["--p", "3"]  # argparse keeps the last --p
        if rng.random() < 0.03:
            argv.insert(rng.randrange(len(argv) + 1),
                        rng.choice(["--bogus", "extra", "--p", "-"]))
        if rng.random() < 0.5:
            argv.append("--json")
        out.append(argv)
    return out


def test_fuzz_corpus_exits_0_1_or_2(capsys):
    # every invocation ends in an exit code of the contract, prints no
    # traceback and raises nothing; every subcommand but classify (which
    # has no domain failure) reaches all three codes
    codes = {}
    for seed in (1, 2, 3):
        for argv in fuzz_corpus(seed, 140):
            code = run(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in capsys.readouterr().err, argv
            codes.setdefault(" ".join(argv[:2]) if argv[0] == "bqf"
                             else argv[0], set()).add(code)
    assert len(codes) >= 14 and all(
        codes[" ".join(words)] == {0, 1, 2} for words, _ in _FUZZ_GRAMMAR
        if words != ["classify"])
