"""Command-line front end.

One subcommand per operation family: construct, classify, kernel,
same-orbit, descend, pencil-check, census, local-count, real-count,
lattice-verify, bqf (reduce | classgroup | census), stab-info.

Exit codes: 0 on success, 1 on a domain failure (bad polynomial, bad
prime, obstructed class, ...), 2 on a usage failure (unparsable input,
unknown flags).

Each handler computes (inputs, result, checks) and prints nothing; one
function, _emit, prints every answer.  With --json it prints exactly one
object {"schema": "1", "command": ..., "inputs": ..., "result": ...,
"checks": ...} with a fixed key order and rationals rendered as "p/q"
strings, so identical invocations produce identical bytes.  Without it,
it prints the same rendered fields of result and then checks, one
"key: value" line each, a list of rows one row per line.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from math import floor

from .bqf import BQForm, bqf_class_group, bqf_orbit_census, bqf_reduce
from .descent import (INFINITY, HyperCurve, descent_class,
                      pencil_discriminant_check)
from .errors import (BudgetExceeded, DomainError, NotOperatorRep, NotSplit,
                     ParseError, UsageError)
from .etale import EtaleElement
from .lattices import IdealPair, ideal_from_gens, unit_ideal, verify_pair
from .matrix import Mat, interpolate
from .orbits import (ADJOINT, STANDARD, SYM2, adjoint_op, classify_vector,
                     construct_representative, count_factors_fp,
                     in_kernel_gamma, orbit_count_local, orbit_count_real,
                     representative_from_alpha, same_orbit, standard_space,
                     stabilizer_info, _validate_charpoly)
from .poly import Poly, _sign_at, integral_model, isolate_real_roots

# the largest exponent parse_poly accepts: terms become dense coefficient
# lists, and construct already takes 3 s at degree 81 and 36 s at 161
EXPONENT_BUDGET = 100
# the longest integer literal accepted: int() refuses longer digit
# strings by default (sys.int_info.default_max_str_digits)
MAX_DIGITS = 4300


# ---------------------------------------------------------------------------
# input parsing


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def fail(self, msg):
        raise ParseError("%s at position %d in %r"
                         % (msg, self.i, self.text))

    def at_digit(self):
        # ASCII only: str.isdigit also admits digits int() refuses
        return "0" <= self.peek() <= "9"

    def take_uint(self):
        start = self.i
        while self.at_digit():
            self.i += 1
        if self.i == start:
            self.fail("expected an integer")
        if self.i - start > MAX_DIGITS:
            self.fail("integer of more than %d digits" % MAX_DIGITS)
        return int(self.text[start:self.i])

    def take_rational(self):
        num = self.take_uint()
        if self.peek() == "/":
            self.i += 1
            den = self.take_uint()
            if den == 0:
                self.fail("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def take_word(self):
        start = self.i
        while self.peek().isalpha():
            self.i += 1
        return self.text[start:self.i]


def _parse_coeff_list(text):
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("expected a bracketed list in %r" % text)
    return [parse_fraction(part) for part in s[1:-1].split(",")]


def parse_poly(text, var="x"):
    """Polynomial from "c*x^k + ..." terms or an ascending "[c0,c1,...]"
    coefficient list.  Raises ParseError with the offending position."""
    sc = _Scanner(text)
    sc.skip_ws()
    if not sc.peek():
        sc.fail("empty polynomial")
    if sc.peek() == "[":
        return Poly(_parse_coeff_list(text))
    terms = {}
    first = True
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            break
        sign = 1
        if ch in "+-":
            sign = -1 if ch == "-" else 1
            sc.i += 1
            sc.skip_ws()
        elif not first:
            sc.fail("expected '+' or '-'")
        coeff = Fraction(1)
        have_coeff = False
        if sc.at_digit():
            coeff = sc.take_rational()
            have_coeff = True
            sc.skip_ws()
            if sc.peek() == "*":
                sc.i += 1
                sc.skip_ws()
        exp = 0
        if sc.peek().isalpha():
            word = sc.take_word()
            if word != var:
                sc.fail("unknown variable %r" % word)
            exp = 1
            sc.skip_ws()
            if sc.peek() == "^":
                sc.i += 1
                sc.skip_ws()
                if not sc.at_digit():
                    sc.fail("expected an integer exponent")
                exp = sc.take_uint()
                if exp > EXPONENT_BUDGET:
                    raise BudgetExceeded(
                        "exponent %d passes EXPONENT_BUDGET = %d"
                        % (exp, EXPONENT_BUDGET))
        elif not have_coeff:
            sc.fail("expected a term")
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        first = False
    if not terms:
        sc.fail("empty polynomial")
    top = max(terms)
    return Poly([terms.get(k, Fraction(0)) for k in range(top + 1)])


def parse_fraction(text):
    sc = _Scanner(text)
    sc.skip_ws()
    sign = 1
    if sc.peek() == "-":
        sign = -1
        sc.i += 1
        sc.skip_ws()
    if not sc.at_digit():
        sc.fail("expected a rational number")
    val = sc.take_rational()
    sc.skip_ws()
    if sc.peek():
        sc.fail("trailing input")
    return sign * val


def _rational_roots(f):
    """All rational roots of a separable monic polynomial with rational
    coefficients.

    With c the denominator of f, F(x) = c^d f(x/c) is monic and
    integral, so its rational roots are integers. Each isolating interval
    (lo, hi] of F holds one simple root, so F changes sign there: bisection
    by the sign of F alone, one integer Horner per step, halves it below
    width 1, and k = floor(hi) is then the one integer it can hold; k/c
    is a root of f when F(k) = 0.
    """
    c = f.den
    F = integral_model(f)
    roots = []
    for lo, hi in isolate_real_roots(F):
        s = _sign_at(F.num, hi)  # 0 once hi is the root
        for _ in range(int(hi - lo).bit_length()):
            mid = (lo + hi) / 2
            m = _sign_at(F.num, mid)
            if s and m in (0, s):
                hi, s = mid, m
            else:
                lo = mid
        k = floor(hi)
        if k > lo and F(k) == 0:
            roots.append(Fraction(k, c))
    return roots


def parse_alpha(text, alg):
    """An algebra element from a rational, a polynomial in b (or beta), a
    bracketed coordinate list, or "crt:v1,v2,..." listing the value at
    each rational root (the modulus must then split over Q)."""
    s = text.strip()
    if s.startswith("crt:"):
        vals = [parse_fraction(part) for part in s[4:].split(",")]
        roots = _rational_roots(alg.f)
        if len(roots) != alg.deg:
            raise NotSplit("component values need a modulus that splits"
                           " over Q; found %d rational roots of degree %d"
                           % (len(roots), alg.deg))
        if len(vals) != alg.deg:
            raise ParseError("expected %d component values, got %d"
                             % (alg.deg, len(vals)))
        return alg.from_poly(interpolate(zip(sorted(roots), vals)))
    if s.startswith("["):
        return alg.element(_parse_coeff_list(s))
    return alg.from_poly(parse_poly(s.replace("beta", "b"), var="b"))


def _parse_vector(text):
    return tuple(parse_fraction(part) for part in text.split(","))


def _parse_point(text):
    s = text.strip().lower()
    if s in ("inf", "infinity", "o"):
        return INFINITY
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("expected 'x,y' or 'inf', got %r" % text)
    return (parse_fraction(parts[0]), parse_fraction(parts[1]))


# ---------------------------------------------------------------------------
# output rendering


def _render(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Poly):
        return x.pretty()
    if isinstance(x, EtaleElement):
        return x.lift().pretty("b")
    if isinstance(x, Mat):
        return [[str(v) for v in row] for row in x.rows]
    if isinstance(x, dict):
        return {str(k): _render(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_render(v) for v in x]
    return str(x)


def _emit(args, inputs, result, checks):
    """Print one answer, in either view, from the same rendered fields.

    --json prints the one object of the schema.  The text view prints a
    "key: value" line per key of result, then of checks: a string as it
    is, anything else as compact JSON, and a list of rows as "key:" and
    one indented JSON line per row."""
    result, checks = _render(result), _render(checks)
    if args.json:
        print(json.dumps({"schema": "1", "command": args.command,
                          "inputs": _render(inputs), "result": result,
                          "checks": checks}))
        return 0
    compact = functools.partial(json.dumps, separators=(",", ":"))
    for key, value in [*result.items(), *checks.items()]:
        if isinstance(value, list) and value and all(
                isinstance(row, (list, dict)) for row in value):
            print(key + ":")
            for row in value:
                print("  " + compact(row))
        else:
            print("%s: %s" % (key, value if isinstance(value, str)
                              else compact(value)))
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, result, checks) for _emit.
# --alpha is read in the algebra _validate_charpoly returns, so f is
# refused for its degree, leading coefficient or parity before any
# resultant is computed


def _cmd_construct(args):
    f = parse_poly(args.poly)
    orep = construct_representative(f, args.rep)
    star = adjoint_op(orep.op, orep.space)
    adj_ok = star == orep.op if args.rep == SYM2 else star == -orep.op
    return ({"rep": args.rep, "poly": f},
            {"n": orep.n, "dim": orep.space.dim, "operator": orep.op},
            {"charpoly_matches": orep.op.charpoly() == f,
             "adjointness": adj_ok})


def _cmd_classify(args):
    w = _parse_vector(args.vector)
    if len(w) % 2 == 0 or len(w) < 3:
        raise ParseError("vector length must be odd and at least 3")
    space = standard_space((len(w) - 1) // 2)
    return {"vector": list(w)}, {"label": classify_vector(w, space)}, {}


def _cmd_kernel(args):
    f = parse_poly(args.poly)
    alpha = parse_alpha(args.alpha, _validate_charpoly(f, args.rep).alg)
    return ({"rep": args.rep, "poly": f, "alpha": alpha},
            {"in_kernel": in_kernel_gamma(f, alpha, args.rep)},
            {"norm": alpha.norm(), "is_unit": alpha.is_unit()})


def _cmd_same_orbit(args):
    f = parse_poly(args.poly)
    alg = _validate_charpoly(f, args.rep).alg
    a1 = parse_alpha(args.alpha, alg)
    a2 = parse_alpha(args.alpha2, alg)
    cmp = same_orbit(representative_from_alpha(f, a1, args.rep),
                     representative_from_alpha(f, a2, args.rep))
    return ({"rep": args.rep, "poly": f, "alpha": a1, "alpha2": a2},
            {"status": cmp.status, "witness": cmp.witness,
             "reason": cmp.certificate}, {})


def _cmd_descend(args):
    f = parse_poly(args.poly)
    d = parse_fraction(args.d)
    curve = HyperCurve(f, d)
    pt = _parse_point(args.point)
    alpha = descent_class(curve, pt)
    return ({"poly": f, "d": d,
             "point": "inf" if pt is INFINITY else list(pt)},
            {"alpha": alpha, "alpha_coords": alpha.c, "norm": alpha.norm()},
            {"in_kernel": in_kernel_gamma(f, alpha, SYM2)})


def _cmd_pencil_check(args):
    f = parse_poly(args.poly)
    alpha = parse_alpha(args.alpha, _validate_charpoly(f, SYM2).alg)
    d = parse_fraction(args.d)
    c, ok = pencil_discriminant_check(f, alpha, d)
    return ({"poly": f, "alpha": alpha, "d": d},
            {"match": ok, "proportionality": c}, {})


def _census_row_payload(row):
    key = list(str(v) for v in row.key) if isinstance(row.key, tuple) \
        else str(row.key)
    return {"key": key, "separable": row.separable,
            "operator_count": row.operator_count,
            "orbit_sizes": list(row.orbit_sizes),
            "stabilizer_orders": list(row.stabilizer_orders),
            "orbit_count": row.orbit_count,
            "complete": row.complete}


def _cmd_census(args):
    # census imports numpy, so only the census command loads it
    from .census import finite_census
    polys = None
    if args.poly:
        polys = [parse_poly(t) for t in args.poly]
    try:
        rep = finite_census(args.p, args.n, args.rep, polys=polys)
    except NotOperatorRep as e:
        raise UsageError("--poly selects operator classes: %s" % e)
    return ({"p": args.p, "n": args.n, "rep": args.rep, "polys": polys},
            {"p": rep.p, "n": rep.n, "rep": rep.rep, "mode": rep.mode,
             "group_order": rep.group_order, "space_size": rep.space_size,
             "rows": [_census_row_payload(r) for r in rep.rows]}, {})


def _cmd_local_count(args):
    f = parse_poly(args.poly)
    return ({"rep": args.rep, "poly": f, "p": args.p},
            {"count": orbit_count_local(f, args.p, args.rep)},
            {"factors_mod_p": count_factors_fp(f, args.p)})


def _cmd_real_count(args):
    f = parse_poly(args.poly)
    total, fibers = orbit_count_real(f, args.rep)
    return ({"rep": args.rep, "poly": f},
            {"count": total,
             "fibers": {str(k): fibers[k] for k in sorted(fibers)}}, {})


def _cmd_lattice_verify(args):
    f = parse_poly(args.poly)
    alg = _validate_charpoly(f, args.rep).alg
    alpha = parse_alpha(args.alpha, alg)
    if args.ideal is not None:
        gens = [parse_alpha(part, alg) for part in args.ideal.split(";")]
        ideal = ideal_from_gens(alg, gens)
    else:
        ideal = unit_ideal(alg)
    v = verify_pair(IdealPair(ideal, alpha, args.rep))
    gram, operator = v.witness or (None, None)
    return ({"rep": args.rep, "poly": f, "alpha": alpha,
             "ideal": args.ideal},
            {"valid": v.status == "true", "reason": v.certificate,
             "gram": gram, "operator": operator}, {})


def _parse_form(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("expected 'a,b,c', got %r" % text)
    vals = []
    for part in parts:
        v = parse_fraction(part)
        if v.denominator != 1:
            raise ParseError("form coefficients must be integers")
        vals.append(v.numerator)
    return BQForm(*vals)


def _cmd_bqf_reduce(args):
    F = _parse_form(args.form)
    out = bqf_reduce(F)
    return ({"form": F.as_tuple()},
            {"form": out.as_tuple(), "disc": out.disc,
             "content": out.content},
            {"disc_preserved": out.disc == F.disc,
             "content_preserved": out.content == F.content})


def _cmd_bqf_classgroup(args):
    g = bqf_class_group(args.d)
    return ({"d": args.d},
            {"d": g.d, "h": g.h, "forms": [F.as_tuple() for F in g.forms],
             "table": g.table}, {})


def _cmd_bqf_census(args):
    rep = bqf_orbit_census(args.d, args.bound)
    return ({"d": args.d, "bound": args.bound},
            {"d": rep.d, "bound": rep.bound, "orbit_count": rep.orbit_count,
             "class_number": rep.class_number, "agreement": rep.agreement,
             "witnesses": rep.witnesses}, {})


def _cmd_stab_info(args):
    if args.rep == STANDARD:
        if args.label is None:
            raise ParseError("standard stabilizers need --label")
        info = stabilizer_info(parse_fraction(args.label), STANDARD,
                               n=args.n)
        inputs = {"rep": args.rep, "label": args.label, "n": args.n}
    else:
        if args.poly is None:
            raise ParseError("operator stabilizers need --poly")
        f = parse_poly(args.poly)
        info = stabilizer_info(f, args.rep)
        inputs = {"rep": args.rep, "poly": f}
    return (inputs, {"kind": info.kind, "order": info.order,
                     "dimension": info.dimension, "detail": info.detail}, {})


# ---------------------------------------------------------------------------
# parser assembly


@contextlib.contextmanager
def _command(sub, name, func, summary, command=None):
    """A subcommand parser running func, for its arguments to be added
    in the with-block; --json comes last, and command (default: name)
    is the name the JSON object reports."""
    sp = sub.add_parser(name, help=summary)
    yield sp
    sp.add_argument("--json", action="store_true",
                    help="print one JSON object instead of text")
    sp.set_defaults(func=func, command=command or name)


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process:
    parse_args leaves it unchanged, and building it costs more than most
    commands."""
    p = argparse.ArgumentParser(
        prog="orbit",
        description="Exact-arithmetic orbit computations for the odd split"
                    " orthogonal group: representatives, classification,"
                    " descent, censuses, and integral structures.")
    sub = p.add_subparsers(dest="cmd", required=True, metavar="command")

    with _command(sub, "construct", _cmd_construct,
                  "distinguished operator with a given charpoly") as sp:
        sp.add_argument("--rep", choices=[SYM2, ADJOINT], required=True)
        sp.add_argument("--poly", required=True,
                        help="monic polynomial, e.g. \"x^3 - 2\" or"
                             " [c0,...]")

    with _command(sub, "classify", _cmd_classify,
                  "orbit label of a vector") as sp:
        sp.add_argument("--vector", required=True, help="comma separated")

    with _command(sub, "kernel", _cmd_kernel,
                  "does a unit class give a rational orbit") as sp:
        sp.add_argument("--rep", choices=[SYM2, ADJOINT], default=SYM2)
        sp.add_argument("--poly", required=True)
        sp.add_argument("--alpha", required=True,
                        help="rational, poly in b, [coords], or crt:v1,...")

    with _command(sub, "same-orbit", _cmd_same_orbit,
                  "compare the orbits of two unit classes") as sp:
        sp.add_argument("--rep", choices=[SYM2, ADJOINT], default=SYM2)
        sp.add_argument("--poly", required=True)
        sp.add_argument("--alpha", required=True)
        sp.add_argument("--alpha2", default="1")

    with _command(sub, "descend", _cmd_descend,
                  "square class of a point on d y^2 = f(x)") as sp:
        sp.add_argument("--poly", required=True)
        sp.add_argument("--point", required=True, help="'x,y' or 'inf'")
        sp.add_argument("--d", default="1", help="twist (default 1)")

    with _command(sub, "pencil-check", _cmd_pencil_check,
                  "pencil discriminant proportionality test") as sp:
        sp.add_argument("--poly", required=True)
        sp.add_argument("--alpha", required=True)
        sp.add_argument("--d", default="1")

    with _command(sub, "census", _cmd_census,
                  "orbit census over a small prime field") as sp:
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--rep", choices=[STANDARD, SYM2, ADJOINT],
                        required=True)
        sp.add_argument("--poly", action="append",
                        help="restrict to this charpoly (repeatable)")

    with _command(sub, "local-count", _cmd_local_count,
                  "orbit count over the p-adics at a good prime") as sp:
        sp.add_argument("--rep", choices=[SYM2, ADJOINT], required=True)
        sp.add_argument("--poly", required=True)
        sp.add_argument("--p", type=int, required=True)

    with _command(sub, "real-count", _cmd_real_count,
                  "orbit count over the reals with fiber table") as sp:
        sp.add_argument("--rep", choices=[SYM2, ADJOINT], required=True)
        sp.add_argument("--poly", required=True)

    with _command(sub, "lattice-verify", _cmd_lattice_verify,
                  "check an (ideal, alpha) pair for integrality") as sp:
        sp.add_argument("--rep", choices=[SYM2, ADJOINT], required=True)
        sp.add_argument("--poly", required=True)
        sp.add_argument("--alpha", required=True)
        sp.add_argument("--ideal", default=None,
                        help="semicolon separated generators (default: 1)")

    sp = sub.add_parser("bqf", help="binary quadratic form tools")
    bsub = sp.add_subparsers(dest="bqfcmd", required=True,
                             metavar="subcommand")
    with _command(bsub, "reduce", _cmd_bqf_reduce, "canonical reduced form",
                  "bqf-reduce") as bp:
        bp.add_argument("--form", required=True, help="a,b,c")
    with _command(bsub, "classgroup", _cmd_bqf_classgroup,
                  "reduced forms and composition table",
                  "bqf-classgroup") as bp:
        bp.add_argument("--d", type=int, required=True)
    with _command(bsub, "census", _cmd_bqf_census,
                  "component count of the generator graph",
                  "bqf-census") as bp:
        bp.add_argument("--d", type=int, required=True)
        bp.add_argument("--bound", type=int, default=50)

    with _command(sub, "stab-info", _cmd_stab_info,
                  "structure of an orbit stabilizer") as sp:
        sp.add_argument("--rep", choices=[STANDARD, SYM2, ADJOINT],
                        required=True)
        sp.add_argument("--poly", default=None)
        sp.add_argument("--label", default=None)
        sp.add_argument("--n", type=int, default=None)

    return p


def run(argv=None):
    """Dispatch one invocation; returns the exit code, never raises."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _emit(args, *args.func(args))
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except DomainError as e:
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 1


def main():
    """run() as a program. A reader that closes stdout early gets exit 1
    and no traceback: fd 1 then points at the null device, so the flush
    at interpreter exit cannot fail again."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
