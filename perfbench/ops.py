"""Operations, their outcome classes, and the in-process CLI runner.

An Op is one closed-loop request: `call()` does the work through a public
orbitforge entry point and `check(value, exc)` classifies what came back.
Each op ends as one of

    ok        the answer was checked and is right
    expected  an expected domain error (an input built to be rejected)
    unknown   an honest "unknown" verdict
    failed    raised unexpectedly, ran out of a budget on an input not
              built to exhaust one, or gave an answer that failed a check

A failed op whose answer was checked and found wrong is also `wrong`;
one wrong answer makes the whole run incorrect.
"""

import contextlib
import io
import json

OK, EXPECTED, UNKNOWN, FAILED = "ok", "expected", "unknown", "failed"

# exceptions meaning "a search or work budget ran out"
BUDGET_ERRORS = ("FactorizationTimeout", "BudgetExceeded",
                 "IsotropicSearchFailed")


class Outcome:
    __slots__ = ("cls", "detail", "wrong")

    def __init__(self, cls, detail="", wrong=False):
        self.cls = cls
        self.detail = detail
        self.wrong = wrong

    def __repr__(self):
        return "Outcome(%s%s: %s)" % (self.cls, ", wrong" if self.wrong
                                      else "", self.detail)


def ok(detail=""):
    return Outcome(OK, detail)


def unknown(detail=""):
    return Outcome(UNKNOWN, detail)


def wrong(detail):
    return Outcome(FAILED, detail, wrong=True)


def from_exception(exc, expected=()):
    """Class of an op that raised: expected, budget-exhausted or failed."""
    name = type(exc).__name__
    if name in expected:
        return Outcome(EXPECTED, name)
    if name in BUDGET_ERRORS:
        return Outcome(FAILED, "budget: %s" % name)
    return Outcome(FAILED, "raised %s: %s" % (name, exc))


class Op:
    """One request: its cell, its inputs (plain data, for reports and
    determinism tests), the call and the check.  `verdict` marks ops whose
    answer may be "unknown"."""

    __slots__ = ("cell", "inputs", "call", "check", "verdict")

    def __init__(self, cell, inputs, call, check, verdict=False):
        self.cell = cell
        self.inputs = inputs
        self.call = call
        self.check = check
        self.verdict = verdict

    def classify(self, value, exc):
        try:
            return self.check(value, exc)
        except Exception as e:  # a malformed answer is a failed check
            return wrong("check raised %s: %s" % (type(e).__name__, e))


# ---------------------------------------------------------------------------
# the command line, in process


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code = code
        self.out = out
        self.err = err

    def json(self):
        return json.loads(self.out)

    def error_name(self):
        """Exception name from an "error: Name: message" line on stderr."""
        line = self.err.strip().splitlines()[-1] if self.err.strip() else ""
        if line.startswith("error: "):
            return line[7:].split(":", 1)[0]
        return ""


def run_cli(argv):
    """orbitforge.cli.run(argv) with stdout and stderr captured."""
    from orbitforge import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(cell, argv, check_json, verdict=False):
    """A `--json` invocation that must exit 0 and pass `check_json(obj)`."""
    def check(res, exc):
        if exc is not None:
            return from_exception(exc)
        if res.code != 0:
            name = res.error_name()
            if res.code == 1 and name in BUDGET_ERRORS:
                return Outcome(FAILED, "budget: %s" % name)
            return wrong("exit %d: %s" % (res.code, res.err.strip()[-200:]))
        obj = res.json()
        if list(obj) != ["schema", "command", "inputs", "result", "checks"]:
            return wrong("JSON keys %s" % list(obj))
        return check_json(obj)
    return Op(cell, tuple(argv), lambda: run_cli(list(argv) + ["--json"]),
              check, verdict)


def cli_error_op(cell, argv, code, name=None):
    """An invocation built to be rejected with exit `code` (1 or 2)."""
    def check(res, exc):
        if exc is not None:
            return from_exception(exc)
        if res.code != code:
            return wrong("exit %d, expected %d" % (res.code, code))
        if res.out:
            return wrong("a rejected input printed to stdout")
        if name is not None and res.error_name() != name:
            return wrong("error %r, expected %r" % (res.error_name(), name))
        return Outcome(EXPECTED, "exit %d" % code)
    return Op(cell, tuple(argv), lambda: run_cli(list(argv) + ["--json"]),
              check)
