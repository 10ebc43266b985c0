"""Tests for the benchmark itself (not for orbitforge).

Run with the repository's suite, or alone:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, seed, index=0):
    make_round, make_tail = workloads.WORKLOADS[workload]
    out = [(op.cell, op.inputs) for op in make_round(seed, index)]
    if make_tail:
        out += [(op.cell, op.inputs) for op in make_tail(seed)]
    return out


def test_generation_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 7) == _inputs(name, 7)
        assert _inputs(name, 7) != _inputs(name, 8)
        assert _inputs(name, 7, 0) != _inputs(name, 7, 1)


def test_rounds_are_stratified():
    for name in workloads.WORKLOADS:
        cells = [sorted(c for c, _ in _inputs(name, s)) for s in (1, 2)]
        assert cells[0] == cells[1]


def test_timeout_is_failed_not_wrong():
    from orbitforge.errors import BudgetExceeded, FactorizationTimeout
    out = ops.from_exception(FactorizationTimeout("factor search budget"))
    assert out.cls == ops.FAILED and not out.wrong
    out = ops.from_exception(BudgetExceeded("x"), expected=("BudgetExceeded",))
    assert out.cls == ops.EXPECTED
    assert ops.from_exception(BudgetExceeded("x")).cls == ops.FAILED
    # the same timeout arriving through the command line as exit 1
    op = ops.cli_op("c", ["kernel"], lambda obj: ops.ok())
    res = ops.CliResult(1, "", "error: FactorizationTimeout: budget\n")
    out = op.classify(res, None)
    assert out.cls == ops.FAILED and not out.wrong
    # any other exit 1 on a valid input is a wrong answer
    res = ops.CliResult(1, "", "error: NotSplit: no\n")
    assert op.classify(res, None).wrong


def test_wrong_verdict_is_wrong():
    f = [-2, 0, 0, 1]
    check = workloads.check_square(f, [4], True)

    class Dec:
        status, witness, certificate = "false", None, "constant 4 ..."
    out = check(Dec(), None)
    assert out.cls == ops.FAILED and out.wrong


def test_self_time_on_synthetic_tree():
    s = spans.Spans()
    root = s.open(-1, s.name_id("op"), 0.0)
    a = s.open(root, s.name_id("etale.is_square"), 1.0)
    b = s.open(a, s.name_id("arith.factorize"), 2.0)
    s.end[b] = 3.0
    s.end[a] = 4.0
    c = s.open(root, s.name_id("etale.is_square"), 5.0)
    s.end[c] = 9.0
    s.end[root] = 10.0
    calls, secs = s.self_times()
    assert calls == {"op": 1, "etale.is_square": 2, "arith.factorize": 1}
    assert secs == {"op": 3.0, "etale.is_square": 6.0, "arith.factorize": 1.0}
    m = spans.layer_metrics(calls, secs, {})
    assert m["etale.self_s"][0] == 6.0 and m["arith.self_s"][0] == 1.0
    # names nobody recorded read zero
    assert m["matrix.hnf_columns.calls"][0] == 0
    assert m["census.elements_per_s"][0] == 0.0


def test_tracer_wraps_every_namespace_and_restores():
    from orbitforge import etale, orbits
    original = etale.is_square
    tr = spans.Tracer()
    tr.install()
    try:
        assert orbits.is_square is etale.is_square is not original
        tr.active = True
        alg = etale.EtaleAlgebra(__import__("orbitforge.poly").poly.Poly(
            [-2, 0, 0, 1]))
        dec = orbits.is_square(alg.const(4))
        tr.active = False
        assert dec.status == "true"
        calls, _ = tr.spans.self_times()
        assert calls["etale.is_square"] == 1
        assert tr.counters["etale.is_square.true"] == 1
    finally:
        tr.uninstall()
    assert etale.is_square is original and orbits.is_square is original


def _run_cells(workload, keep):
    ops_ = [op for op in workloads.WORKLOADS[workload][0](3, 0) if keep(op)]
    assert ops_
    tally, _ = run.execute(ops_)
    assert not tally.wrong, tally.wrong
    assert tally.classes[ops.FAILED] == 0, tally.failures
    return tally


def test_smoke_census_fp():
    t = _run_cells("census-fp", lambda op: op.cell == "census/refusal" or (
        op.inputs[1] == 1 and op.inputs[0] <= 5))
    assert t.classes[ops.EXPECTED] == 1


def test_smoke_square_heights():
    _run_cells("square-heights",
               lambda op: len(op.inputs[0]) <= 6 and "h1000000" not in op.cell)


def test_smoke_cli_mix_traced():
    result, lines = run.run("cli-mix", 3, 0, trace=1)
    assert result["correct"], lines
    assert result["failed"] == 0
    m = result["metrics"]
    for mod in spans.MODULES:
        assert "%s.calls" % mod in m and "%s.self_s" % mod in m
    assert m["cli.calls"]["value"] > 0 and m["cli.exit_2"]["value"] >= 1
    assert 0.5 < m["trace.attributed_ratio"]["value"] <= 1.0


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result, _ = run.run("cli-mix", 4, 0, trace=1)
    assert sorted(m["name"] for m in spec["per_layer"]) == \
        sorted(result["metrics"])
    e2e = sorted(m["name"] for m in spec["end_to_end"])
    assert e2e == sorted(list(run.END_TO_END_UNITS))
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]


def test_cli_mix_same_seed_same_stdout_digest():
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "cli-mix", "--seed", "5", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests += [ln for ln in proc.stdout.splitlines()
                    if ln.startswith("stdout digest")]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert sorted(result["metrics"]) == sorted(run.END_TO_END_UNITS)
    assert len(digests) == 2 and digests[0] == digests[1]
