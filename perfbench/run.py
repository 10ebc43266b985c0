"""orbitforge benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  A run is a closed loop with one client: the next op starts when
the previous one returns.  Ops come in rounds (see workloads.py); rounds
repeat until starting another would pass --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round
twice, untraced then traced, then the workload's tail ops (inputs built to
show a known defect) traced, and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  The exit
code is 0 when every checked answer was right, 1 when one was wrong, and
2 when the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)

from ops import EXPECTED, FAILED, OK, UNKNOWN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def import_program():
    """Import orbitforge from ./src of this checkout, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import orbitforge.cli  # noqa: F401  (imports every layer)
    except ImportError as e:
        sys.stderr.write("perfbench: cannot import orbitforge from %s: %s\n"
                         % (SRC, e))
        sys.exit(2)
    import orbitforge
    where = os.path.dirname(os.path.abspath(orbitforge.__file__))
    if where != os.path.join(SRC, "orbitforge"):
        sys.stderr.write("perfbench: orbitforge came from %s, not %s\n"
                         % (where, SRC))
        sys.exit(2)


def generate(workload, seed, trace):
    """The function making rounds, the first round's ops and, in a traced
    run, the tail ops."""
    make_round, make_tail = WORKLOADS[workload]
    first = make_round(seed, 0)
    tail = make_tail(seed) if make_tail and trace else []
    return make_round, first, tail


def measure_setup(workload, seed):
    """Median wall time of fresh processes that import the program and
    build the first round's inputs, i.e. process start to first op."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", str(seed),
                               "--setup-only"], cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(2)
    return statistics.median(times)


class Tally:
    """Latencies and outcome classes of one pass over a set of ops."""

    def __init__(self):
        self.latency = []          # seconds; None for a failed op
        self.by_cell = {}          # cell -> seconds spent, failed or not
        self.classes = {OK: 0, EXPECTED: 0, UNKNOWN: 0, FAILED: 0}
        self.verdict_ops = 0
        self.verdict_unknown = 0
        self.wrong = []
        self.failures = []
        self.digest = hashlib.sha256()

    def add(self, op, seconds, outcome, value):
        self.classes[outcome.cls] += 1
        self.latency.append(None if outcome.cls == FAILED else seconds)
        self.by_cell.setdefault(op.cell, []).append(seconds)
        if op.verdict:
            self.verdict_ops += 1
            self.verdict_unknown += outcome.cls == UNKNOWN
        if outcome.cls == FAILED:
            self.failures.append("%s: %s" % (op.cell, outcome.detail))
        if outcome.wrong:
            self.wrong.append("%s: %s" % (op.cell, outcome.detail))
        out = getattr(value, "out", None)
        if out is not None:
            self.digest.update(out.encode())

    def merge(self, other):
        self.latency += other.latency
        for cell, secs in other.by_cell.items():
            self.by_cell.setdefault(cell, []).extend(secs)
        for k in self.classes:
            self.classes[k] += other.classes[k]
        self.verdict_ops += other.verdict_ops
        self.verdict_unknown += other.verdict_unknown
        self.wrong += other.wrong
        self.failures += other.failures

    @property
    def attempted(self):
        return len(self.latency)


def execute(ops, tracer=None):
    """Run ops in a closed loop; returns (Tally, seconds spent in calls)."""
    from spans import OP
    tally = Tally()
    busy = 0.0
    for op in ops:
        if tracer is not None:
            tracer.active = True
            sid = tracer.begin(OP)
        t0 = time.perf_counter()
        try:
            value, exc = op.call(), None
        except Exception as e:  # classified below, never fatal
            value, exc = None, e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.finish(sid)
            tracer.active = False
        busy += dt
        tally.add(op, dt, op.classify(value, exc), value)
    return tally, busy


def percentile(latencies, q, cap):
    """The q-quantile (nearest rank) with failed ops (None) counted as
    missing every limit; a rank that lands on one reads `cap`."""
    vals = sorted(math.inf if v is None else v for v in latencies)
    v = vals[max(0, math.ceil(q * len(vals)) - 1)]
    return cap if math.isinf(v) else v


def round_time(by_cell, per_round):
    """Time to solve one round: each cell's median op time in the run,
    times the cell's ops per round.  Medians keep one slow op (a long
    factorization, say) or a burst of load on the machine from deciding
    the figure."""
    return sum(n * statistics.median(by_cell[cell])
               for cell, n in per_round.items())


def run(workload, seed, seconds, trace):
    """One benchmark run.  Returns (result dict, report lines)."""
    import_program()
    make_round, ops, tail = generate(workload, seed, trace)
    per_round = {}
    for op in ops:
        per_round[op.cell] = per_round.get(op.cell, 0) + 1
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        rounds = Tally()            # untraced passes over the rounds
        total = Tally()
        traced_secs, untraced_secs = 0.0, 0.0
        mismatched = 0
        start = time.perf_counter()
        index = 0
        while True:
            tally, busy = execute(ops)
            rounds.merge(tally)
            total.merge(tally)
            if tracer is not None:
                ttally, tbusy = execute(ops, tracer)
                untraced_secs += busy
                traced_secs += tbusy
                total.merge(ttally)
                if ttally.digest.digest() != tally.digest.digest():
                    mismatched += 1
            total.digest.update(tally.digest.digest())
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / index > seconds:
                break
            ops = make_round(seed, index)
        tail_tally, tail_busy = execute(tail, tracer)
        total.merge(tail_tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    timed = sum(sum(v) for v in rounds.by_cell.values()) + tail_busy

    lines = ["workload %s, seed %d: %d round(s) of %d ops, %d tail op(s)"
             % (workload, seed, index, sum(per_round.values()), len(tail))]
    c = total.classes
    lines.append("ops attempted %d: ok %d, expected-error %d, unknown %d, "
                 "failed %d" % (total.attempted, c[OK], c[EXPECTED],
                                c[UNKNOWN], c[FAILED]))
    failed_ratio = c[FAILED] / total.attempted
    unknown_ratio = (total.verdict_unknown / total.verdict_ops
                     if total.verdict_ops else 0.0)
    lines.append("failed_ratio %.4f (base: %d ops attempted)"
                 % (failed_ratio, total.attempted))
    lines.append("unknown_ratio %.4f (base: %d verdict-bearing ops)"
                 % (unknown_ratio, total.verdict_ops))
    for f in total.failures[:20]:
        lines.append("  failed: " + f)
    p90 = percentile(total.latency, 0.9, timed) * 1e3
    n_lat = total.attempted
    if n_lat >= 100:
        lines.append("op_p90_ms %.3f ms (%d samples)" % (p90, n_lat))
    else:
        lines.append("op_p90_ms not reported: %d ops < 100" % n_lat)
    if workload == "cli-mix":
        lines.append("stdout digest %s" % total.digest.hexdigest())
    if mismatched:
        total.wrong.append("tracing changed the CLI output in %d round(s)"
                           % mismatched)
    for w in total.wrong:
        lines.append("  WRONG: " + w)

    if trace:
        from spans import MODULES, layer_metrics
        calls, secs = tracer.spans.self_times()
        metrics = layer_metrics(calls, secs, tracer.counters)
        overhead = traced_secs / untraced_secs - 1 if untraced_secs else 0.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        layer_s = sum(metrics["%s.self_s" % m][0] for m in MODULES)
        sp = tracer.spans
        op_s = sp.root_seconds()
        metrics["trace.attributed_ratio"] = (layer_s / op_s if op_s else 0.0,
                                             "ratio")
        metrics["run.failed_ratio"] = (failed_ratio, "ratio")
        metrics["run.unknown_ratio"] = (unknown_ratio, "ratio")
        metrics["run.op_p50_ms"] = (percentile(total.latency, 0.5, timed)
                                    * 1e3, "ms")
        metrics["run.op_p90_ms"] = (p90, "ms")
        lines.append("traced %d spans; layers account for %.1f%% of %.3f s "
                     "in traced ops; tracing overhead %+.1f%%"
                     % (len(sp), 100 * metrics["trace.attributed_ratio"][0],
                        op_s, 100 * overhead))
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        sp.dump(os.path.join(out_dir, "spans-%s-%d.npz" % (workload, seed)))
    else:
        lines.append("median op time per cell (ms), slowest first:")
        for cell in sorted(per_round, key=lambda c: -statistics.median(
                rounds.by_cell[c])):
            secs = rounds.by_cell[cell]
            lines.append("  %-44s %10.3f  (%d ops)"
                         % (cell, 1e3 * statistics.median(secs), len(secs)))
        wall = round_time(rounds.by_cell, per_round)
        lines.append("ops_per_s %.4g 1/s (%d ops per round / wall_s)"
                     % (sum(per_round.values()) / wall,
                        sum(per_round.values())))
        metrics = {
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
        }
    samples = {"wall_s": rounds.attempted}
    for name in sorted(metrics):
        value, unit = metrics[name]
        extra = (" (%d samples)" % samples[name]) if name in samples else ""
        lines.append("%-44s %14.6g %s%s" % (name, value, unit, extra))
    result = {"correct": not total.wrong, "attempted": total.attempted,
              "failed": c[FAILED],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("ORBITFORGE_SEED", None)
    if args.setup_only:
        import_program()
        generate(args.workload, args.seed, trace=False)
        return 0
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        lines.append("%-44s %14.6g s (median of %d fresh processes)"
                     % ("setup_s", setup_s, SETUP_REPEATS))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
