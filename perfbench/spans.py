"""Per-layer tracing from outside the program.

The layers are orbitforge's modules.  `Tracer.install()` wraps every
public function of each module, and every method of each public class,
in a span recorder, then rebinds the wrapper in every orbitforge module
namespace that holds the original (modules import names directly, so
patching the defining module alone would miss most calls).  A name a
later version deletes is simply not wrapped: its metrics read zero.

A span is (parent, name, start, end), kept in flat arrays in memory.  A
span's self time is its duration minus the time its child spans cover;
nested calls in one thread never overlap, so that is the sum of the
children's durations.
"""

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("cli", "census", "orbits", "etale", "quadform", "lattices",
           "descent", "bqf", "matrix", "poly", "arith")

# special methods left unwrapped: the interpreter calls them implicitly
# (hashing, formatting, attribute access, construction hooks), they are
# tiny, and a span on them adds overhead but no layer information
_SKIP = {"__repr__", "__str__", "__hash__", "__new__", "__init_subclass__",
         "__getattr__", "__getattribute__", "__setattr__", "__del__"}

OP = "op"                # the benchmark's span around each op


class Spans:
    """Flat, append-only span storage."""

    def __init__(self):
        self.names = []
        self.index = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")

    def name_id(self, name):
        i = self.index.get(name)
        if i is None:
            i = self.index[name] = len(self.names)
            self.names.append(name)
        return i

    def __len__(self):
        return len(self.start)

    def open(self, parent, name_id, t):
        sid = len(self.start)
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(t)
        self.end.append(t)
        return sid

    def root_seconds(self):
        """Total duration of the spans that have no parent."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return float(dur[parent < 0].sum())

    def self_times(self):
        """(calls, self seconds) per name, as two dicts."""
        n = len(self)
        if n == 0:
            return {}, {}
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        secs = np.bincount(name, weights=own, minlength=k)
        return ({nm: int(calls[i]) for i, nm in enumerate(self.names)},
                {nm: float(secs[i]) for i, nm in enumerate(self.names)})

    def dump(self, path):
        np.savez(path, names=np.array(self.names, dtype=object),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class Tracer:
    """Records spans while `active`; counters come from per-name hooks."""

    def __init__(self):
        self.spans = Spans()
        self.stack = []
        self.active = False
        self.counters = Counter()
        self._patches = []

    # -- span recording --------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        sid = self.spans.open(parent, self.spans.name_id(name),
                              time.perf_counter())
        self.stack.append(sid)
        return sid

    def finish(self, sid):
        self.spans.end[sid] = time.perf_counter()
        self.stack.pop()

    def inside(self, name):
        """Whether a span of this name is open."""
        i = self.spans.index.get(name)
        return i is not None and any(self.spans.name[s] == i
                                     for s in self.stack)

    def _wrapper(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        namer = NAMERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.begin(namer(args, kwargs) if namer else name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.finish(sid)
                if hook:
                    hook(tracer, args, None, exc)
                raise
            tracer.finish(sid)
            if hook:
                hook(tracer, args, out, None)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installing ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module("orbitforge." + m) for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = (obj, self._wrapper(
                            "%s.%s" % (short, attr), obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP or (attr.startswith("_")
                                 and not attr.startswith("__")):
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrapper(name, raw.__func__))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                new = self._wrapper(name, raw)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "orbitforge" or n.startswith("orbitforge."))]


# ---------------------------------------------------------------------------
# counters read off arguments and results at layer boundaries


def _is_square_hook(tr, args, out, exc):
    if tr.inside("etale.solve_tau_norm"):
        tr.counters["etale.solve_tau_norm.is_square_calls"] += 1
    if out is None:
        return
    tr.counters["etale.is_square." + out.status] += 1
    cert = out.certificate or ""
    for prefix, key in (("constant", "constant"), ("norm", "norm"),
                        ("negative", "real"), ("non-residue", "nonresidue")):
        if cert.startswith(prefix):
            tr.counters["etale.is_square.cert." + key] += 1


def _status_hook(prefix):
    def hook(tr, args, out, exc):
        if out is not None:
            tr.counters["%s.%s" % (prefix, out.status)] += 1
    return hook


def _factorize_hook(tr, args, out, exc):
    if args:
        bits = abs(int(args[0])).bit_length()
        tr.counters["arith.factorize.max_bits"] = max(
            tr.counters["arith.factorize.max_bits"], bits)
    if exc is not None and type(exc).__name__ == "FactorizationTimeout":
        tr.counters["arith.factorize.timeouts"] += 1


def _cli_hook(tr, args, out, exc):
    if isinstance(out, int):
        tr.counters["cli.exit_%d" % out] += 1


def _census_tag(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    rep = args[2] if len(args) > 2 else kwargs.get("rep")
    if n == 1:
        return "census.finite_census.dim3"
    return "census.finite_census.dim%d_%s" % (2 * n + 1, rep)


def _census_hook(tr, args, out, exc):
    if out is None:
        return
    if out.mode == "full":
        tr.counters["census.elements"] += out.space_size
        if out.group_order is not None:
            tr.counters["census.conjugations"] += out.space_size * out.group_order
    else:
        tr.counters["census.elements"] += sum(sum(r.orbit_sizes)
                                              for r in out.rows)


HOOKS = {
    "etale.is_square": _is_square_hook,
    "etale.solve_tau_norm": _status_hook("etale.solve_tau_norm"),
    "orbits.same_orbit": _status_hook("orbits.same_orbit"),
    "arith.factorize": _factorize_hook,
    "cli.run": _cli_hook,
    "census.finite_census": _census_hook,
}
NAMERS = {"census.finite_census": _census_tag}


# ---------------------------------------------------------------------------
# per-layer metrics

# metric names for single functions; each sums the spans listed
SPAN_METRICS = {
    "census.dim3": ["census.finite_census.dim3"],
    "census.dim5_adjoint": ["census.finite_census.dim5_adjoint"],
    "census.dim5_sym2": ["census.finite_census.dim5_sym2"],
    "matrix.charpoly": ["matrix.Mat.charpoly"],
    "matrix.mul": ["matrix.Mat.__mul__", "matrix.Mat.__rmul__"],
    "matrix.inv": ["matrix.Mat.inv"],
    "matrix.det": ["matrix.Mat.det"],
    "matrix.hnf_columns": ["matrix.hnf_columns"],
    "orbits.construct_representative": ["orbits.construct_representative"],
    "orbits.representative_from_alpha": ["orbits.representative_from_alpha"],
    "orbits.recover_alpha": ["orbits.recover_alpha"],
    "quadform.hilbert_symbol": ["quadform.hilbert_symbol"],
    "quadform.invariants": ["quadform.invariants"],
    "quadform.hyperbolic_completion": ["quadform.hyperbolic_completion"],
    "quadform.find_isotropic_vector": ["quadform.find_isotropic_vector"],
    "lattices.verify_pair": ["lattices.verify_pair"],
    "descent.descent_class": ["descent.descent_class"],
    "etale.is_square": ["etale.is_square"],
    "arith.factorize": ["arith.factorize"],
    "poly.fp_factor": ["poly.fp_factor"],
    "poly.isolate_real_roots": ["poly.isolate_real_roots"],
}

COUNTERS = [
    "census.elements", "census.conjugations",
    "orbits.same_orbit.equal", "orbits.same_orbit.distinct",
    "orbits.same_orbit.unknown",
    "cli.exit_0", "cli.exit_1", "cli.exit_2",
    "etale.is_square.true", "etale.is_square.false", "etale.is_square.unknown",
    "etale.is_square.cert.constant", "etale.is_square.cert.norm",
    "etale.is_square.cert.real", "etale.is_square.cert.nonresidue",
    "etale.solve_tau_norm.solved", "etale.solve_tau_norm.obstructed",
    "etale.solve_tau_norm.unknown", "etale.solve_tau_norm.is_square_calls",
    "arith.factorize.timeouts", "arith.factorize.max_bits",
]


def layer_metrics(calls, secs, counters):
    """Every per-layer metric from span totals and counters; absent names
    read zero."""
    out = {}
    for m in MODULES:
        keys = [k for k in calls if k.split(".", 1)[0] == m]
        out["%s.calls" % m] = (sum(calls[k] for k in keys), "count")
        out["%s.self_s" % m] = (sum(secs[k] for k in keys), "s")
    for metric, names in SPAN_METRICS.items():
        out["%s.calls" % metric] = (sum(calls.get(n, 0) for n in names),
                                    "count")
        out["%s.self_s" % metric] = (sum(secs.get(n, 0.0) for n in names),
                                     "s")
    for key in COUNTERS:
        out[key] = (counters.get(key, 0), "bits" if key.endswith("max_bits")
                    else "count")
    census_s = out["census.self_s"][0]
    out["census.elements_per_s"] = (
        counters.get("census.elements", 0) / census_s if census_s else 0.0,
        "1/s")
    sq = out["etale.is_square.calls"][0]
    decided = (counters.get("etale.is_square.true", 0)
               + counters.get("etale.is_square.false", 0))
    out["etale.is_square.decided_ratio"] = (decided / sq if sq else 0.0,
                                            "ratio")
    return out
