"""In-process tracing of the package's public functions, from outside it.

install() wraps the public functions of each module and rebinds every
namespace inside the package that holds a reference to one (a
`from .x import f` copy included), so calls made through module globals
are seen. Each wrapped call records a span (name, start, end, parent span,
session id) plus facts read from its return value; spans stay in memory
until the caller writes them out. fock_ops constructions take microseconds
and are counted, not timed.
"""

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
import functools
import inspect
import itertools
import sys
import threading
import time

# module -> span-name prefix; the layer of a span is its module.
PREFIXES = {
    "cli": "cli",
    "inequality": "inequality",
    "quantum_model": "model",
    "lhs_certification": "lhs",
    "analysis": "analysis",
}
LAYERS = {prefix: module for module, prefix in PREFIXES.items()}
RENAMES = {
    "build_probability_inequality": "build",
    "lhs_feasible": "feasible",
    "optimize_phases": "optimize",
    "monte_carlo": "mc",
    "curve_fit": "gauss_fit",
    "oracle_probabilities": "oracle",
    "compute_assemblage": "assemblage",
    "phase_sweep": "sweep",
    "joint_probabilities": "joint",
}
FOREIGN = {"analysis": ("curve_fit",)}      # third-party calls worth a span
COUNTED = {"fock_ops": ("projector_full", "projector_qubit",
                        "coherent_amplitudes")}


def _facts(name, result):
    """Counts carried by a traced call's return value."""
    if name == "lhs.feasible":
        return {"iterations": result.iterations, "verdict": result.verdict}
    if name == "lhs.optimize":
        return {"restarts": len(result.restarts)}
    if name == "lhs.nelder_mead":
        return {"evals": int(result[2])}
    if name == "inequality.build":
        return {"n_max_used": result.n_max_used}
    if name == "analysis.mc":
        return {"runs": result.runs, "redraws": result.redraws,
                "zero_total_redraws": result.zero_total_redraws}
    return {}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    session: str
    facts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, session):
        self.session = session
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span hangs under the span that is
            # open in the main thread, which is waiting on the pool.
            top = stack or self._main_stack
            span = Span(next(self._ids), name, 0.0, 0.0,
                        top[-1] if top else 0, self.session)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.facts = {"error": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            span.facts = _facts(name, result)
            return result
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _package_modules(package):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package
                                    or name.startswith(package + "."))]


def install(tracer, package="steering_lab"):
    """Wrap the package's public functions; returns an undo callable."""
    wrappers = {}
    for module in _package_modules(package):
        short = module.__name__.rpartition(".")[2]
        if short in PREFIXES:
            prefix = PREFIXES[short]
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and not n.startswith("_")
                     and obj.__module__ == module.__name__]
            names += FOREIGN.get(short, ())
            for n in names:
                fn = getattr(module, n)
                label = f"{prefix}.{RENAMES.get(n, n.removeprefix('cmd_'))}"
                wrappers[id(fn)] = (fn, tracer.timed(label, fn),
                                    module if n in FOREIGN.get(short, ())
                                    else None)
        for n in COUNTED.get(short, ()):
            fn = getattr(module, n)
            wrappers[id(fn)] = (fn, tracer.counted("fock.calls", fn), None)
    patched = []
    for module in _package_modules(package):
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry and entry[0] is obj and entry[2] in (None, module):
                setattr(module, attr, entry[1])
                patched.append((module, attr, obj))

    def undo():
        for module, attr, obj in patched:
            setattr(module, attr, obj)
    return undo


def self_times(spans):
    """Span id -> duration minus the union of its direct children."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _has_ancestor(span, name, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(tracer):
    """Per-layer numbers of one traced replay."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    facts = defaultdict(lambda: defaultdict(int))
    layer_self = dict.fromkeys(LAYERS.values(), 0.0)
    for s in spans:
        self_s[s.name] += own[s.id]
        wall_s[s.name] += s.end - s.start
        layer_self[LAYERS[s.name.partition(".")[0]]] += own[s.id]
        for k, v in s.facts.items():
            if isinstance(v, int):
                facts[s.name][k] += v
    feasible = [s for s in spans if s.name == "lhs.feasible"]
    iterations = facts["lhs.feasible"]["iterations"]
    wasted = sum(s.facts.get("iterations", 0) for s in feasible
                 if s.facts.get("verdict") != "feasible")
    restarts = facts["lhs.optimize"]["restarts"]
    runs = facts["analysis.mc"]["runs"]
    builds = [s for s in spans if s.name == "inequality.build"]
    m = {
        "lhs.feasible.calls": calls["lhs.feasible"],
        "lhs.feasible.iterations": iterations,
        "lhs.feasible.us_per_iter": (1e6 * self_s["lhs.feasible"] / iterations
                                     if iterations else 0.0),
        "lhs.feasible.self_s": self_s["lhs.feasible"],
        "lhs.feasible.indeterminate": sum(
            1 for s in feasible if s.facts.get("verdict") == "indeterminate"),
        "lhs.feasible.wasted_share": wasted / iterations if iterations else 0.0,
        "lhs.critical_eta.calls": calls["lhs.critical_eta"],
        "lhs.critical_eta.probes": sum(
            1 for s in feasible if _has_ancestor(s, "lhs.critical_eta", by_id)),
        "lhs.critical_eta.self_s": self_s["lhs.critical_eta"],
        "lhs.optimize.restart_s": (wall_s["lhs.optimize"] / restarts
                                   if restarts else 0.0),
        "lhs.nelder_mead.evals": facts["lhs.nelder_mead"]["evals"],
        "inequality.build.calls": calls["inequality.build"],
        "inequality.build.self_s": self_s["inequality.build"],
        "inequality.qubit_bound.calls": calls["inequality.qubit_bound"],
        "inequality.qubit_bound.self_s": self_s["inequality.qubit_bound"],
        "inequality.n_max_used": max(
            (s.facts.get("n_max_used", 0) for s in builds), default=0),
        "analysis.mc.runs_per_s": (runs / wall_s["analysis.mc"]
                                   if runs else 0.0),
        "analysis.mc.self_s": self_s["analysis.mc"],
        "analysis.mc.redraws": facts["analysis.mc"]["redraws"],
        "analysis.mc.zero_total_redraws":
            facts["analysis.mc"]["zero_total_redraws"],
        "analysis.mc.grid_builds": sum(
            1 for s in builds if _has_ancestor(s, "analysis.mc", by_id)),
        "analysis.gauss_fit.self_s": self_s["analysis.gauss_fit"],
        "analysis.fit_cosine.self_s": self_s["analysis.fit_cosine"],
        "analysis.load_counts.self_s": self_s["analysis.load_counts"],
        "model.oracle.self_s": self_s["model.oracle"],
        "model.assemblage.calls": calls["model.assemblage"],
        "model.sweep.self_s": self_s["model.sweep"],
        "model.joint.self_s": self_s["model.joint"],
        "fock.calls": tracer.counts["fock.calls"],
    }
    for module, seconds in layer_self.items():
        m[f"layer.{module}.self_s"] = seconds
    return m


def span_records(tracer):
    return [asdict(s) for s in sorted(tracer.spans, key=lambda s: s.start)]
