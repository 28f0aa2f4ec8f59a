"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: ``Tracer.install`` replaces the
public functions of each layer module with timing wrappers, at every place
where code outside that layer (or the benchmark, through the layer's own
module) calls them.  Calls that stay inside one layer are not spans; their
time is the layer's self time.  Spans stay in memory until ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import statistics
import sys
import time

LAYERS = ("geometry", "spectral", "sobolev", "operators", "solver", "diagnostics")

# span record fields
NAME, START, END, PARENT, PHASE, OP, K, RSS_MB = range(8)


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "screenwave" and parts[1] in LAYERS:
        return parts[1]
    return None


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: name, start, end, parent span, phase, op id, k, RSS.

    ``phase`` and ``op`` label what the benchmark is doing (set-up, warm-up,
    timed op i, its checks); ``k`` is the wavenumber of the current input.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.op = -1
        self.k = 0.0
        self.bookkeeping_s = 0.0          # time spent inside the wrappers
        self.grams: list[list] = []       # [phase, read?] per Gram built
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a = clock()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.phase, self.op, self.k, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            b = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                c = clock()
                stack.pop()
                rec[START], rec[END] = b, c
                rec[RSS_MB] = _max_rss_mb()
                self.bookkeeping_s += (b - a) + (clock() - c)

        return traced

    def install(self) -> None:
        """Wrap every public function of the imported layer modules."""
        modules = [(n, m) for n, m in sys.modules.items()
                   if n == "screenwave" or n.startswith("screenwave.")]
        public = {}
        for mod_name, mod in modules:
            layer = layer_of(mod_name)
            for attr, obj in vars(mod).items():
                if (layer and not attr.startswith("_") and inspect.isfunction(obj)
                        and layer_of(obj.__module__) == layer):
                    public[id(obj)] = (obj, f"{layer}.{obj.__name__}")
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in public.items()}
        for mod_name, mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) not in public or attr.startswith("_"):
                    continue
                own = public[id(obj)][1].split(".")[0]
                if layer_of(mod_name) != own or mod_name == f"screenwave.{own}":
                    setattr(mod, attr, wrappers[id(obj)])

    def watch_grams(self, gram_cls) -> None:
        """Count Gram matrices built and those whose entries anybody read."""
        grams = self.grams

        def get_entries(obj):
            obj.__dict__["_trace_rec"][1] = True
            return obj.__dict__["entries"]

        def set_entries(obj, value):
            if "_trace_rec" not in obj.__dict__:
                rec = [self.phase, False]
                grams.append(rec)
                obj.__dict__["_trace_rec"] = rec
            obj.__dict__["entries"] = value

        gram_cls.entries = property(get_entries, set_entries)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its child spans."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "phase", "op", "k", "rss_mb")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


OPERATOR_ASSEMBLY = ("operators.assemble_single_layer", "operators.assemble_hypersingular")
MAIN_PHASES = ("setup", "warmup", "op")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict[str, float]:
    """Per-layer figures of a traced run; a layer the workload never calls reads 0.

    Times are medians over calls made in set-up, warm-up and timed ops, except
    ``spectral.plan_s`` and ``spectral.assemble_warm_s``, which come from the
    checks after each op.  Self times and coverage are per timed op.
    """
    spans, own = tracer.spans, tracer.self_times()

    def durations(*names, phases=MAIN_PHASES):
        return [s[END] - s[START] for s in spans if s[NAME] in names and s[PHASE] in phases]

    # first op-symbol assembly for each k, and its repeat from the checks
    cold, warm = {}, {}
    for s in spans:
        if s[NAME] != "spectral.assemble":
            continue
        if s[PHASE] in MAIN_PHASES and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] in OPERATOR_ASSEMBLY:
            cold.setdefault(s[K], s[END] - s[START])
        elif s[PHASE] == "check" and s[PARENT] < 0:
            warm.setdefault(s[K], s[END] - s[START])
    paired = [k for k in cold if k in warm]

    n_ops = len(records)
    layer_self = {layer: [0.0] * n_ops for layer in LAYERS}
    covered = 0.0
    for s, t in zip(spans, own):
        if s[PHASE] == "op":
            layer_self[s[NAME].split(".")[0]][s[OP]] += t
            if s[PARENT] < 0:
                covered += s[END] - s[START]

    built = [g for g in tracer.grams if g[0] in MAIN_PHASES]
    n_read = sum(1 for g in built if g[1])

    def info(key):
        return [r["info"][key] for r in records if key in r["info"]]

    out = {
        "geometry.build_mesh_s": _median(durations("geometry.build_mesh")),
        "spectral.plan_s": _median(durations("spectral.build_quadrature", phases=("check",))),
        "spectral.assemble_s": _median(cold[k] for k in paired),
        "spectral.assemble_warm_s": _median(warm[k] for k in paired),
        "spectral.tails_cold_s": _median(cold[k] - warm[k] for k in paired),
        "spectral.quad_nodes": _median(info("quad_nodes")),
        "spectral.xi_max": _median(info("xi_max")),
        "spectral.tail_bound": _median(info("tail_bound")),
        "spectral.rss_high_water_mb": max(
            [s[RSS_MB] for s in spans if s[NAME].startswith("spectral.")
             and s[PHASE] in MAIN_PHASES], default=0.0),
        "sobolev.gram_s": _median(durations("sobolev.gram")),
        "sobolev.grams_built": len(built),
        "sobolev.grams_read": n_read,
        "sobolev.gram_useful_ratio": n_read / len(built) if built else 0.0,
        "sobolev.rhs_s": _median(durations("sobolev.rhs_functional")),
        "solver.solve_s": _median(durations("solver.solve_problem_S", "solver.solve_problem_T")),
        "solver.lu_s": _median(t for s, t in zip(spans, own)
                               if s[NAME] in ("solver.solve_problem_S", "solver.solve_problem_T")
                               and s[PHASE] in MAIN_PHASES),
        "solver.far_field_s": _median(durations("solver.far_field")),
        "solver.eval_field_s": _median(durations("solver.eval_field")),
        "solver.algebraic_residual": _median(info("residual")),
        "operators.assemble_s": _median(durations(*OPERATOR_ASSEMBLY)),
        "diagnostics.coercivity_scan_s": _median(durations("diagnostics.coercivity_scan_S")),
        "diagnostics.continuity_s": _median(durations("diagnostics.continuity_estimate")),
        "diagnostics.min_quotient": min(info("min_quotient"), default=0.0),
        "trace.coverage": covered / sum(r["op_s"] for r in records),
        "trace.overhead_s": _median(r["trace_overhead_s"] for r in records),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _median(layer_self[layer])
    return out
