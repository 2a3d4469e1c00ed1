"""Outside-in tracing of moma's layers, installed from the benchmark.

The tracer replaces each public function listed in LAYERS by a wrapper in
every moma namespace that holds it: the defining module and every module
that imported it by name (`from .x import f`), which is how weighted,
solvers, pareto and cli call each other.  `QuotientModel.lift_reward` is
patched on the class and scipy's `linprog` only where pareto imported it.
Each wrapper appends a span (name, parent, start, end) to an in-memory list;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

import moma
import moma.components

# (metric prefix, module that defines the function, attribute)
LAYERS = [
    ("model.validate_model", "moma.model", "validate_model"),
    ("model.embed_mdp", "moma.model", "embed_mdp"),
    ("model.induced_chain", "moma.model", "induced_chain"),
    ("components.mec_decomposition", "moma.components", "mec_decomposition"),
    ("components.zero_mecs", "moma.components", "zero_mecs"),
    ("components.quotient", "moma.components", "quotient"),
    ("components.lift_reward", None, "lift_reward"),
    ("components.almost_sure_reach", "moma.components", "almost_sure_reach"),
    ("components.decode_quotient_strategy", "moma.components", "decode_quotient_strategy"),
    ("components.sub_ma", "moma.components", "sub_ma"),
    ("solvers.mec_lra", "moma.solvers", "mec_lra"),
    ("solvers.max_total_reward", "moma.solvers", "max_total_reward"),
    ("solvers.evaluate_strategy", "moma.solvers", "evaluate_strategy"),
    ("weighted.normalize_query", "moma.weighted", "normalize_query"),
    ("weighted.validate_assumptions", "moma.weighted", "validate_assumptions"),
    ("weighted.prepare_weighted", "moma.weighted", "prepare_weighted"),
    ("weighted.optimize_weighted", "moma.weighted", "optimize_weighted"),
    ("pareto.answer_query", "moma.pareto", "answer_query"),
    ("pareto.refine", "moma.pareto", "refine"),
    ("pareto.select_weight", "moma.pareto", "select_weight"),
    ("pareto.downward_hull", "moma.pareto", "downward_hull"),
    ("pareto.linprog", "moma.pareto", "linprog"),
    ("modelio.parse_model", "moma.modelio", "parse_model"),
    ("modelio.result_document", "moma.modelio", "result_document"),
    ("modelio.dumps", "moma.modelio", "dumps"),
]

# per-layer metrics besides the three per function: (name, unit, better)
OTHER_METRICS = [
    ("pareto.refinements", "count", "lower"),
    ("pareto.vertices", "count", "lower"),
    ("pareto.facets", "count", "lower"),
    ("pareto.new_point_ratio", "ratio", "higher"),
    ("solvers.mec_lra.bracket_max", "reward", "lower"),
    ("weighted.error_bound_max", "reward", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("code.src_lines", "lines", "lower"),
    ("solve_p50_ms", "ms", "lower"),
    ("solve_p99_ms", "ms", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every metric of a traced run, as listed in BENCHMARK.json."""
    out = []
    for name, _, _ in LAYERS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    return out + OTHER_METRICS


def _patch_sites(module: str | None, attr: str):
    """The function, and every namespace (or the class) that holds it."""
    if module is None:
        cls = moma.components.QuotientModel
        return vars(cls)[attr], [cls]
    original = getattr(sys.modules[module], attr)
    if attr == "linprog":
        return original, [sys.modules[module]]
    return original, [mod for name, mod in sorted(sys.modules.items())
                      if (name == "moma" or name.startswith("moma.")) and mod is not None
                      and getattr(mod, attr, None) is original]


class Patches:
    """Replace functions at their call sites and put them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """Spans of the LAYERS functions plus counters read from return values."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end]
        self._stack: list[int] = []
        self._patches = Patches()
        self.refinements = 0
        self.new_points = 0
        self.vertices = 0
        self.facets = 0
        self.bracket_max = 0.0
        self.error_bound_max = 0.0

    def install(self) -> None:
        for name, module, attr in LAYERS:
            original, owners = _patch_sites(module, attr)
            traced = self._wrap(name, original)
            for owner in owners:
                self._patches.replace(owner, attr, traced)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = {"pareto.answer_query": self._on_query,
                "solvers.mec_lra": self._on_lra,
                "weighted.optimize_weighted": self._on_weighted}.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if hook is not None:
                hook(out)
            return out

        return traced

    def _on_query(self, res) -> None:
        self.refinements += res.iterations
        self.vertices += len(res.vertices or [])
        self.facets += len(res.facets or [])
        seen = set()
        for ap in res.state.points:
            key = np.asarray(ap.point).tobytes()
            if key not in seen:
                seen.add(key)
                self.new_points += 1

    def _on_lra(self, sol) -> None:
        self.bracket_max = max(self.bracket_max, sol.upper - sol.lower)

    def _on_weighted(self, sol) -> None:
        self.error_bound_max = max(self.error_bound_max, sol.error_bound)

    def metrics(self, rounds: int) -> tuple[dict[str, float], float]:
        """Per-round calls, total and self seconds of every layer function
        and the counters read from return values; and the per-round time
        inside top-level spans."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names = [name for name, _, _ in LAYERS]
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        self_s = dict.fromkeys(names, 0.0)
        root = 0.0
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            if parent < 0:
                root += t1 - t0
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.total_s"] = total[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        out["pareto.refinements"] = self.refinements / rounds
        out["pareto.vertices"] = self.vertices / rounds
        out["pareto.facets"] = self.facets / rounds
        out["pareto.new_point_ratio"] = (self.new_points / self.refinements
                                         if self.refinements else 0.0)
        out["solvers.mec_lra.bracket_max"] = self.bracket_max
        out["weighted.error_bound_max"] = self.error_bound_max
        return out, root / rounds

class SolveTimer:
    """Latency of every weighted solve, the one wrapper of untraced runs: it
    costs two clock reads per `optimize_weighted` call.  It wraps the name
    pareto's refine calls and the package-level name the library workloads
    call."""

    def __init__(self):
        self.samples: list[float] = []
        self._patches = Patches()

    def install(self) -> None:
        samples = self.samples
        clock = time.perf_counter
        for owner in (sys.modules["moma.pareto"], moma):
            fn = owner.optimize_weighted

            def timed(*args, _fn=fn, **kwargs):
                t0 = clock()
                out = _fn(*args, **kwargs)
                samples.append(clock() - t0)
                return out

            self._patches.replace(owner, "optimize_weighted", timed)

    def uninstall(self) -> None:
        self._patches.restore()
