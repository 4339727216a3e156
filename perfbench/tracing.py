"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each layer's public function by a timing
wrapper in the module that calls it: ``elang.cli`` binds ``parse_domain``,
``parse_query``, ``ground``, ``answer_theory`` and ``answer_sat`` by name
at import, ``elang.query`` binds ``successor_states``, and ``elang.sat``
looks up ``check_fragment``, ``compile_theory`` and ``Solver`` in its own
namespace.  Patching the defining module alone would time none of those
calls.  The walk_sat session and every CLI request look their entry
points up on ``elang.parser``, ``elang.grounding``, ``elang.sat`` and
``elang.cli`` at call time, so those attributes are wrapped as well.

A span is (name, start, end, parent span, request); spans stay in memory
and are written once, after the traced passes.  Counters read from the
results at the same boundaries give the work each layer did.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name)
PATCHES = (
    ("elang.cli", "main", "cli.main"),
    ("elang.cli", "parse_domain", "parser.parse_domain"),
    ("elang.cli", "parse_query", "parser.parse_query"),
    ("elang.cli", "ground", "grounding.ground"),
    ("elang.cli", "answer_theory", "query.answer_theory"),
    ("elang.cli", "answer_sat", "sat.answer_sat"),
    ("elang.parser", "parse_domain", "parser.parse_domain"),
    ("elang.parser", "parse_query", "parser.parse_query"),
    ("elang.grounding", "ground", "grounding.ground"),
    ("elang.query", "slice_for_goals", "query.slice_for_goals"),
    ("elang.query", "successor_states", "transition.successor_states"),
    ("elang.sat", "answer_sat", "sat.answer_sat"),
    ("elang.sat", "check_fragment", "sat.check_fragment"),
    ("elang.sat", "compile_theory", "sat.compile_theory"),
)

TIMED = (
    "cli.main",
    "parser.parse_domain",
    "parser.parse_query",
    "grounding.ground",
    "query.answer_theory",
    "query.slice_for_goals",
    "transition.successor_states",
    "sat.answer_sat",
    "sat.check_fragment",
    "sat.compile_theory",
    "sat.solver_build",
    "sat.solve",
)


def _observe(counts, name: str, args, result) -> None:
    """Add the work a finished call reports to the counters."""
    if name == "transition.successor_states":
        counts["targets"] += len(result)
    elif name == "query.answer_theory":
        stats = result.stats
        for key in ("nodes", "models", "transitions", "cache_hits"):
            counts[key] += getattr(stats, key)
    elif name == "query.slice_for_goals":
        counts["atoms_total"] += args[0].n_fluents
        counts["atoms_sliced"] += result[0].n_fluents
    elif name == "grounding.ground":
        s = result.stats
        counts["instances"] += s.cprops + s.rprops + s.denials + s.pprops
        counts["dropped"] += s.dropped_instances
    elif name == "parser.parse_domain":
        counts["statements"] += len(result.domain.propositions)
    elif name == "sat.answer_sat":
        for key in ("vars", "clauses", "decisions", "propagations"):
            counts["sat_" + key] += getattr(result.stats, key)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.request))
        self._stack.append(idx)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = self.spans[idx][:2] + (end,) + self.spans[idx][3:]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _observe(self.counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        sat = importlib.import_module("elang.sat")
        tracer, base = self, sat.Solver

        class TracedSolver(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("sat.solver_build"):
                    super().__init__(*args, **kwargs)

            def solve(self, *args, **kwargs):
                with tracer.span("sat.solve"):
                    return super().solve(*args, **kwargs)

        self._saved.append((sat, "Solver", base))
        sat.Solver = TracedSolver

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "request": request}))
                fh.write("\n")

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, self ms (minus direct children)
        and the longest single call in ms."""
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "max_ms": 0.0} for name in TIMED}
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            ms = (end - start) * 1000.0
            row = out[name]
            row["calls"] += 1
            row["ms"] += ms
            row["self_ms"] += ms - child_ms[idx]
            row["max_ms"] = max(row["max_ms"], ms)
        return out


def layer_metrics(tracer: Tracer, requests: int, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit).
    Work and time are per request, so runs of different length compare."""
    times = tracer.layer_times()
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def per(x: float) -> float:
        return x / requests

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    succ = times["transition.successor_states"]
    m["transition.successor_states.calls"] = (per(succ["calls"]), "calls/query")
    m["transition.successor_states.ms"] = (per(succ["ms"]), "ms/query")
    m["transition.successor_states.max_ms"] = (succ["max_ms"], "ms")
    m["transition.targets_per_call"] = (ratio(c["targets"], succ["calls"]), "count")
    ans = times["query.answer_theory"]
    m["query.answer_theory.calls"] = (per(ans["calls"]), "calls/query")
    # self time excludes successor search and slicing: initial states plus
    # the trajectory recursion
    m["query.answer_theory.self_ms"] = (per(ans["self_ms"]), "ms/query")
    for key in ("nodes", "models", "transitions"):
        m["query." + key] = (per(c[key]), "count/query")
    m["query.cache_hit_ratio"] = (ratio(c["cache_hits"], c["cache_hits"] + c["transitions"]), "ratio")
    sl = times["query.slice_for_goals"]
    m["query.slice_for_goals.calls"] = (per(sl["calls"]), "calls/query")
    m["query.slice_for_goals.ms"] = (per(sl["ms"]), "ms/query")
    m["query.slice_kept_ratio"] = (ratio(c["atoms_sliced"], c["atoms_total"]), "ratio")
    gr = times["grounding.ground"]
    m["grounding.ground.calls"] = (per(gr["calls"]), "calls/query")
    m["grounding.ground.ms"] = (per(gr["ms"]), "ms/query")
    m["grounding.instances"] = (per(c["instances"]), "count/query")
    m["grounding.dropped_ratio"] = (ratio(c["dropped"], c["dropped"] + c["instances"]), "ratio")
    pd = times["parser.parse_domain"]
    m["parser.parse_domain.calls"] = (per(pd["calls"]), "calls/query")
    m["parser.parse_domain.ms"] = (per(pd["ms"]), "ms/query")
    m["parser.parse_query.ms"] = (per(times["parser.parse_query"]["ms"]), "ms/query")
    m["parser.statements"] = (per(c["statements"]), "count/query")
    for name in ("sat.answer_sat", "sat.check_fragment", "sat.compile_theory", "sat.solve"):
        m[name + ".calls"] = (per(times[name]["calls"]), "calls/query")
        m[name + ".ms"] = (per(times[name]["ms"]), "ms/query")
    m["sat.solver_build.ms"] = (per(times["sat.solver_build"]["ms"]), "ms/query")
    for key in ("vars", "clauses", "decisions", "propagations"):
        m["sat." + key] = (per(c["sat_" + key]), "count/query")
    cli = times["cli.main"]
    m["cli.main.calls"] = (per(cli["calls"]), "calls/query")
    m["cli.main.self_ms"] = (per(cli["self_ms"]), "ms/query")
    m["trace.overhead_ms"] = (per((traced_s - untraced_s) * 1000.0), "ms/query")
    m["trace.overhead_ratio"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m
