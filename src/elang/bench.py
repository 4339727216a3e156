"""Benchmark harness.

Experiment specs are stanza files (see specfiles).  Four families:

* ``completeness``: answer the same queries on a narrative as written and
  again after adding observations that were already necessary conclusions,
  to show how extra information narrows the search.
* ``irrelevance``: answer before and after injecting occurrences of
  actions disconnected from the goals; the engine searches their atoms
  apart from the goals' components, once per answer.
* ``representation``: run one suite across the direct, indirect and dual
  zoo representations and compare times; an ``agree`` column marks where a
  variant's answer matches the first listed one, since the representations
  genuinely differ on some conclusions.  A ``fragment`` column says
  whether the domain lies in the clausal fragment, the theories without
  a ramification cycle (``sat.check_fragment``), where ``answer_sat``
  needs no decoded-step check; both backends answer every domain either
  way.
* ``scaling``: grow the zoo terrain, recording grounding statistics and
  one query's time per size on the chosen backend.

Timing is the median of ``repeats`` runs after one discarded warmup run,
covering the answer phase only (grounding is timed separately where it
matters).  Each row also records the answer's counters (``stats``),
which every run must repeat.  On the SAT backend the compilation
happens once per ground theory, in the warmup run, so ``median_ms``
covers the solves (and their decoded-step checks) only.  Results go to
TSV and JSONL, the latter with an environment fingerprint record first.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from . import __version__
from .corpus import load_domain
from .grounding import GroundTheory, ground
from .model import Atom, DomainDescription, HProp, TProp
from .parser import parse_domain, parse_query
from .query import Query, answer_theory, required_horizon
from .sat import check_fragment
from .specfiles import SpecError, Stanza, parse_stanza_file, to_int

FAMILIES = ("completeness", "irrelevance", "representation", "scaling")
# every key a spec may set; any other is a typo, rejected by name
SPEC_KEYS = frozenset(
    "name family domain scenario query repeats budget backend enrich variant inject sizes horizon".split()
)

# reference instance count for the largest configuration, from the written
# experiment design; recorded next to measurements, never enforced
REFERENCE_INSTANCES_AT_15 = 25000


@dataclass
class ExperimentSpec:
    name: str
    family: str
    domains: list[str]
    scenarios: list[str]
    queries: list[str]
    repeats: int = 5
    budget: int | None = None
    backend: str = "engine"
    inject: list[int] = field(default_factory=lambda: [0, 3])
    enrich: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    variant: str = "direct"
    horizon: int | None = None


def parse_spec(text: str, name_hint: str = "experiment") -> ExperimentSpec:
    stanzas = parse_stanza_file(text)
    if len(stanzas) != 1:
        raise SpecError("an experiment spec holds exactly one stanza")
    st: Stanza = stanzas[0]
    unknown = sorted(st.keys() - SPEC_KEYS)
    if unknown:
        raise SpecError("unknown key %r" % unknown[0])
    family = st.one("family")
    if family not in FAMILIES:
        raise SpecError("unknown family %r, expected one of %s" % (family, FAMILIES))
    budget_raw = st.one("budget", "none")
    spec = ExperimentSpec(
        name=st.one("name", name_hint),
        family=family,
        domains=st.many("domain"),
        scenarios=st.many("scenario"),
        queries=st.many("query"),
        repeats=st.one_int("repeats", 5),
        budget=None if budget_raw == "none" else to_int("budget", budget_raw),
        backend=st.one("backend", "engine"),
        enrich=st.many("enrich"),
        variant=st.one("variant", "direct"),
    )
    if st.many("inject"):
        spec.inject = [to_int("inject", v) for v in st.many("inject")]
    if st.many("sizes"):
        spec.sizes = []
        for chunk in st.many("sizes"):
            spec.sizes.extend(to_int("sizes", v) for v in chunk.split())
    horizon_raw = st.one("horizon", "none")
    spec.horizon = None if horizon_raw == "none" else to_int("horizon", horizon_raw)
    if spec.backend not in ("engine", "sat"):
        raise SpecError("backend must be engine or sat, got %r" % spec.backend)
    if family != "scaling" and not spec.domains:
        raise SpecError("family %s needs a domain" % family)
    return spec


def load_spec(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    return parse_spec(path.read_text(), name_hint=path.stem)


# ---------------------------------------------------------------------------
# Domain references (parsed by corpus.load_domain)


def domain_label(ref: str) -> str:
    if ref.startswith("corpus:"):
        return ref.split(":", 1)[1].removesuffix(".e")
    if ref.startswith("gen:"):
        return "-".join(ref.split(":")[1:])
    return Path(ref).stem


# ---------------------------------------------------------------------------
# Instrumentation


@dataclass
class TimedAnswer:
    answer: str
    stats: dict  # the answer's counters, ``stats.as_dict()``
    median_s: float
    runs: list[float]

    @property
    def median_ms(self) -> float:
        return self.median_s * 1000.0


def time_answer(
    theory: GroundTheory,
    query_text: str,
    domain: DomainDescription,
    *,
    repeats: int,
    budget: int | None,
    backend: str,
) -> TimedAnswer:
    from .cli import answer_on  # deferred: the CLI imports this module

    query = parse_query(query_text, domain.signature)
    outcomes = []
    runs = []
    for i in range(repeats + 1):  # first run is warmup
        start = time.perf_counter()
        result = answer_on(theory, query, backend, budget=budget)
        elapsed = time.perf_counter() - start
        outcomes.append((result.answer, result.stats.as_dict()))
        if i > 0:
            runs.append(elapsed)
    if any(outcome != outcomes[0] for outcome in outcomes):
        raise RuntimeError("non-deterministic answers for %r: %s" % (query_text, outcomes))
    return TimedAnswer(*outcomes[0], statistics.median(runs), runs)


def ground_for(spec: ExperimentSpec, domain: DomainDescription) -> GroundTheory:
    horizon = spec.horizon
    if horizon is None:
        horizons = [
            required_horizon(domain, parse_query(q, domain.signature)) for q in spec.queries
        ]
        horizon = max(horizons) if horizons else None
    return ground(domain, horizon)


# ---------------------------------------------------------------------------
# Scenario surgery


def inject_irrelevant(domain: DomainDescription, count: int, horizon: int) -> DomainDescription:
    """Append occurrences of the feeding action, which shares no fluents
    with movement or riding goals.  Free time points are used first."""
    if "feed_animal" not in domain.signature.actions:
        raise SpecError("domain lacks feed_animal; use the feed-enabled corpus variant")
    new = DomainDescription(domain.signature.copy(), list(domain.propositions))
    animals = domain.signature.sorts["animal"]
    occupied = {p.time for p in domain.propositions if isinstance(p, HProp)}
    free = [t for t in range(horizon) if t not in occupied]
    times = (free + sorted(occupied))[:count] if free else list(range(count))
    for i in range(count):
        action = Atom("feed_animal", (animals[i % len(animals)],))
        new.propositions.append(HProp(action, times[i % len(times)]))
    return new


def enrich_with_conclusions(
    domain: DomainDescription,
    theory: GroundTheory,
    probes: list[str],
    budget: int | None,
) -> tuple[DomainDescription, int]:
    """Add each probe observation that is already a necessary conclusion.
    Returns the enriched description and how many probes were added."""
    added = 0
    new = DomainDescription(domain.signature.copy(), list(domain.propositions))
    for probe in probes:
        unit = parse_domain(probe, file="<enrich>", base_signature=domain.signature)
        tprops = [p for p in unit.domain.propositions if isinstance(p, TProp)]
        if len(tprops) != 1:
            raise SpecError("enrich entries must be single observations: %r" % probe)
        tp = tprops[0]
        goals = frozenset({(tp.literal, tp.time)})
        result = answer_theory(theory, Query("skeptical", goals, theory.horizon), budget=budget)
        if result.answer == "true":
            new.propositions.append(tp)
            added += 1
    return new, added


# ---------------------------------------------------------------------------
# Result tables


@dataclass
class ResultTable:
    name: str
    columns: list[str]
    rows: list[dict]
    meta: dict

    def to_tsv(self) -> str:
        lines = ["% " + json.dumps(self.meta, sort_keys=True)]
        lines.append("\t".join(self.columns))
        for row in self.rows:
            lines.append("\t".join(_cell(row.get(c)) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        records = [dict(self.meta, record="meta")]
        records.extend(dict(row, record="row") for row in self.rows)
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"

    def write(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tsv = out / (self.name + ".tsv")
        jsonl = out / (self.name + ".jsonl")
        tsv.write_text(self.to_tsv())
        jsonl.write_text(self.to_jsonl())
        return [tsv, jsonl]


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, float):
        return "%.6f" % value
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _meta(spec: ExperimentSpec) -> dict:
    return {
        "name": spec.name,
        "family": spec.family,
        "created": date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "package_version": __version__,
        "repeats": spec.repeats,
        "backend": spec.backend,
    }


# ---------------------------------------------------------------------------
# Families


def _run_completeness(spec: ExperimentSpec) -> ResultTable:
    base = load_domain(spec.domains[0], *spec.scenarios)
    theory = ground_for(spec, base)
    enriched, added = enrich_with_conclusions(base, theory, spec.enrich, spec.budget)
    enriched_theory = ground(enriched, theory.horizon)
    rows = []
    for level, dom, th in (("base", base, theory), ("enriched", enriched, enriched_theory)):
        for q in spec.queries:
            timed = time_answer(
                th, q, dom, repeats=spec.repeats, budget=spec.budget,
                backend=spec.backend,
            )
            rows.append({
                "level": level, "added_observations": added if level == "enriched" else 0,
                "query": q, "answer": timed.answer, "median_ms": timed.median_ms,
                "stats": timed.stats,
            })
    cols = ["level", "added_observations", "query", "answer", "median_ms", "stats"]
    return ResultTable(spec.name, cols, rows, _meta(spec))


def _run_irrelevance(spec: ExperimentSpec) -> ResultTable:
    base = load_domain(spec.domains[0], *spec.scenarios)
    theory0 = ground_for(spec, base)
    rows = []
    baseline: dict[str, str] = {}
    for count in spec.inject:
        dom = inject_irrelevant(base, count, theory0.horizon) if count else base
        th = ground(dom, theory0.horizon)
        for q in spec.queries:
            timed = time_answer(
                th, q, dom, repeats=spec.repeats, budget=spec.budget,
                backend=spec.backend,
            )
            if count == spec.inject[0]:
                baseline[q] = timed.answer
            rows.append({
                "injected": count, "query": q, "answer": timed.answer,
                "agree": timed.answer == baseline.get(q, timed.answer),
                "median_ms": timed.median_ms, "stats": timed.stats,
            })
    cols = ["injected", "query", "answer", "agree", "median_ms", "stats"]
    return ResultTable(spec.name, cols, rows, _meta(spec))


def _run_representation(spec: ExperimentSpec) -> ResultTable:
    rows = []
    baseline: dict[str, str] = {}
    for ref in spec.domains:
        dom = load_domain(ref, *spec.scenarios)
        th = ground_for(spec, dom)
        fragment = check_fragment(th).accepted
        for q in spec.queries:
            timed = time_answer(
                th, q, dom, repeats=spec.repeats, budget=spec.budget,
                backend=spec.backend,
            )
            if ref == spec.domains[0]:
                baseline[q] = timed.answer
            rows.append({
                "domain": domain_label(ref), "fragment": fragment, "query": q,
                "answer": timed.answer,
                "agree": timed.answer == baseline[q],
                "median_ms": timed.median_ms, "stats": timed.stats,
            })
    cols = ["domain", "fragment", "query", "answer", "agree", "median_ms", "stats"]
    return ResultTable(spec.name, cols, rows, _meta(spec))


def _run_scaling(spec: ExperimentSpec) -> ResultTable:
    rows = []
    sizes = spec.sizes or list(range(3, 16))
    for size in sizes:
        dom = load_domain("gen:%s:%d" % (spec.variant, size), *spec.scenarios)
        start = time.perf_counter()
        th = ground_for(spec, dom)
        ground_ms = (time.perf_counter() - start) * 1000.0
        stats = th.stats
        instances = stats.cprops + stats.rprops + stats.denials + stats.pprops
        row = {
            "positions": size, "atoms": stats.fluent_atoms, "horizon": th.horizon,
            "cprop_instances": stats.cprops,
            "rprop_instances": stats.rprops + stats.denials,
            "pprop_instances": stats.pprops,
            "total_instances": instances,
            "ground_ms": ground_ms,
        }
        if size == 15:
            row["reference_instances"] = REFERENCE_INSTANCES_AT_15
        for i, q in enumerate(spec.queries):
            timed = time_answer(
                th, q, dom, repeats=spec.repeats, budget=spec.budget,
                backend=spec.backend,
            )
            row["answer_q%d" % i] = timed.answer
            row["median_ms_q%d" % i] = timed.median_ms
            row["stats_q%d" % i] = timed.stats
        rows.append(row)
    cols = [
        "positions", "atoms", "horizon", "cprop_instances", "rprop_instances",
        "pprop_instances", "total_instances", "ground_ms", "reference_instances",
    ]
    for i in range(len(spec.queries)):
        cols += ["answer_q%d" % i, "median_ms_q%d" % i, "stats_q%d" % i]
    return ResultTable(spec.name, cols, rows, _meta(spec))


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    # checked here, where the spec key, ``elang bench --repeats`` and
    # scripts/run_experiments.py all arrive
    if spec.repeats < 1:
        raise SpecError("repeats must be at least 1, got %d" % spec.repeats)
    runner = {
        "completeness": _run_completeness,
        "irrelevance": _run_irrelevance,
        "representation": _run_representation,
        "scaling": _run_scaling,
    }[spec.family]
    return runner(spec)
