"""Propositional backend: clausal compilation plus a small solver.

The compilation is sound on a restricted fragment where every step is
forced, so a clausal model is exactly a trajectory.  ``check_fragment``
tests the two conditions that guarantee this:

  1. No two effect instances that can apply together (same action, or
     actions scheduled at the same time) may produce changes that clash,
     directly or through ramifications.  "May produce" is closed
     transitively: an effect literal may cause every ramification head
     reachable from it through rule bodies, ignoring the rest of the body.
     A clash is a complementary pair across (or within) these closures.
  2. The ramification dependency graph on fluent atoms (body atom to head
     atom) is acyclic, so derived change has a well-founded definition and
     the triggering conditions below pin every auxiliary variable down.

Within the fragment, candidate effects never conflict, so the engine
applies all of them and the override branching never arises; the encoding
can then define, per step:

  fire(c,t)   <-> the effect instance's condition holds at t
  trig(r,t)   <-> some body literal of the rule was caused at t
  ramify(r,t) <-> the rule's body holds at t+1 and trig(r,t)
  cause(l,t)  <-> some fire or ramify producing l holds

with effect clauses making produced literals hold at t+1, explanation
frame clauses allowing a value to change only when caused, the rules as
state constraints at every time, and observations and preconditions of
scheduled actions as unit clauses.

``Solver`` searches the clauses with the kernel in ``clauses.py``
(unit propagation, chronological backtracking, lowest variable first,
false first), budgeted by decision count.

Answers on one ground theory share the fragment verdict and the compiled
clauses: the first ``answer_sat`` on a theory checks and compiles it and
keeps the verdict, or the indexed clauses, on ``theory.sat_memo``; every
later query builds only a fresh ``Solver`` (its own budget and stats)
over those clauses and solves under assumptions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .clauses import ClauseSet
from .grounding import GroundTheory, Lit, State
from .model import Atom
from .query import EntailmentResult, Query, Trajectory, decide, split_goals


@dataclass(frozen=True)
class FragmentViolation:
    kind: str  # "effect-conflict" | "ramification-cycle"
    detail: str

    def __str__(self) -> str:
        return "%s: %s" % (self.kind, self.detail)


@dataclass
class FragmentReport:
    accepted: bool
    violations: list[FragmentViolation]


class FragmentError(Exception):
    def __init__(self, report: FragmentReport):
        lines = "; ".join(str(v) for v in report.violations[:5])
        super().__init__("theory outside the clausal fragment: %s" % lines)
        self.report = report


def _may_cause(theory: GroundTheory, lit: Lit, cache: dict[Lit, frozenset[Lit]]) -> frozenset[Lit]:
    hit = cache.get(lit)
    if hit is not None:
        return hit
    out: set[Lit] = {lit}
    work = [lit]
    while work:
        l = work.pop()
        for ri in theory.rprops_by_body_atom.get(abs(l) - 1, ()):
            rp = theory.rprops[ri]
            if rp.head is None or l not in rp.condition:
                continue
            if rp.head not in out:
                out.add(rp.head)
                work.append(rp.head)
    result = frozenset(out)
    cache[lit] = result
    return result


def check_fragment(theory: GroundTheory) -> FragmentReport:
    """Decide whether the clausal compilation is sound for this theory."""
    violations: list[FragmentViolation] = []

    # Cycles in the ramification dependency graph.
    graph: dict[int, set[int]] = {}
    for rp in theory.rprops:
        if rp.head is None:
            continue
        h = abs(rp.head) - 1
        for c in rp.condition:
            graph.setdefault(abs(c) - 1, set()).add(h)
    cycle = _first_cycle(graph)
    if cycle is not None:
        names = " -> ".join(str(theory.fluents[i]) for i in cycle)
        violations.append(FragmentViolation("ramification-cycle", names))

    # Clashing effects among instances that can apply together: the pairs
    # of effect instances of one action, or of two actions scheduled at
    # the same time.
    together: set[tuple[Atom, Atom]] = set()
    by_action: dict[Atom, list[tuple[int, Lit]]] = {}  # (cprop index, effect)
    for acts in theory.occurrences.values():
        ordered = sorted(acts)
        for i, a in enumerate(ordered):
            by_action.setdefault(a, [])
            for b in ordered[i:]:
                together.add((a, b))
    for ci, cp in enumerate(theory.cprops):
        if cp.action in by_action:
            by_action[cp.action].append((ci, cp.fluent + 1 if cp.initiates else -(cp.fluent + 1)))
    cache: dict[Lit, frozenset[Lit]] = {}
    clash_memo: dict[tuple[Lit, Lit], int | None] = {}

    def clash(li: Lit, lj: Lit) -> int | None:
        """The lowest atom on which the two effect literals' closures take
        complementary values, if any; symmetric in li and lj."""
        key = (li, lj) if li <= lj else (lj, li)
        if key not in clash_memo:
            rj = _may_cause(theory, lj, cache)
            clashes = [abs(m) for m in _may_cause(theory, li, cache) if -m in rj]
            clash_memo[key] = min(clashes) - 1 if clashes else None
        return clash_memo[key]

    found: list[tuple[int, int, int]] = []
    for a, b in together:
        for ci, li in by_action[a]:
            for cj, lj in by_action[b]:
                if a == b and cj < ci:
                    continue  # each unordered pair of one action's effects once
                atom = clash(li, lj)
                if atom is not None:
                    found.append((min(ci, cj), max(ci, cj), atom))
    for ci, cj, atom in sorted(found):
        violations.append(
            FragmentViolation(
                "effect-conflict",
                "statements %d and %d can disagree on %s"
                % (theory.cprops[ci].src, theory.cprops[cj].src, theory.fluents[atom]),
            )
        )

    return FragmentReport(not violations, violations)


def _first_cycle(graph: dict[int, set[int]]) -> list[int] | None:
    """The first cycle a depth-first search meets, roots and successors
    taken in ascending order, as the path from the repeated atom back to
    it; None when the graph is acyclic."""
    done: set[int] = set()
    for root in sorted(graph):
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(sorted(graph[root]))]
        while pending:
            for b in pending[-1]:
                if b in on_path:
                    return path[path.index(b) :] + [b]
                if b not in done:
                    path.append(b)
                    on_path.add(b)
                    pending.append(iter(sorted(graph.get(b, ()))))
                    break
            else:
                pending.pop()
                a = path.pop()
                on_path.discard(a)
                done.add(a)
    return None


# ---------------------------------------------------------------------------
# Compilation


@dataclass
class CnfInstance:
    num_vars: int
    clauses: list[tuple[int, ...]]
    n_fluents: int
    horizon: int
    names: dict[int, str] = field(default_factory=dict)
    origins: list[str] = field(default_factory=list)

    def fluent_var(self, atom_index: int, time: int) -> int:
        return time * self.n_fluents + atom_index + 1


def compile_theory(theory: GroundTheory, *, labels: bool = True) -> CnfInstance:
    """Clausal form of a fragment theory; see the module docstring for the
    variable roles.  Variable numbering is deterministic.  ``names`` and
    ``origins`` are filled only with ``labels``: export reads them,
    answering does not."""
    n = theory.n_fluents
    horizon = theory.horizon
    inst = CnfInstance(num_vars=(horizon + 1) * n, clauses=[], n_fluents=n, horizon=horizon)
    if labels:
        for t in range(horizon + 1):
            for i in range(n):
                inst.names[t * n + i + 1] = "%s@%d" % (theory.fluents[i], t)

    def new_var(fmt: str, *args) -> int:
        inst.num_vars += 1
        if labels:
            inst.names[inst.num_vars] = fmt % args
        return inst.num_vars

    def add(clause, fmt: str, *args) -> None:
        inst.clauses.append(tuple(clause))
        if labels:
            inst.origins.append(fmt % args)

    def lit_str(code: Lit) -> str | None:
        return theory.lit_str(code) if labels else None

    def at(code: Lit, t: int) -> int:
        v = t * n + abs(code)
        return v if code > 0 else -v

    # State constraints at every time point.
    for ri, rp in enumerate(theory.rprops):
        for t in range(horizon + 1):
            clause = [at(-c, t) for c in sorted(rp.condition, key=lambda x: (abs(x), x))]
            if rp.head is not None:
                clause.append(at(rp.head, t))
            add(clause, "constraint src=%d t=%d", rp.src, t)

    # Observation units.
    for t in sorted(theory.observations):
        for code in sorted(theory.observations[t], key=lambda c: (abs(c), c)):
            add([at(code, t)], "observation t=%d", t)

    # Precondition units for scheduled actions.
    for t in sorted(theory.occurrences):
        for action in sorted(theory.occurrences[t]):
            for pi in theory.pprops_by_action.get(action, ()):
                pp = theory.pprops[pi]
                if pp.impossible:
                    add([], "impossible precondition src=%d t=%d", pp.src, t)
                    continue
                for code in sorted(pp.condition, key=lambda c: (abs(c), c)):
                    add([at(code, t)], "precondition src=%d t=%d", pp.src, t)

    # Ramification rules in dependency order, so each cause variable is
    # fully defined before any rule consuming it.  The graph is acyclic in
    # the fragment; outside it the order degrades but the compilation is
    # then only used for export, never for answers.
    order = _rule_order(theory)

    # Per-step causal structure.
    for t in range(horizon):
        actions = theory.occurrences.get(t, frozenset())
        fire_vars: dict[int, int] = {}  # cprop index -> var
        producers: dict[Lit, list[int]] = {}
        for action in sorted(actions):
            for ci in theory.cprops_by_action.get(action, ()):
                cp = theory.cprops[ci]
                v = new_var("fire[%d]@%d", ci, t)
                fire_vars[ci] = v
                cond = sorted(cp.condition, key=lambda x: (abs(x), x))
                for code in cond:
                    add([-v, at(code, t)], "fire-def src=%d t=%d", cp.src, t)
                add([v] + [at(-code, t) for code in cond], "fire-def src=%d t=%d", cp.src, t)
                effect = cp.fluent + 1 if cp.initiates else -(cp.fluent + 1)
                add([-v, at(effect, t + 1)], "effect src=%d t=%d", cp.src, t)
                producers.setdefault(effect, []).append(v)

        cause_vars: dict[Lit, int] = {}

        def cause_var(code: Lit) -> int | None:
            if code in cause_vars:
                return cause_vars[code]
            prods = producers.get(code)
            if not prods:
                return None
            name = lit_str(code)
            v = new_var("cause[%s]@%d", name, t)
            cause_vars[code] = v
            add([-v] + prods, "cause-def %s t=%d", name, t)
            for p in prods:
                add([-p, v], "cause-def %s t=%d", name, t)
            return v

        for ri in order:
            rp = theory.rprops[ri]
            if rp.head is None or not rp.condition:
                continue
            body = sorted(rp.condition, key=lambda x: (abs(x), x))
            triggers = [cause_var(code) for code in body]
            triggers = [v for v in triggers if v is not None]
            if not triggers:
                continue  # body untouched by any producible change: never fires
            trig = new_var("trig[%d]@%d", ri, t)
            add([-trig] + triggers, "trig-def src=%d t=%d", rp.src, t)
            for v in triggers:
                add([-v, trig], "trig-def src=%d t=%d", rp.src, t)
            ram = new_var("ramify[%d]@%d", ri, t)
            for code in body:
                add([-ram, at(code, t + 1)], "ramify-def src=%d t=%d", rp.src, t)
            add([-ram, trig], "ramify-def src=%d t=%d", rp.src, t)
            add([ram, -trig] + [at(-code, t + 1) for code in body], "ramify-def src=%d t=%d", rp.src, t)
            add([-ram, at(rp.head, t + 1)], "ramify-effect src=%d t=%d", rp.src, t)
            producers.setdefault(rp.head, []).append(ram)

        # Explanation frame: a changed value needs a cause; clashing causes
        # are ruled out outright (vacuous inside the fragment, kept as a
        # guard rail).
        for i in range(n):
            pos = cause_var(i + 1)
            neg = cause_var(-(i + 1))
            src_t, src_t1 = i + 1 + t * n, i + 1 + (t + 1) * n
            atom = theory.fluents[i]
            add([-src_t1, src_t] + ([pos] if pos else []), "frame %s t=%d", atom, t)
            add([src_t1, -src_t] + ([neg] if neg else []), "frame %s t=%d", atom, t)
            if pos and neg:
                add([-pos, -neg], "cause-mutex %s t=%d", atom, t)

    return inst


def _rule_order(theory: GroundTheory) -> list[int]:
    """Rule indexes sorted so body atoms' producing rules come first;
    input order inside a stratum and when the graph has cycles."""
    level: dict[int, int] = {}

    def body_atoms(a: int):
        for ri in theory.rprops_by_head_atom.get(a, ()):
            for c in theory.rprops[ri].condition:
                yield abs(c) - 1

    def atom_level(root: int) -> int:
        """One more than the highest level among the body atoms of the
        rules producing ``root``; an atom met again on the current path
        counts as level 0 (a cycle: outside the fragment, any order will
        do).  Depth first with an explicit stack of [atom, body atoms
        left, best so far]."""
        if root in level:
            return level[root]
        on_path = {root}
        stack = [[root, body_atoms(root), 0]]
        while stack:
            frame = stack[-1]
            for b in frame[1]:
                if b in level:
                    frame[2] = max(frame[2], level[b] + 1)
                elif b in on_path:
                    frame[2] = max(frame[2], 1)
                else:
                    on_path.add(b)
                    stack.append([b, body_atoms(b), 0])
                    break
            else:
                stack.pop()
                a, best = frame[0], frame[2]
                on_path.discard(a)
                level[a] = best
                if stack:
                    stack[-1][2] = max(stack[-1][2], best + 1)
        return level[root]

    keyed = []
    for ri, rp in enumerate(theory.rprops):
        if rp.head is None:
            continue
        keyed.append((atom_level(abs(rp.head) - 1), ri))
    return [ri for _, ri in sorted(keyed)]


def to_dimacs(inst: CnfInstance, include_names: bool = False) -> str:
    lines = []
    if include_names:
        for v in sorted(inst.names):
            lines.append("c var %d %s" % (v, inst.names[v]))
    lines.append("p cnf %d %d" % (inst.num_vars, len(inst.clauses)))
    for clause in inst.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def provenance(inst: CnfInstance) -> dict:
    """Sidecar mapping variables and clauses back to their origins."""
    return {
        "vars": {str(v): inst.names[v] for v in sorted(inst.names)},
        "clauses": [
            {"lits": list(clause), "origin": origin}
            for clause, origin in zip(inst.clauses, inst.origins)
        ],
    }


# ---------------------------------------------------------------------------
# Solver


@dataclass
class SatStats:
    vars: int = 0
    clauses: int = 0
    decisions: int = 0
    propagations: int = 0
    solves: int = 0

    def as_dict(self) -> dict:
        return {
            "vars": self.vars,
            "clauses": self.clauses,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "solves": self.solves,
        }


class Solver:
    """The clause kernel with a decision budget and SatStats.  ``solve``
    returns the kernel's first model: lowest unassigned variable first,
    false tried first, chronological backtracking."""

    def __init__(self, clauses: ClauseSet, budget: int | None = None, stats: SatStats | None = None):
        self.clauses = clauses
        self.budget = budget
        self.stats = stats or SatStats()
        self.stats.vars = max(self.stats.vars, clauses.num_vars)
        self.stats.clauses += len(clauses.clauses)

    def solve(self, assumptions=()) -> tuple[bool, dict[int, bool] | None]:
        self.stats.solves += 1
        search = self.clauses.models(assumptions, stats=self.stats, budget=self.budget)
        model = next(search, None)
        if model is None:
            return False, None
        return True, {v: v in model for v in range(1, self.clauses.num_vars + 1)}


# ---------------------------------------------------------------------------
# Query bridge


@dataclass(frozen=True)
class CompiledTheory:
    """What answering needs of a compiled fragment theory: the indexed
    clauses and the fluent-variable numbering of ``CnfInstance``."""

    clauses: ClauseSet
    n_fluents: int

    def fluent_var(self, atom_index: int, time: int) -> int:
        return time * self.n_fluents + atom_index + 1


def _compiled(theory: GroundTheory) -> CompiledTheory:
    """The theory's clauses, checked and compiled (without the export
    labels) on the first call and kept on ``theory.sat_memo``.  Raises
    FragmentError, on every call, when the theory is outside the
    fragment."""
    memo = theory.sat_memo
    if memo is None:
        report = check_fragment(theory)
        if report.accepted:
            inst = compile_theory(theory, labels=False)
            memo = CompiledTheory(ClauseSet(inst.num_vars, inst.clauses), inst.n_fluents)
        else:
            memo = report
        theory.sat_memo = memo
    if isinstance(memo, FragmentReport):
        raise FragmentError(memo)
    return memo


def decode_model(
    inst: CnfInstance | CompiledTheory, theory: GroundTheory, model: dict[int, bool]
) -> Trajectory:
    states: list[State] = []
    for t in range(theory.horizon + 1):
        states.append(
            frozenset(i for i in range(theory.n_fluents) if model.get(inst.fluent_var(i, t)))
        )
    actions = tuple(
        theory.occurrences.get(t, frozenset()) for t in range(theory.horizon)
    )
    return Trajectory(tuple(states), actions)


def answer_sat(
    theory: GroundTheory, query: Query, *, budget: int | None = None
) -> EntailmentResult:
    """Answer a query on the theory's compiled clauses (see ``_compiled``).
    Raises FragmentError when the theory is outside the supported
    fragment."""
    comp = _compiled(theory)
    dynamic_goals, constants_ok = split_goals(theory, query)
    stats = SatStats()
    solver = Solver(comp.clauses, budget, stats)

    def find_model(forced: Iterable[tuple[Lit, int]]) -> Trajectory | None:
        assumptions = []
        for code, t in forced:
            v = comp.fluent_var(abs(code) - 1, t)
            assumptions.append(v if code > 0 else -v)
        sat, model = solver.solve(assumptions)
        return decode_model(comp, theory, model) if sat else None

    return decide(theory, query, dynamic_goals, constants_ok, find_model, "sat", stats)
