"""Propositional backend: clausal compilation plus a small solver.

``compile_theory`` unrolls the step relation of ``transition.py`` (rules
a-e of ``docs/semantics.md``) to the horizon as the completion of its
closure, the way CCALC compiles causal theories (McCain and Turner,
AAAI 1997).  The fluent variables come first, time point by time point;
then, per step t:

  fire(c,t)    <-> the condition of effect row c holds at t
  changed(l,t)     one per literal the step's effects can produce
                   (``transition.step_plan``)
  ramify(r,t)  <-> the rule's body holds at t+1 and some body literal
                   is changed at t (``GroundTheory.triggers``)

A fire or ramify literal defined as one literal is that literal, with
no variable or defining clauses of its own: fire(c,t) is x@t for a
condition { x }, and ramify(r,t) is changed(b,t) for a body { b }, since
changed(b,t) -> b@t+1 is a clause.  Only longer conditions and bodies
get variables.  This is the substitution step of SatELite's variable
elimination (Een and Biere, SAT 2005); it keeps every model on the other
variables, so the models on the fluents and their order do not change.

with the clauses

  changed(l,t) -> l@t+1                                  rule b
  fire(c,t) and l@t+1 -> changed(l,t)   (l the effect)   applied
  ramify(r,t) -> changed(head,t)
  changed(l,t) -> some fire or ramify producing l        completion
                   (both left out when a tautology, as when h whenever
                   { h } makes changed(h,t) its own support)
  l@t+1 and not l@t -> changed(l,t)                      rule c, the frame
  fire(c,t) and not l@t+1 -> changed(not l,t)            rule e
  the rules as state constraints at every time point     rule d
                   (``GroundTheory.constraint_clauses``, as rows)

and the observations and the preconditions of scheduled actions as unit
clauses.  A rule row's position in ``GroundTheory.rules`` names its
ramify variable, and its body, lowest atom first, orders the defining
clauses.  The effects and preconditions are the scheduled actions' rows
(``GroundTheory.effects_of``, ``preconditions_of``): a row's position
names its fire variable, and its atom sets give the condition's
literals.  Every trajectory is the fluent part of a model: take changed
as the least closure.  The converse holds when the ramification graph is
acyclic, since the completion then has the least closure as its only
solution.  Around a cycle, changes may support each other.  So on a
theory with a cycle (``GroundTheory.first_cycle``, the one cycle search,
whose verdict the engine's step search reads too), ``answer_sat`` checks
each model's decoded steps with ``transition.step_holds``, the check the
engine's step search runs on its targets, and ``Solver.solve``
enumerates past any model that fails it; ASSAT checks each model of a
completion in the same lazy way (Lin and Zhao, AAAI 2002).  The check
depends only on the fluent variables and every trajectory passes it, so
the answers are exact for every theory, and the first model accepted is
the least trajectory in the kernel's order: the engine's witness or
countermodel too.

``Solver`` searches the clauses with the kernel in ``clauses.py``
(unit propagation, chronological backtracking, lowest variable first,
false first), budgeted by decision count; rejected models count against
the same budget.

The clausal fragment is the acyclic theories: ``check_fragment`` gives
the verdict on ``GroundTheory.first_cycle`` and names the cycle, if
any.  Inside the fragment every model of the clauses is a trajectory,
so ``answer_sat`` installs no decoded-step check and ``elang ground
--dimacs`` exports the clauses; outside it the export is refused, since
an outside solver cannot run the check.  Concurrent effects that clash
are inside too: as in any step, rule b keeps both changes from holding
and rule e lets either one win.  The ``fragment`` column of ``elang
bench``'s representation family shows the verdict.

Answers on one ground theory share the compiled clauses: the first
``answer_sat`` on a theory compiles it and keeps the indexed clauses, a
``ClauseSet``, on ``theory.sat_memo``; every later query builds only a
fresh ``Solver`` (its own budget and stats) over them and solves under
assumptions.  The compiler emits every clause in the kernel's normal
form.  The state constraints are not emitted at all: ``CnfInstance``
holds the theory's own clauses as ``rows``, normal as grounding builds
them, and the ``ClauseSet`` reads them at every time point from the
theory's ``constraints`` index, the one the engine searches (see
``clauses.py``).  Every other clause is normal as built, and the
``ClauseSet`` indexes the compiler's own list and tuples, with no
normalizing pass and no copy.  ``to_dimacs`` writes each row at every
time point before the other clauses, and ``SatStats.clauses`` counts
every one of them, as when the compiler listed the shifted copies.
The ``ClauseSet`` propagates the observation and precondition units
once, on the first solve, and every solve starts from that root (see
``clauses.py``); its ``propagations`` count the root's on every solve,
so the stats are those of a fresh theory.  The literals a set of effects
can produce come from the theory's step plans (``transition.step_plan``,
kept on ``theory.plans``), the memo the engine's searched steps fill, so
the compiler keeps none of its own.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from .clauses import ClauseSet
from .grounding import GroundTheory, Lit, State, condition_codes
from .model import Atom
from .query import EntailmentResult, Query, Trajectory, decide, split_goals
from .transition import direct_candidates, step_holds, step_plan


@dataclass
class FragmentReport:
    accepted: bool
    violations: list[str]  # empty, or the one cycle as "ramification-cycle: a -> b -> a"


class FragmentError(Exception):
    def __init__(self, report: FragmentReport):
        lines = "; ".join(report.violations)
        super().__init__("theory outside the clausal fragment: %s" % lines)
        self.report = report


def check_fragment(theory: GroundTheory) -> FragmentReport:
    """Decide whether the theory lies in the fragment, the acyclic theories
    (see the module docstring), from ``GroundTheory.first_cycle``."""
    cycle = theory.first_cycle
    if cycle is None:
        return FragmentReport(True, [])
    path = " -> ".join(str(theory.fluents[i]) for i in cycle)
    return FragmentReport(False, ["ramification-cycle: " + path])


# ---------------------------------------------------------------------------
# Compilation


@dataclass
class CnfInstance:
    """The clauses of a theory: ``rows``, the theory's state constraints,
    at every time point, then ``clauses``."""

    num_vars: int
    rows: list[tuple[int, ...]]
    clauses: list[tuple[int, ...]]
    n_fluents: int
    horizon: int
    names: dict[int, str] = field(default_factory=dict)

    def fluent_var(self, atom_index: int, time: int) -> int:
        return time * self.n_fluents + atom_index + 1

    @property
    def num_clauses(self) -> int:
        return len(self.rows) * (self.horizon + 1) + len(self.clauses)

    def all_clauses(self) -> Iterator[tuple[int, ...]]:
        """Every clause in order: each row at every time point in turn,
        literal l at time t shifted by t*n away from zero, so the clauses
        at 0..horizon zip one range per literal; then ``clauses``."""
        n, times = self.n_fluents, self.horizon + 1
        end = times * n
        for clause in self.rows:
            if clause:
                yield from zip(*[range(l, l + end, n) if l > 0 else range(l, l - end, -n) for l in clause])
            else:
                yield from [()] * times
        yield from self.clauses


def compile_theory(theory: GroundTheory, *, labels: bool = True) -> CnfInstance:
    """Clausal form of a theory; see the module docstring for the variable
    roles and for when a model needs the decoded-step check.

    Variable numbering is deterministic.  Every clause is in the kernel's
    normal form, so ``ClauseSet`` indexes the list as it is; the state
    constraints are the theory's own list, held as ``rows``.  ``names``
    is filled only with ``labels``: export reads it, answering does not."""
    n = theory.n_fluents
    horizon = theory.horizon
    inst = CnfInstance(
        num_vars=(horizon + 1) * n, rows=theory.constraint_clauses, clauses=[], n_fluents=n, horizon=horizon
    )
    clauses = inst.clauses
    emit, emit_all = clauses.append, clauses.extend
    if labels:
        for t in range(horizon + 1):
            for i in range(n):
                inst.names[t * n + i + 1] = "%s@%d" % (theory.fluents[i], t)

    def new_var(fmt: str, *args) -> int:
        inst.num_vars += 1
        if labels:
            inst.names[inst.num_vars] = fmt % args
        return inst.num_vars

    def lit_str(code: Lit) -> str | None:
        return theory.lit_str(code) if labels else None

    def at(code: Lit, t: int) -> int:
        v = t * n + abs(code)
        return v if code > 0 else -v

    def ordered(codes) -> list[Lit]:
        return sorted(codes, key=lambda c: (abs(c), c))

    # Observation units, an atom's two literals in (atom, sign) order,
    # since an observation set may hold both.
    for t in sorted(theory.observations):
        emit_all([(at(code, t),) for code in ordered(theory.observations[t])])

    # Precondition units for scheduled actions.
    for t in sorted(theory.occurrences):
        for action in sorted(theory.occurrences[t]):
            for _, true, false, impossible in theory.preconditions_of(action):
                if impossible:
                    emit(())
                else:
                    emit_all([(at(code, t),) for code in ordered(condition_codes(true, false))])

    # Per-step completion of the closure (see the module docstring).  A
    # ground condition is a clash-free set and every auxiliary variable
    # is fresh, so these clauses are normal as built, once the support
    # lists drop repeated literals and the tautologies a one-literal
    # condition or body can make are left out.  Each action's effects and
    # the literals a set of effects can produce are worked out once; the
    # rules a changed literal triggers are the theory's ``triggers``, and
    # their bodies come ordered.
    @functools.cache
    def effects(action: Atom) -> tuple[tuple[int, list[Lit], Lit], ...]:
        rows = theory.effects_of(action)
        return tuple((ci, ordered(condition_codes(true, false)), effect) for ci, effect, true, false in rows)

    rules, triggers = theory.rules, theory.triggers

    for t in range(horizon):
        fires: dict[Lit, list[int]] = {}  # effect -> fire literals producing it
        # The literals whose completion clause is a tautology: fired by a
        # literal and its complement, or supported by themselves.
        tautologies: set[Lit] = set()
        for action in sorted(theory.occurrences.get(t, ())):
            for ci, condition, effect in effects(action):
                cond = [at(code, t) for code in condition]
                if len(cond) == 1:
                    [v] = cond  # the condition names itself
                else:
                    v = new_var("fire[%d]@%d", ci, t)
                    emit_all([(-v, c) for c in cond])
                    emit((v, *[-c for c in cond]))
                fired = fires.setdefault(effect, [])
                if v not in fired:
                    if -v in fired:
                        tautologies.add(effect)
                    fired.append(v)

        # the producible literals, lowest atom first, negative first
        produced = sorted(sorted(step_plan(theory, frozenset(fires)).produced), key=abs)
        changed = {code: new_var("changed[%s]@%d", lit_str(code), t) for code in produced}
        supports = {code: list(fires.get(code, ())) for code in changed}
        for ri in sorted(set().union(*[triggers.get(code, ()) for code in changed])):
            head, body = rules[ri]
            if len(body) == 1:
                # ramify <-> b@t+1 and changed(b,t) is changed(b,t), since
                # changed(b,t) -> b@t+1 is a clause; a rule triggered by
                # its one body literal has it in changed.
                ram = changed[body[0]]
            else:
                true_body = [at(code, t + 1) for code in body]
                false_body = [-b for b in true_body]
                changes = [changed[code] for code in body if code in changed]
                ram = new_var("ramify[%d]@%d", ri, t)
                emit_all([(-ram, b) for b in true_body])
                emit((-ram, *changes))
                emit_all([(ram, -v, *false_body) for v in changes])
            if ram == changed[head]:
                tautologies.add(head)  # h whenever { h }
            else:
                emit((-ram, changed[head]))
                if ram not in supports[head]:
                    supports[head].append(ram)

        for code, v in changed.items():
            emit((-v, at(code, t + 1)))
            if code not in tautologies:
                emit((-v, *supports[code]))
        for code, fired in fires.items():
            override = (changed[-code],) if -code in changed else ()
            for v in fired:
                emit((-v, -at(code, t + 1), changed[code]))
                emit((-v, at(code, t + 1), *override))

        # Rule c, the explanation frame: a value that changes is in changed.
        for i in range(n):
            pos = changed.get(i + 1)
            neg = changed.get(-(i + 1))
            src_t, src_t1 = i + 1 + t * n, i + 1 + (t + 1) * n
            emit((-src_t1, src_t, pos) if pos else (-src_t1, src_t))
            emit((src_t1, -src_t, neg) if neg else (src_t1, -src_t))

    return inst


def to_dimacs(inst: CnfInstance, include_names: bool = False) -> str:
    lines = []
    if include_names:
        for v in sorted(inst.names):
            lines.append("c var %d %s" % (v, inst.names[v]))
    lines.append("p cnf %d %d" % (inst.num_vars, inst.num_clauses))
    for clause in inst.all_clauses():
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


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
    returns the kernel's first model that ``accept`` (when given) takes,
    as the frozenset of its true variables: lowest unassigned variable
    first, false tried first, chronological backtracking."""

    def __init__(
        self,
        clauses: ClauseSet,
        budget: int | None = None,
        stats: SatStats | None = None,
        accept: Callable[[frozenset[int]], bool] | None = None,
    ):
        self.clauses = clauses
        self.budget = budget
        self.stats = stats or SatStats()
        self.stats.vars = max(self.stats.vars, clauses.num_vars)
        self.stats.clauses += clauses.size
        self.accept = accept

    def solve(self, assumptions=()) -> tuple[bool, frozenset[int] | None]:
        self.stats.solves += 1
        for model in self.clauses.models(assumptions, stats=self.stats, budget=self.budget):
            if self.accept is None or self.accept(model):
                return True, model
        return False, None


# ---------------------------------------------------------------------------
# Query bridge


def _compiled(theory: GroundTheory) -> ClauseSet:
    """The theory's clauses, compiled (without the export labels) and
    indexed as they are on the first call, with the theory's
    ``constraints`` as rows at every time point, and kept on
    ``theory.sat_memo``."""
    if theory.sat_memo is None:
        inst = compile_theory(theory, labels=False)
        theory.sat_memo = ClauseSet(inst.num_vars, inst.clauses, theory.constraints, theory.horizon + 1)
    return theory.sat_memo


def decode_model(theory: GroundTheory, model: frozenset[int]) -> Trajectory:
    """The trajectory a model of the theory's clauses, given as its true
    variables, encodes: the state at t holds atom i when variable
    ``t * n_fluents + i + 1`` is in the model.  One pass over the true
    variables, since the fluent variables are numbered t-major and come
    before every auxiliary one."""
    n, horizon = theory.n_fluents, theory.horizon
    last = (horizon + 1) * n
    rows: list[list[int]] = [[] for _ in range(horizon + 1)]
    for v in model:
        if v <= last:
            t, i = divmod(v - 1, n)
            rows[t].append(i)
    states: tuple[State, ...] = tuple(map(frozenset, rows))
    actions = tuple(
        theory.occurrences.get(t, frozenset()) for t in range(horizon)
    )
    return Trajectory(states, actions)


def steps_hold(theory: GroundTheory, traj: Trajectory) -> bool:
    """Whether every step of a decoded model meets rules a, b, c and e
    (``transition.step_holds``).  The clauses already enforce rule d, and
    the other rules except where a cycle lets changes support each other."""
    return all(
        step_holds(theory, source, direct_candidates(theory, source, actions), target)
        for source, target, actions in zip(traj.states, traj.states[1:], traj.actions)
    )


def answer_sat(
    theory: GroundTheory, query: Query, *, budget: int | None = None
) -> EntailmentResult:
    """Answer a query on the theory's compiled clauses (see ``_compiled``).
    Around a ramification cycle only the models whose decoded steps hold
    are accepted; without one every model is a trajectory."""
    clauses = _compiled(theory)
    dynamic_goals, constants_ok = split_goals(theory, query)
    stats = SatStats()

    def is_trajectory(model: frozenset[int]) -> bool:
        return steps_hold(theory, decode_model(theory, model))

    solver = Solver(clauses, budget, stats, accept=None if theory.first_cycle is None else is_trajectory)
    n = theory.n_fluents

    def find_model(forced: Iterable[tuple[Lit, int]]) -> Trajectory | None:
        # literal l at time t is l shifted by t*n away from zero
        sat, model = solver.solve([code + t * n if code > 0 else code - t * n for code, t in forced])
        return decode_model(theory, model) if sat else None

    return decide(theory, query, dynamic_goals, constants_ok, find_model, "sat", stats)
