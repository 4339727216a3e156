"""Model enumeration and entailment over ground theories.

A model is a trajectory: one state per time point from 0 to the horizon,
each consecutive pair linked by a successor transition under the actions
scheduled at that step.  Occurrences are trusted: a trajectory whose state
violates a precondition of a scheduled action is discarded.  Observations
prune: a stated value a trajectory disagrees with discards it, so adding
observations can retract earlier conclusions.

Answers are three-valued.  ``domain-inconsistent`` means no model exists
at all; otherwise ``credulous`` asks whether the goals hold together in
some model and ``skeptical`` whether they hold in every model.  Both are
computed by forcing goal literals (or their complements) as virtual
observations and searching for one model, so the enumeration never runs
longer than it has to.

Enumeration order is fixed: the initial states and each step's targets
come in the order the clause kernel (``clauses.py``) yields them, so
witnesses, countermodels and budget exhaustion are reproducible, and the
first model is the least trajectory that ``sat.py`` returns too, also
when an answer searches its components apart (``answer_theory``).  The
trajectory search keeps its own stack, so neither a long horizon nor a
wide state runs into Python's recursion limit.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import compress

from .clauses import BudgetExceeded
from .grounding import _NONE, Effects, GroundTheory, Lit, Preconditions, State, ground
from .model import Atom, DomainDescription, FluentLiteral
from .transition import legal_occurrence, successor_states

MODES = ("credulous", "skeptical")


@dataclass(frozen=True)
class Query:
    mode: str
    goals: frozenset[tuple[FluentLiteral, int]]
    horizon: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("query mode must be credulous or skeptical, got %r" % self.mode)

    def goal_strings(self) -> tuple[str, ...]:
        return tuple("%s holds-at %d" % (lit, t) for lit, t in sorted(self.goals))


@dataclass
class SearchStats:
    models: int = 0
    nodes: int = 0
    transitions: int = 0
    cache_hits: int = 0
    atoms_total: int = 0
    atoms_sliced: int | None = None

    def as_dict(self) -> dict:
        out = {
            "models": self.models,
            "nodes": self.nodes,
            "transitions": self.transitions,
            "cache_hits": self.cache_hits,
            "atoms_total": self.atoms_total,
        }
        if self.atoms_sliced is not None:
            out["atoms_sliced"] = self.atoms_sliced
        return out


@dataclass(frozen=True)
class Trajectory:
    states: tuple[State, ...]
    actions: tuple[frozenset[Atom], ...]


@dataclass
class EntailmentResult:
    answer: str  # "true" | "false" | "domain-inconsistent"
    mode: str
    goals: tuple[str, ...]
    horizon: int
    backend: str
    witness: dict | None  # rendered trajectory, see render_trajectory
    stats: object  # backend-specific counters exposing as_dict()

    def to_record(self) -> dict:
        return {
            "answer": self.answer,
            "mode": self.mode,
            "goals": list(self.goals),
            "horizon": self.horizon,
            "backend": self.backend,
            "witness": self.witness,
            "stats": self.stats.as_dict(),
        }


def render_trajectory(theory: GroundTheory, traj: Trajectory) -> dict:
    names = [str(a) for a in theory.fluents]
    return {
        "states": [sorted([names[i] for i in st]) for st in traj.states],
        "actions": [sorted(str(a) for a in acts) for acts in traj.actions],
    }


class Evaluator:
    """Shared search context: one successor cache and one node budget for
    all the probes a single answer needs."""

    def __init__(self, theory: GroundTheory, budget: int | None = None):
        self.theory = theory
        self.budget = budget
        self.stats = SearchStats(atoms_total=theory.n_fluents)
        self._succ: dict[tuple[State, frozenset[Atom]], tuple[State, ...]] = {}

    def _tick(self) -> None:
        self.stats.nodes += 1
        if self.budget is not None and self.stats.nodes > self.budget:
            raise BudgetExceeded(self.budget, self.stats, "nodes")

    def successors(self, state: State, actions: frozenset[Atom]) -> tuple[State, ...]:
        key = (state, actions)
        cached = self._succ.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.transitions += 1
        # Every source here is an initial-state model or an earlier
        # successor, so it satisfies the state constraints.
        result = tuple(successor_states(self.theory, state, actions))
        self._succ[key] = result
        return result

    def _initial_states(self, forced: frozenset[Lit]) -> Iterator[State]:
        for model in self.theory.constraints.models(forced):
            self._tick()
            yield frozenset(v - 1 for v in model)

    def _steps(self, state: State, t: int, want: frozenset[Lit] | None) -> tuple[State, ...]:
        """Successors of ``state`` at step ``t`` that agree with ``want``;
        none when the step's actions are illegal in ``state``."""
        theory = self.theory
        actions = theory.occurrences.get(t, _NONE)
        if actions and not legal_occurrence(theory, state, actions):
            return ()
        self._tick()
        targets = self.successors(state, actions)
        if want is None:
            return targets
        return tuple(s for s in targets if all(theory.holds(s, l) for l in want))

    def models(self, forced: Iterable[tuple[Lit, int]] = ()) -> Iterator[Trajectory]:
        """Generate every model compatible with the observations plus the
        ``forced`` timed literals, in the kernel's order: depth first over
        the initial states, then over each step's successors."""
        theory = self.theory
        horizon = theory.horizon
        pinned: dict[int, set[Lit]] = {}
        for t, obs in theory.observations.items():
            pinned.setdefault(t, set()).update(obs)
        for code, t in forced:
            if not 0 <= t <= horizon:
                raise ValueError("forced literal at time %d outside 0..%d" % (t, horizon))
            pinned.setdefault(t, set()).add(code)
        frozen = {t: frozenset(lits) for t, lits in pinned.items()}
        for lits in frozen.values():
            if any(-l in lits for l in lits):
                return
        acts = None  # the actions of every step, built for the first model

        for s0 in self._initial_states(frozen.get(0, frozenset())):
            states = [s0]
            pending: list[Iterator[State]] = []  # untried successors, one per step
            while states:
                t = len(states) - 1
                if t == horizon:
                    self.stats.models += 1
                    if acts is None:
                        acts = tuple(theory.occurrences.get(t, _NONE) for t in range(horizon))
                    yield Trajectory(tuple(states), acts)
                    states.pop()
                else:
                    pending.append(iter(self._steps(states[t], t, frozen.get(t + 1))))
                while pending:
                    target = next(pending[-1], None)
                    if target is not None:
                        states.append(target)
                        break
                    pending.pop()
                    states.pop()

    def first_model(self, forced: Iterable[tuple[Lit, int]] = ()) -> Trajectory | None:
        return next(self.models(forced), None)


def required_horizon(domain: DomainDescription, query: Query) -> int:
    """The horizon a query runs at: explicit if given, otherwise one past
    the largest time point the domain or the goals mention."""
    goal_max = max((t for _, t in query.goals), default=0)
    if query.horizon is not None:
        if query.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if goal_max > query.horizon:
            raise ValueError("goal at time %d lies beyond horizon %d" % (goal_max, query.horizon))
        return query.horizon
    return max(domain.max_time(), goal_max) + 1


def count_models(theory: GroundTheory, budget: int | None = None) -> int:
    ev = Evaluator(theory, budget)
    return sum(1 for _ in ev.models())


def check_consistency(theory: GroundTheory, budget: int | None = None) -> tuple[bool, SearchStats]:
    """Whether at least one model exists."""
    ev = Evaluator(theory, budget)
    return ev.first_model() is not None, ev.stats


def split_goals(theory: GroundTheory, query: Query) -> tuple[list[tuple[Lit, int]], bool]:
    """Validate goals against a theory.  Returns the state-dependent goals
    as timed literal codes (sorted, deduplicated) and whether every goal on
    a constant fluent holds."""
    dynamic_goals: list[tuple[Lit, int]] = []
    constants_ok = True
    for lit, t in sorted(query.goals):
        if not 0 <= t <= theory.horizon:
            raise ValueError("goal at time %d outside 0..%d" % (t, theory.horizon))
        if lit.atom in theory.index:
            dynamic_goals.append((theory.code(lit), t))
        elif lit.atom in theory.constant_values:
            constants_ok &= theory.constant_values[lit.atom] == lit.positive
        else:
            raise ValueError("query mentions %s, not a fluent atom of this domain" % lit.atom)
    return sorted(set(dynamic_goals), key=lambda g: (g[1], abs(g[0]), g[0])), constants_ok


def answer_theory(
    theory: GroundTheory,
    query: Query,
    *,
    budget: int | None = None,
    use_slice: bool = False,
) -> EntailmentResult:
    """Answer a query against an already ground theory.  With a goal on a
    dynamic fluent, the goals' components are searched in their view as
    often as ``decide`` asks, and the other atoms, the rest, once for
    their first trajectory, under the same budget and counters; each
    model is the two joined, the least full trajectory (docs/semantics.md,
    "Answers by decomposition").  ``use_slice`` has no effect."""
    dynamic_goals, constants_ok = split_goals(theory, query)
    if not dynamic_goals:
        ev = Evaluator(theory, budget)
        return decide(theory, query, dynamic_goals, constants_ok, ev.first_model, "engine", ev.stats)

    view, kept = slice_for_goals(theory, {abs(c) - 1 for c, _ in dynamic_goals})
    ev = Evaluator(view, budget)
    ev.stats.atoms_sliced = len(kept)
    find_model = ev.first_model
    if len(kept) < theory.n_fluents:
        mine = set(kept)
        rest = Evaluator(restrict(theory, [a not in mine for a in range(theory.n_fluents)]), budget)
        rest.stats = ev.stats
        first = rest.first_model()  # no rest trajectory, no model

        def find_model(forced: Iterable[tuple[Lit, int]]) -> Trajectory | None:
            model = first and ev.first_model(forced)
            return model and Trajectory(tuple(map(frozenset.union, model.states, first.states)), model.actions)

    return decide(theory, query, dynamic_goals, constants_ok, find_model, "engine", ev.stats)


def decide(
    theory: GroundTheory,
    query: Query,
    dynamic_goals: list[tuple[Lit, int]],
    constants_ok: bool,
    find_model: Callable[[Iterable[tuple[Lit, int]]], Trajectory | None],
    backend: str,
    stats: object,
) -> EntailmentResult:
    """The answer procedure both backends share; they differ only in
    ``find_model``, which returns a model where the given timed literals
    hold, or None.  A query on a domain without models is
    ``domain-inconsistent``.  Credulous asks for one model with every goal
    forced; skeptical asks, goal by goal, for a model with the goal's
    complement forced, and the first one found is the countermodel."""

    def result(answer: str, witness: Trajectory | None = None) -> EntailmentResult:
        return EntailmentResult(
            answer=answer,
            mode=query.mode,
            goals=query.goal_strings(),
            horizon=theory.horizon,
            backend=backend,
            witness=None if witness is None else render_trajectory(theory, witness),
            stats=stats,
        )

    probe = find_model(())
    if probe is None:
        return result("domain-inconsistent")
    if not constants_ok:
        return result("false")
    if query.mode == "credulous":
        witness = find_model(dynamic_goals) if dynamic_goals else probe
        return result("false") if witness is None else result("true", witness)
    for code, t in dynamic_goals:
        counter = find_model([(-code, t)])
        if counter is not None:
            return result("false", counter)
    return result("true")


def answer(
    domain: DomainDescription,
    query: Query,
    *,
    budget: int | None = None,
) -> EntailmentResult:
    """Ground a domain at the horizon the query needs and answer it."""
    theory = ground(domain, required_horizon(domain, query))
    return answer_theory(theory, query, budget=budget)


# ---------------------------------------------------------------------------
# Components


def slice_for_goals(
    theory: GroundTheory, goal_atoms: set[int]
) -> tuple[GroundTheory, tuple[int, ...]]:
    """The view of a theory on the components of the goal atoms, and the
    atoms it keeps, ascending.  Two atoms are connected when some
    ramification statement, or some effect row of an action the theory
    schedules, mentions both (head and body included); an action that
    never occurs links nothing, and only the scheduled actions' rows are
    read, and so ground.  The complement of the kept atoms shares no live
    statement with them, so this one union-find pass labels the rest's
    view too (``restrict``)."""
    n = theory.n_fluents
    # Union the atoms of every linking statement: the goals' components
    # are the kept atoms.
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    def link(head: Lit, members: Iterable[int], shift: int) -> None:
        # joins the atom of ``head`` and the members, atom numbers (shift
        # 0) or literal codes (shift 1)
        first = find(abs(head) - 1)
        for r in members:
            r = abs(r) - shift
            if root[r] != r:
                r = find(r)
            if r != first:
                root[r] = first

    for action in set().union(*theory.occurrences.values()):
        for _, effect, true, false in theory.effects_of(action):
            link(effect, true, 0)
            if false:
                link(effect, false, 0)
    for head, body in theory.rules:
        if head or body:
            link(head or body[0], body, 1)
    roots = {find(a) for a in goal_atoms}
    inside = [find(a) in roots for a in range(n)]
    return restrict(theory, inside), tuple(compress(range(n), inside))


def restrict(theory: GroundTheory, inside: list[bool]) -> GroundTheory:
    """The view of a theory on the atoms ``inside`` marks, a union of
    components, in the theory's own atom numbering: the theory with its
    row accessors, rules and observations replaced, so it shares every
    other field and starts with empty memos and indexes of its own.  Its
    accessors narrow an action's rows the first time they are read; each
    kept row is the theory's own tuple, in the theory's own list when all
    are kept; a groundless denial is kept in every view.  Precondition
    rows and observations lose their atoms outside, and only a row with
    one is rebuilt.  Each atom outside is observed false at time 0:
    nothing in the view can change it, so the search never branches on
    it, and a model of the view joins a model of the complement's view by
    union."""
    n = theory.n_fluents
    mine = frozenset(compress(range(n), inside))

    @functools.cache
    def effects_of(action: Atom) -> Effects:
        rows = theory.effects_of(action)
        kept_rows = tuple(row for row in rows if inside[abs(row[1]) - 1])
        return rows if len(kept_rows) == len(rows) else kept_rows

    @functools.cache
    def preconditions_of(action: Atom) -> Preconditions:
        kept_rows = []
        for row in theory.preconditions_of(action):
            position, true, false, impossible = row
            if not (true <= mine and false <= mine):
                true, false = true & mine, false & mine
                row = (position, true, false, impossible)
            if true or false or impossible:
                kept_rows.append(row)
        return tuple(kept_rows)

    rules = theory.rules
    keep = [inside[abs(head or body[0]) - 1] if head or body else True for head, body in rules]
    if not all(keep):
        rules = list(compress(rules, keep))
    observed = {t: frozenset([c for c in obs if inside[abs(c) - 1]]) for t, obs in theory.observations.items()}
    observations = {t: obs for t, obs in observed.items() if obs}
    pins = frozenset(-(a + 1) for a in range(n) if not inside[a])
    if pins:
        observations[0] = observations.get(0, frozenset()) | pins
    return replace(
        theory, effects_of=effects_of, preconditions_of=preconditions_of, rules=rules, observations=observations
    )
