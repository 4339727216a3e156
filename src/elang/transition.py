"""Successor-state computation for ground theories.

A step is taken from a source state by a set of simultaneous actions.  The
actions' effect statements whose conditions hold in the source state
produce a set of candidate direct effects (fluent literals).  A target
state ``t`` is a successor when some conflict-free subset ``applied`` of the
candidates admits a set ``changed`` of literals such that:

  a. ``changed`` is the least set containing ``applied`` and closed under
     the ramification statements: a statement with head ``h`` and body ``B``
     adds ``h`` whenever every literal of ``B`` holds in ``t`` and at least
     one literal of ``B`` is already in ``changed``.  The closure fails,
     ruling ``t`` out, if it ever contains both a literal and its
     complement.  Denials (``false`` heads) never fire.
  b. every literal in ``changed`` holds in ``t``;
  c. every fluent atom not mentioned in ``changed`` keeps its source
     value (persistence);
  d. ``t`` satisfies every ramification statement read as a state
     constraint, denials included;
  e. every candidate left out of ``applied`` has its complement in
     ``changed``: a produced direct effect may only be dropped when the
     changes propagated from the others override it.

Candidate subsets strictly smaller than the full set are kept even when
the full set itself succeeds; overridden effects and their ramifications
are a genuine source of branching, so both readings survive as distinct
successors.

For a given target only one subset can qualify: the candidates that hold
in ``t``.  Rule b puts every applied candidate in ``t``, and rule e puts
the complement of every other candidate in ``t``.  A step takes one of
two paths, chosen by ``unbranched`` from the theory and the candidates:

* An unbranched step is computed.  When the ramification graph is
  acyclic (``GroundTheory.first_cycle``) and no candidate's complement
  is a candidate or a statement's head (``GroundTheory.heads``), nothing
  can override a candidate, so rule e makes ``applied`` the whole set,
  and each atom's value then depends only on atoms of lower rank
  (``GroundTheory.rank``): the step has at most one target.  ``_closed``
  applies the candidates, fires the statements the changes trigger atom
  by atom in rank order, a literal re-asserted at its source value
  triggering too, and checks rule d only on the clauses where an atom
  that changed value has its source literal, and on the units
  (``docs/semantics.md``, "A step that cannot branch").
* Every other step is searched: ``_searched`` runs one kernel search
  rather than one per subset, and hands rules c, d and e to the clause
  kernel (``clauses.py``) as clauses:

* Only producible literals can enter ``changed``: the candidates, closed
  under the statements with a body literal already producible, as the
  theory's ``triggers`` list them by body literal.  The search runs over
  their atoms, the reach; persistence freezes every other atom at its
  source value.
* Rule d: the theory's own ``constraints``, the statements' clauses as
  read off the rule rows, searched with the frozen atoms fixed.  Every
  kernel model satisfies them, so the targets are not checked again.
* Rules c and e as support clauses, the kernel's overlay for this step.
  A reach atom whose value in ``t`` is no candidate needs a statement
  with that head whose body holds in ``t`` and has a producible literal:
  its change literal by rule c, its source literal by rule e when the
  change is a candidate left out.  A body of one literal enters the
  clause as that literal.  Each longer body gets an auxiliary variable,
  numbered after the theory's atoms so that every target has exactly one
  model; the auxiliaries are projected out.  The clause is in the
  kernel's normal form: repeated literals merged, and left out when a
  body is the literal itself or two bodies are complements.  With no
  such statement the atom keeps its value (rule c) or must change (rule
  e), a unit passed with the assumptions, as is a clause merged to one
  literal.  One more clause asks that some candidate hold in ``t``: with
  none applied, ``changed`` is empty and rule e fails.  It is left out
  when the candidates hold both values of an atom.

What a searched step needs of the theory besides its source, the producible
literals, their atoms (the reach) and the bodies that can support each
reach atom, depends on the candidates only.  ``step_plan`` works it
out once per theory and candidate set and keeps it on ``theory.plans``;
the clausal compiler reads the producible literals from the same memo.
Statements are read as rows: a rule as its head and body, lowest atom
first (``GroundTheory.rules``), the order a body enters the overlay in;
an effect with the atoms its condition needs true and false; and an
occurrence against its preconditions' union (``precondition_test``).

These clauses are necessary, not sufficient: a body may hold in ``t``
with none of its literals in ``changed``, and cyclic statements may
support each other.  So ``step_holds`` checks a model against
conditions a, b, c and e, with ``applied`` the candidates true in it,
except where it cannot fail: when the ramification graph is acyclic
(``GroundTheory.first_cycle``) and every candidate holds in the model.
Rule e is then vacuous, and every change has a support chain back to an
applied candidate, so the least closure explains it
(``docs/semantics.md``, "When the re-check can be skipped").  Each
target has one model, so the targets come in the kernel's order.

The contract of ``successor_states``: its source satisfies the state
constraints.  Every state of a trajectory does, since the initial
states are models of the constraints and every successor meets rule d.
The kernel therefore fixes the frozen values from the reach and the
source's true atoms, never propagating them, so a step costs its reach,
its source and the occurrences of its reach atoms, whatever the size of
the theory, and a step without candidates returns its source.  The
closure relies on it too: only an atom that changed value can break a
clause.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heappop, heappush
from typing import NamedTuple

from .grounding import GroundTheory, Lit, Rule, State
from .model import Atom


def direct_candidates(theory: GroundTheory, state: State, actions: frozenset[Atom]) -> frozenset[Lit]:
    """Direct effect literals produced by ``actions`` in ``state``."""
    out: set[Lit] = set()
    for action in actions:
        for _, effect, true, false in theory.effects_of(action):
            if state.issuperset(true) and state.isdisjoint(false):
                out.add(effect)
    return frozenset(out)


def legal_occurrence(theory: GroundTheory, state: State, actions: frozenset[Atom]) -> bool:
    """True when every precondition of every occurring action holds."""
    for action in actions:
        impossible, true, false = theory.precondition_test(action)
        if impossible or not (state.issuperset(true) and state.isdisjoint(false)):
            return False
    return True


def ramification_closure(
    theory: GroundTheory, applied: frozenset[Lit], target: State
) -> frozenset[Lit] | None:
    """Least fixpoint of condition (a) against a fixed target, or None when
    the closure runs into a complementary pair."""
    if any(-c in applied for c in applied):
        return None
    changed: set[Lit] = set(applied)
    work = list(applied)
    while work:
        lit = work.pop()
        for ri in theory.triggers.get(lit, ()):
            head, body = theory.rules[ri]
            if head in changed or not theory.satisfies(target, body):
                continue
            if -head in changed:
                return None
            changed.add(head)
            work.append(head)
    return frozenset(changed)


# The support clause of a target literal ``need``: its literals fixed by
# the plan, ``-need`` and each one-literal body's literal, normal, or None
# when they make a tautology; then the longer bodies, each of which
# enters the clause through an auxiliary variable.
Support = tuple[tuple[Lit, ...] | None, tuple[tuple[Lit, ...], ...]]


def _support(need: Lit, bodies: list[tuple[Lit, ...]]) -> Support:
    """The support of ``need`` by ``bodies`` (see ``Support``)."""
    clause = [-need]
    longer = []
    for body in bodies:
        if len(body) > 1:
            longer.append(body)
            continue
        [lit] = body
        if -lit in clause:
            return None, ()  # a body that is need itself, or two complements
        if lit not in clause:
            clause.append(lit)
    return tuple(clause), tuple(longer)


class StepPlan(NamedTuple):
    """What a step with a given candidate set needs of the theory, whatever
    its source (see ``step_plan``)."""

    produced: frozenset[Lit]  # the producible literals
    reach: frozenset[int]  # their atoms, as positive codes
    # The reach atoms no body can change, as positive codes: they keep
    # their source values.
    kept: tuple[Lit, ...]
    # The candidates no body can override: they hold.
    forced: tuple[Lit, ...]
    # The other reach atoms, ascending, but those whose two values are both
    # candidates, each with its support for either source value (false,
    # true).
    supported: tuple[tuple[int, Support, Support], ...]
    clause: list[Lit] | None  # some candidate holds, unless a tautology
    true: frozenset[int]  # the atoms the candidates need true
    false: frozenset[int]  # and false


def step_plan(theory: GroundTheory, candidates: frozenset[Lit]) -> StepPlan:
    """The plan of a step with the direct effects ``candidates``, made once
    per theory and candidate set and kept on ``theory.plans``."""
    plan = theory.plans.get(candidates)
    if plan is not None:
        return plan
    # The producible literals: the candidates closed under the statements
    # a literal already among them triggers.  Those statements, the ones
    # a step can fire, give the supporting bodies.
    rules, triggers = theory.rules, theory.triggers
    produced = set(candidates)
    firing: set[int] = set()
    work = list(produced)
    while work:
        for ri in triggers.get(work.pop(), ()):
            firing.add(ri)
            head = rules[ri][0]
            if head not in produced:
                produced.add(head)
                work.append(head)
    bodies_for: dict[Lit, list[tuple[Lit, ...]]] = {}
    for head, body in map(rules.__getitem__, sorted(firing)):
        bodies_for.setdefault(head, []).append(body)
    reach = frozenset(map(abs, produced))
    kept: list[Lit] = []
    forced: list[Lit] = []
    supported = []
    for pos in sorted(reach):
        a, neg = pos - 1, -pos
        making = bodies_for.get(pos, ())
        breaking = bodies_for.get(neg, ())
        if pos in candidates and neg in candidates:
            continue
        if pos in candidates or neg in candidates:
            # the candidate's value, unless a body gives the other one
            value, bodies = (pos, breaking) if pos in candidates else (neg, making)
            if bodies:
                entry = _support(-value, bodies)
                supported.append((a, entry, entry))
            else:
                forced.append(value)
        elif making or breaking:
            supported.append((a, _support(pos, making), _support(neg, breaking)))
        else:
            kept.append(pos)
    plan = theory.plans[candidates] = StepPlan(
        frozenset(produced),
        reach,
        tuple(kept),
        tuple(forced),
        tuple(supported),
        # a tautology when the candidates hold both values of an atom
        None if any(-c in candidates for c in candidates) else list(candidates),
        frozenset([c - 1 for c in candidates if c > 0]),
        frozenset([-c - 1 for c in candidates if c < 0]),
    )
    return plan


def step_holds(theory: GroundTheory, source: State, candidates: frozenset[Lit], target: State) -> bool:
    """Whether ``target`` meets rules a, b, c and e as a step from ``source``
    with the direct effects ``candidates``, ``applied`` being the
    candidates true in ``target`` (the only subset that can qualify)."""
    applied = frozenset(c for c in candidates if theory.holds(target, c))
    changed = ramification_closure(theory, applied, target)
    if changed is None or not all(theory.holds(target, l) for l in changed):
        return False
    mentioned = {abs(l) - 1 for l in changed}
    if any(a not in mentioned for a in source ^ target):
        return False
    return all(-c in changed for c in candidates - applied)


def unbranched(theory: GroundTheory, candidates: frozenset[Lit]) -> bool:
    """Whether a step with the direct effects ``candidates`` has at most one
    target, the closure of them all (see the module docstring): the
    ramification graph is acyclic, and no candidate's complement is a
    candidate or a statement's head, so no candidate can be left out."""
    if theory.first_cycle is not None:
        return False
    heads = theory.heads
    return not any(-c in candidates or -c in heads for c in candidates)


def successor_states(theory: GroundTheory, source: State, actions: frozenset[Atom]) -> list[State]:
    """All successor states of ``source`` under the simultaneous
    ``actions``, in the kernel's order.  ``source`` satisfies the state
    constraints, as every state of a trajectory does."""
    candidates = direct_candidates(theory, source, actions)
    if not candidates:
        return [source]
    if unbranched(theory, candidates):
        return _closed(theory, source, candidates)
    return _searched(theory, source, candidates)


def _closed(theory: GroundTheory, source: State, candidates: frozenset[Lit]) -> list[State]:
    """The one target of an unbranched step, if it has one: every candidate
    applied, then the triggered statements fired atom by atom in rank
    order, then rule d on the clauses a changed value can break."""
    rules, triggers, rank = theory.rules, theory.triggers, theory.rank
    target = set(source)
    changed = set(candidates)
    pending: dict[int, list[Rule]] = {}  # by rank, a head atom's triggered statements
    heap: list[int] = []  # the ranks of pending
    for c in candidates:
        if c > 0:
            target.add(c - 1)
        else:
            target.discard(-c - 1)
    new: Iterable[Lit] = candidates
    while True:
        # A literal entering ``changed`` triggers its statements, at its
        # source value too (rule a).  Every head ranks above its body, so
        # an atom's statements are all triggered before it is visited.
        for lit in new:
            for ri in triggers.get(lit, ()):
                rule = rules[ri]
                r = rank[abs(rule[0]) - 1]
                waiting = pending.get(r)
                if waiting is None:
                    pending[r] = [rule]
                    heappush(heap, r)
                else:
                    waiting.append(rule)
        if not heap:
            break
        fired = set()
        for head, body in pending[heappop(heap)]:
            for b in body:
                if (b > 0) != (abs(b) - 1 in target):
                    break
            else:
                fired.add(head)
        new = ()
        if fired:
            if len(fired) > 1:
                return []  # both values of the atom
            [head] = fired
            if head not in changed:
                changed.add(head)
                new = (head,)
                if head > 0:
                    target.add(head - 1)
                else:
                    target.discard(-head - 1)
    # Rule d: the source satisfies every clause, so only a clause with the
    # source literal of an atom that changed value can be broken; and a
    # unit, which has no occurrences.
    constraints = theory.constraints
    occurs = constraints.occurs
    for a in target.symmetric_difference(source):
        for entry in occurs[a + 1 if a in source else -a - 1]:
            if entry.__class__ is int:  # a binary clause's other literal
                if (entry > 0) != (abs(entry) - 1 in target):
                    return []
            else:
                for l in entry:
                    if (l > 0) == (abs(l) - 1 in target):
                        break
                else:
                    return []
    for unit in constraints.units:
        if (unit > 0) != (abs(unit) - 1 in target):
            return []
    return [frozenset(target)]


def _searched(theory: GroundTheory, source: State, candidates: frozenset[Lit]) -> list[State]:
    """The targets of a step with the direct effects ``candidates``, not
    empty, found by the kernel search, in the kernel's order."""
    plan = step_plan(theory, candidates)

    # Rules c and e as support clauses (see the module docstring).  Each
    # longer supporting body is an auxiliary variable s <-> body, numbered
    # after the atoms so that the atoms fix it.  A support clause of one
    # literal is a unit, which goes with the assumptions.
    n = theory.n_fluents
    overlay: list[list[Lit] | tuple[Lit, ...]] = []
    units = [v if v - 1 in source else -v for v in plan.kept]
    units += plan.forced
    aux = n
    for a, if_false, if_true in plan.supported:
        clause, bodies = if_true if a in source else if_false
        if clause is None:
            continue  # a tautology
        if bodies:
            support = list(clause)
            for body in bodies:
                aux += 1
                overlay.append([aux] + [-l for l in body])
                overlay.extend([-aux, l] for l in body)
                support.append(aux)
            overlay.append(support)
        elif len(clause) == 1:
            units.append(clause[0])
        else:
            overlay.append(clause)
    # With no candidate applied nothing changes, and rule e fails for every
    # candidate: so some candidate holds in the target.
    if plan.clause is not None:
        overlay.append(plan.clause)

    # Rule d: the theory's own constraints.  Persistence freezes every atom
    # outside the reach at its source value, and the kernel fixes those
    # values, the reach open: the source satisfies the constraints, so they
    # need no propagating.  A model in which every candidate holds passes
    # ``step_holds`` unchecked when the ramification graph is acyclic (see
    # the module docstring).
    reach = plan.reach
    fixed = (reach, [a + 1 for a in source if a + 1 not in reach])
    trusted = theory.first_cycle is None
    true, false = plan.true, plan.false
    found: list[State] = []
    for model in theory.constraints.models(units, fixed=fixed, extra=overlay):
        target = frozenset(v - 1 for v in model if v <= n)
        if (trusted and target.issuperset(true) and target.isdisjoint(false)) or step_holds(
            theory, source, candidates, target
        ):
            found.append(target)
    return found

