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
the complement of every other candidate in ``t``.  So ``successor_states``
runs one search per step rather than one per subset.  It searches targets
over the atoms reachable from the candidates through ramification heads
(everything else is frozen by persistence).  The state constraints,
folded against the frozen atoms, go to the clause kernel (``clauses.py``)
with one kind of assumption: an atom whose change no candidate or rule
head could explain keeps its source value.  Each model the kernel yields
is then checked against conditions a-e, with ``applied`` the candidates
true in it.  ``brute_force_successors`` checks the definition, subset by
subset, over all assignments and is the reference the search is tested
against.
"""

from __future__ import annotations

from collections.abc import Iterable

from .clauses import ClauseSet
from .grounding import GroundTheory, Lit, State
from .model import Atom


def direct_candidates(theory: GroundTheory, state: State, actions: frozenset[Atom]) -> frozenset[Lit]:
    """Direct effect literals produced by ``actions`` in ``state``."""
    out: set[Lit] = set()
    for action in actions:
        for ci in theory.cprops_by_action.get(action, ()):
            cp = theory.cprops[ci]
            if theory.satisfies(state, cp.condition):
                out.add(cp.fluent + 1 if cp.initiates else -(cp.fluent + 1))
    return frozenset(out)


def legal_occurrence(theory: GroundTheory, state: State, actions: frozenset[Atom]) -> bool:
    """True when every precondition of every occurring action holds."""
    for action in actions:
        for pi in theory.pprops_by_action.get(action, ()):
            pp = theory.pprops[pi]
            if pp.impossible or not theory.satisfies(state, pp.condition):
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
    work = sorted(applied, key=lambda c: (abs(c), c))
    while work:
        lit = work.pop()
        for ri in theory.rprops_by_body_atom.get(abs(lit) - 1, ()):
            rp = theory.rprops[ri]
            if rp.head is None or rp.head in changed:
                continue
            if lit not in rp.condition:
                continue
            if not theory.satisfies(target, rp.condition):
                continue
            if -rp.head in changed:
                return None
            changed.add(rp.head)
            work.append(rp.head)
    return frozenset(changed)


def _conflict_free_subsets(candidates: frozenset[Lit]):
    """All subsets without complementary pairs, in a fixed order."""
    ordered = sorted(candidates, key=lambda c: (abs(c), c))
    n = len(ordered)
    for mask in range(1 << n):
        subset = frozenset(ordered[j] for j in range(n) if mask >> j & 1)
        if any(-c in subset for c in subset):
            continue
        yield subset


def _verify_target(
    theory: GroundTheory,
    source: State,
    applied: frozenset[Lit],
    candidates: frozenset[Lit],
    target: State,
) -> bool:
    changed = ramification_closure(theory, applied, target)
    if changed is None:
        return False
    if not all(theory.holds(target, l) for l in changed):
        return False
    mentioned = {abs(l) - 1 for l in changed}
    if any(a not in mentioned for a in source ^ target):
        return False
    if not theory.state_consistent(target):
        return False
    return all(-c in changed for c in candidates - applied)


def _sorted_states(states: Iterable[State]) -> list[State]:
    return sorted(states, key=lambda s: tuple(sorted(s)))


def successor_states(theory: GroundTheory, source: State, actions: frozenset[Atom]) -> list[State]:
    """All successor states of ``source`` under the simultaneous
    ``actions``, sorted by contents."""
    candidates = direct_candidates(theory, source, actions)
    if not candidates:
        return [source] if theory.state_consistent(source) else []

    # Atoms reachable from the candidates through ramification heads;
    # persistence freezes everything else at its source value.
    reach: set[int] = {abs(c) - 1 for c in candidates}
    work = list(reach)
    while work:
        a = work.pop()
        for ri in theory.rprops_by_body_atom.get(a, ()):
            rp = theory.rprops[ri]
            if rp.head is None:
                continue
            h = abs(rp.head) - 1
            if h not in reach:
                reach.add(h)
                work.append(h)

    # Constraint clauses folded against the frozen atoms, over the reach
    # atoms renumbered 1..k in sorted order.
    order = sorted(reach)
    var = {a: i + 1 for i, a in enumerate(order)}
    clauses: list[list[Lit]] = []
    for clause in theory.constraint_clauses:
        lits: list[Lit] = []
        for lit in clause:
            a = abs(lit) - 1
            if a in reach:
                lits.append(var[a] if lit > 0 else -var[a])
            elif (a in source) == (lit > 0):
                break  # satisfied by a frozen value
        else:
            if not lits:
                return []  # violated by frozen values alone
            clauses.append(lits)

    # An atom whose change no candidate or rule head could explain keeps
    # its source value.
    assumptions: list[Lit] = []
    for a in order:
        change = -(a + 1) if a in source else a + 1
        if change in candidates:
            continue
        if any(theory.rprops[ri].head == change for ri in theory.rprops_by_head_atom.get(a, ())):
            continue
        assumptions.append(var[a] if a in source else -var[a])
    prefer = frozenset(var[a] for a in order if a in source)
    frozen = source - reach
    found: list[State] = []
    for model in ClauseSet(len(order), clauses).models(assumptions, prefer):
        target = frozenset(order[v - 1] for v in model) | frozen
        applied = frozenset(c for c in candidates if theory.holds(target, c))
        if _verify_target(theory, source, applied, candidates, target):
            found.append(target)
    return _sorted_states(found)


def brute_force_successors(
    theory: GroundTheory, source: State, actions: frozenset[Atom], bound: int = 16
) -> list[State]:
    """Reference implementation: test every assignment against the
    successor conditions for every conflict-free subset of the candidates.
    Exponential; refuses theories over ``bound``."""
    n = theory.n_fluents
    if n > bound:
        raise ValueError("brute force limited to %d fluent atoms, theory has %d" % (bound, n))
    candidates = direct_candidates(theory, source, actions)
    found: set[State] = set()
    for applied in _conflict_free_subsets(candidates):
        for bits in range(1 << n):
            target = frozenset(i for i in range(n) if bits >> i & 1)
            if target not in found and _verify_target(theory, source, applied, candidates, target):
                found.add(target)
    return _sorted_states(found)
