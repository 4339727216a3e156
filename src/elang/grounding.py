"""Grounding: from a sorted domain description to an indexed ground theory.

Variables are replaced by constants of their sorts, disequalities are
evaluated away, and fluents marked ``constant`` are resolved up front:
their values never change, so they are computed once by a least fixpoint
(closed-world: a constant atom is false unless stated or derived) and then
substituted into every condition.  A statement instance whose condition
mentions a false constant literal is dropped; true constant literals are
removed, leaving a residue over state-dependent fluents only.

Constant derivation uses rules with all-positive constant bodies; a rule
over constant fluents with a negative premise is not a derivation step but
an integrity check against the fixed values (this keeps the fixpoint a
plain monotone closure).

Each effect, whenever and needs statement is compiled once into a
template (``_Template``): its bindings with the disequalities applied,
and for each atom a table from the binding to the atom's literal code,
constant value or action.  Instances are read off the tables; no
substituted copy of a statement is built.  The statements over constant
fluents only (constant heads, denials over constants, constant
observations) are expanded first, for the fixpoint; the others after it,
with their constant literals looked up in the fixed values.  Instances
come out in statement order and, within a statement, in binding order:
variables in sorted-name order, each ranging over its sort's constants in
declaration order.  Errors keep a fixed precedence: an invalid domain,
then the first statement (in source order) that makes a constant fluent
change or depend on the state, then a denied or violated constant value,
then an observation or occurrence outside the horizon.

The result is a :class:`GroundTheory` over integer literal codes: fluent
atom number ``i`` (0-based, declaration order, argument tuples in each
sort's declaration order) is ``+(i+1)`` when true and ``-(i+1)`` when
false.  States are frozensets of true atom numbers.

Grounding builds the ramification and precondition instances, but no
effect instance: an effect statement only counts the bindings it keeps,
so ``stats`` is exact.  ``GroundTheory.effects_of(action)`` grounds one
action's effect instances the first time it is asked for: each effect
statement groups its kept bindings by the arguments they give its action
atom, once, so an action reads only its own.  Each instance comes with
its position in ``cprops``, the full list in statement order and binding
order, which is built, statement by statement over the kept bindings,
only when something reads it (``elang ground --dump``).  The step
search, the clausal compiler and the relevance slice read effects per
action, so a query grounds only the effects of the actions its narrative
schedules, much as gringo instantiates only what is relevant (Gebser et
al., LPNMR 2007).  The indexes over the statement lists (the constraint
clauses, the rules by body atom, the preconditions by action and the
first cycle in the ramification graph) are likewise derived the first
time they are read, so a caller that needs few of them, such as a
relevance slice, pays for no others.  So are the tests the step search
reads off an action's effects (``effect_tests``: each condition split
into the atoms it needs true and false) and its per-candidate-set plans
(``plans``, filled by ``transition.step_plan``).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

from .clauses import ClauseSet
from .model import (
    Atom,
    Condition,
    CProp,
    DomainDescription,
    FluentLiteral,
    HProp,
    PProp,
    RProp,
    Signature,
    TProp,
    errors_of,
    infer_variable_sorts,
    validate,
)

Lit = int
State = frozenset[int]


class GroundingError(Exception):
    def __init__(self, message: str, kind: str = "grounding"):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class GroundCProp:
    action: Atom
    initiates: bool
    fluent: int  # atom number of the affected fluent
    condition: frozenset[Lit]
    src: int  # index of the originating proposition


@dataclass(frozen=True)
class GroundRProp:
    head: Lit | None  # None encodes a denial
    condition: frozenset[Lit]
    src: int


@dataclass(frozen=True)
class GroundPProp:
    action: Atom
    condition: frozenset[Lit]
    src: int
    impossible: bool = False  # condition mentions a false constant literal


@dataclass
class GroundingStats:
    fluent_atoms: int = 0
    constant_atoms: int = 0
    cprops: int = 0
    rprops: int = 0
    denials: int = 0
    pprops: int = 0
    occurrences: int = 0
    observations: int = 0
    dropped_instances: int = 0
    horizon: int = 0


# An action's effect instances, each with its position in the full list.
Instances = tuple[tuple[int, GroundCProp], ...]
# An action's effects as (effect literal, atoms the condition needs true,
# atoms it needs false).
EffectTests = tuple[tuple[Lit, frozenset[int], frozenset[int]], ...]


@dataclass
class GroundTheory:
    fluents: tuple[Atom, ...]
    index: dict[Atom, int]
    constant_values: dict[Atom, bool]
    ground_effects: Callable[[Atom], Instances]  # one action's, on first read
    ground_all_effects: Callable[[], list[GroundCProp]]  # in position order
    rprops: list[GroundRProp]
    pprops: list[GroundPProp]
    occurrences: dict[int, frozenset[Atom]]  # time -> simultaneous actions
    observations: dict[int, frozenset[Lit]]  # time -> observed literals
    horizon: int
    stats: GroundingStats
    # Filled by the clausal backend on first use (sat.answer_sat): the
    # compiled clauses.
    sat_memo: object = field(default=None, repr=False, compare=False)
    # The effect instances ground so far, by action.
    effects: dict[Atom, Instances] = field(default_factory=dict, repr=False, compare=False)
    # The effect tests made so far, by action (``effect_tests``).
    tests: dict[Atom, EffectTests] = field(default_factory=dict, repr=False, compare=False)
    # The step plans made so far, by candidate set (``transition.step_plan``).
    plans: dict[frozenset[Lit], object] = field(default_factory=dict, repr=False, compare=False)

    # Derived indexes over the statement lists, each built the first time
    # it is read: a sliced query indexes only the slice, and the clausal
    # backend never builds ``constraints``.  The lists are not changed
    # after grounding, so an index once built stays valid.

    @cached_property
    def constraint_clauses(self) -> tuple[frozenset[Lit], ...]:
        """Each ramification statement and denial as a clause."""
        clauses = []
        for rp in self.rprops:
            clause = {-c for c in rp.condition}
            if rp.head is not None:
                clause.add(rp.head)
            clauses.append(frozenset(clause))
        return tuple(clauses)

    @cached_property
    def constraints(self) -> ClauseSet:
        """``constraint_clauses``, indexed for search."""
        return ClauseSet(self.n_fluents, self.constraint_clauses)

    @cached_property
    def rprops_by_body_atom(self) -> dict[int, tuple[int, ...]]:
        by_body: dict[int, list[int]] = {}
        for ri, rp in enumerate(self.rprops):
            for c in rp.condition:
                by_body.setdefault(abs(c) - 1, []).append(ri)
        return {k: tuple(v) for k, v in by_body.items()}

    @cached_property
    def pprops_by_action(self) -> dict[Atom, tuple[int, ...]]:
        """The positions of each action's preconditions, in list order."""
        by_action: dict[Atom, list[int]] = {}
        for i, pp in enumerate(self.pprops):
            by_action.setdefault(pp.action, []).append(i)
        return {k: tuple(v) for k, v in by_action.items()}

    @cached_property
    def first_cycle(self) -> tuple[int, ...] | None:
        """The first cycle in the ramification graph (body atom to head
        atom, over the statements with a head) that a depth-first search
        meets, roots and successors taken in ascending order, as the path
        from the repeated atom back to it; None when the graph is acyclic."""
        graph: dict[int, set[int]] = {}
        for rp in self.rprops:
            if rp.head is None:
                continue
            h = abs(rp.head) - 1
            for c in rp.condition:
                graph.setdefault(abs(c) - 1, set()).add(h)
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
                        return tuple(path[path.index(b) :]) + (b,)
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

    @cached_property
    def cprops(self) -> list[GroundCProp]:
        """Every effect instance, in statement order and binding order."""
        return self.ground_all_effects()

    def effects_of(self, action: Atom) -> Instances:
        """The effect instances of ``action`` with their positions in
        ``cprops``, ground the first time they are asked for."""
        found = self.effects.get(action)
        if found is None:
            found = self.effects[action] = self.ground_effects(action)
        return found

    def effect_tests(self, action: Atom) -> EffectTests:
        """The effects of ``action``, in ``effects_of`` order, each with its
        condition split into the atoms it needs true and false, so that a
        state is tested with two set operations; made the first time they
        are asked for."""
        found = self.tests.get(action)
        if found is None:
            found = self.tests[action] = tuple(
                (cp.fluent + 1 if cp.initiates else -(cp.fluent + 1), *split_condition(cp.condition))
                for _, cp in self.effects_of(action)
            )
        return found

    @property
    def n_fluents(self) -> int:
        return len(self.fluents)

    def code(self, literal: FluentLiteral) -> Lit:
        num = self.index[literal.atom] + 1
        return num if literal.positive else -num

    def atom_of(self, code: Lit) -> Atom:
        return self.fluents[abs(code) - 1]

    def decode(self, code: Lit) -> FluentLiteral:
        return FluentLiteral(self.atom_of(code), code > 0)

    def lit_str(self, code: Lit) -> str:
        return str(self.decode(code))

    def holds(self, state: State, code: Lit) -> bool:
        return (abs(code) - 1 in state) == (code > 0)

    def satisfies(self, state: State, condition: frozenset[Lit]) -> bool:
        return all(self.holds(state, c) for c in condition)

    def state_consistent(self, state: State) -> bool:
        """Whether ``state`` satisfies every state constraint."""
        return all(any(self.holds(state, c) for c in cl) for cl in self.constraint_clauses)

    def state_str(self, state: State) -> str:
        return "{%s}" % ", ".join(str(self.fluents[i]) for i in sorted(state))


_NONE: frozenset[int] = frozenset()


def split_condition(condition: frozenset[Lit]) -> tuple[frozenset[int], frozenset[int]]:
    """The atoms ``condition`` needs true and the atoms it needs false: it
    holds in a state that contains the first and meets none of the second.
    An empty side is one shared empty set."""
    true, false = [], []
    for c in condition:
        if c > 0:
            true.append(c - 1)
        else:
            false.append(-c - 1)
    return frozenset(true) if true else _NONE, frozenset(false) if false else _NONE


class _Template:
    """One effect, whenever or needs statement compiled for grounding.

    Its variables are slots in sorted-name order, so ``bindings`` lists the
    sort-respecting bindings in the order ``itertools.product`` visits
    them, less the ones a disequality rules out (``dropped`` counts
    those).  ``lookup`` compiles an atom of the statement into a getter and
    a table over the slots the atom uses: ``table[getter(binding)]`` is
    the atom's value, computed once per ground argument tuple."""

    def __init__(self, sig: Signature, prop: CProp | RProp | PProp, src: int):
        var_sorts, problems = infer_variable_sorts(sig, prop)
        if problems:
            raise GroundingError("cannot ground statement %d: %s" % (src, problems[0]))
        names = sorted(var_sorts)
        self.pools = []
        for v in names:
            constants = sig.sorts.get(var_sorts[v])
            if constants is None:
                raise GroundingError(
                    "cannot ground statement %d: sort %s is not declared" % (src, var_sorts[v])
                )
            self.pools.append(constants)
        self.names = names
        self.slot = {v: i for i, v in enumerate(names)}
        bindings = list(itertools.product(*self.pools))
        kept = bindings
        for a, b in prop.condition.diseqs:
            i, j = self.slot.get(a), self.slot.get(b)
            if i is None:
                i, j, a, b = j, i, b, a
            if i is None:
                kept = kept if a != b else []
            elif j is None:
                kept = [combo for combo in kept if combo[i] != b]
            else:
                kept = [combo for combo in kept if combo[i] != combo[j]]
        self.bindings = kept
        self.dropped = len(bindings) - len(kept)

    def lookup(self, atom: Atom, value: Callable[[tuple[str, ...]], object]):
        slots = sorted({self.slot[t] for t in atom.args if t in self.slot})
        getter = operator.itemgetter(*slots) if slots else _no_slots
        where = [slots.index(self.slot[t]) if t in self.slot else None for t in atom.args]
        table = {}
        for combo in itertools.product(*(self.pools[i] for i in slots)):
            args = tuple(t if k is None else combo[k] for k, t in zip(where, atom.args))
            table[combo[0] if len(slots) == 1 else combo] = value(args)
        return getter, table

    def instance(self, atom: Atom, combo: tuple[str, ...]) -> Atom:
        """``atom`` under one binding, for error messages."""
        return atom.substitute(dict(zip(self.names, combo)))


def _no_slots(combo: tuple[str, ...]) -> tuple[()]:
    return ()


class _Effect:
    """An effect statement over a dynamic fluent, ground one action at a
    time.  Grounding keeps its ``kept`` bindings, those whose constant
    literals hold and whose literals never clash, and the tables of its
    dynamic condition literals.  Its instances take the positions from
    ``offset`` on in the theory's full effect list, one per kept binding
    in binding order.  The first time an action is asked for, the kept
    bindings are grouped by the values they give the statement's action
    atom, so each action finds its own directly."""

    def __init__(
        self, tpl: _Template, prop: CProp, src: int, offset: int, kept, dynamic, fluent_numbers
    ):
        self.tpl = tpl
        self.prop = prop
        self.src = src
        self.offset = offset
        self.kept = kept
        self.dynamic = dynamic
        self.fluent_numbers = fluent_numbers
        self._by_key: dict[object, list[tuple[int, tuple[str, ...]]]] | None = None
        self._fluent = None

    def _instance(self, action: Atom, combo: tuple[str, ...]) -> GroundCProp:
        if self._fluent is None:
            self._fluent = self.tpl.lookup(self.prop.fluent, self.fluent_numbers.get)
        get_fluent, fluents = self._fluent
        codes = frozenset([table[getter(combo)] for getter, table in self.dynamic])
        return GroundCProp(action, self.prop.initiates, fluents[get_fluent(combo)], codes, self.src)

    def of(self, action: Atom) -> Instances:
        """The instances of ``action``, in binding order."""
        args, slot = self.prop.action.args, self.tpl.slot
        # an action names a kept binding by its arguments in the places of
        # the statement's variables; its other arguments must be the
        # statement's constants
        if any(t not in slot and t != value for t, value in zip(args, action.args)):
            return ()
        places = [k for k, t in enumerate(args) if t in slot]
        key_of = operator.itemgetter(*places) if places else _no_slots
        if self._by_key is None:
            of_combo = operator.itemgetter(*(slot[args[k]] for k in places)) if places else _no_slots
            self._by_key = {}
            for position, combo in enumerate(self.kept, self.offset):
                self._by_key.setdefault(of_combo(combo), []).append((position, combo))
        found = self._by_key.get(key_of(action.args), ())
        return tuple((position, self._instance(action, combo)) for position, combo in found)

    def all(self) -> list[GroundCProp]:
        """Every instance, in binding order."""
        action = self.prop.action
        get_action, actions = self.tpl.lookup(action, partial(Atom, action.name))
        return [self._instance(actions[get_action(combo)], combo) for combo in self.kept]


def ground(domain: DomainDescription, horizon: int | None = None) -> GroundTheory:
    """Ground a validated domain.  ``horizon`` defaults to the largest time
    point mentioned plus one (at least 1); action occurrences must fall
    strictly below it so every occurrence has a following state."""
    diagnostics = errors_of(validate(domain))
    if diagnostics:
        raise GroundingError("invalid domain: %s" % diagnostics[0], kind="invalid-domain")
    sig = domain.signature
    if horizon is None:
        horizon = max(domain.max_time() + 1, 1)
    if horizon < 1:
        raise GroundingError("horizon must be at least 1", kind="horizon")

    stats = GroundingStats(horizon=horizon)

    # Dynamic and constant atoms are numbered apart; numbers[name][args]
    # is an atom's number among its kind, and its code is that plus one.
    constant_atoms: list[Atom] = []
    dynamic_atoms: list[Atom] = []
    numbers: dict[str, dict[tuple[str, ...], int]] = {}
    for decl in sig.fluents.values():
        atoms = constant_atoms if decl.constant else dynamic_atoms
        table = numbers[decl.name] = {}
        for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts)):
            table[args] = len(atoms)
            atoms.append(Atom(decl.name, args))
    fluents = tuple(dynamic_atoms)
    index = {atom: i for i, atom in enumerate(fluents)}
    stats.fluent_atoms = len(fluents)
    stats.constant_atoms = len(constant_atoms)
    values = [False] * len(constant_atoms)  # closed world until derived

    def is_constant(atom: Atom) -> bool:
        return sig.fluents[atom.name].constant

    def coder(lit: FluentLiteral) -> Callable[[tuple[str, ...]], Lit]:
        nums, sign = numbers[lit.atom.name], 1 if lit.positive else -1
        return lambda args: sign * (nums[args] + 1)

    def holds(code: Lit) -> bool:
        return values[abs(code) - 1] == (code > 0)

    props = domain.propositions
    templates = {
        src: _Template(sig, prop, src)
        for src, prop in enumerate(props)
        if not isinstance(prop, (TProp, HProp))
    }
    stats.dropped_instances = sum(t.dropped for t in templates.values())

    # Before the fixpoint: expand the statements over constant fluents
    # only, and reject the first that lets a constant fluent change or
    # depend on the state.
    facts: list[Lit] = []
    denied: list[tuple[Lit, int]] = []
    rules: list[tuple[tuple[Lit, ...], Lit]] = []
    checks: list[tuple[tuple[Lit, ...], Lit | None, int]] = []
    for src, prop in enumerate(props):
        if isinstance(prop, TProp) and is_constant(prop.literal.atom):
            code = coder(prop.literal)(prop.literal.atom.args)
            if code > 0:
                facts.append(code)
            else:
                denied.append((code, src))
        if not isinstance(prop, (CProp, RProp)):
            continue
        tpl = templates[src]
        if isinstance(prop, CProp):
            if is_constant(prop.fluent) and tpl.bindings:
                first = tpl.bindings[0]
                raise GroundingError(
                    "statement %d lets action %s change constant fluent %s"
                    % (src, tpl.instance(prop.action, first), tpl.instance(prop.fluent, first)),
                    kind="constant-effect",
                )
            continue
        body_constant = all(is_constant(l.atom) for l in prop.condition.literals)
        head_constant = prop.head is not None and is_constant(prop.head.atom)
        if head_constant and not body_constant:
            if tpl.bindings:
                raise GroundingError(
                    "statement %d makes constant fluent %s depend on state-varying fluents"
                    % (src, tpl.instance(prop.head.atom, tpl.bindings[0])),
                    kind="constant-dynamic",
                )
            continue
        if not body_constant or not (head_constant or prop.head is None):
            continue
        # A rule with a negative premise is a closed-world test, not a
        # derivation step: checking it after the fixpoint keeps the
        # fixpoint a plain monotone closure.
        derives = head_constant and prop.head.positive
        derives = derives and all(l.positive for l in prop.condition.literals)
        body = [tpl.lookup(l.atom, coder(l)) for l in prop.condition.literals]
        head = None if prop.head is None else tpl.lookup(prop.head.atom, coder(prop.head))
        for combo in tpl.bindings:
            codes = tuple(table[getter(combo)] for getter, table in body)
            head_code = None if head is None else head[1][head[0](combo)]
            if derives:
                rules.append((codes, head_code))
            else:
                checks.append((codes, head_code, src))
        if prop.head is None:
            # a denial over constants never holds (checked below), so every
            # instance of it is dropped
            stats.dropped_instances += len(tpl.bindings)
    for code in facts:
        values[code - 1] = True
    changed = True
    while changed:
        changed = False
        for body_codes, head_code in rules:
            if not values[head_code - 1] and all(values[c - 1] for c in body_codes):
                values[head_code - 1] = True
                changed = True
    for code, src in denied:
        if values[-code - 1]:
            raise GroundingError(
                "statement %d denies constant fluent %s, which is derived true"
                % (src, constant_atoms[-code - 1]),
                kind="constant-conflict",
            )
    for body_codes, head_code, src in checks:
        if all(holds(c) for c in body_codes) and (head_code is None or not holds(head_code)):
            raise GroundingError(
                "statement %d is violated by the fixed constant fluent values" % src,
                kind="constant-contradiction",
            )

    def residues(tpl: _Template, condition: Condition):
        """The getters and tables of the condition's dynamic literals, and a
        test that a binding's constant literals hold and its codes never
        clash; the test is None when every binding passes it."""
        fixed, dynamic, signs = [], [], set()
        for lit in condition.literals:
            if is_constant(lit.atom):
                code = coder(lit)
                fixed.append(tpl.lookup(lit.atom, lambda args, code=code: holds(code(args))))
            else:
                dynamic.append(tpl.lookup(lit.atom, coder(lit)))
                signs.add((lit.atom.name, lit.positive))
        may_clash = any((name, False) in signs for name, positive in signs if positive)
        if not fixed and not may_clash:
            return dynamic, None

        def passes(combo: tuple[str, ...]) -> bool:
            for getter, table in fixed:
                if not table[getter(combo)]:
                    return False
            if may_clash:
                codes = {table[getter(combo)] for getter, table in dynamic}
                return not any(-c in codes for c in codes)
            return True

        return dynamic, passes

    # After the fixpoint: expand the statements over dynamic fluents, in
    # statement order and binding order, with constants resolved.  An
    # effect statement only counts the bindings it keeps; its instances
    # are ground per action when first asked for (``_Effect``).
    effects: list[_Effect] = []
    effects_by_action: dict[str, list[_Effect]] = {}
    n_effects = 0
    rprops: list[GroundRProp] = []
    pprops: list[GroundPProp] = []
    occurrences: dict[int, set[Atom]] = {}
    observations: dict[int, set[Lit]] = {}
    for src, prop in enumerate(props):
        if isinstance(prop, TProp):
            if is_constant(prop.literal.atom):
                continue
            if not (0 <= prop.time <= horizon):
                raise GroundingError(
                    "observation at time %d is outside 0..%d" % (prop.time, horizon),
                    kind="horizon",
                )
            code = coder(prop.literal)(prop.literal.atom.args)
            observations.setdefault(prop.time, set()).add(code)
        elif isinstance(prop, HProp):
            if not (0 <= prop.time < horizon):
                raise GroundingError(
                    "occurrence at time %d has no following state within horizon %d"
                    % (prop.time, horizon),
                    kind="horizon",
                )
            occurrences.setdefault(prop.time, set()).add(prop.action)
        elif isinstance(prop, CProp):
            if is_constant(prop.fluent):
                continue
            tpl = templates[src]
            dynamic, passes = residues(tpl, prop.condition)
            kept = tpl.bindings if passes is None else list(filter(passes, tpl.bindings))
            stats.dropped_instances += len(tpl.bindings) - len(kept)
            effect = _Effect(tpl, prop, src, n_effects, kept, dynamic, numbers[prop.fluent.name])
            effects.append(effect)
            effects_by_action.setdefault(prop.action.name, []).append(effect)
            n_effects += len(kept)
        elif isinstance(prop, RProp):
            if prop.head is None:
                if all(is_constant(l.atom) for l in prop.condition.literals):
                    continue  # dropped above
                get_head, heads = _no_slots, {(): None}
            elif is_constant(prop.head.atom):
                continue  # folded into the constant fixpoint above
            else:
                get_head, heads = templates[src].lookup(prop.head.atom, coder(prop.head))
            dynamic, passes = residues(templates[src], prop.condition)
            for combo in templates[src].bindings:
                if passes is None or passes(combo):
                    codes = frozenset([table[getter(combo)] for getter, table in dynamic])
                    rprops.append(GroundRProp(heads[get_head(combo)], codes, src))
                else:
                    stats.dropped_instances += 1
        else:
            tpl = templates[src]
            get_action, actions = tpl.lookup(prop.action, partial(Atom, prop.action.name))
            dynamic, passes = residues(tpl, prop.condition)
            for combo in tpl.bindings:
                codes = frozenset([table[getter(combo)] for getter, table in dynamic])
                # a precondition that can never hold keeps its action from
                # ever occurring legally
                impossible = passes is not None and not passes(combo)
                pprops.append(GroundPProp(actions[get_action(combo)], codes, src, impossible))

    def ground_effects(action: Atom) -> Instances:
        return tuple(
            pair for effect in effects_by_action.get(action.name, ()) for pair in effect.of(action)
        )

    def ground_all_effects() -> list[GroundCProp]:
        return [cp for effect in effects for cp in effect.all()]

    stats.cprops = n_effects
    stats.rprops = sum(1 for r in rprops if r.head is not None)
    stats.denials = sum(1 for r in rprops if r.head is None)
    stats.pprops = len(pprops)
    stats.occurrences = sum(len(v) for v in occurrences.values())
    stats.observations = sum(len(v) for v in observations.values())

    theory = GroundTheory(
        fluents=fluents,
        index=index,
        constant_values=dict(zip(constant_atoms, values)),
        ground_effects=ground_effects,
        ground_all_effects=ground_all_effects,
        rprops=rprops,
        pprops=pprops,
        occurrences={t: frozenset(v) for t, v in sorted(occurrences.items())},
        observations={t: frozenset(v) for t, v in sorted(observations.items())},
        horizon=horizon,
        stats=stats,
    )
    return theory


def report_stats(theory: GroundTheory) -> str:
    s = theory.stats
    lines = [
        "fluent atoms        %d" % s.fluent_atoms,
        "constant atoms      %d" % s.constant_atoms,
        "effect instances    %d" % s.cprops,
        "ramification rules  %d" % s.rprops,
        "denials             %d" % s.denials,
        "precondition rules  %d" % s.pprops,
        "occurrences         %d" % s.occurrences,
        "observations        %d" % s.observations,
        "dropped instances   %d" % s.dropped_instances,
        "horizon             %d" % s.horizon,
    ]
    return "\n".join(lines)


def dump_ground(theory: GroundTheory) -> str:
    """Human-readable listing of the ground theory, deterministic order."""
    out: list[str] = []
    out.append("%% fluent atoms (%d)" % theory.n_fluents)
    for i, atom in enumerate(theory.fluents):
        out.append("%% %4d  %s" % (i + 1, atom))
    true_consts = sorted(str(a) for a, v in theory.constant_values.items() if v)
    if theory.constant_values:
        out.append("%% constant atoms true: %s" % (", ".join(true_consts) or "(none)"))
    for cp in theory.cprops:
        verb = "initiates" if cp.initiates else "terminates"
        cond = ", ".join(sorted(theory.lit_str(c) for c in cp.condition))
        suffix = " when { %s }" % cond if cond else ""
        out.append("%s %s %s%s." % (cp.action, verb, theory.fluents[cp.fluent], suffix))
    for rp in theory.rprops:
        head = "false" if rp.head is None else theory.lit_str(rp.head)
        cond = ", ".join(sorted(theory.lit_str(c) for c in rp.condition))
        out.append("%s whenever { %s }." % (head, cond))
    for pp in theory.pprops:
        cond = ", ".join(sorted(theory.lit_str(c) for c in pp.condition))
        out.append("%s needs { %s }." % (pp.action, cond))
    for t in sorted(theory.observations):
        for code in sorted(theory.observations[t], key=lambda c: (abs(c), c)):
            out.append("%s holds-at %d." % (theory.lit_str(code), t))
    for t in sorted(theory.occurrences):
        for action in sorted(theory.occurrences[t]):
            out.append("%s happens-at %d." % (action, t))
    return "\n".join(out) + "\n"
