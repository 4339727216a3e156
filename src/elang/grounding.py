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
plain monotone closure).  The fixpoint is reached by counting (Dowling and
Gallier, J. Logic Programming 1984), the way ASP grounders evaluate Horn
rules (Gebser et al., LPNMR 2011): each rule waits on the body atoms not
yet true, and an atom made true wakes only the rules it occurs in, so no
rule is scanned again once it has fired.

Each effect, whenever and needs statement is compiled once into a
template (``_Template``): its bindings with the disequalities applied,
and for each atom a table from the binding to the atom's literal code,
constant value or action, built in one comprehension over the product of
the slots the atom uses (the binding itself is the argument tuple when
the atom's arguments are exactly its slots in order).  Instances are read
off the tables; no substituted copy of a statement is built.  The
statements over constant fluents only (constant heads, denials over
constants, constant observations) are expanded first, for the fixpoint;
the others after it, with their constant literals looked up in the fixed
values.  Instances come out in statement order and, within a statement,
in binding order: variables in sorted-name order, each ranging over its
sort's constants in declaration order.  Errors keep a fixed precedence:
an invalid domain, then the first statement (in source order) that makes
a constant fluent change or depend on the state, then a denied or
violated constant value, then an observation or occurrence outside the
horizon.

The result is a :class:`GroundTheory` over integer literal codes: fluent
atom number ``i`` (0-based, declaration order, argument tuples in each
sort's declaration order) is ``+(i+1)`` when true and ``-(i+1)`` when
false.  States are frozensets of true atom numbers.

Every instance is a row in the numeric form the step search, the
relevance slice and the clausal compiler read, much as gringo hands its
solver ground rules, not term objects, and instantiates only what is
relevant (Gebser et al., LPNMR 2007); rows are read off a statement's
tables a column at a time.  Grounding builds each ramification and
denial instance as a row of ``rules``: (head, or None for a denial; the
body's literal codes, lowest atom first, none repeated).  An effect
statement only counts the bindings it keeps and a needs statement keeps
them all, so ``stats`` is exact; ``effects_of(action)`` and
``preconditions_of`` ground one action's rows when first asked for: an
effect is (position, effect literal, atoms the condition needs true,
atoms it needs false), a precondition (position, atoms needed true,
atoms needed false, whether it can never hold).  ``rprops``, ``cprops``
and ``pprops`` list the instance objects, in statement and binding
order, built from the rows only when read (``elang ground --dump``).

The rules are the state constraints: ``constraint_clauses`` reads their
clauses off the rows in the kernel's normal form (``clauses.py``), and
``triggers`` lists the rules with a head by body literal, for the step
search, the clausal compiler and the cycle search (``first_cycle``).
These indexes, an action's preconditions as one test
(``precondition_test``) and the step plans (``transition.step_plan``)
are made the first time they are read, so a caller that needs few of
them, such as a relevance slice, pays for no others.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property

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


# An action's effect instances as rows (position in ``cprops``, effect
# literal, atoms the condition needs true, atoms it needs false).
Effects = tuple[tuple[int, Lit, frozenset[int], frozenset[int]], ...]
# An action's precondition instances as rows (position in ``pprops``, atoms
# the condition needs true, atoms it needs false, whether it can never hold).
Preconditions = tuple[tuple[int, frozenset[int], frozenset[int], bool], ...]
# An action's preconditions as one test (``precondition_test``).
PreconditionTest = tuple[bool, frozenset[int], frozenset[int]]
# A ramification or denial instance as a row (head or None, body).
Rule = tuple[Lit | None, tuple[Lit, ...]]


@dataclass
class GroundTheory:
    fluents: tuple[Atom, ...]
    index: dict[Atom, int]
    constant_values: dict[Atom, bool]
    signature: Signature
    ground_effects: Callable[[Atom], Effects]  # one action's, on first read
    ground_preconditions: Callable[[Atom], Preconditions]  # one action's, on first read
    # (first position, statement) of each effect, needs and whenever
    # statement, in order: the ``src`` of the listed instances
    effect_sources: list[tuple[int, int]]
    need_sources: list[tuple[int, int]]
    rule_sources: list[tuple[int, int]]
    rules: list[Rule]  # every ramification and denial instance, in statement and binding order
    occurrences: dict[int, frozenset[Atom]]  # time -> simultaneous actions
    observations: dict[int, frozenset[Lit]]  # time -> observed literals
    horizon: int
    stats: GroundingStats
    # Filled by the clausal backend on first use (sat.answer_sat): the
    # compiled clauses, indexed.
    sat_memo: object = field(default=None, repr=False, compare=False)
    # The effect instances ground so far, by action.
    effects: dict[Atom, Effects] = field(default_factory=dict, repr=False, compare=False)
    # The preconditions ground so far, by action.
    preconditions: dict[Atom, Preconditions] = field(default_factory=dict, repr=False, compare=False)
    # The precondition tests made so far, by action (``precondition_test``).
    needs: dict[Atom, PreconditionTest] = field(default_factory=dict, repr=False, compare=False)
    # The step plans made so far, by candidate set (``transition.step_plan``).
    plans: dict[frozenset[Lit], object] = field(default_factory=dict, repr=False, compare=False)

    # Derived indexes over the statement lists, each built the first time
    # it is read: a sliced query indexes only the slice.  The clausal
    # backend reads ``constraints`` at every time point.  The lists are
    # not changed after grounding, so an index once built stays valid.

    @cached_property
    def constraint_clauses(self) -> list[tuple[Lit, ...]]:
        """Each rule as a clause in the kernel's normal form: the negated
        body, lowest atom first, then the head.  A head in its own body
        makes a tautology, which is left out; a head whose complement is in
        the body is already in the clause.  A body never clashes, so only
        the head can repeat an atom."""
        clauses = []
        for head, body in self.rules:
            if head not in body:
                clause = tuple([-c for c in body])
                clauses.append(clause if head is None or -head in body else clause + (head,))
        return clauses

    @cached_property
    def constraints(self) -> ClauseSet:
        """``constraint_clauses``, indexed for search."""
        return ClauseSet(self.n_fluents, self.constraint_clauses)

    @cached_property
    def triggers(self) -> dict[Lit, list[int]]:
        """The statements with a head, ascending, by body literal: a change
        to literal ``l`` can fire the statements ``triggers[l]``.  Denials
        never fire."""
        triggers: dict[Lit, list[int]] = {}
        for ri, (head, body) in enumerate(self.rules):
            if head is not None:
                for c in body:
                    triggers.setdefault(c, []).append(ri)
        return triggers

    @cached_property
    def first_cycle(self) -> tuple[int, ...] | None:
        """The first cycle in the ramification graph (body atom to head
        atom, over the statements with a head) that a depth-first search
        meets, roots and successors taken in ascending order, as the path
        from the repeated atom back to it; None when the graph is acyclic."""
        graph: dict[int, set[int]] = {}
        for c, rules in self.triggers.items():
            graph.setdefault(abs(c) - 1, set()).update(abs(self.rules[ri][0]) - 1 for ri in rules)
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
    def actions(self) -> tuple[Atom, ...]:
        """Every ground action of the signature."""
        sig = self.signature
        return tuple(
            Atom(decl.name, args)
            for decl in sig.actions.values()
            for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts))
        )

    @cached_property
    def rprops(self) -> list[GroundRProp]:
        """Every ramification and denial instance, built from the rows."""
        src = _owner(self.rule_sources)
        return [GroundRProp(head, frozenset(body), src(p)) for p, (head, body) in enumerate(self.rules)]

    @cached_property
    def cprops(self) -> list[GroundCProp]:
        """Every effect instance, in statement order and binding order: the
        instances of every ground action, by position, built from the
        rows."""
        src = _owner(self.effect_sources)
        rows = sorted((row, action) for action in self.actions for row in self.effects_of(action))
        return [
            GroundCProp(action, effect > 0, abs(effect) - 1, condition_codes(true, false), src(p))
            for (p, effect, true, false), action in rows
        ]

    def effects_of(self, action: Atom) -> Effects:
        """The effect rows of ``action``, in position order, ground the
        first time they are asked for."""
        found = self.effects.get(action)
        if found is None:
            found = self.effects[action] = self.ground_effects(action)
        return found

    @cached_property
    def pprops(self) -> list[GroundPProp]:
        """Every precondition instance, in statement order and binding order:
        the instances of every ground action, by position, built from the
        rows."""
        src = _owner(self.need_sources)
        rows = sorted((row, action) for action in self.actions for row in self.preconditions_of(action))
        return [
            GroundPProp(action, condition_codes(true, false), src(p), impossible)
            for (p, true, false, impossible), action in rows
        ]

    def preconditions_of(self, action: Atom) -> Preconditions:
        """The precondition rows of ``action``, in position order, ground
        the first time they are asked for."""
        found = self.preconditions.get(action)
        if found is None:
            found = self.preconditions[action] = self.ground_preconditions(action)
        return found

    def precondition_test(self, action: Atom) -> PreconditionTest:
        """The preconditions of ``action`` as one test, the union of its
        rows: whether one of them can never hold, and the atoms they need
        true and false, so that a state is tested with two set operations;
        made the first time it is asked for."""
        found = self.needs.get(action)
        if found is None:
            rows = self.preconditions_of(action)
            _, true, false, impossible = zip(*rows) if rows else ((),) * 4
            found = self.needs[action] = (any(impossible), _NONE.union(*true), _NONE.union(*false))
        return found

    @property
    def n_fluents(self) -> int:
        return len(self.fluents)

    def code(self, literal: FluentLiteral) -> Lit:
        num = self.index[literal.atom] + 1
        return num if literal.positive else -num

    def atom_of(self, code: Lit) -> Atom:
        return self.fluents[abs(code) - 1]

    def lit_str(self, code: Lit) -> str:
        return str(FluentLiteral(self.atom_of(code), code > 0))

    def holds(self, state: State, code: Lit) -> bool:
        return (abs(code) - 1 in state) == (code > 0)

    def satisfies(self, state: State, condition: Iterable[Lit]) -> bool:
        return all(self.holds(state, c) for c in condition)

    def state_consistent(self, state: State) -> bool:
        """Whether ``state`` satisfies every state constraint."""
        return all(any(self.holds(state, c) for c in cl) for cl in self.constraint_clauses)

    def state_str(self, state: State) -> str:
        return "{%s}" % ", ".join(str(self.fluents[i]) for i in sorted(state))


_NONE: frozenset[int] = frozenset()


def _owner(sources: list[tuple[int, int]]) -> Callable[[int], int]:
    """The statement that owns a position, from the statements' first
    positions in order."""
    firsts = [first for first, _ in sources]
    return lambda position: sources[bisect.bisect_right(firsts, position) - 1][1]


def condition_codes(true: frozenset[int], false: frozenset[int]) -> frozenset[Lit]:
    """The literal codes of a condition split into its true and false atoms."""
    return frozenset([a + 1 for a in true] + [-a - 1 for a in false])


class _Template:
    """One effect, whenever or needs statement compiled for grounding.

    Its variables are slots in sorted-name order, so ``bindings`` lists the
    sort-respecting bindings in the order ``itertools.product`` visits
    them, less the ones a disequality rules out (``dropped`` counts
    those).  ``lookup`` compiles an atom of the statement into a getter and
    a table over the slots the atom uses: ``table[getter(binding)]`` is
    the atom's value, computed once per ground argument tuple."""

    def __init__(self, sig: Signature, prop: CProp | RProp | PProp, var_sorts: dict[str, str]):
        # ``var_sorts`` come from ``validate``, which has checked that they
        # agree and that every sort is declared
        names = sorted(var_sorts)
        self.pools = [sig.sorts[var_sorts[v]] for v in names]
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
        slot = self.slot
        slots = sorted({slot[t] for t in atom.args if t in slot})
        getter = operator.itemgetter(*slots) if slots else lambda combo: ()
        where = [slots.index(slot[t]) if t in slot else None for t in atom.args]
        constants = tuple(t for t, k in zip(atom.args, where) if k is None)
        if where == list(range(len(slots))):
            pick = None  # the arguments are the slots in order: the binding is the tuple
        elif not slots:
            return getter, {(): value(constants)}
        else:
            # the arguments are picked from the binding followed by the constants
            places = iter(range(len(slots), len(slots) + len(constants)))
            pick = operator.itemgetter(*[next(places) if k is None else k for k in where])
        if len(slots) == 1:
            # the getter of one slot gives its bare value, which keys the table
            pool = self.pools[slots[0]]
            if pick is None:
                return getter, {c: value((c,)) for c in pool}
            return getter, {c: value(pick((c,) + constants)) for c in pool}
        combos = itertools.product(*(self.pools[i] for i in slots))
        if pick is None:
            return getter, {combo: value(combo) for combo in combos}
        return getter, {combo: value(pick(combo + constants)) for combo in combos}

    def instance(self, atom: Atom, combo: tuple[str, ...]) -> Atom:
        """``atom`` under one binding, for error messages."""
        return atom.substitute(dict(zip(self.names, combo)))


def _clash_free(codes: set[Lit]) -> bool:
    return not any(-c in codes for c in codes)


def _column(lookup) -> Callable:
    """The looked-up value per binding, as a function of the bindings."""
    getter, table = lookup
    return lambda combos: map(table.__getitem__, map(getter, combos))


def _sets(lookups: list, make: Callable = frozenset) -> Callable:
    """What ``make`` makes of the lookups' values per binding, as a
    function of the bindings: one shared ``make(())`` without lookups."""
    if not lookups:
        empty = make(())
        return lambda combos: itertools.repeat(empty, len(combos))
    columns = list(map(_column, lookups))
    return lambda combos: map(make, zip(*[column(combos) for column in columns]))


def _body(codes: tuple[Lit, ...]) -> tuple[Lit, ...]:
    """A rule body: its literal codes, lowest atom first, none repeated."""
    if len(codes) == 2:  # the common pair, without a sort; it never clashes
        a, b = codes
        return codes if abs(a) < abs(b) else (a,) if a == b else (b, a)
    return codes if len(codes) == 1 else tuple(sorted(set(codes), key=abs))


class _PerAction:
    """An effect or needs statement, ground one action at a time.  Its
    instances take the positions from ``offset`` on in the theory's full
    list of its kind, one per ``kept`` binding in binding order.  An
    action's bindings are the product of the sorts of the slots its
    arguments leave free, in binding order, and a table made once gives a
    kept one's position.  Its rows are the positions and the columns
    ``make_columns`` makes, on first use, from the statement's tables."""

    def __init__(self, tpl: _Template, action: Atom, offset: int, kept, make_columns: Callable[[], list]):
        self.tpl = tpl
        self.action = action
        self.offset = offset
        self.kept = kept
        self.make_columns = make_columns
        self._positions: dict[tuple[str, ...], int] | None = None
        self._columns: list[Callable] = []

    def rows(self, action: Atom):
        """The rows of ``action``, in binding order."""
        slot, fixed = self.tpl.slot, {}
        # the action's arguments fix the slots of the statement's variables
        # in their places; its other arguments must be the statement's
        # constants
        for t, value in zip(self.action.args, action.args):
            i = slot.get(t)
            if i is None:
                if t != value:
                    return ()
            elif fixed.setdefault(i, value) != value:
                return ()
        if self._positions is None:
            self._positions = dict(zip(self.kept, itertools.count(self.offset)))
            self._columns = self.make_columns()
        pools = [[fixed[i]] if i in fixed else pool for i, pool in enumerate(self.tpl.pools)]
        combos = list(itertools.product(*pools))
        positions = list(map(self._positions.get, combos))
        if None in positions:
            kept = list(map(operator.is_not, positions, itertools.repeat(None)))
            combos, positions = [*itertools.compress(combos, kept)], [*itertools.compress(positions, kept)]
        return zip(positions, *[column(combos) for column in self._columns]) if combos else ()


def ground(domain: DomainDescription, horizon: int | None = None) -> GroundTheory:
    """Ground a validated domain.  ``horizon`` defaults to the largest time
    point mentioned plus one (at least 1); action occurrences must fall
    strictly below it so every occurrence has a following state."""
    rule_sorts: dict[int, dict[str, str]] = {}
    diagnostics = validate(domain, warnings=False, rule_sorts=rule_sorts)
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

    # A literal's code, and after the fixpoint a constant literal's truth,
    # by its atom's arguments: one table per fluent and sign, made once.
    code_tables: dict[tuple[str, bool], dict[tuple[str, ...], Lit]] = {}
    truth_tables: dict[tuple[str, bool], dict[tuple[str, ...], bool]] = {}

    def coder(lit: FluentLiteral) -> Callable[[tuple[str, ...]], Lit]:
        key = (lit.atom.name, lit.positive)
        table = code_tables.get(key)
        if table is None:
            nums = numbers[lit.atom.name]
            if lit.positive:
                table = code_tables[key] = {args: n + 1 for args, n in nums.items()}
            else:
                table = code_tables[key] = {args: -n - 1 for args, n in nums.items()}
        return table.__getitem__

    def truth(lit: FluentLiteral) -> Callable[[tuple[str, ...]], bool]:
        key = (lit.atom.name, lit.positive)
        table = truth_tables.get(key)
        if table is None:
            nums = numbers[lit.atom.name]
            table = truth_tables[key] = {args: values[n] == lit.positive for args, n in nums.items()}
        return table.__getitem__

    def holds(code: Lit) -> bool:
        return values[abs(code) - 1] == (code > 0)

    def heads(tpl: _Template, head: FluentLiteral | None, combos: list) -> Iterable[Lit | None]:
        """A rule's head codes over ``combos``; None for a denial."""
        return itertools.repeat(None) if head is None else _column(tpl.lookup(head.atom, coder(head)))(combos)

    props = domain.propositions
    templates = {
        src: _Template(sig, prop, rule_sorts[src])
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
        bodies = _sets([tpl.lookup(l.atom, coder(l)) for l in prop.condition.literals], tuple)(tpl.bindings)
        if derives:
            rules += zip(bodies, heads(tpl, prop.head, tpl.bindings))
        else:
            checks += zip(bodies, heads(tpl, prop.head, tpl.bindings), itertools.repeat(src))
        if prop.head is None:
            # a denial over constants never holds (checked below), so every
            # instance of it is dropped
            stats.dropped_instances += len(tpl.bindings)
    # The least fixpoint by counting: each rule waits on its body atoms
    # not yet true, and an atom made true wakes only the rules it occurs in.
    waiting: list[int] = []
    wakes: dict[int, list[int]] = {}
    # The codes of a rule's body are positive: they key ``wakes``.
    made_true = list(facts)
    for ri, (body_codes, head_code) in enumerate(rules):
        codes = set(body_codes)
        waiting.append(len(codes))
        for c in codes:
            wakes.setdefault(c, []).append(ri)
        if not codes:
            made_true.append(head_code)
    while made_true:
        c = made_true.pop()
        if values[c - 1]:
            continue
        values[c - 1] = True
        for ri in wakes.get(c, ()):
            waiting[ri] -= 1
            if not waiting[ri]:
                made_true.append(rules[ri][1])
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
        """The condition's dynamic literals, and the template's bindings
        whose constant literals hold and whose codes never clash, in
        binding order (the list itself when that is all of them).  Each
        constant literal narrows the list in turn."""
        kept, dynamic = tpl.bindings, []
        for lit in condition.literals:
            if is_constant(lit.atom):
                kept = [*itertools.compress(kept, _column(tpl.lookup(lit.atom, truth(lit)))(kept))]
            else:
                dynamic.append(lit)
        signs = {(lit.atom.name, lit.positive) for lit in dynamic}
        if any((name, False) in signs for name, positive in signs if positive):
            columns = [_column(tpl.lookup(lit.atom, coder(lit))) for lit in dynamic]
            kept = [*itertools.compress(kept, map(_clash_free, map(set, zip(*[c(kept) for c in columns]))))]
        return dynamic, kept if len(kept) < len(tpl.bindings) else tpl.bindings

    # The columns of the rows: a dynamic condition literal's sign is fixed,
    # so its table gives atom numbers, and each sign's make one set.
    def sides(tpl: _Template, literals: list[FluentLiteral]) -> list[Callable]:
        tables = [(lit.positive, tpl.lookup(lit.atom, numbers[lit.atom.name].__getitem__)) for lit in literals]
        return [_sets([lookup for positive, lookup in tables if positive is sign]) for sign in (True, False)]

    def effect_columns(tpl: _Template, prop: CProp, literals: list[FluentLiteral]) -> list[Callable]:
        effect = tpl.lookup(prop.fluent, coder(FluentLiteral(prop.fluent, prop.initiates)))
        return [_column(effect), *sides(tpl, literals)]

    def need_columns(tpl: _Template, prop: PProp) -> list[Callable]:
        # a binding whose constant literals fail or whose literals clash
        # makes an impossible instance
        literals, possible = residues(tpl, prop.condition)
        impossible = set() if possible is tpl.bindings else set(tpl.bindings).difference(possible)
        return [*sides(tpl, literals), lambda combos: map(impossible.__contains__, combos)]

    # After the fixpoint: expand the statements over dynamic fluents, in
    # statement order and binding order, with constants resolved.  An
    # effect statement only counts the bindings it keeps, and a needs
    # statement keeps them all; their rows are ground per action when
    # first asked for (``_PerAction``).
    effects_by_action: dict[str, list[_PerAction]] = {}
    effect_sources: list[tuple[int, int]] = []
    n_effects = 0
    needs_by_action: dict[str, list[_PerAction]] = {}
    need_sources: list[tuple[int, int]] = []
    n_needs = 0
    rule_rows: list[Rule] = []
    rule_sources: list[tuple[int, int]] = []
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
            literals, kept = residues(tpl, prop.condition)
            stats.dropped_instances += len(tpl.bindings) - len(kept)
            columns = functools.partial(effect_columns, tpl, prop, literals)
            effects_by_action.setdefault(prop.action.name, []).append(
                _PerAction(tpl, prop.action, n_effects, kept, columns)
            )
            effect_sources.append((n_effects, src))
            n_effects += len(kept)
        elif isinstance(prop, RProp):
            if prop.head is None:
                if all(is_constant(l.atom) for l in prop.condition.literals):
                    continue  # dropped above
            elif is_constant(prop.head.atom):
                continue  # folded into the constant fixpoint above
            tpl = templates[src]
            literals, kept = residues(tpl, prop.condition)
            stats.dropped_instances += len(tpl.bindings) - len(kept)
            rule_sources.append((len(rule_rows), src))
            bodies = _sets([tpl.lookup(lit.atom, coder(lit)) for lit in literals], _body)(kept)
            rule_rows += zip(heads(tpl, prop.head, kept), bodies)
        else:
            tpl = templates[src]
            columns = functools.partial(need_columns, tpl, prop)
            needs_by_action.setdefault(prop.action.name, []).append(
                _PerAction(tpl, prop.action, n_needs, tpl.bindings, columns)
            )
            need_sources.append((n_needs, src))
            n_needs += len(tpl.bindings)

    def rows_of(statements: dict[str, list[_PerAction]]) -> Callable[[Atom], tuple]:
        return lambda action: tuple(
            itertools.chain.from_iterable([s.rows(action) for s in statements.get(action.name, ())])
        )

    stats.cprops = n_effects
    stats.denials = [head for head, _ in rule_rows].count(None)
    stats.rprops = len(rule_rows) - stats.denials
    stats.pprops = n_needs
    stats.occurrences = sum(len(v) for v in occurrences.values())
    stats.observations = sum(len(v) for v in observations.values())

    theory = GroundTheory(
        fluents=fluents,
        index=index,
        constant_values=dict(zip(constant_atoms, values)),
        signature=sig,
        ground_effects=rows_of(effects_by_action),
        ground_preconditions=rows_of(needs_by_action),
        effect_sources=effect_sources,
        need_sources=need_sources,
        rule_sources=rule_sources,
        rules=rule_rows,
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
