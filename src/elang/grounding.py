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
plain monotone closure).  The fixpoint is reached semi-naively (Bancilhon
and Ramakrishnan, SIGMOD 1986): each round joins a rule's body against
the atoms the round before made true, one body atom at a time, and its
other atoms against all true atoms, so a rule is instantiated only where
a new fact can fire it.

Each effect, whenever and needs statement is compiled once into a
template (``Template``): its variables become slots, its atoms patterns
over them.  A statement is instantiated at the cost of its output, as
gringo instantiates a rule body (Gebser et al., LPNMR 2007): its positive
constant literals are joined against an index of the true constant atoms
by bound argument positions, the slots still free then take their
sorts' constants, and each disequality, negative constant literal and
pair of clashing literals filters the bindings as soon as the slots it
reads are bound (``joins.solve``).  No statement's full binding product is
built; the bindings a constraint rejects are counted as the product's
size less the bindings kept.  The statements over constant fluents only
(constant heads, denials over constants, constant observations) are read
first, for the fixpoint; the others after it, against the fixed values.
Instances come out in statement order and, within a statement, in
binding order: variables in sorted-name order, each ranging over its
sort's constants in declaration order.  Errors keep a fixed precedence:
an invalid domain, then the first statement (in source order) that makes
a constant fluent change or depend on the state, then a denied or
violated constant value, then an observation or occurrence outside the
horizon.

The result is a :class:`GroundTheory` over integer literal codes: fluent
atom number ``i`` (0-based, declaration order, argument tuples in each
sort's declaration order) is ``+(i+1)`` when true and ``-(i+1)`` when
false.  States are frozensets of true atom numbers.  Only the fluents
that change are numbered; ``constant_values`` reads a constant atom's
value off the true ones.

Every instance is a row in the numeric form the step search, the
relevance slice and the clausal compiler read, much as gringo hands its
solver ground rules, not term objects, and instantiates only what is
relevant (Gebser et al., LPNMR 2007); rows are read off a statement's
bindings a column at a time.  Grounding builds each ramification and
denial instance as a row of ``rules``: (head, or None for a denial; the
body's literal codes, lowest atom first, none repeated).  An effect
statement only counts the bindings it keeps, and a needs statement the
ones its disequalities keep, without listing them, so ``stats`` is
exact; ``effects_of(action)`` and ``preconditions_of`` ground one
action's rows when first asked for (``PerAction``): an
effect is (position, effect literal, atoms the condition needs true,
atoms it needs false), a precondition (position, atoms needed true,
atoms needed false, whether it can never hold).  A position numbers an
instance among all of its kind, in statement and binding order; the rows
are the only form of the instances, and ``elang ground --dump`` renders
them (``dump_ground``).

The rules are the state constraints: ``constraint_clauses`` reads their
clauses off the rows in the kernel's normal form (``clauses.py``), and
``triggers`` lists the rules with a head by body literal, for the step
search, the clausal compiler and the cycle search (``first_cycle``),
which also ranks the atoms of an acyclic graph (``rank``) for the
unbranched steps; ``heads`` holds the statements' heads.
These indexes, an action's preconditions as one test
(``precondition_test``) and the step plans (``transition.step_plan``)
are made the first time they are read, so a caller that needs few of
them, such as a relevance slice, pays for no others.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

from .clauses import ClauseSet
from .joins import Facts, Pattern, PerAction, Template, clash_pairs, reader, solve
from .model import (
    Atom,
    Condition,
    CProp,
    DomainDescription,
    FluentLiteral,
    HProp,
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


# An action's effect instances as rows: (position among all effect
# instances, effect literal, atoms the condition needs true, needs false).
Effects = tuple[tuple[int, Lit, frozenset[int], frozenset[int]], ...]
# An action's precondition instances as rows: (position among all
# preconditions, atoms needed true, needed false, whether it never holds).
Preconditions = tuple[tuple[int, frozenset[int], frozenset[int], bool], ...]
# An action's preconditions as one test (``precondition_test``).
PreconditionTest = tuple[bool, frozenset[int], frozenset[int]]
# A ramification or denial instance as a row (head or None, body).
Rule = tuple[Lit | None, tuple[Lit, ...]]


@dataclass
class GroundTheory:
    fluents: tuple[Atom, ...]
    index: dict[Atom, int]
    constant_values: Mapping[Atom, bool]
    signature: Signature
    ground_effects: Callable[[Atom], Effects]  # one action's, on first read
    ground_preconditions: Callable[[Atom], Preconditions]  # one action's, on first read
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
    def heads(self) -> frozenset[Lit]:
        """The heads of the statements that have one."""
        return frozenset([head for head, _ in self.rules if head is not None])

    @cached_property
    def first_cycle(self) -> tuple[int, ...] | None:
        """The first cycle in the ramification graph (body atom to head
        atom, over the statements with a head) that a depth-first search
        meets, roots and successors taken in ascending order, as the path
        from the repeated atom back to it; None when the graph is acyclic."""
        return self._ramification_search[0]

    @cached_property
    def rank(self) -> dict[int, int]:
        """Each atom of an acyclic ramification graph by its place in a
        topological order: a body atom's rank is below its heads'.  Empty
        when the graph has a cycle."""
        return self._ramification_search[1]

    @cached_property
    def _ramification_search(self) -> tuple[tuple[int, ...] | None, dict[int, int]]:
        """``first_cycle`` and ``rank`` from one depth-first search, without
        recursion: an atom finishes after every atom it reaches, so the
        finishing order, reversed, is topological."""
        graph: dict[int, set[int]] = {}
        for c, rules in self.triggers.items():
            graph.setdefault(abs(c) - 1, set()).update(abs(self.rules[ri][0]) - 1 for ri in rules)
        rank: dict[int, int] = {}  # the finished atoms
        for root in sorted(graph):
            if root in rank:
                continue
            path = [root]
            on_path = {root}
            pending = [iter(sorted(graph[root]))]
            while pending:
                for b in pending[-1]:
                    if b in on_path:
                        return tuple(path[path.index(b) :]) + (b,), {}
                    if b not in rank:
                        path.append(b)
                        on_path.add(b)
                        pending.append(iter(sorted(graph.get(b, ()))))
                        break
                else:
                    pending.pop()
                    a = path.pop()
                    on_path.discard(a)
                    rank[a] = -len(rank)
        return None, rank

    @cached_property
    def actions(self) -> tuple[Atom, ...]:
        """Every ground action of the signature."""
        sig = self.signature
        return tuple(
            Atom(decl.name, args)
            for decl in sig.actions.values()
            for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts))
        )

    def effects_of(self, action: Atom) -> Effects:
        """The effect rows of ``action``, in position order, ground the
        first time they are asked for."""
        found = self.effects.get(action)
        if found is None:
            found = self.effects[action] = self.ground_effects(action)
        return found

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

    def state_str(self, state: State) -> str:
        return "{%s}" % ", ".join(str(self.fluents[i]) for i in sorted(state))


_NONE: frozenset[int] = frozenset()


class ConstantValues(Mapping):
    """The fixed value of every constant atom, keyed in declaration order
    (by fluent, then argument tuples in product order): true when stated
    or derived, false otherwise.  Read off the true atoms, so the atoms
    of a constant fluent are made only when iterated."""

    def __init__(self, signature: Signature, true: dict[str, set[tuple[str, ...]]]):
        self.signature = signature
        self.true = true
        self.members: dict[str, frozenset[str]] = {}

    def __getitem__(self, atom: Atom) -> bool:
        sig = self.signature
        decl = sig.fluents.get(atom.name)
        if decl is None or not decl.constant or len(atom.args) != len(decl.arg_sorts):
            raise KeyError(atom)
        for arg, sort in zip(atom.args, decl.arg_sorts):
            members = self.members.get(sort)
            if members is None:
                members = self.members[sort] = frozenset(sig.sorts[sort])
            if arg not in members:
                raise KeyError(atom)
        return atom.args in self.true[atom.name]

    def __iter__(self):
        sorts = self.signature.sorts
        for decl in self.signature.fluents.values():
            if decl.constant:
                for args in itertools.product(*(sorts[s] for s in decl.arg_sorts)):
                    yield Atom(decl.name, args)

    def __len__(self) -> int:
        sorts = self.signature.sorts
        decls = [d for d in self.signature.fluents.values() if d.constant]
        return sum(math.prod(len(sorts[s]) for s in d.arg_sorts) for d in decls)


def condition_codes(true: frozenset[int], false: frozenset[int]) -> frozenset[Lit]:
    """The literal codes of a condition split into its true and false atoms."""
    return frozenset([a + 1 for a in true] + [-a - 1 for a in false])


def _column(codes: dict, pattern: Pattern, width: int) -> Callable[[list[tuple]], Iterable]:
    """The value ``codes`` gives a pattern's arguments per binding (of
    ``width`` slots), as a function of the bindings."""
    read = reader(pattern, range(width))
    return lambda rel: map(codes.__getitem__, read(rel))


def _sets(columns: list[Iterable], n: int, make: Callable = frozenset) -> Iterable:
    """What ``make`` makes of the columns' values per binding (of ``n``):
    one shared ``make(())`` without columns."""
    if not columns:
        return itertools.repeat(make(()), n)
    return map(make, zip(*columns))


def _body(codes: tuple[Lit, ...]) -> tuple[Lit, ...]:
    """A rule body: its literal codes, lowest atom first, none repeated."""
    if len(codes) == 2:  # the common pair, without a sort; it never clashes
        a, b = codes
        return codes if abs(a) < abs(b) else (a,) if a == b else (b, a)
    return codes if len(codes) == 1 else tuple(sorted(set(codes), key=abs))


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

    # The dynamic atoms are numbered: numbers[name][args] is an atom's
    # number, and its code is that plus one.  A constant atom is only ever
    # looked up among the true ones.
    dynamic_atoms: list[Atom] = []
    numbers: dict[str, dict[tuple[str, ...], int]] = {}
    for decl in sig.fluents.values():
        if not decl.constant:
            table = numbers[decl.name] = {}
            for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts)):
                table[args] = len(dynamic_atoms)
                dynamic_atoms.append(Atom(decl.name, args))
    fluents = tuple(dynamic_atoms)
    index = {atom: i for i, atom in enumerate(fluents)}
    facts = Facts(name for name, decl in sig.fluents.items() if decl.constant)
    constant_values = ConstantValues(sig, facts.sets)
    stats.fluent_atoms = len(fluents)
    stats.constant_atoms = len(constant_values)

    def is_constant(atom: Atom) -> bool:
        return sig.fluents[atom.name].constant

    # A dynamic literal's code by its atom's arguments: one table per
    # fluent and sign, made once.
    code_tables: dict[tuple[str, bool], dict[tuple[str, ...], Lit]] = {}

    def coder(lit: FluentLiteral) -> dict[tuple[str, ...], Lit]:
        key = (lit.atom.name, lit.positive)
        table = code_tables.get(key)
        if table is None:
            nums = numbers[lit.atom.name]
            if lit.positive:
                table = code_tables[key] = {args: n + 1 for args, n in nums.items()}
            else:
                table = code_tables[key] = {args: -n - 1 for args, n in nums.items()}
        return table

    def split(tpl: Template, condition: Condition) -> tuple[dict, list[FluentLiteral]]:
        """A condition's constraints for ``solve``: its constant literals
        as true and false atoms, the clashing pairs of its dynamic ones;
        and the dynamic literals."""
        dynamic = [lit for lit in condition.literals if not is_constant(lit.atom)]
        constant = [lit for lit in condition.literals if is_constant(lit.atom)]
        return {
            "facts": facts,
            "positives": [(lit.atom.name, tpl.pattern(lit.atom)) for lit in constant if lit.positive],
            "negatives": [(lit.atom.name, tpl.pattern(lit.atom)) for lit in constant if not lit.positive],
            "clashes": clash_pairs(tpl, dynamic),
        }, dynamic

    props = domain.propositions
    templates = {
        src: Template(sig, prop, rule_sorts[src])
        for src, prop in enumerate(props)
        if not isinstance(prop, (TProp, HProp))
    }

    # Before the fixpoint: read the constant facts and the statements over
    # constant fluents only, and reject the first statement that lets a
    # constant fluent change or depend on the state.
    denied: list[tuple[Atom, int]] = []
    derivations: list[tuple[Template, str, Pattern, list[tuple[str, Pattern]]]] = []
    checks: list[tuple[int, Template, dict]] = []
    for src, prop in enumerate(props):
        if isinstance(prop, TProp) and is_constant(prop.literal.atom):
            if prop.literal.positive:
                facts.add(prop.literal.atom.name, prop.literal.atom.args)
            else:
                denied.append((prop.literal.atom, src))
        if not isinstance(prop, (CProp, RProp)):
            continue
        tpl = templates[src]
        if isinstance(prop, CProp):
            if is_constant(prop.fluent):
                first = tpl.first()
                if first is not None:
                    raise GroundingError(
                        "statement %d lets action %s change constant fluent %s"
                        % (src, tpl.instance(prop.action, first), tpl.instance(prop.fluent, first)),
                        kind="constant-effect",
                    )
                stats.dropped_instances += tpl.size
            continue
        body_constant = all(is_constant(l.atom) for l in prop.condition.literals)
        head_constant = prop.head is not None and is_constant(prop.head.atom)
        if head_constant and not body_constant:
            first = tpl.first()
            if first is not None:
                raise GroundingError(
                    "statement %d makes constant fluent %s depend on state-varying fluents"
                    % (src, tpl.instance(prop.head.atom, first)),
                    kind="constant-dynamic",
                )
            stats.dropped_instances += tpl.size
            continue
        if not body_constant or not (head_constant or prop.head is None):
            continue
        # A rule with a negative premise is a closed-world test, not a
        # derivation step: checking it after the fixpoint keeps the
        # fixpoint a plain monotone closure.  A denial over constants
        # never holds (checked below), so every instance of it is dropped;
        # the other statements here drop what their disequalities rule out.
        stats.dropped_instances += tpl.size if prop.head is None else tpl.size - tpl.count()
        body = [(l.atom.name, tpl.pattern(l.atom)) for l in prop.condition.literals]
        if head_constant and prop.head.positive and all(l.positive for l in prop.condition.literals):
            derivations.append((tpl, prop.head.atom.name, tpl.pattern(prop.head.atom), body))
            continue
        constraints, _ = split(tpl, prop.condition)
        # the body holds and the head does not
        if prop.head is not None:
            head = (prop.head.atom.name, tpl.pattern(prop.head.atom))
            constraints["negatives" if prop.head.positive else "positives"].append(head)
        checks.append((src, tpl, constraints))

    # The least fixpoint, semi-naively: each round joins the derivations'
    # bodies only against the atoms the round before made true, one body
    # atom at a time, the others against all true atoms.  A derivation
    # without a body atom fires once, first.
    def fire(tpl: Template, name: str, head: Pattern, bindings: list[tuple], made: dict[str, dict]) -> None:
        true = facts.sets[name]
        for args in reader(head, range(len(tpl.pools)))(bindings):
            if args not in true:
                made.setdefault(name, {})[args] = None

    made: dict[str, dict] = {}
    for tpl, name, head, body in derivations:
        if not body:
            fire(tpl, name, head, solve(tpl, range(len(tpl.pools)), ordered=False), made)
    for name, atoms in made.items():
        for args in atoms:
            facts.add(name, args)
    fresh = {name: list(atoms) for name, atoms in facts.lists.items() if atoms}
    while fresh:
        made = {}
        for tpl, name, head, body in derivations:
            every = range(len(tpl.pools))
            for k, (other, pattern) in enumerate(body):
                if other in fresh:
                    others, delta = body[:k] + body[k + 1 :], (pattern, fresh[other])
                    fire(tpl, name, head, solve(tpl, every, facts, others, ordered=False, delta=delta), made)
        for name, atoms in made.items():
            for args in atoms:
                facts.add(name, args)
        fresh = {name: list(atoms) for name, atoms in made.items()}
    for atom, src in denied:
        if atom.args in facts.sets[atom.name]:
            raise GroundingError(
                "statement %d denies constant fluent %s, which is derived true" % (src, atom),
                kind="constant-conflict",
            )
    for src, tpl, constraints in checks:
        if solve(tpl, range(len(tpl.pools)), ordered=False, **constraints):
            raise GroundingError(
                "statement %d is violated by the fixed constant fluent values" % src,
                kind="constant-contradiction",
            )

    # The columns of the rows, as a function of an action's bindings: a
    # dynamic condition literal's sign is fixed, so it gives atom numbers,
    # and each sign's make one set.
    def sides(tpl: Template, literals: list[FluentLiteral]) -> Callable[[list[tuple]], list[Iterable]]:
        width = len(tpl.pools)
        signs = [
            [_column(numbers[l.atom.name], tpl.pattern(l.atom), width) for l in literals if l.positive is sign]
            for sign in (True, False)
        ]
        return lambda combos: [_sets([column(combos) for column in columns], len(combos)) for columns in signs]

    def effect_columns(tpl: Template, prop: CProp, literals: list[FluentLiteral]):
        codes = coder(FluentLiteral(prop.fluent, prop.initiates))
        effect = _column(codes, tpl.pattern(prop.fluent), len(tpl.pools))
        conditions = sides(tpl, literals)
        return lambda combos: [effect(combos), *conditions(combos)]

    def need_columns(tpl: Template, constraints: dict, literals: list[FluentLiteral]):
        # a binding that makes a constant literal false or gives a clashing
        # pair the same arguments makes an impossible instance
        width = range(len(tpl.pools))
        true = [(facts.sets[name].__contains__, reader(p, width)) for name, p in constraints["positives"]]
        false = [(facts.sets[name].__contains__, reader(p, width)) for name, p in constraints["negatives"]]
        pairs = [(reader(p, width), reader(q, width)) for p, q in constraints["clashes"]]
        conditions = sides(tpl, literals)

        def columns(combos):
            fails = [map(operator.not_, map(holds, read(combos))) for holds, read in true]
            fails += [map(holds, read(combos)) for holds, read in false]
            fails += [map(operator.eq, p(combos), q(combos)) for p, q in pairs]
            impossible = map(any, zip(*fails)) if fails else itertools.repeat(False, len(combos))
            return [*conditions(combos), impossible]

        return columns

    # After the fixpoint: the statements over dynamic fluents, in statement
    # order and binding order, with constants resolved.  An effect
    # statement only counts the bindings it keeps, and a needs statement
    # the ones its disequalities keep; their rows are ground per action
    # when first asked for (``PerAction``).
    effects_by_action: dict[str, list[PerAction]] = {}
    n_effects = 0
    needs_by_action: dict[str, list[PerAction]] = {}
    n_needs = 0
    rule_rows: list[Rule] = []
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
            observations.setdefault(prop.time, set()).add(coder(prop.literal)[prop.literal.atom.args])
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
            constraints, literals = split(tpl, prop.condition)
            columns = functools.partial(effect_columns, tpl, prop, literals)
            statement = PerAction(tpl, prop.action, n_effects, constraints, columns)
            stats.dropped_instances += tpl.size - statement.kept
            effects_by_action.setdefault(prop.action.name, []).append(statement)
            n_effects += statement.kept
        elif isinstance(prop, RProp):
            if prop.head is None:
                if all(is_constant(l.atom) for l in prop.condition.literals):
                    continue  # dropped above
            elif is_constant(prop.head.atom):
                continue  # folded into the constant fixpoint above
            tpl = templates[src]
            constraints, literals = split(tpl, prop.condition)
            width = len(tpl.pools)
            kept = solve(tpl, range(width), **constraints)
            stats.dropped_instances += tpl.size - len(kept)
            if prop.head is None:
                heads = itertools.repeat(None)
            else:
                heads = _column(coder(prop.head), tpl.pattern(prop.head.atom), width)(kept)
            body = [_column(coder(l), tpl.pattern(l.atom), width)(kept) for l in literals]
            bodies = _sets(body, len(kept), _body)
            rule_rows += zip(heads, bodies)
        else:
            tpl = templates[src]
            constraints, literals = split(tpl, prop.condition)
            columns = functools.partial(need_columns, tpl, constraints, literals)
            statement = PerAction(tpl, prop.action, n_needs, {}, columns)
            stats.dropped_instances += tpl.size - statement.kept
            needs_by_action.setdefault(prop.action.name, []).append(statement)
            n_needs += statement.kept

    def rows_of(statements: dict[str, list[PerAction]]) -> Callable[[Atom], tuple]:
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
        constant_values=constant_values,
        signature=sig,
        ground_effects=rows_of(effects_by_action),
        ground_preconditions=rows_of(needs_by_action),
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
    """Human-readable listing of the ground theory, read off its rows: the
    fluent atoms and the true constant atoms as comments, then the effect,
    rule and precondition rows, each in position order (statement order,
    then binding order), then the observations and the occurrences.  A
    precondition that can never hold ends in the comment ``% never holds``."""

    def condition(true: frozenset[int], false: frozenset[int]) -> str:
        return ", ".join(sorted(map(theory.lit_str, condition_codes(true, false))))

    def listed(rows_of: Callable[[Atom], tuple]) -> list[tuple[tuple, Atom]]:
        # every ground action's rows, in position order
        rows = [(row, action) for action in theory.actions for row in rows_of(action)]
        return sorted(rows, key=lambda item: item[0][0])

    out: list[str] = []
    out.append("%% fluent atoms (%d)" % theory.n_fluents)
    for i, atom in enumerate(theory.fluents):
        out.append("%% %4d  %s" % (i + 1, atom))
    true_consts = sorted(str(a) for a, v in theory.constant_values.items() if v)
    if theory.constant_values:
        out.append("%% constant atoms true: %s" % (", ".join(true_consts) or "(none)"))
    for (_, effect, true, false), action in listed(theory.effects_of):
        verb = "initiates" if effect > 0 else "terminates"
        cond = condition(true, false)
        suffix = " when { %s }" % cond if cond else ""
        out.append("%s %s %s%s." % (action, verb, theory.atom_of(effect), suffix))
    for head, body in theory.rules:
        head = "false" if head is None else theory.lit_str(head)
        out.append("%s whenever { %s }." % (head, ", ".join(sorted(map(theory.lit_str, body)))))
    for (_, true, false, impossible), action in listed(theory.preconditions_of):
        never = " % never holds" if impossible else ""
        out.append("%s needs { %s }.%s" % (action, condition(true, false), never))
    for t in sorted(theory.observations):
        for code in sorted(theory.observations[t], key=lambda c: (abs(c), c)):
            out.append("%s holds-at %d." % (theory.lit_str(code), t))
    for t in sorted(theory.occurrences):
        for action in sorted(theory.occurrences[t]):
            out.append("%s happens-at %d." % (action, t))
    return "\n".join(out) + "\n"
