"""Abstract syntax for sorted domain descriptions in the E action language.

A domain description talks about a many-sorted vocabulary of fluents and
actions and consists of five statement forms:

  t-proposition   L holds-at T          an observation at a time point
  h-proposition   A happens-at T        an action occurrence
  c-proposition   A initiates/terminates F when C     a direct effect law
  r-proposition   L whenever C          a constraint that also generates
                                        indirect effects (head ``false``
                                        makes it a pure denial)
  p-proposition   A needs C             an action precondition

Conditions are conjunctive sets of fluent literals plus disequalities
between terms.  Terms are object constants (lowercase) or variables
(identifiers starting with an uppercase letter); variables range over the
sort demanded by the argument positions they occupy.

Fluents declared ``constant`` never change over time: their time-0 value is
closed under a least fixpoint with negation as failure and they are folded
away during grounding.  Everything else is open-world: an unobserved fluent
at time 0 may take either value.

All values here are immutable after construction.  ``validate`` returns
diagnostics instead of raising so that callers can collect several problems
in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TimePoint = int  # a natural number


def is_variable(term: str) -> bool:
    """Terms starting with an uppercase letter are variables."""
    return bool(term) and term[0].isupper()


@dataclass(frozen=True, order=True)
class Atom:
    """A fluent or action atom: a symbol name applied to terms."""

    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ",".join(self.args))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for a in self.args:
            if is_variable(a) and a not in seen:
                seen.append(a)
        return tuple(seen)

    def substitute(self, binding: dict[str, str]) -> Atom:
        return Atom(self.name, tuple(binding.get(a, a) for a in self.args))


@dataclass(frozen=True, order=True)
class FluentLiteral:
    """A fluent atom or its negation."""

    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "neg %s" % self.atom

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def substitute(self, binding: dict[str, str]) -> FluentLiteral:
        return FluentLiteral(self.atom.substitute(binding), self.positive)


def negate(literal: FluentLiteral) -> FluentLiteral:
    """The complementary literal; an involution."""
    return FluentLiteral(literal.atom, not literal.positive)


def _norm_diseq(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Condition:
    """A conjunction of fluent literals and term disequalities."""

    literals: frozenset[FluentLiteral] = frozenset()
    diseqs: frozenset[tuple[str, str]] = frozenset()

    @staticmethod
    def of(*literals: FluentLiteral, diseqs: tuple[tuple[str, str], ...] = ()) -> Condition:
        return Condition(frozenset(literals), frozenset(_norm_diseq(a, b) for a, b in diseqs))

    @property
    def is_empty(self) -> bool:
        return not self.literals and not self.diseqs

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for lit in sorted(self.literals):
            for v in lit.atom.variables():
                if v not in seen:
                    seen.append(v)
        for a, b in sorted(self.diseqs):
            for t in (a, b):
                if is_variable(t) and t not in seen:
                    seen.append(t)
        return tuple(seen)

    def has_complementary_pair(self) -> bool:
        return any(negate(lit) in self.literals for lit in self.literals)

    def substitute(self, binding: dict[str, str]) -> Condition:
        return Condition(
            frozenset(l.substitute(binding) for l in self.literals),
            frozenset(_norm_diseq(binding.get(a, a), binding.get(b, b)) for a, b in self.diseqs),
        )


EMPTY_CONDITION = Condition()


@dataclass(frozen=True)
class TProp:
    """``L holds-at T``: an observation."""

    literal: FluentLiteral
    time: TimePoint


@dataclass(frozen=True)
class HProp:
    """``A happens-at T``: an action occurrence."""

    action: Atom
    time: TimePoint


@dataclass(frozen=True)
class CProp:
    """``A initiates/terminates F when C``: a direct effect law.

    ``var_sorts`` carries explicit variable typings collected from inline
    sort atoms in the surface syntax; normally empty because sorts are
    inferred from argument positions.
    """

    action: Atom
    initiates: bool
    fluent: Atom
    condition: Condition = EMPTY_CONDITION
    var_sorts: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RProp:
    """``L whenever C``: a constraint that generates indirect effects.

    ``head is None`` encodes a denial (``false whenever C``), which
    constrains states but never produces effects.
    """

    head: FluentLiteral | None
    condition: Condition
    var_sorts: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class PProp:
    """``A needs C``: a precondition that must hold whenever A occurs."""

    action: Atom
    condition: Condition
    var_sorts: tuple[tuple[str, str], ...] = ()


Proposition = TProp | HProp | CProp | RProp | PProp


@dataclass(frozen=True)
class FluentDecl:
    name: str
    arg_sorts: tuple[str, ...] = ()
    constant: bool = False


@dataclass(frozen=True)
class ActionDecl:
    name: str
    arg_sorts: tuple[str, ...] = ()


@dataclass
class Signature:
    """Declared sorts with their object constants, fluents and actions."""

    sorts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    fluents: dict[str, FluentDecl] = field(default_factory=dict)
    actions: dict[str, ActionDecl] = field(default_factory=dict)

    def copy(self) -> Signature:
        return Signature(dict(self.sorts), dict(self.fluents), dict(self.actions))


@dataclass
class DomainDescription:
    signature: Signature = field(default_factory=Signature)
    propositions: list[Proposition] = field(default_factory=list)

    def max_time(self) -> int:
        times = [p.time for p in self.propositions if isinstance(p, (TProp, HProp))]
        return max(times, default=0)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: object | None = None  # a parser SourceSpan when available

    def __str__(self) -> str:
        loc = " at %s" % self.span if self.span is not None else ""
        return "%s [%s]%s: %s" % (self.severity, self.code, loc, self.message)


def _decl_for(signature: Signature, atom: Atom, kind: str) -> FluentDecl | ActionDecl | None:
    table = signature.fluents if kind == "fluent" else signature.actions
    return table.get(atom.name)


def infer_variable_sorts(
    signature: Signature, prop: CProp | RProp | PProp
) -> tuple[dict[str, str], list[str]]:
    """Assign a sort to every variable of a rule from the argument positions
    it occupies.  Returns (sorts, problems); problems are human-readable
    messages for conflicting or undeterminable variables."""
    sorts: dict[str, str] = dict(getattr(prop, "var_sorts", ()))
    problems: list[str] = []

    def visit(atom: Atom, kind: str) -> None:
        decl = _decl_for(signature, atom, kind)
        if decl is None or len(decl.arg_sorts) != len(atom.args):
            return  # reported separately by validate()
        for term, sort in zip(atom.args, decl.arg_sorts):
            if not is_variable(term):
                continue
            before = sorts.get(term)
            if before is None:
                sorts[term] = sort
            elif before != sort:
                problems.append(
                    "variable %s used with conflicting sorts %s and %s" % (term, before, sort)
                )

    condition: Condition
    if isinstance(prop, CProp):
        visit(prop.action, "action")
        visit(prop.fluent, "fluent")
        condition = prop.condition
    elif isinstance(prop, RProp):
        if prop.head is not None:
            visit(prop.head.atom, "fluent")
        condition = prop.condition
    else:
        visit(prop.action, "action")
        condition = prop.condition
    for lit in sorted(condition.literals):
        visit(lit.atom, "fluent")
    for a, b in sorted(condition.diseqs):
        for t in (a, b):
            if is_variable(t) and t not in sorts:
                problems.append("variable %s occurs only in a disequality" % t)
    return sorts, problems


def validate(
    domain: DomainDescription,
    *,
    warnings: bool = True,
    rule_sorts: dict[int, dict[str, str]] | None = None,
) -> list[Diagnostic]:
    """Structural checks over a domain description.

    Errors make the domain unusable for grounding; warnings flag suspicious
    but harmless statements (an unsatisfiable condition, an exact duplicate).
    With ``warnings=False`` the checks that can only warn are skipped, and
    the errors come out as before.  ``rule_sorts``, when given, receives
    each effect, whenever and needs statement's inferred variable sorts by
    statement index (``grounding.ground`` reads both).
    """
    sig = domain.signature
    diags: list[Diagnostic] = []

    def error(code: str, message: str) -> None:
        diags.append(Diagnostic("error", code, message))

    def warning(code: str, message: str) -> None:
        diags.append(Diagnostic("warning", code, message))

    # Name spaces of sorts, fluents and actions must not overlap.
    names: dict[str, str] = {}
    for kind, pool in (("sort", sig.sorts), ("fluent", sig.fluents), ("action", sig.actions)):
        for name in pool:
            if name in names:
                error("dup-identifier", "%s %s clashes with a %s of the same name" % (kind, name, names[name]))
            else:
                names[name] = kind

    for sort, constants in sig.sorts.items():
        if not constants:
            error("empty-sort", "sort %s declares no object constants" % sort)
        if len(set(constants)) != len(constants):
            error("dup-identifier", "sort %s lists a constant twice" % sort)
        for c in constants:
            if is_variable(c):
                error("bad-constant", "object constant %s of sort %s must start lowercase" % (c, sort))

    for decl in list(sig.fluents.values()) + list(sig.actions.values()):
        for s in decl.arg_sorts:
            if s not in sig.sorts:
                error("undeclared-sort", "declaration of %s uses undeclared sort %s" % (decl.name, s))

    def check_atom(atom: Atom, kind: str, where: str) -> None:
        table = sig.fluents if kind == "fluent" else sig.actions
        decl = table.get(atom.name)
        if decl is None:
            error("unknown-identifier", "%s: %s %s is not declared" % (where, kind, atom.name))
            return
        if len(decl.arg_sorts) != len(atom.args):
            error(
                "arity-mismatch",
                "%s: %s %s takes %d arguments, got %d"
                % (where, kind, atom.name, len(decl.arg_sorts), len(atom.args)),
            )
            return
        for term, sort in zip(atom.args, decl.arg_sorts):
            if not is_variable(term) and term not in sig.sorts.get(sort, ()):
                error("sort-mismatch", "%s: constant %s is not of sort %s" % (where, term, sort))

    def check_condition(cond: Condition, where: str) -> None:
        for lit in sorted(cond.literals):
            check_atom(lit.atom, "fluent", where)
        if warnings:
            if cond.has_complementary_pair():
                warning("unsat-condition", "%s: condition contains a literal and its negation" % where)
            for a, b in sorted(cond.diseqs):
                if a == b:
                    warning("unsat-condition", "%s: disequality %s != %s is never true" % (where, a, b))

    # Statements are frozen and compare by value (conditions as sets), so
    # each is its own key.
    seen_props: set[Proposition] = set()
    for i, prop in enumerate(domain.propositions):
        where = "statement %d" % (i + 1)
        if warnings:
            if prop in seen_props:
                warning("duplicate-statement", "%s repeats an earlier statement" % where)
            seen_props.add(prop)

        if isinstance(prop, TProp):
            check_atom(prop.literal.atom, "fluent", where)
            if not prop.literal.is_ground:
                error("non-ground", "%s: observation must be ground" % where)
            if prop.time < 0:
                error("bad-time", "%s: time points are natural numbers" % where)
        elif isinstance(prop, HProp):
            check_atom(prop.action, "action", where)
            if not prop.action.is_ground:
                error("non-ground", "%s: occurrence must be ground" % where)
            if prop.time < 0:
                error("bad-time", "%s: time points are natural numbers" % where)
        elif isinstance(prop, CProp):
            check_atom(prop.action, "action", where)
            check_atom(prop.fluent, "fluent", where)
            check_condition(prop.condition, where)
        elif isinstance(prop, RProp):
            if prop.head is not None:
                check_atom(prop.head.atom, "fluent", where)
            check_condition(prop.condition, where)
        elif isinstance(prop, PProp):
            check_atom(prop.action, "action", where)
            check_condition(prop.condition, where)
        else:  # pragma: no cover - guarded by the union type
            error("bad-statement", "%s: unknown proposition kind" % where)

        if isinstance(prop, (CProp, RProp, PProp)):
            for v, s in getattr(prop, "var_sorts", ()):
                if s not in sig.sorts:
                    error("undeclared-sort", "%s: typing atom uses undeclared sort %s" % (where, s))
                if not is_variable(v):
                    error("bad-typing", "%s: typing atom must apply to a variable" % where)
            sorts, problems = infer_variable_sorts(sig, prop)
            if rule_sorts is not None:
                rule_sorts[i] = sorts
            for msg in problems:
                error("sort-conflict", "%s: %s" % (where, msg))

    return diags


def errors_of(diags: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]
