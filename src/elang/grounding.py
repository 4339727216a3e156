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

The result is a :class:`GroundTheory` over integer literal codes: fluent
atom number ``i`` (0-based, declaration order, argument tuples in each
sort's declaration order) is ``+(i+1)`` when true and ``-(i+1)`` when
false.  States are frozensets of true atom numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


@dataclass
class GroundTheory:
    fluents: tuple[Atom, ...]
    index: dict[Atom, int]
    constant_values: dict[Atom, bool]
    cprops: list[GroundCProp]
    rprops: list[GroundRProp]
    pprops: list[GroundPProp]
    occurrences: dict[int, frozenset[Atom]]  # time -> simultaneous actions
    observations: dict[int, frozenset[Lit]]  # time -> observed literals
    horizon: int
    stats: GroundingStats
    # Derived indexes, built once in ground():
    constraint_clauses: tuple[frozenset[Lit], ...] = ()
    constraints: ClauseSet | None = None  # constraint_clauses, indexed for search
    rprops_by_body_atom: dict[int, tuple[int, ...]] = field(default_factory=dict)
    rprops_by_head_atom: dict[int, tuple[int, ...]] = field(default_factory=dict)
    cprops_by_action: dict[Atom, tuple[int, ...]] = field(default_factory=dict)
    pprops_by_action: dict[Atom, tuple[int, ...]] = field(default_factory=dict)
    # Filled by the clausal backend on first use (sat.answer_sat): the
    # fragment verdict and, inside the fragment, the compiled clauses.
    sat_memo: object = field(default=None, repr=False, compare=False)

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


def _ground_instances(domain: DomainDescription, prop, src: int):
    """Yield ground copies of one proposition, in deterministic order."""
    sig = domain.signature
    var_sorts, problems = infer_variable_sorts(sig, prop)
    if problems:
        raise GroundingError("cannot ground statement %d: %s" % (src, problems[0]))
    names = sorted(var_sorts)
    pools = []
    for v in names:
        constants = sig.sorts.get(var_sorts[v])
        if constants is None:
            raise GroundingError(
                "cannot ground statement %d: sort %s is not declared" % (src, var_sorts[v])
            )
        pools.append(constants)
    for combo in itertools.product(*pools):
        binding = dict(zip(names, combo))
        yield _substitute_prop(prop, binding)


def _substitute_prop(prop, binding):
    if isinstance(prop, TProp):
        return TProp(prop.literal.substitute(binding), prop.time)
    if isinstance(prop, HProp):
        return HProp(prop.action.substitute(binding), prop.time)
    if isinstance(prop, CProp):
        return CProp(
            prop.action.substitute(binding),
            prop.initiates,
            prop.fluent.substitute(binding),
            prop.condition.substitute(binding),
            (),
        )
    if isinstance(prop, RProp):
        head = None if prop.head is None else prop.head.substitute(binding)
        return RProp(head, prop.condition.substitute(binding), ())
    if isinstance(prop, PProp):
        return PProp(prop.action.substitute(binding), prop.condition.substitute(binding), ())
    raise TypeError("not a proposition: %r" % (prop,))


def _diseq_ok(condition: Condition) -> bool:
    return all(a != b for a, b in condition.diseqs)


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

    constant_atoms: list[Atom] = []
    dynamic_atoms: list[Atom] = []
    for decl in sig.fluents.values():
        pools = [sig.sorts[s] for s in decl.arg_sorts]
        atoms = [Atom(decl.name, args) for args in itertools.product(*pools)]
        (constant_atoms if decl.constant else dynamic_atoms).extend(atoms)
    fluents = tuple(dynamic_atoms)
    index = {atom: i for i, atom in enumerate(fluents)}
    stats.fluent_atoms = len(fluents)
    stats.constant_atoms = len(constant_atoms)

    def is_constant(atom: Atom) -> bool:
        return sig.fluents[atom.name].constant

    # Pass 1: expand every proposition to ground instances.
    ground_props: list[tuple[object, int]] = []
    for src, prop in enumerate(domain.propositions):
        if isinstance(prop, (TProp, HProp)):
            ground_props.append((prop, src))
            continue
        for inst in _ground_instances(domain, prop, src):
            cond = inst.condition
            if not _diseq_ok(cond):
                stats.dropped_instances += 1
                continue
            ground_props.append((inst, src))

    # Pass 2: fix constant fluent values by closed-world least fixpoint.
    constant_values = {atom: False for atom in constant_atoms}
    facts: list[tuple[Atom, int]] = []
    neg_obs: list[tuple[Atom, int]] = []
    rules: list[tuple[Atom, frozenset[FluentLiteral], int]] = []
    checks: list[tuple[RProp, int]] = []
    for inst, src in ground_props:
        if isinstance(inst, TProp) and is_constant(inst.literal.atom):
            if inst.literal.positive:
                facts.append((inst.literal.atom, src))
            else:
                neg_obs.append((inst.literal.atom, src))
        elif isinstance(inst, RProp):
            head_constant = inst.head is not None and is_constant(inst.head.atom)
            body_all_constant = all(is_constant(l.atom) for l in inst.condition.literals)
            if head_constant and not body_all_constant:
                raise GroundingError(
                    "statement %d makes constant fluent %s depend on state-varying fluents"
                    % (src, inst.head.atom),
                    kind="constant-dynamic",
                )
            if head_constant and inst.head.positive:
                body = inst.condition.literals
                if any(not l.positive for l in body):
                    # Negative constant premises are closed-world tests, not
                    # derivation steps; treat the rule as a post-fixpoint check.
                    checks.append((inst, src))
                else:
                    rules.append((inst.head.atom, body, src))
            elif body_all_constant and (inst.head is None or head_constant):
                checks.append((inst, src))
        elif isinstance(inst, CProp) and is_constant(inst.fluent):
            raise GroundingError(
                "statement %d lets action %s change constant fluent %s"
                % (src, inst.action, inst.fluent),
                kind="constant-effect",
            )
    for atom, src in facts:
        constant_values[atom] = True
    changed = True
    while changed:
        changed = False
        for head, body, src in rules:
            if constant_values[head]:
                continue
            if all(constant_values[l.atom] == l.positive for l in body):
                constant_values[head] = True
                changed = True
    for atom, src in neg_obs:
        if constant_values[atom]:
            raise GroundingError(
                "statement %d denies constant fluent %s, which is derived true" % (src, atom),
                kind="constant-conflict",
            )
    for inst, src in checks:
        if all(constant_values[l.atom] == l.positive for l in inst.condition.literals):
            if inst.head is None or constant_values[inst.head.atom] != inst.head.positive:
                raise GroundingError(
                    "statement %d is violated by the fixed constant fluent values" % src,
                    kind="constant-contradiction",
                )

    def residue(cond: Condition) -> frozenset[Lit] | None:
        """Evaluate constant literals; None when the condition can never hold."""
        out: set[Lit] = set()
        for lit in cond.literals:
            if is_constant(lit.atom):
                if constant_values[lit.atom] != lit.positive:
                    return None
            else:
                code = index[lit.atom] + 1
                out.add(code if lit.positive else -code)
        if any(-c in out for c in out):
            return None
        return frozenset(out)

    # Pass 3: build the dynamic ground theory.
    cprops: list[GroundCProp] = []
    rprops: list[GroundRProp] = []
    pprops: list[GroundPProp] = []
    occurrences: dict[int, set[Atom]] = {}
    observations: dict[int, set[Lit]] = {}
    for inst, src in ground_props:
        if isinstance(inst, TProp):
            if is_constant(inst.literal.atom):
                continue
            if not (0 <= inst.time <= horizon):
                raise GroundingError(
                    "observation at time %d is outside 0..%d" % (inst.time, horizon),
                    kind="horizon",
                )
            observations.setdefault(inst.time, set()).add(_code(index, inst.literal))
        elif isinstance(inst, HProp):
            if not (0 <= inst.time < horizon):
                raise GroundingError(
                    "occurrence at time %d has no following state within horizon %d"
                    % (inst.time, horizon),
                    kind="horizon",
                )
            occurrences.setdefault(inst.time, set()).add(inst.action)
        elif isinstance(inst, CProp):
            if is_constant(inst.fluent):
                continue
            cond = residue(inst.condition)
            if cond is None:
                stats.dropped_instances += 1
                continue
            cprops.append(GroundCProp(inst.action, inst.initiates, index[inst.fluent], cond, src))
        elif isinstance(inst, RProp):
            if inst.head is not None and is_constant(inst.head.atom):
                continue  # folded into the constant fixpoint above
            cond = residue(inst.condition)
            if cond is None:
                stats.dropped_instances += 1
                continue
            head = None if inst.head is None else _code(index, inst.head)
            rprops.append(GroundRProp(head, cond, src))
        elif isinstance(inst, PProp):
            cond_set: set[Lit] = set()
            impossible = False
            for lit in inst.condition.literals:
                if is_constant(lit.atom):
                    if constant_values[lit.atom] != lit.positive:
                        impossible = True  # the action can then never occur legally
                else:
                    cond_set.add(_code(index, lit))
            if any(-c in cond_set for c in cond_set):
                impossible = True
            pprops.append(GroundPProp(inst.action, frozenset(cond_set), src, impossible))

    stats.cprops = len(cprops)
    stats.rprops = sum(1 for r in rprops if r.head is not None)
    stats.denials = sum(1 for r in rprops if r.head is None)
    stats.pprops = len(pprops)
    stats.occurrences = sum(len(v) for v in occurrences.values())
    stats.observations = sum(len(v) for v in observations.values())

    theory = GroundTheory(
        fluents=fluents,
        index=index,
        constant_values=constant_values,
        cprops=cprops,
        rprops=rprops,
        pprops=pprops,
        occurrences={t: frozenset(v) for t, v in sorted(occurrences.items())},
        observations={t: frozenset(v) for t, v in sorted(observations.items())},
        horizon=horizon,
        stats=stats,
    )
    _build_indexes(theory)
    return theory


def _code(index: dict[Atom, int], literal: FluentLiteral) -> Lit:
    num = index[literal.atom] + 1
    return num if literal.positive else -num


def _build_indexes(theory: GroundTheory) -> None:
    clauses: list[frozenset[Lit]] = []
    by_body: dict[int, list[int]] = {}
    by_head: dict[int, list[int]] = {}
    for ri, rp in enumerate(theory.rprops):
        clause = {-c for c in rp.condition}
        if rp.head is not None:
            clause.add(rp.head)
        clauses.append(frozenset(clause))
        for c in rp.condition:
            by_body.setdefault(abs(c) - 1, []).append(ri)
        if rp.head is not None:
            by_head.setdefault(abs(rp.head) - 1, []).append(ri)
    theory.constraint_clauses = tuple(clauses)
    theory.constraints = ClauseSet(theory.n_fluents, theory.constraint_clauses)
    theory.rprops_by_body_atom = {k: tuple(v) for k, v in by_body.items()}
    theory.rprops_by_head_atom = {k: tuple(v) for k, v in by_head.items()}
    by_action: dict[Atom, list[int]] = {}
    for ci, cp in enumerate(theory.cprops):
        by_action.setdefault(cp.action, []).append(ci)
    theory.cprops_by_action = {k: tuple(v) for k, v in by_action.items()}
    p_by_action: dict[Atom, list[int]] = {}
    for pi, pp in enumerate(theory.pprops):
        p_by_action.setdefault(pp.action, []).append(pi)
    theory.pprops_by_action = {k: tuple(v) for k, v in p_by_action.items()}


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
