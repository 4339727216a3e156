"""Independent reference implementations and random generators for tests.

Everything here recomputes results by the most literal method available
(full enumeration, textbook fixpoints) so the package's optimized paths
can be checked against an implementation with no shared code.
"""

from __future__ import annotations

import itertools
import random

from elang.model import (
    Atom,
    Condition,
    CProp,
    DomainDescription,
    FluentDecl,
    ActionDecl,
    FluentLiteral,
    HProp,
    PProp,
    RProp,
    Signature,
    TProp,
    infer_variable_sorts,
)

# ---------------------------------------------------------------------------
# Naive grounder


def _bindings(domain: DomainDescription, prop):
    var_sorts, problems = infer_variable_sorts(domain.signature, prop)
    assert not problems, problems
    names = sorted(var_sorts)
    pools = [domain.signature.sorts[var_sorts[v]] for v in names]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


def _diseq_ok(cond: Condition) -> bool:
    return all(a != b for a, b in cond.diseqs)


def naive_ground_strings(domain: DomainDescription, horizon: int) -> dict:
    """Ground a description by full enumeration.  Returns the rendered
    effect, ramification and precondition instances as lists in statement
    order, then binding order (variables in sorted-name order, each over
    its sort's constants in declaration order); the constants, occurrences
    and observations as sets; and under ``dropped`` the number of
    instances a disequality or a residue that can never hold removed."""
    sig = domain.signature
    constant_names = {n for n, d in sig.fluents.items() if d.constant}

    def is_constant(atom: Atom) -> bool:
        return atom.name in constant_names

    # expand every statement over all sort-respecting bindings
    instances = []
    dropped = 0
    for prop in domain.propositions:
        if isinstance(prop, (TProp, HProp)):
            instances.append(prop)
            continue
        for binding in _bindings(domain, prop):
            if isinstance(prop, CProp):
                inst = CProp(
                    prop.action.substitute(binding),
                    prop.initiates,
                    prop.fluent.substitute(binding),
                    prop.condition.substitute(binding),
                    (),
                )
            elif isinstance(prop, RProp):
                head = prop.head.substitute(binding) if prop.head is not None else None
                inst = RProp(head, prop.condition.substitute(binding), ())
            else:
                inst = PProp(prop.action.substitute(binding), prop.condition.substitute(binding), ())
            if _diseq_ok(inst.condition):
                instances.append(inst)
            else:
                dropped += 1

    # closed-world fixpoint for constant fluents: positive facts plus rules
    # whose body holds entirely of already-derived positive constants
    derived: set[Atom] = set()
    facts = [p.literal.atom for p in instances if isinstance(p, TProp)
             and is_constant(p.literal.atom) and p.literal.positive]
    derived.update(facts)
    const_rules = [
        p for p in instances
        if isinstance(p, RProp) and p.head is not None and is_constant(p.head.atom)
        and p.head.positive
        and all(is_constant(l.atom) and l.positive for l in p.condition.literals)
    ]
    changed = True
    while changed:
        changed = False
        for rule in const_rules:
            if all(l.atom in derived for l in rule.condition.literals):
                if rule.head.atom not in derived:
                    derived.add(rule.head.atom)
                    changed = True

    def const_value(lit: FluentLiteral) -> bool:
        return (lit.atom in derived) == lit.positive

    def residue(cond: Condition):
        """Split constant literals out; None when some constant literal fails."""
        keep = []
        for lit in sorted(cond.literals, key=str):
            if is_constant(lit.atom):
                if not const_value(lit):
                    return None
                continue
            keep.append(lit)
        return keep

    def contradictory(lits) -> bool:
        strs = {str(l) for l in lits}
        return any(str(FluentLiteral(l.atom, not l.positive)) in strs for l in lits)

    out = {"cprops": [], "rprops": [], "pprops": [], "constants": set(),
           "occurrences": set(), "observations": set()}
    out["constants"] = {str(a) for a in derived}
    for inst in instances:
        if isinstance(inst, TProp):
            if is_constant(inst.literal.atom):
                continue
            if 0 <= inst.time <= horizon:
                out["observations"].add("%d:%s" % (inst.time, inst.literal))
        elif isinstance(inst, HProp):
            if 0 <= inst.time < horizon:
                out["occurrences"].add("%d:%s" % (inst.time, inst.action))
        elif isinstance(inst, CProp):
            if is_constant(inst.fluent):
                continue
            body = residue(inst.condition)
            if body is None or contradictory(body):
                dropped += 1
                continue
            out["cprops"].append(
                "%s|%s|%s|%s"
                % (inst.action, "+" if inst.initiates else "-", inst.fluent,
                   ",".join(sorted(str(l) for l in body)))
            )
        elif isinstance(inst, RProp):
            if inst.head is not None and is_constant(inst.head.atom):
                continue
            body = residue(inst.condition)
            if body is None or contradictory(body):
                dropped += 1
                continue
            head = str(inst.head) if inst.head is not None else "false"
            out["rprops"].append("%s|%s" % (head, ",".join(sorted(str(l) for l in body))))
        elif isinstance(inst, PProp):
            body = residue(inst.condition)
            if body is None or contradictory(body):
                out["pprops"].append("%s|impossible" % inst.action)
            else:
                out["pprops"].append(
                    "%s|%s" % (inst.action, ",".join(sorted(str(l) for l in body)))
                )
    out["dropped"] = dropped
    return out


def theory_strings(theory) -> dict:
    """Render a GroundTheory into the same shape as naive_ground_strings."""
    out = {"cprops": [], "rprops": [], "pprops": [], "constants": set(),
           "occurrences": set(), "observations": set()}
    out["constants"] = {str(a) for a, v in theory.constant_values.items() if v}
    for cp in theory.cprops:
        out["cprops"].append(
            "%s|%s|%s|%s"
            % (cp.action, "+" if cp.initiates else "-", theory.fluents[cp.fluent],
               ",".join(sorted(theory.lit_str(l) for l in cp.condition)))
        )
    for rp in theory.rprops:
        head = theory.lit_str(rp.head) if rp.head is not None else "false"
        out["rprops"].append(
            "%s|%s" % (head, ",".join(sorted(theory.lit_str(l) for l in rp.condition)))
        )
    for pp in theory.pprops:
        if pp.impossible:
            out["pprops"].append("%s|impossible" % pp.action)
        else:
            out["pprops"].append(
                "%s|%s" % (pp.action, ",".join(sorted(theory.lit_str(l) for l in pp.condition)))
            )
    out["dropped"] = theory.stats.dropped_instances
    for t, actions in theory.occurrences.items():
        for a in actions:
            out["occurrences"].add("%d:%s" % (t, a))
    for t, lits in theory.observations.items():
        for l in lits:
            out["observations"].add("%d:%s" % (t, theory.lit_str(l)))
    return out


# ---------------------------------------------------------------------------
# Truth-table CNF oracle (bit columns over big integers)


def _column(var_index: int, num_vars: int) -> int:
    """Truth column of a variable over all 2**num_vars assignments: bit j is
    (j >> var_index) & 1.  One period (var_index zeros, then as many ones)
    is doubled by shift-or until it covers every assignment."""
    half = 1 << var_index
    col = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << num_vars:
        col |= col << width
        width <<= 1
    return col


def cnf_truth_table(num_vars: int, clauses: list[list[int]]) -> int:
    """Bitmask of satisfying assignments (bit j set when assignment j works)."""
    full = (1 << (1 << num_vars)) - 1
    pos = [_column(i, num_vars) for i in range(num_vars)]
    neg = [col ^ full for col in pos]
    acc = full
    for clause in clauses:
        c = 0
        for lit in clause:
            c |= pos[lit - 1] if lit > 0 else neg[-lit - 1]
        acc &= c
    return acc


def cnf_satisfiable(num_vars: int, clauses: list[list[int]]) -> bool:
    return cnf_truth_table(num_vars, clauses) != 0


def model_satisfies(model: dict[int, bool], clauses: list[list[int]]) -> bool:
    return all(any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses)


def cnf_models(
    num_vars: int,
    clauses: list[list[int]],
    assumptions: list[int] = (),
    prefer: frozenset[int] = frozenset(),
) -> list[frozenset[int]]:
    """Every assignment satisfying the clauses and the assumption literals,
    as the set of its true variables, by trying all of them.  Listed with
    the lowest variable most significant and, per variable, the preferred
    value first: true for the variables in ``prefer``, false for the rest."""
    values = [(True, False) if v in prefer else (False, True) for v in range(1, num_vars + 1)]
    required = [list(cl) for cl in clauses] + [[lit] for lit in assumptions]
    out = []
    for row in itertools.product(*values):
        if all(any(row[abs(l) - 1] == (l > 0) for l in cl) for cl in required):
            out.append(frozenset(v for v in range(1, num_vars + 1) if row[v - 1]))
    return out


def random_cnf(rng: random.Random, max_vars: int = 20) -> tuple[int, list[list[int]]]:
    num_vars = rng.randint(1, max_vars)
    num_clauses = rng.randint(0, max(2, num_vars * 2))
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        vars_ = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return num_vars, clauses


# ---------------------------------------------------------------------------
# Clausal-fragment reference


def fragment_report(theory) -> tuple[bool, list[str]]:
    """The clausal fragment's verdict on a ground theory, as (accepted,
    rendered violations), straight from the definition: first the cycle a
    depth-first search over the ramification graph (body atom to head
    atom, lowest atom first, successors ascending) meets first; then, for
    every pair i <= j of effect instances whose actions both occur and are
    the same or scheduled at one time, the lowest atom on which the two
    effects' ramification closures hold complementary literals."""
    out = []
    edges: dict[int, set[int]] = {}
    for rp in theory.rprops:
        if rp.head is not None:
            for c in rp.condition:
                edges.setdefault(abs(c) - 1, set()).add(abs(rp.head) - 1)
    cycle = _dfs_cycle(edges)
    if cycle is not None:
        out.append("ramification-cycle: " + " -> ".join(str(theory.fluents[a]) for a in cycle))

    closures: dict[int, set[int]] = {}

    def closure(lit: int) -> set[int]:
        # least set holding lit and every rule head whose body meets the set
        if lit not in closures:
            got = {lit}
            grew = True
            while grew:
                grew = False
                for rp in theory.rprops:
                    if rp.head is not None and rp.head not in got and any(c in got for c in rp.condition):
                        got.add(rp.head)
                        grew = True
            closures[lit] = got
        return closures[lit]

    occurring = set()
    for acts in theory.occurrences.values():
        occurring |= acts
    effects = [
        (cp.action, cp.fluent + 1 if cp.initiates else -(cp.fluent + 1), cp.src)
        for cp in theory.cprops
        if cp.action in occurring
    ]
    for i, (a, li, si) in enumerate(effects):
        for b, lj, sj in effects[i:]:
            if a != b and not any(a in acts and b in acts for acts in theory.occurrences.values()):
                continue
            other = closure(lj)
            common = sorted(abs(m) for m in closure(li) if -m in other)
            if common:
                out.append(
                    "effect-conflict: statements %d and %d can disagree on %s"
                    % (si, sj, theory.fluents[common[0] - 1])
                )
    return not out, out


def _dfs_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    status: dict[int, str] = {}
    path: list[int] = []

    def visit(a: int) -> list[int] | None:
        status[a] = "open"
        path.append(a)
        for b in sorted(edges.get(a, ())):
            if status.get(b) == "open":
                return path[path.index(b):] + [b]
            if b not in status:
                found = visit(b)
                if found is not None:
                    return found
        path.pop()
        status[a] = "closed"
        return None

    for a in sorted(edges):
        if a not in status:
            found = visit(a)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# Random domain generators


def random_theory(
    rng: random.Random,
    max_fluents: int = 6,
    max_cprops: int = 4,
    max_rprops: int = 3,
    with_occurrences: bool = True,
) -> DomainDescription:
    """A random propositional domain description, valid by construction."""
    n_fluents = rng.randint(1, max_fluents)
    n_actions = rng.randint(1, 3)
    fluents = ["f%d" % i for i in range(1, n_fluents + 1)]
    actions = ["a%d" % i for i in range(1, n_actions + 1)]
    sig = Signature(
        sorts={},
        fluents={f: FluentDecl(f, ()) for f in fluents},
        actions={a: ActionDecl(a, ()) for a in actions},
    )

    def literal() -> FluentLiteral:
        return FluentLiteral(Atom(rng.choice(fluents), ()), rng.random() < 0.5)

    def condition(max_width: int) -> Condition:
        width = rng.randint(0, max_width)
        atoms = rng.sample(fluents, min(width, len(fluents)))
        return Condition.of(
            *(FluentLiteral(Atom(a, ()), rng.random() < 0.5) for a in atoms)
        )

    props = []
    horizon = rng.randint(2, 4)
    for _ in range(rng.randint(0, max_cprops)):
        props.append(
            CProp(
                Atom(rng.choice(actions), ()),
                rng.random() < 0.5,
                Atom(rng.choice(fluents), ()),
                condition(2),
                (),
            )
        )
    for _ in range(rng.randint(0, max_rprops)):
        head = None if rng.random() < 0.25 else literal()
        body = condition(2)
        while body.is_empty:
            body = condition(2)
        props.append(RProp(head, body, ()))
    for _ in range(rng.randint(0, 2)):
        cond = condition(2)
        if cond.is_empty:
            continue
        props.append(PProp(Atom(rng.choice(actions), ()), cond, ()))
    if with_occurrences:
        for t in range(horizon):
            for a in actions:
                if rng.random() < 0.35:
                    props.append(HProp(Atom(a, ()), t))
    for _ in range(rng.randint(0, 3)):
        props.append(TProp(literal(), rng.randint(0, horizon)))
    return DomainDescription(sig, props)


def random_state(rng: random.Random, n_atoms: int) -> frozenset[int]:
    return frozenset(i for i in range(n_atoms) if rng.random() < 0.5)


def random_sorted_domain(rng: random.Random) -> DomainDescription:
    """A random domain with sorts, variables and constant fluents, for
    checking the grounder against full enumeration."""
    sorts = {}
    for s in range(rng.randint(1, 2)):
        name = "s%d" % (s + 1)
        sorts[name] = ["%sc%d" % (name, i + 1) for i in range(rng.randint(1, 3))]
    sort_names = list(sorts)
    fluents = {}
    for i in range(rng.randint(1, 4)):
        name = "f%d" % (i + 1)
        arity = rng.randint(0, 2)
        fluents[name] = FluentDecl(
            name, tuple(rng.choice(sort_names) for _ in range(arity)), constant=rng.random() < 0.3
        )
    if all(d.constant for d in fluents.values()):
        fluents["fdyn"] = FluentDecl("fdyn", (), constant=False)
    actions = {}
    for i in range(rng.randint(1, 2)):
        name = "act%d" % (i + 1)
        arity = rng.randint(0, 1)
        actions[name] = ActionDecl(name, tuple(rng.choice(sort_names) for _ in range(arity)))
    sig = Signature(sorts, fluents, actions)

    var_pool = ["X", "Y"]

    def atom_of(decl: FluentDecl | ActionDecl, vars_allowed: bool) -> Atom:
        args = []
        for s in decl.arg_sorts:
            if vars_allowed and rng.random() < 0.5:
                args.append(rng.choice(var_pool))
            else:
                args.append(rng.choice(sorts[s]))
        return Atom(decl.name, tuple(args))

    def consistent_vars(atoms: list[Atom], decls: list) -> bool:
        got: dict[str, str] = {}
        for atom, decl in zip(atoms, decls):
            for arg, s in zip(atom.args, decl.arg_sorts):
                if arg in var_pool:
                    if got.setdefault(arg, s) != s:
                        return False
        return True

    def vars_of(atoms: list[Atom]) -> set[str]:
        return {a for atom in atoms for a in atom.args if a in var_pool}

    dyn_fluents = [d for d in fluents.values() if not d.constant]
    const_fluents = [d for d in fluents.values() if d.constant]
    props = []
    horizon = 2

    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.35:
            # effect law on a dynamic fluent
            adecl = rng.choice(list(actions.values()))
            fdecl = rng.choice(dyn_fluents)
            action = atom_of(adecl, True)
            fluent = atom_of(fdecl, True)
            catoms, cdecls = [], []
            for _ in range(rng.randint(0, 2)):
                d = rng.choice(list(fluents.values()))
                catoms.append(atom_of(d, True))
                cdecls.append(d)
            if not consistent_vars([action, fluent] + catoms, [adecl, fdecl] + cdecls):
                continue
            cond = Condition.of(
                *(FluentLiteral(a, rng.random() < 0.7) for a in catoms)
            )
            props.append(CProp(action, rng.random() < 0.5, fluent, cond, ()))
        elif kind < 0.75:
            # whenever statement with a dynamic head; head variables must
            # also appear in the body so every instance is well typed
            fdecl = rng.choice(dyn_fluents)
            head_atom = atom_of(fdecl, True)
            catoms, cdecls = [], []
            for _ in range(rng.randint(1, 2)):
                d = rng.choice(list(fluents.values()))
                catoms.append(atom_of(d, True))
                cdecls.append(d)
            if not consistent_vars([head_atom] + catoms, [fdecl] + cdecls):
                continue
            head = None if rng.random() < 0.2 else FluentLiteral(head_atom, rng.random() < 0.7)
            body = Condition.of(*(FluentLiteral(a, rng.random() < 0.7) for a in catoms))
            if body.is_empty:
                continue
            if head is not None and not vars_of([head_atom]) <= vars_of(catoms):
                continue
            props.append(RProp(head, body, ()))
        else:
            # precondition for an action
            adecl = rng.choice(list(actions.values()))
            action = atom_of(adecl, True)
            catoms, cdecls = [], []
            for _ in range(rng.randint(1, 2)):
                d = rng.choice(list(fluents.values()))
                catoms.append(atom_of(d, True))
                cdecls.append(d)
            if not consistent_vars([action] + catoms, [adecl] + cdecls):
                continue
            cond = Condition.of(*(FluentLiteral(a, rng.random() < 0.7) for a in catoms))
            props.append(PProp(action, cond, ()))

    # constant facts and a constant derivation rule when possible
    for decl in const_fluents:
        for _ in range(rng.randint(0, 2)):
            props.append(TProp(FluentLiteral(atom_of(decl, False), True), 0))
    # ground observations and occurrences
    for _ in range(rng.randint(0, 2)):
        fdecl = rng.choice(dyn_fluents)
        props.append(
            TProp(FluentLiteral(atom_of(fdecl, False), rng.random() < 0.6), rng.randint(0, horizon))
        )
    for _ in range(rng.randint(0, 2)):
        adecl = rng.choice(list(actions.values()))
        props.append(HProp(atom_of(adecl, False), rng.randint(0, horizon - 1)))
    return DomainDescription(sig, props)
