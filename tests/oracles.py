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
    instances a disequality or a residue that can never hold removed.  A
    precondition that can never hold is kept, marked ``impossible``, with
    its literals over the fluents that change."""
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
            dynamic = ",".join(sorted(str(l) for l in inst.condition.literals if not is_constant(l.atom)))
            if body is None or contradictory(body):
                out["pprops"].append("%s|impossible|%s" % (inst.action, dynamic))
            else:
                out["pprops"].append("%s|%s" % (inst.action, dynamic))
    out["dropped"] = dropped
    return out


def condition_of(true, false) -> frozenset[int]:
    """A row's condition as literal codes: the atoms it needs true as
    positive codes, the atoms it needs false as negative ones."""
    return frozenset([a + 1 for a in true] + [-a - 1 for a in false])


def _listed(theory, rows_of) -> list:
    # every ground action's rows, as (row, action), in position order
    sig = theory.signature
    actions = [
        Atom(decl.name, args)
        for decl in sig.actions.values()
        for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts))
    ]
    return sorted(((row, a) for a in actions for row in rows_of(a)), key=lambda item: item[0][0])


def effect_instances(theory) -> list[tuple[Atom, int, frozenset[int]]]:
    """Every effect instance of the theory as (action, effect literal,
    condition codes), read off each ground action's rows, in position
    order."""
    return [
        (a, effect, condition_of(true, false))
        for (_, effect, true, false), a in _listed(theory, theory.effects_of)
    ]


def precondition_instances(theory) -> list[tuple[Atom, frozenset[int], bool]]:
    """Every precondition of the theory as (action, condition codes,
    whether it can never hold), read off each ground action's rows, in
    position order."""
    return [
        (a, condition_of(true, false), impossible)
        for (_, true, false, impossible), a in _listed(theory, theory.preconditions_of)
    ]


def theory_strings(theory) -> dict:
    """Render a GroundTheory's rows into the same shape as naive_ground_strings."""
    out = {"cprops": [], "rprops": [], "pprops": [], "constants": set(),
           "occurrences": set(), "observations": set()}
    out["constants"] = {str(a) for a, v in theory.constant_values.items() if v}

    def literals(condition):
        return ",".join(sorted(theory.lit_str(l) for l in condition))

    for action, effect, condition in effect_instances(theory):
        out["cprops"].append(
            "%s|%s|%s|%s" % (action, "+" if effect > 0 else "-", theory.atom_of(effect), literals(condition))
        )
    for head, body in theory.rules:
        out["rprops"].append("%s|%s" % ("false" if head is None else theory.lit_str(head), literals(body)))
    for action, condition, impossible in precondition_instances(theory):
        out["pprops"].append("%s|%s%s" % (action, "impossible|" if impossible else "", literals(condition)))
    out["dropped"] = theory.stats.dropped_instances
    for t, actions in theory.occurrences.items():
        for a in actions:
            out["occurrences"].add("%d:%s" % (t, a))
    for t, lits in theory.observations.items():
        for l in lits:
            out["observations"].add("%d:%s" % (t, theory.lit_str(l)))
    return out


# ---------------------------------------------------------------------------
# Reference lexer


LEXER_KEYWORDS = {
    "sort", "fluent", "constant", "action", "initiates", "terminates", "when",
    "whenever", "needs", "neg", "false", "holds-at", "happens-at", "credulous",
    "skeptical", "horizon",
}


class LexError(Exception):
    """A lexical error of ``reference_tokenize``: message, line, column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message, self.line, self.column = message, line, column


def reference_tokenize(text: str) -> list[tuple[str, str, tuple[int, int, int, int]]]:
    """Lex character by character with the ``str`` predicates: each token
    as (kind, value, (start, end, line, column)), ending with an "eof"
    token.  A newline starts a line; any other ``isspace`` character and
    ``%`` comments separate tokens; ``!=`` and ``(){},:.`` are punctuation;
    a run of ``isdigit`` characters is an "int"; an ``isalpha`` or ``_``
    character starts an identifier that runs over ``isalnum``, ``_`` and
    ``-``, read as a keyword, a "var" when it starts uppercase, or a
    "name".  Anything else raises ``LexError``."""
    tokens = []
    i, line, bol, n = 0, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            bol = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - bol + 1
        if ch == "!":
            if text[i : i + 2] != "!=":
                raise LexError("stray '!'", line, col)
            tokens.append(("!=", "!=", (i, i + 2, line, col)))
            i += 2
        elif ch in "(){},:.":
            tokens.append((ch, ch, (i, i + 1, line, col)))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], (i, j, line, col)))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in LEXER_KEYWORDS else "var" if word[0].isupper() else "name"
            tokens.append((kind, word, (i, j, line, col)))
            i = j
        else:
            raise LexError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", "", (n, n, line, n - bol + 1)))
    return tokens


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
) -> list[frozenset[int]]:
    """Every assignment satisfying the clauses and the assumption literals,
    as the set of its true variables, by trying all of them.  Listed with
    the lowest variable most significant and false before true."""
    required = [list(cl) for cl in clauses] + [[lit] for lit in assumptions]
    out = []
    for row in itertools.product((False, True), repeat=num_vars):
        if all(any(row[abs(l) - 1] == (l > 0) for l in cl) for cl in required):
            out.append(frozenset(v for v in range(1, num_vars + 1) if row[v - 1]))
    return out


def normalize(clause) -> tuple[int, ...] | None:
    """The clause in the clause kernel's normal form: duplicate literals
    merged, each kept where it first occurs; None for a tautology."""
    lits: list[int] = []
    for l in clause:
        if -l in lits:
            return None
        if l not in lits:
            lits.append(l)
    return tuple(lits)


def constraint_clause(rule) -> tuple[int, ...] | None:
    """A ground ramification statement or denial, a (head or None, body)
    row, as a state-constraint clause in normal form: the negated body
    literals, lowest atom first, then the head; None for a tautology."""
    head, body = rule
    body = sorted(body, key=lambda c: (abs(c), c))
    return normalize([-c for c in body] + ([] if head is None else [head]))


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
    rendered violations), straight from the definition: the fragment is
    the theories whose ramification graph is acyclic, and a theory outside
    it is reported with the cycle ``ramification_cycle`` finds."""
    cycle = ramification_cycle(theory)
    if cycle is None:
        return True, []
    return False, ["ramification-cycle: " + " -> ".join(str(theory.fluents[a]) for a in cycle)]


def effect_conflicts(theory) -> list[str]:
    """Every pair i <= j of effect instances whose actions both occur and
    are the same or scheduled at one time, and whose effects'
    ramification closures hold complementary literals, each rendered with
    the instances' positions and the lowest such atom.  The clausal
    fragment admits these; the tests count them to show that random draws
    reach clashing effects."""
    closures: dict[int, set[int]] = {}

    def closure(lit: int) -> set[int]:
        # least set holding lit and every rule head whose body meets the set
        if lit not in closures:
            got = {lit}
            grew = True
            while grew:
                grew = False
                for head, body in theory.rules:
                    if head is not None and head not in got and any(c in got for c in body):
                        got.add(head)
                        grew = True
            closures[lit] = got
        return closures[lit]

    occurring = set()
    for acts in theory.occurrences.values():
        occurring |= acts
    effects = [
        (action, effect, position)
        for position, (action, effect, _) in enumerate(effect_instances(theory))
        if action in occurring
    ]
    out = []
    for i, (a, li, si) in enumerate(effects):
        for b, lj, sj in effects[i:]:
            if a != b and not any(a in acts and b in acts for acts in theory.occurrences.values()):
                continue
            other = closure(lj)
            common = sorted(abs(m) for m in closure(li) if -m in other)
            if common:
                out.append("effects %d and %d can disagree on %s" % (si, sj, theory.fluents[common[0] - 1]))
    return out


def ramification_cycle(theory) -> list[int] | None:
    """The first cycle a depth-first search over the ramification graph
    (body atom to head atom, lowest atom first, successors ascending)
    meets, as atom numbers; None when the graph is acyclic."""
    edges: dict[int, set[int]] = {}
    for head, body in theory.rules:
        if head is not None:
            for c in body:
                edges.setdefault(abs(c) - 1, set()).add(abs(head) - 1)
    return _dfs_cycle(edges)


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
# Relevance-slice reference


def slice_atoms(theory, goal_atoms) -> set[int]:
    """The atoms a relevance slice keeps, straight from the definition:
    the least set holding the goal atoms and every atom of a statement
    that mentions one of them, where the statements are the ramification
    rules and denials and the effect instances of the actions that occur
    at some time."""
    occurring = set()
    for acts in theory.occurrences.values():
        occurring |= acts
    statements = [
        {abs(effect) - 1} | {abs(c) - 1 for c in condition}
        for action, effect, condition in effect_instances(theory)
        if action in occurring
    ]
    statements += [
        {abs(c) - 1 for c in body} | ({abs(head) - 1} if head is not None else set())
        for head, body in theory.rules
    ]
    kept = set(goal_atoms)
    grew = True
    while grew:
        grew = False
        for atoms in statements:
            if atoms & kept and not atoms <= kept:
                kept |= atoms
                grew = True
    return kept


# ---------------------------------------------------------------------------
# Step and trajectory reference


def _top_level(text: str) -> list[str]:
    """``text`` split at its commas outside parentheses; none when empty."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]] if text else parts


def _literals(text: str) -> list[tuple[str, bool]]:
    """A rendered condition's literals as (atom name, positive) pairs."""
    return [(l[4:], False) if l.startswith("neg ") else (l, True) for l in _top_level(text)]


class NaiveTheory:
    """The models of a description straight from ``docs/semantics.md``,
    by enumeration over the statements ``naive_ground_strings`` renders.
    A state is the frozenset of the names of its true atoms, a literal an
    (atom name, positive) pair; actions are read by name.  Nothing here
    depends on the source state being consistent, or on any argument
    about which candidate subsets can qualify."""

    def __init__(self, domain: DomainDescription, horizon: int):
        strings = naive_ground_strings(domain, horizon)
        sig = domain.signature
        self.horizon = horizon
        self.atoms = [
            str(Atom(decl.name, args))
            for decl in sig.fluents.values()
            if not decl.constant
            for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts))
        ]
        self.constants = strings["constants"]
        self.effects = []  # (action, effect literal, condition)
        for row in strings["cprops"]:
            action, sign, atom, condition = row.split("|")
            self.effects.append((action, (atom, sign == "+"), _literals(condition)))
        self.rules = []  # (head literal, or None for a denial, body)
        for row in strings["rprops"]:
            head, body = row.split("|")
            self.rules.append((None if head == "false" else _literals(head)[0], _literals(body)))
        self.preconditions = []  # (action, condition, or None when it never holds)
        for row in strings["pprops"]:
            parts = row.split("|")
            self.preconditions.append((parts[0], None if len(parts) == 3 else _literals(parts[1])))
        self.occurrences: dict[int, set[str]] = {}
        for item in strings["occurrences"]:
            t, action = item.split(":", 1)
            self.occurrences.setdefault(int(t), set()).add(action)
        self.observations: dict[int, list[tuple[str, bool]]] = {}
        for item in strings["observations"]:
            t, literal = item.split(":", 1)
            self.observations.setdefault(int(t), []).extend(_literals(literal))
        self._successors: dict = {}

    @staticmethod
    def holds(state: frozenset[str], literal: tuple[str, bool]) -> bool:
        return (literal[0] in state) == literal[1]

    def all_hold(self, state: frozenset[str], literals) -> bool:
        return all(self.holds(state, l) for l in literals)

    def consistent(self, state: frozenset[str]) -> bool:
        """Rule d: every statement holds in ``state`` as a state
        constraint, denials included."""
        return all(
            not self.all_hold(state, body) or (head is not None and self.holds(state, head))
            for head, body in self.rules
        )

    def assignments(self):
        """Every state, by truth table over the atoms."""
        for row in itertools.product((False, True), repeat=len(self.atoms)):
            yield frozenset(a for a, v in zip(self.atoms, row) if v)

    def states(self) -> list[frozenset[str]]:
        """Every state that satisfies the state constraints."""
        return [s for s in self.assignments() if self.consistent(s)]

    def candidates(self, source: frozenset[str], actions) -> set[tuple[str, bool]]:
        """The direct candidates: the effect of every statement of an
        action in ``actions`` whose condition holds in ``source``."""
        names = {str(a) for a in actions}
        return {effect for action, effect, condition in self.effects
                if action in names and self.all_hold(source, condition)}

    def closure(self, applied, target: frozenset[str]) -> set[tuple[str, bool]] | None:
        """Rule a: the least set holding ``applied`` to which a statement
        adds its head whenever its body holds in ``target`` and has a
        literal in the set; None when that set holds a literal and its
        complement."""
        changed = set(applied)
        grew = True
        while grew:
            grew = False
            for head, body in self.rules:
                if (head is not None and head not in changed and self.all_hold(target, body)
                        and any(l in changed for l in body)):
                    changed.add(head)
                    grew = True
        if any((atom, not positive) in changed for atom, positive in changed):
            return None
        return changed

    def is_step(self, source: frozenset[str], actions, target: frozenset[str]) -> bool:
        """Whether ``target`` is a successor of ``source`` under
        ``actions``: it meets rule d, and some subset of the candidates
        without a complementary pair meets rules a, b, c and e."""
        if not self.consistent(target):
            return False
        candidates = sorted(self.candidates(source, actions))
        for size in range(len(candidates) + 1):
            for applied in itertools.combinations(candidates, size):
                if any((atom, not positive) in applied for atom, positive in applied):
                    continue
                if not self.all_hold(target, applied):
                    continue  # rule b on applied, a subset of changed
                changed = self.closure(applied, target)
                if changed is None or not self.all_hold(target, changed):
                    continue
                mentioned = {atom for atom, _ in changed}
                if any((atom in source) != (atom in target) and atom not in mentioned for atom in self.atoms):
                    continue
                if all((atom, not positive) in changed for atom, positive in candidates
                       if (atom, positive) not in applied):
                    return True
        return False

    def successors(self, source: frozenset[str], actions) -> list[frozenset[str]]:
        """Every successor of ``source`` under ``actions``, whether or not
        ``source`` itself satisfies the state constraints."""
        key = (source, frozenset(str(a) for a in actions))
        if key not in self._successors:
            self._successors[key] = [t for t in self.assignments() if self.is_step(source, key[1], t)]
        return self._successors[key]

    def legal(self, state: frozenset[str], actions) -> bool:
        """Whether every precondition of every action in ``actions``
        holds in ``state``; one that can never hold never does."""
        names = {str(a) for a in actions}
        return all(condition is not None and self.all_hold(state, condition)
                   for action, condition in self.preconditions if action in names)

    def observed(self, state: frozenset[str], t: int) -> bool:
        return self.all_hold(state, self.observations.get(t, ()))

    def trajectories(self) -> list[tuple[frozenset[str], ...]]:
        """Every model: an initial state that satisfies the constraints and
        the observations at 0, then at each step, from a state where the
        scheduled actions' preconditions hold, a successor under them that
        meets the observations at the next time point."""
        paths = [(s,) for s in self.states() if self.observed(s, 0)]
        for t in range(self.horizon):
            actions = self.occurrences.get(t, set())
            paths = [
                path + (target,)
                for path in paths
                if self.legal(path[-1], actions)
                for target in self.successors(path[-1], actions)
                if self.observed(target, t + 1)
            ]
        return paths

    def goal_holds(self, path, literal: FluentLiteral, t: int) -> bool:
        """A goal literal at time ``t`` of ``path``; a constant atom has
        the value grounding derives for it."""
        name = str(literal.atom)
        if name in self.atoms:
            return self.holds(path[t], (name, literal.positive))
        return (name in self.constants) == literal.positive

    def answer(self, mode: str, goals) -> str:
        """``true``, ``false`` or ``domain-inconsistent`` for the (literal,
        time) ``goals``: inconsistent without a model; otherwise whether
        the goals hold together in some model (credulous) or in every
        one (skeptical)."""
        paths = self.trajectories()
        if not paths:
            return "domain-inconsistent"
        met = [all(self.goal_holds(p, l, t) for l, t in goals) for p in paths]
        return "true" if (any(met) if mode == "credulous" else all(met)) else "false"

    def accepts(self, witness: dict) -> bool:
        """Whether a rendered trajectory (its states' and each step's
        actions' sorted names) is a model."""
        states = [frozenset(names) for names in witness["states"]]
        actions = [sorted(self.occurrences.get(t, ())) for t in range(self.horizon)]
        return (
            len(states) == self.horizon + 1
            and witness["actions"] == actions
            and all(s <= set(self.atoms) and self.consistent(s) and self.observed(s, t) for t, s in enumerate(states))
            and all(self.legal(states[t], acts) and self.is_step(states[t], acts, states[t + 1])
                    for t, acts in enumerate(actions))
        )


def named(theory, state: frozenset[int]) -> frozenset[str]:
    """A state of ``theory``, as atom numbers, by its atoms' names."""
    return frozenset(str(theory.fluents[i]) for i in state)


def numbered(theory, states) -> list[frozenset[int]]:
    """Named states in ``theory``'s atom numbering, in the clause
    kernel's order: atom 0 most significant, false before true."""
    number = {str(atom): i for i, atom in enumerate(theory.fluents)}
    found = [frozenset(number[name] for name in state) for state in states]
    return sorted(found, key=lambda s: [i in s for i in range(len(theory.fluents))])


def reference_successors(theory, reference: NaiveTheory, source: frozenset[int], actions) -> list[frozenset[int]]:
    """``reference``'s successors of a state in ``theory``'s numbering,
    numbered and in the kernel's order (see ``numbered``)."""
    return numbered(theory, reference.successors(named(theory, source), actions))


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


def random_step(rng: random.Random, max_fluents: int = 6) -> DomainDescription:
    """A random propositional domain whose narrative is one fully observed
    step: every fluent observed at 0 and some actions occurring at 0.  The
    effects and rules are drawn as in ``random_theory``, and one of two
    step shapes is planted on top:

    * ``override``: an occurring action has an effect on h, and a rule
      gives h the other value from a body { b } that holds at the source.
      b is producible, through a rule { q, r } and another effect on q,
      but r's source value keeps that rule from firing, so b stays as it
      was: a support that holds but never changed.
    * ``split``: two occurring effects give one atom x opposite values,
      and a rule carries x on to another atom, so that the step has a
      target for each value of x.

    The source satisfies every rule (evaluated here, from the
    definition); completions are redrawn until one does, and the whole
    domain is redrawn when 20 of them do not.  Planted statements add no
    cycle, but the drawn ones may."""
    while True:
        n_fluents = rng.randint(4, max_fluents)
        fluents = ["f%d" % i for i in range(1, n_fluents + 1)]
        actions = ["a1", "a2"]

        def lit(name: str, positive: bool) -> FluentLiteral:
            return FluentLiteral(Atom(name, ()), positive)

        def condition(max_width: int) -> Condition:
            names = rng.sample(fluents, rng.randint(0, max_width))
            return Condition.of(*(lit(a, rng.random() < 0.5) for a in names))

        def effect(action: str, positive: bool, name: str, cond: Condition = Condition.of()) -> CProp:
            return CProp(Atom(action, ()), positive, Atom(name, ()), cond, ())

        props = []
        for _ in range(rng.randint(0, 3)):
            props.append(effect(rng.choice(actions), rng.random() < 0.5, rng.choice(fluents), condition(2)))
        for _ in range(rng.randint(0, 3)):
            body = condition(2)
            while body.is_empty:
                body = condition(2)
            head = None if rng.random() < 0.2 else lit(rng.choice(fluents), rng.random() < 0.5)
            props.append(RProp(head, body, ()))
        occurring = {"a1"}
        if rng.random() < 0.5:  # an override
            h, b, q, r = rng.sample(fluents, 4)
            vh, vb, vq, vr = (rng.random() < 0.5 for _ in range(4))
            props += [
                effect("a1", vh, h),
                effect("a1", vq, q),
                RProp(lit(h, not vh), Condition.of(lit(b, vb)), ()),
                RProp(lit(b, vb), Condition.of(lit(q, vq), lit(r, vr)), ()),
            ]
            planted = {h: not vh, b: vb, q: not vq, r: not vr}
        else:  # a split
            x, y = rng.sample(fluents, 2)
            other = rng.choice(actions)
            occurring.add(other)
            props += [
                effect("a1", True, x),
                effect(other, False, x),
                RProp(lit(y, rng.random() < 0.5), Condition.of(lit(x, rng.random() < 0.5)), ()),
            ]
            planted = {}
        if rng.random() < 0.5:
            occurring.add("a2")
        rules = [p for p in props if isinstance(p, RProp)]
        for _ in range(20):
            source = {f: planted.get(f, rng.random() < 0.5) for f in fluents}
            if all(_rule_holds(rp, source) for rp in rules):
                break
        else:
            continue
        props += [TProp(lit(f, v), 0) for f, v in source.items()]
        props += [HProp(Atom(a, ()), 0) for a in sorted(occurring)]
        sig = Signature(
            sorts={},
            fluents={f: FluentDecl(f, ()) for f in fluents},
            actions={a: ActionDecl(a, ()) for a in actions},
        )
        return DomainDescription(sig, props)


def _rule_holds(rp: RProp, values: dict[str, bool]) -> bool:
    """Whether a propositional rule or denial holds in the state ``values``."""
    if not all(values[l.atom.name] == l.positive for l in rp.condition.literals):
        return True
    return rp.head is not None and values[rp.head.atom.name] == rp.head.positive


def override_at_source(theory, source: frozenset[int], actions) -> bool:
    """Whether some effect of ``actions`` that fires at ``source`` meets a
    rule with the opposite head whose body holds at ``source``: the
    support for keeping the effect's atom is already there."""

    def holds(code: int) -> bool:
        return (abs(code) - 1 in source) == (code > 0)

    fired = {
        effect
        for action, effect, condition in effect_instances(theory)
        if action in actions and all(holds(c) for c in condition)
    }
    return any(
        head is not None and -head in fired and all(holds(c) for c in body) for head, body in theory.rules
    )


def random_sorted_domain(rng: random.Random, wide: bool = False, joins: bool = False) -> DomainDescription:
    """A random domain with sorts, variables and constant fluents, for
    checking the grounder against full enumeration.  ``wide`` adds
    two-argument actions (so an action atom may repeat a variable or mix
    variables and constants) and disequalities in conditions.  ``joins``
    adds a third variable, a binary and a unary constant relation over the
    first sort with a few facts each, conditions with two or three
    constant literals of either sign sharing variables, and recursive
    positive derivations of the two relations.  Without either the draws
    are those of earlier versions."""
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
    if joins:
        node = sort_names[0]
        fluents["edge"] = FluentDecl("edge", (node, node), constant=True)
        fluents["mark"] = FluentDecl("mark", (node,), constant=True)
    actions = {}
    for i in range(rng.randint(1, 2)):
        name = "act%d" % (i + 1)
        arity = rng.randint(0, 2 if wide else 1)
        actions[name] = ActionDecl(name, tuple(rng.choice(sort_names) for _ in range(arity)))
    sig = Signature(sorts, fluents, actions)

    var_pool = ["X", "Y", "Z"] if joins else ["X", "Y"]

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

    def diseqs(atoms: list[Atom], decls: list) -> tuple[tuple[str, str], ...]:
        """Under ``wide``, often one disequality: between two variables of
        a sort, a variable and a constant, or two constants (which may be
        equal, ruling out every binding)."""
        if not wide or rng.random() < 0.4:
            return ()
        typed = {}
        for atom, decl in zip(atoms, decls):
            for arg, s in zip(atom.args, decl.arg_sorts):
                if arg in var_pool:
                    typed[arg] = s
        if not typed or rng.random() < 0.1:
            pool = sorts[rng.choice(sort_names)]
            return ((rng.choice(pool), rng.choice(pool)),)
        v = rng.choice(sorted(typed))
        twins = [w for w in sorted(typed) if w != v and typed[w] == typed[v]]
        if twins and rng.random() < 0.5:
            return ((v, twins[0]),)
        return ((v, rng.choice(sorts[typed[v]])),)

    dyn_fluents = [d for d in fluents.values() if not d.constant]
    const_fluents = [d for d in fluents.values() if d.constant]
    props = []
    horizon = 2

    def join_atoms(atoms: list[Atom], decls: list, count: int) -> None:
        """Under ``joins``, add ``count`` atoms of the two relations, each
        sharing a variable of the first sort with the atoms before it
        where they have one."""
        if not joins:
            return
        for _ in range(count):
            d = fluents[rng.choice(["edge", "edge", "mark"])]
            atom = atom_of(d, True)
            shared = sorted(
                arg
                for a, ad in zip(atoms, decls)
                for arg, s in zip(a.args, ad.arg_sorts)
                if arg in var_pool and s == node
            )
            if shared and not vars_of([atom]) & set(shared):
                args = list(atom.args)
                args[rng.randrange(len(args))] = rng.choice(shared)
                atom = Atom(atom.name, tuple(args))
            atoms.append(atom)
            decls.append(d)

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
            join_atoms(catoms, cdecls, rng.randint(0, 3) if joins else 0)
            if not consistent_vars([action, fluent] + catoms, [adecl, fdecl] + cdecls):
                continue
            cond = Condition.of(
                *(FluentLiteral(a, rng.random() < 0.7) for a in catoms),
                diseqs=diseqs([action, fluent] + catoms, [adecl, fdecl] + cdecls),
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
            join_atoms(catoms, cdecls, rng.randint(0, 3) if joins else 0)
            if not consistent_vars([head_atom] + catoms, [fdecl] + cdecls):
                continue
            head = None if rng.random() < 0.2 else FluentLiteral(head_atom, rng.random() < 0.7)
            body = Condition.of(
                *(FluentLiteral(a, rng.random() < 0.7) for a in catoms),
                diseqs=diseqs([head_atom] + catoms, [fdecl] + cdecls),
            )
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
            join_atoms(catoms, cdecls, rng.randint(0, 3) if joins else 0)
            if not consistent_vars([action] + catoms, [adecl] + cdecls):
                continue
            cond = Condition.of(
                *(FluentLiteral(a, rng.random() < 0.7) for a in catoms),
                diseqs=diseqs([action] + catoms, [adecl] + cdecls),
            )
            props.append(PProp(action, cond, ()))

    # constant facts and a constant derivation rule when possible
    for decl in const_fluents:
        for _ in range(rng.randint(0, 2)):
            props.append(TProp(FluentLiteral(atom_of(decl, False), True), 0))
    if joins:
        # more edges, and derivations of either relation from a positive
        # body of one to three atoms, which may use the head's relation
        for _ in range(rng.randint(1, 4)):
            props.append(TProp(FluentLiteral(atom_of(fluents["edge"], False), True), 0))
        for _ in range(rng.randint(1, 3)):
            hdecl = fluents[rng.choice(["edge", "mark"])]
            head_atom = atom_of(hdecl, True)
            catoms, cdecls = [], []
            join_atoms(catoms, cdecls, rng.randint(1, 3))
            if not consistent_vars([head_atom] + catoms, [hdecl] + cdecls):
                continue
            body = Condition.of(*map(FluentLiteral, catoms), diseqs=diseqs([head_atom] + catoms, [hdecl] + cdecls))
            props.append(RProp(FluentLiteral(head_atom), body, ()))
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


def walk_scenario(positions: int, steps: int, seed: int) -> str:
    """A seeded narrative for the generated direct zoo with feeding: every
    animal placed and its riding and hunger observed at 0, then one move
    per step and a feeding now and then."""
    animals = ("john", "elly", "dumpo")
    places = ["p%d" % i for i in range(1, positions + 1)]
    rng = random.Random(seed)
    lines = []
    for a in animals:
        lines.append("animal_pos(%s, %s) holds-at 0." % (a, rng.choice(places)))
        lines.append("%shungry(%s) holds-at 0." % (rng.choice(["", "neg "]), a))
        for b in animals:
            lines.append("neg rides(%s, %s) holds-at 0." % (a, b))
    for t in range(steps):
        lines.append("move_to_position(%s, %s) happens-at %d." % (rng.choice(animals), rng.choice(places), t))
        if rng.random() < 0.3:
            lines.append("feed_animal(%s) happens-at %d." % (rng.choice(animals), t))
    return "\n".join(lines) + "\n"
