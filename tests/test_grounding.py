"""Grounder: sort expansion, constant fixpoint, residuation, indexes."""

import hashlib
import random
import re

import pytest

from elang.grounding import GroundingError, dump_ground, ground
from elang.parser import parse_domain

from oracles import (
    constraint_clause,
    effect_instances,
    naive_ground_strings,
    precondition_instances,
    random_sorted_domain,
    theory_strings,
    walk_scenario,
)


def g(text, horizon=None):
    return ground(parse_domain(text).domain, horizon)


def test_bulb_ground_counts():
    from elang.corpus import load_domain

    th = ground(load_domain("corpus:bulb.e"), 4)
    s = th.stats
    assert th.n_fluents == 2
    assert s.cprops == 3
    assert s.rprops == 1
    assert s.denials == 0
    assert s.pprops == 1
    assert s.occurrences == 1
    assert s.observations == 1
    assert th.horizon == 4


def test_sort_expansion_order_is_deterministic():
    text = """
    sort s: a, b.
    fluent f(s, s).
    action act(s).
    act(X) initiates f(X, Y).
    """
    th = g(text, 1)
    conds = [(action, abs(effect) - 1) for action, effect, _ in effect_instances(th)]
    assert conds == sorted(conds, key=lambda t: (str(t[0]), t[1]))
    assert len(conds) == 4  # two bindings of X times two of Y


def test_diseq_instances_dropped():
    text = """
    sort s: a, b.
    fluent f(s).
    neg f(X) whenever { f(Y), X != Y }.
    """
    th = g(text, 1)
    assert len(th.rules) == 2  # only the X != Y bindings survive


def test_constant_cwa_fixpoint():
    text = """
    sort s: a, b.
    constant fluent base(s).
    constant fluent derived(s).
    fluent dyn(s).
    base(a) holds-at 0.
    derived(X) whenever { base(X) }.
    dyn(X) whenever { derived(X) }.
    """
    th = g(text, 1)
    values = {str(atom): v for atom, v in th.constant_values.items()}
    assert values == {"base(a)": True, "base(b)": False, "derived(a)": True, "derived(b)": False}
    # the dynamic rule residuates: only the derived(a) instance survives
    assert len(th.rules) == 1
    head, body = th.rules[0]
    assert th.lit_str(head) == "dyn(a)"
    assert not body


# A chain of seven nodes and its transitive closure, which takes six
# rounds of derivation; path(X, X) waits on itself and is never derived.
# out(X) is derived only where Y = Z, so its body names one atom twice.
CHAIN = """
sort node: c1, c2, c3, c4, c5, c6, c7.
constant fluent link(node, node).
constant fluent path(node, node).
constant fluent out(node).
fluent at(node).
action go(node).
link(c1, c2) holds-at 0.
link(c2, c3) holds-at 0.
link(c3, c4) holds-at 0.
link(c4, c5) holds-at 0.
link(c5, c6) holds-at 0.
link(c6, c7) holds-at 0.
path(X, Y) whenever { link(X, Y) }.
path(X, Z) whenever { path(X, Y), link(Y, Z) }.
path(X, X) whenever { path(X, X) }.
false whenever { neg path(c1, c7) }.
out(X) whenever { link(X, Y), link(X, Z) }.
at(Y) whenever { at(X), link(X, Y) }.
go(Y) initiates at(Y) when { at(X), path(X, Y), X != Y }.
go(X) needs { neg at(X), path(c1, X) }.
go(c4) happens-at 0.
"""


def test_counting_fixpoint_closes_a_chain():
    th = g(CHAIN, 2)
    values = {str(atom): v for atom, v in th.constant_values.items() if atom.name == "path"}
    nodes = ["c%d" % i for i in range(1, 8)]
    assert values == {
        "path(%s,%s)" % (x, y): i < j for i, x in enumerate(nodes) for j, y in enumerate(nodes)
    }
    assert sum(values.values()) == 21
    outs = {str(atom): v for atom, v in th.constant_values.items() if atom.name == "out"}
    assert outs == {"out(%s)" % x: x != "c7" for x in nodes}
    assert theory_strings(th) == naive_ground_strings(parse_domain(CHAIN).domain, 2)
    # go(c1) needs path(c1, c1), which is never derived
    assert [impossible for _, _, impossible in precondition_instances(th)] == [True] + [False] * 6
    assert th.stats.cprops == 21 and th.stats.pprops == 7


def test_negative_premise_check_rejects_after_the_fixpoint():
    # path(c1, c7) is derived in the last round; the check holds only then,
    # and its negative premise makes it a check, so it derives nothing
    check = "path(c7, c1) whenever { neg path(c7, c1), path(c1, c7) }."
    assert _grounding_error(CHAIN + check) == (
        "constant-contradiction",
        "statement 15 is violated by the fixed constant fluent values",
    )
    # and the denial on neg path(c1, c7) rejects a chain that stops short
    assert _grounding_error(CHAIN.replace("link(c6, c7)", "link(c6, c6)")) == (
        "constant-contradiction",
        "statement 9 is violated by the fixed constant fluent values",
    )


def test_condition_residuation_drops_false_instances():
    text = """
    sort s: a, b.
    constant fluent tame(s).
    fluent happy(s).
    action pet(s).
    tame(a) holds-at 0.
    pet(X) initiates happy(X) when { tame(X) }.
    """
    th = g(text, 1)
    [(action, _, condition)] = effect_instances(th)
    assert str(action) == "pet(a)"
    assert not condition  # the constant condition was consumed


def test_impossible_precondition_kept():
    text = """
    sort s: a.
    constant fluent tame(s).
    fluent happy(s).
    action pet(s).
    pet(X) needs { tame(X) }.
    pet(a) happens-at 0.
    """
    th = g(text, 1)
    [(_, _, impossible)] = precondition_instances(th)
    assert impossible


def test_action_effect_on_constant_rejected():
    text = """
    sort s: a.
    constant fluent tame(s).
    action pet(s).
    pet(X) initiates tame(X).
    """
    with pytest.raises(GroundingError) as exc:
        g(text, 1)
    assert exc.value.kind == "constant-effect"


def test_constant_head_with_dynamic_body_rejected():
    text = """
    sort s: a.
    constant fluent tame(s).
    fluent happy(s).
    tame(X) whenever { happy(X) }.
    """
    with pytest.raises(GroundingError) as exc:
        g(text, 1)
    assert exc.value.kind == "constant-dynamic"


def test_negative_constant_observation_conflict():
    text = """
    sort s: a.
    constant fluent tame(s).
    fluent dyn(s).
    tame(a) holds-at 0.
    neg tame(a) holds-at 0.
    """
    with pytest.raises(GroundingError) as exc:
        g(text, 1)
    assert exc.value.kind == "constant-conflict"


def test_violated_constant_check_rejected():
    text = """
    sort s: a.
    constant fluent tame(s).
    constant fluent wild(s).
    fluent dyn(s).
    tame(a) holds-at 0.
    wild(X) whenever { neg tame(X) }.
    false whenever { tame(a) }.
    """
    with pytest.raises(GroundingError) as exc:
        g(text, 1)
    assert exc.value.kind == "constant-contradiction"


def test_horizon_must_cover_occurrences():
    text = "fluent f. action a. a happens-at 5."
    with pytest.raises(GroundingError) as exc:
        g(text, 3)
    assert exc.value.kind == "horizon"
    th = g(text)  # defaults to one step past the last occurrence
    assert th.horizon == 6


def test_literal_codes_roundtrip():
    text = """
    sort s: a, b.
    fluent f(s).
    fluent g(s).
    """
    th = g(text, 1)
    assert th.n_fluents == 4
    for i, atom in enumerate(th.fluents):
        assert th.index[atom] == i
        assert th.atom_of(i + 1) == atom
        assert th.lit_str(-(i + 1)) == "neg %s" % atom


def test_contradictory_residue_dropped():
    text = """
    fluent f.
    fluent h.
    action a.
    a initiates h when { f, neg f }.
    """
    th = g(text, 1)
    assert not effect_instances(th)


def test_rule_indexes_cover_all_rules():
    from elang.corpus import load_domain

    th = ground(load_domain("corpus:zoo_dual.e"), 2)
    for ri, (head, body) in enumerate(th.rules):
        for c in body:
            assert (ri in th.triggers.get(c, ())) == (head is not None)
    assert any(head is None for head, _ in th.rules)


INDEXES = (
    "constraint_clauses",
    "constraints",
    "triggers",
)


def test_indexes_are_built_on_first_read():
    from elang.corpus import load_domain
    from elang.parser import parse_query
    from elang.query import answer_theory
    from elang.sat import answer_sat

    domain = load_domain("corpus:zoo_dual.e", "corpus:chain_scenario.e")
    query = parse_query("skeptical { animal_pos(john,p3) holds-at 3 } horizon 4")
    th = ground(domain, 4)
    scheduled = set().union(*th.occurrences.values())
    assert not set(INDEXES) & set(vars(th))
    assert not th.preconditions
    # a sliced answer indexes only the slice, and grounds only the
    # scheduled actions' effects and preconditions
    answer_theory(th, query, use_slice=True)
    assert not set(INDEXES) & set(vars(th))
    assert set(th.effects) == scheduled
    assert set(th.preconditions) == scheduled
    assert not th.needs
    # the clausal backend builds the engine's clause set, which its own
    # reads at every time point, but not the full effect or precondition
    # list
    answer_sat(th, query)
    assert set(INDEXES) <= set(vars(th))
    assert th.sat_memo.row_occurs[1] is th.constraints.occurs[1]
    answer_theory(th, query)
    assert set(INDEXES) <= set(vars(th))
    assert set(th.effects) == scheduled
    assert set(th.preconditions) == scheduled
    assert set(th.needs) <= scheduled
    # the theory has preconditions of actions it never schedules
    assert {action for action, _, _ in precondition_instances(th)} - scheduled


def test_indexes_match_their_definitions():
    from elang.corpus import load_domain

    th = ground(load_domain("corpus:zoo_dual_feed.e", "corpus:chain_scenario.e"), 3)
    clauses = [clause for clause in map(constraint_clause, th.rules) if clause is not None]
    assert th.constraint_clauses == clauses
    assert th.constraints.num_vars == th.n_fluents
    assert th.constraints.clauses is th.constraint_clauses
    literals = [sign * (a + 1) for a in range(th.n_fluents) for sign in (1, -1)]
    assert th.triggers == {
        lit: rules
        for lit in literals
        if (rules := [ri for ri, (head, body) in enumerate(th.rules) if head is not None and lit in body])
    }
    effects, needs = effect_instances(th), precondition_instances(th)
    actions = {a for a, _, _ in needs} | {a for a, _, _ in effects}
    for a in actions:
        conditions = [condition for b, condition, _ in needs if b == a]
        assert th.precondition_test(a) == (
            any(impossible for b, _, impossible in needs if b == a),
            frozenset(c - 1 for cond in conditions for c in cond if c > 0),
            frozenset(-c - 1 for cond in conditions for c in cond if c < 0),
        )
    assert th.rules and effects and needs
    assert any(not th.preconditions_of(a) for a in actions)


def test_matches_naive_oracle_on_random_domains():
    rng = random.Random(42)
    checked = 0
    rejected = 0
    while checked < 120:
        domain = random_sorted_domain(rng)
        try:
            th = ground(domain, 2)
        except GroundingError:
            rejected += 1
            assert rejected < 400, "grounder rejects almost everything"
            continue
        assert theory_strings(th) == naive_ground_strings(domain, 2)
        checked += 1
    # and on the join-shaped draws, which the grounder instantiates from
    # the true facts
    rng = random.Random(43)
    checked = 0
    while checked < 200:
        domain = random_sorted_domain(rng, wide=True, joins=True)
        try:
            th = ground(domain, 2)
        except GroundingError:
            continue
        assert theory_strings(th) == naive_ground_strings(domain, 2)
        checked += 1


def _join_features(domain) -> set[str]:
    """Which of the join draws' features a domain has: constant literals
    sharing a variable, a negative constant literal, the third variable,
    and a constant fluent derived from itself."""
    constant = {name for name, decl in domain.signature.fluents.items() if decl.constant}
    found = set()
    for prop in domain.propositions:
        if not hasattr(prop, "condition"):
            continue
        literals = prop.condition.literals
        ours = [l for l in literals if l.atom.name in constant]
        names = [v for l in ours for v in l.atom.variables()]
        if len(set(names)) < len(names):
            found.add("shared")
        if any(not l.positive for l in ours):
            found.add("negative")
        if any("Z" in l.atom.args for l in literals):
            found.add("third")
        head = getattr(prop, "head", None)
        if head is not None and head.atom.name in constant and head.atom.name in {l.atom.name for l in literals}:
            found.add("recursive")
    return found


def test_rows_match_naive_oracle_on_join_domains():
    rng = random.Random(14)
    checked = 0
    features: dict[str, int] = {}
    while checked < 200:
        domain = random_sorted_domain(rng, wide=True, joins=True)
        try:
            ground(domain, 2)
        except GroundingError:
            continue
        _check_rows(domain, 2, rng)
        checked += 1
        for feature in _join_features(domain):
            features[feature] = features.get(feature, 0) + 1
    assert all(features.get(f, 0) > 50 for f in ("shared", "negative", "third", "recursive")), features


def _walk_domain(positions: int, steps: int, seed: int):
    """The generated direct zoo with feeding, plus a seeded narrative: a
    fully observed start, then one move per step and a feeding now and
    then, the shape of a long walk."""
    from elang.corpus import generate_zoo

    text = generate_zoo("direct", positions, include_feed=True)
    sorts = parse_domain(text).domain.signature.sorts
    animals, places = sorts["animal"], sorts["position"]
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
    return parse_domain(text + "\n".join(lines) + "\n").domain


def test_walk_shaped_theory_matches_naive_oracle():
    domain = _walk_domain(15, 80, seed=5)
    th = ground(domain, 80)
    assert th.stats.cprops > 4000 and th.stats.dropped_instances > 1000
    assert theory_strings(th) == naive_ground_strings(domain, 80)


def test_zoo_matches_naive_oracle():
    from elang.corpus import load_domain

    for name in ("zoo_direct.e", "zoo_indirect.e", "zoo_dual.e"):
        domain = load_domain("corpus:" + name, "corpus:zoo_scenario_base.e")
        th = ground(domain, 6)
        assert theory_strings(th) == naive_ground_strings(domain, 6), name


def _ground_actions(domain):
    """Every ground atom of every declared action, in declaration order."""
    import itertools

    from elang.model import Atom

    sig = domain.signature
    return [
        Atom(decl.name, args)
        for decl in sig.actions.values()
        for args in itertools.product(*(sig.sorts[s] for s in decl.arg_sorts))
    ]


def _check_lazy_effects(domain, horizon, rng):
    """Ground each action's effect rows first, in a random order, on one
    theory; they must be the rows a second theory gives in declaration
    order, and their positions must number the effects from 0 with none
    skipped.  The stats, read before any effect is ground, must match the
    naive grounder's counts."""
    lazy = ground(domain, horizon)
    naive = naive_ground_strings(domain, horizon)
    s = lazy.stats
    assert s.cprops == len(naive["cprops"])
    assert s.rprops + s.denials == len(naive["rprops"])
    assert s.denials == sum(1 for r in naive["rprops"] if r.startswith("false|"))
    assert s.pprops == len(naive["pprops"])
    assert s.dropped_instances == naive["dropped"]
    actions = _ground_actions(domain)
    rng.shuffle(actions)
    per_action = {a: lazy.effects_of(a) for a in actions}
    full = ground(domain, horizon)
    for a in _ground_actions(domain):
        assert per_action[a] == full.effects_of(a), a
    positions = sorted(row[0] for rows in per_action.values() for row in rows)
    assert positions == list(range(s.cprops))


def test_lazy_effects_match_full_list_on_corpus():
    from elang.corpus import CORPUS_HORIZONS, ZOO_SCENARIOS, load_domain

    rng = random.Random(7)
    for name, horizon in CORPUS_HORIZONS.items():
        _check_lazy_effects(load_domain("corpus:" + name), horizon, rng)
    for name in ("zoo_direct.e", "zoo_indirect.e", "zoo_dual.e", "zoo_dual_feed.e"):
        for scenario in ZOO_SCENARIOS:
            _check_lazy_effects(load_domain("corpus:" + name, "corpus:" + scenario), 6, rng)
    _check_lazy_effects(_walk_domain(8, 20, seed=3), 20, rng)


def test_lazy_effects_match_full_list_on_random_domains():
    rng = random.Random(11)
    checked = with_diseqs = 0
    while checked < 200:
        domain = random_sorted_domain(rng, wide=True)
        try:
            ground(domain, 2)
        except GroundingError:
            continue
        _check_lazy_effects(domain, 2, rng)
        checked += 1
        with_diseqs += any(
            getattr(p, "condition", None) is not None and p.condition.diseqs
            for p in domain.propositions
        )
    assert with_diseqs > 50


def _check_lazy_preconditions(domain, horizon, rng):
    """Ground each action's precondition rows first, in a random order, on
    one theory; they must be the rows a second theory gives in declaration
    order, their positions must number the preconditions from 0 with none
    skipped, and each action's test must hold in exactly the states where
    all of them do.  The stats, read before any precondition is ground,
    must match the naive grounder's count."""
    lazy = ground(domain, horizon)
    assert lazy.stats.pprops == len(naive_ground_strings(domain, horizon)["pprops"])
    assert not lazy.preconditions
    actions = _ground_actions(domain)
    rng.shuffle(actions)
    per_action = {a: lazy.preconditions_of(a) for a in actions}
    full = ground(domain, horizon)
    needs = precondition_instances(full)
    states = [frozenset(i for i in range(lazy.n_fluents) if rng.random() < 0.5) for _ in range(4)]
    for a in _ground_actions(domain):
        assert per_action[a] == full.preconditions_of(a), a
        impossible, true, false = lazy.precondition_test(a)
        for state in states:
            legal = all(not never and lazy.satisfies(state, cond) for b, cond, never in needs if b == a)
            assert legal == (not impossible and state >= true and not state & false), (a, state)
    positions = sorted(row[0] for rows in per_action.values() for row in rows)
    assert positions == list(range(lazy.stats.pprops))


def test_lazy_preconditions_match_full_list_on_corpus():
    from elang.corpus import CORPUS_HORIZONS, ZOO_SCENARIOS, load_domain

    rng = random.Random(8)
    for name, horizon in CORPUS_HORIZONS.items():
        _check_lazy_preconditions(load_domain("corpus:" + name), horizon, rng)
    for name in ("zoo_direct.e", "zoo_indirect.e", "zoo_dual.e", "zoo_dual_feed.e"):
        for scenario in ZOO_SCENARIOS:
            _check_lazy_preconditions(load_domain("corpus:" + name, "corpus:" + scenario), 6, rng)
    _check_lazy_preconditions(_walk_domain(8, 20, seed=3), 20, rng)
    _check_lazy_preconditions(parse_domain(CHAIN).domain, 2, rng)


def test_lazy_preconditions_match_full_list_on_random_domains():
    rng = random.Random(12)
    checked = with_needs = impossible = 0
    while checked < 200:
        domain = random_sorted_domain(rng, wide=True)
        try:
            th = ground(domain, 2)
        except GroundingError:
            continue
        _check_lazy_preconditions(domain, 2, rng)
        checked += 1
        needs = precondition_instances(th)
        with_needs += bool(needs)
        impossible += any(never for _, _, never in needs)
    assert with_needs > 50 and impossible > 10


def _check_rows(domain, horizon, rng):
    """Every rule row is the naive grounder's ramification or denial
    instance at its index, its body lowest atom first with no atom
    repeated.  Every ground action's effect and precondition rows, asked
    for in a random order, are the naive grounder's instances of that
    action at their positions, in position order, with each condition
    split by sign."""
    th = ground(domain, horizon)
    naive = naive_ground_strings(domain, horizon)
    rules = [
        "%s|%s" % ("false" if head is None else th.lit_str(head), ",".join(sorted(map(th.lit_str, body))))
        for head, body in th.rules
    ]
    assert rules == naive["rprops"]
    for _, body in th.rules:
        assert type(body) is tuple and [abs(c) for c in body] == sorted({abs(c) for c in body}), body

    def literals(true, false):
        return ",".join(sorted([th.lit_str(a + 1) for a in true] + [th.lit_str(-a - 1) for a in false]))

    actions = _ground_actions(domain)
    rng.shuffle(actions)
    for a in actions:
        effects = [
            (i, "%s|%s|%s|%s" % (a, "+" if effect > 0 else "-", th.atom_of(effect), literals(true, false)))
            for i, effect, true, false in th.effects_of(a)
        ]
        assert effects == [(i, e) for i, e in enumerate(naive["cprops"]) if e.split("|")[0] == str(a)], a
        preconditions = [
            (i, "%s|%s%s" % (a, "impossible|" if impossible else "", literals(true, false)))
            for i, true, false, impossible in th.preconditions_of(a)
        ]
        assert preconditions == [(i, p) for i, p in enumerate(naive["pprops"]) if p.split("|")[0] == str(a)], a


def test_rows_match_naive_oracle_on_corpus():
    from elang.corpus import CORPUS_HORIZONS, ZOO_SCENARIOS, load_domain

    rng = random.Random(9)
    for name, horizon in CORPUS_HORIZONS.items():
        _check_rows(load_domain("corpus:" + name), horizon, rng)
    for name in ("zoo_direct.e", "zoo_indirect.e", "zoo_dual.e", "zoo_dual_feed.e"):
        for scenario in ZOO_SCENARIOS:
            _check_rows(load_domain("corpus:" + name, "corpus:" + scenario), 6, rng)
    _check_rows(_walk_domain(8, 20, seed=3), 20, rng)


def test_rows_match_naive_oracle_on_random_domains():
    rng = random.Random(13)
    checked = negative = impossible = 0
    while checked < 200:
        domain = random_sorted_domain(rng, wide=True)
        try:
            th = ground(domain, 2)
        except GroundingError:
            continue
        _check_rows(domain, 2, rng)
        checked += 1
        negative += any(c < 0 for _, _, condition in effect_instances(th) for c in condition)
        impossible += any(never for _, _, never in precondition_instances(th))
    # both signs in effect conditions, and preconditions that never hold
    assert negative > 10 and impossible > 10, (negative, impossible)


def test_rule_rows_merge_repeats_and_keep_their_heads():
    # a body that repeats a literal under some bindings, a head in its own
    # body, and a head whose complement is in its body
    text = """
    sort s: a, b.
    fluent f(s).
    fluent h.
    fluent k.
    false whenever { f(X), f(Y) }.
    h whenever { h, k }.
    neg h whenever { h, k }.
    """
    domain = parse_domain(text).domain
    th = ground(domain, 1)
    assert th.rules == [(None, (1,)), (None, (1, 2)), (None, (1, 2)), (None, (2,)), (3, (3, 4)), (-3, (3, 4))]
    assert th.stats.rprops == 2 and th.stats.denials == 4
    # the tautology is left out, and the complement head is merged
    assert th.constraint_clauses == [(-1,), (-1, -2), (-1, -2), (-2,), (-3, -4)]
    assert th.constraint_clauses == [c for c in map(constraint_clause, th.rules) if c is not None]
    _check_rows(domain, 1, random.Random(1))


def _consistent_walk() -> str:
    """The generated direct zoo on 8 positions with a walk that has one
    model: elly steps round the ring of positions while the animals are
    fed in turn."""
    from elang.corpus import generate_zoo

    animals = ("john", "elly", "dumpo")
    ring = ["p2", "p1"] + ["p%d" % i for i in range(3, 9)]
    lines = ["animal_pos(elly, p2) holds-at 0.", "animal_pos(john, p5) holds-at 0.", "animal_pos(dumpo, p7) holds-at 0."]
    lines += ["neg rides(%s, %s) holds-at 0." % (a, b) for a in animals for b in animals]
    lines += ["hungry(%s) holds-at 0." % a for a in animals]
    for t in range(12):
        lines.append("move_to_position(elly, %s) happens-at %d." % (ring[(t + 1) % 8], t))
        lines.append("feed_animal(%s) happens-at %d." % (animals[t % 3], t))
    return generate_zoo("direct", 8, include_feed=True) + "\n".join(lines) + "\n"


def test_answers_build_no_listed_instance(tmp_path):
    # the step search, the slice and the compiler answer from the effect
    # and precondition rows, the only form of the instances
    from elang.cli import main

    path = tmp_path / "walk.e"
    path.write_text(_consistent_walk())
    argv = ["query", str(path), "--mode", "skeptical", "--goal", "animal_pos(elly, p5) holds-at 12"]
    assert main(argv + ["--slice", "on"]) == 0
    assert main(argv + ["--backend", "sat"]) == 0


def test_answers_build_no_rule_object(tmp_path):
    # grounding, the slice, the step search, the compiler and the cycle
    # search answer from the rule rows, the only form of the rules
    from elang.cli import main
    from elang.corpus import generate_zoo

    path = tmp_path / "walk.e"
    # a consistent walk: dumpo steps from p4 to p7
    path.write_text(generate_zoo("direct", 8, include_feed=True) + walk_scenario(8, 6, 260))
    argv = ["query", str(path), "--mode", "skeptical", "--goal", "animal_pos(dumpo, p7) holds-at 6"]
    for flags in (["--slice", "on"], ["--slice", "off"], ["--backend", "sat"]):
        assert main(argv + flags) == 0, flags


def _grounding_error(text, horizon=3):
    with pytest.raises(GroundingError) as exc:
        g(text, horizon)
    return exc.value.kind, str(exc.value)


def test_sort_error_in_later_statement_beats_earlier_constant_effect():
    text = """
    sort s: a.
    sort r: b.
    constant fluent tame(s).
    fluent f(r).
    action pet(s).
    pet(X) initiates tame(X).
    f(X) whenever { tame(X) }.
    """
    assert _grounding_error(text) == (
        "invalid-domain",
        "invalid domain: error [sort-conflict]: statement 2: "
        "variable X used with conflicting sorts r and s",
    )


def test_first_constant_statement_error_wins_in_statement_order():
    decls = """
    sort s: a, b.
    constant fluent tame(s).
    fluent happy(s).
    action pet(s).
    """
    effect = "pet(X) initiates tame(Y) when { X != Y }."
    dynamic = "tame(X) whenever { happy(X) }."
    # the message names the first binding the disequality leaves
    assert _grounding_error(decls + effect + dynamic) == (
        "constant-effect",
        "statement 0 lets action pet(a) change constant fluent tame(b)",
    )
    assert _grounding_error(decls + dynamic + effect) == (
        "constant-dynamic",
        "statement 0 makes constant fluent tame(a) depend on state-varying fluents",
    )


def test_constant_contradiction_beats_horizon_error():
    decls = """
    sort s: a.
    constant fluent tame(s).
    fluent dyn(s).
    action pet(s).
    """
    late = "pet(a) happens-at 5. dyn(a) holds-at 7."
    contradiction = "tame(a) holds-at 0. false whenever { tame(X) }."
    assert _grounding_error(decls + late + contradiction) == (
        "constant-contradiction",
        "statement 3 is violated by the fixed constant fluent values",
    )
    assert _grounding_error(decls + contradiction + late) == (
        "constant-contradiction",
        "statement 1 is violated by the fixed constant fluent values",
    )
    assert _grounding_error(decls + late) == (
        "horizon",
        "occurrence at time 5 has no following state within horizon 3",
    )


# sha256 of `elang ground REF... --stats --dump`, taken before
# preconditions were ground per action: the listing keeps its statement
# and binding order
GROUND_LISTING_SHA256 = {
    ("corpus:bulb.e", "--horizon", "4"): "8ba6fdcf08c9ad1a551fe3218553feae76e9cd0d347307f4bfcc16e67a1149e6",
    ("gen:direct:8:feed", "corpus:zoo_scenario_move.e"): "deb84c147bf6911da39f3918b1411c71ad996e4cac6238b7723525e2b415ee9e",
    ("corpus:zoo_dual.e", "corpus:chain_scenario.e"): "b94af02ffb12db67115d3583e15868314bbdea7080471575dc0ef8b404a380cc",
}


@pytest.mark.parametrize("argv", sorted(GROUND_LISTING_SHA256))
def test_ground_listing_is_pinned(capsys, argv):
    from elang.cli import main

    assert main(["ground", *argv, "--stats", "--dump"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GROUND_LISTING_SHA256[argv]


def join_domain(k: int) -> str:
    """A chain of ``k`` nodes, its ``edge`` facts constant, and one rule
    that joins two of them: ``on`` spreads two edges at a time from c0.
    Its rule has k³ bindings and k-2 instances."""
    nodes = ["c%d" % i for i in range(k)]
    lines = [
        "sort node: %s." % ", ".join(nodes),
        "constant fluent edge(node, node).",
        "fluent on(node).",
        "action tick.",
        "tick initiates on(c0).",
        "on(Y) whenever { on(X), edge(X, Z), edge(Z, Y) }.",
    ]
    lines += ["edge(%s, %s) holds-at 0." % edge for edge in zip(nodes, nodes[1:])]
    lines += ["neg on(c0) holds-at 0.", "tick happens-at 0."]
    return "\n".join(lines) + "\n"


# The files the written-listing pins ground: (references before the
# file, file text, arguments after it).
WRITTEN = {
    "walk": (["gen:direct:15:feed"], walk_scenario(15, 80, 5), []),
    "chain": ([], CHAIN, ["--horizon", "2"]),
    "join-12": ([], join_domain(12), ["--horizon", "2"]),
    "join-120": ([], join_domain(120), ["--horizon", "2"]),
}
# sha256 of `elang ground FILES --stats --dump` on the files above, and of
# the walk's `--dimacs` export, taken before statements were ground by
# joining their constant literals against the true facts: binding order,
# positions and dropped instances are kept.  The chain's was retaken when
# the listing began to mark a precondition that never holds: its one such
# row, go(c1)'s, gained the trailing "% never holds" and nothing else moved
WRITTEN_LISTING_SHA256 = {
    "walk": "1300edfefc11b0f22e1da54c13a3eb4a210cf7aa50adf040b5a4896c1a5ae9f4",
    "chain": "191ec85ac39b9ab5edef291d7e3e347ba937d7456d2902849325eecce8f96287",
    "join-12": "3a6a190eabd7c375e7f599ceb3286e11c546d84b578ba11b03073ef10c8ac3f2",
    "join-120": "29f9f864bc9486021a8a969f527312b761ee424fc18a4f23b7fdf1cd61d480ae",
}
WALK_DIMACS_SHA256 = "551cbe874a62530a59fa67556f928e33e7f75f14ab7f8d093f90269e2f851c0c"


def _written_argv(tmp_path, name):
    before, text, after = WRITTEN[name]
    path = tmp_path / ("%s.e" % name)
    path.write_text(text)
    return ["ground", *before, str(path), *after]


@pytest.mark.parametrize("name", sorted(WRITTEN_LISTING_SHA256))
def test_written_ground_listing_is_pinned(capsys, tmp_path, name):
    from elang.cli import main

    assert main(_written_argv(tmp_path, name) + ["--stats", "--dump"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WRITTEN_LISTING_SHA256[name]


def _literals(text):
    # the literals of a ","-joined list; an atom's arguments hold commas too
    return re.findall(r"[^,(]+(?:\([^)]*\))?", text)


def _dump_lines(naive):
    """The statement lines `elang ground --dump` prints for the naive
    grounder's instances, in its order: effects, rules, preconditions."""
    lines = []
    for text in naive["cprops"]:
        action, sign, fluent, body = text.split("|")
        when = " when { %s }" % ", ".join(_literals(body)) if body else ""
        lines.append("%s %s %s%s." % (action, "initiates" if sign == "+" else "terminates", fluent, when))
    for text in naive["rprops"]:
        head, body = text.split("|")
        lines.append("%s whenever { %s }." % (head, ", ".join(_literals(body))))
    for text in naive["pprops"]:
        action, *impossible, body = text.split("|")
        never = " % never holds" if impossible else ""
        lines.append("%s needs { %s }.%s" % (action, ", ".join(_literals(body)), never))
    return lines


def test_dump_matches_naive_oracle_on_random_domains():
    # the listing `elang ground --dump` prints, line for line in order,
    # against the naive grounder's instances; observations and occurrences
    # as sets, since their order follows the atom numbering
    rng = random.Random(2707)
    checked = impossible = 0
    while checked < 200:
        domain = random_sorted_domain(rng, wide=True, joins=True)
        try:
            th = ground(domain, 2)
        except GroundingError:
            continue
        naive = naive_ground_strings(domain, 2)
        lines = [line for line in dump_ground(th).splitlines() if not line.startswith("%")]
        narrative = [line for line in lines if " holds-at " in line or " happens-at " in line]
        assert lines == _dump_lines(naive) + narrative
        assert {line for line in narrative if " holds-at " in line} == {
            "%s holds-at %s." % tuple(reversed(text.split(":"))) for text in naive["observations"]
        }
        assert {line for line in narrative if " happens-at " in line} == {
            "%s happens-at %s." % tuple(reversed(text.split(":"))) for text in naive["occurrences"]
        }
        checked += 1
        impossible += any(line.endswith("% never holds") for line in lines)
    assert impossible > 10, impossible


def test_walk_dimacs_export_is_pinned(tmp_path):
    from elang.cli import main

    target = tmp_path / "walk.cnf"
    assert main(_written_argv(tmp_path, "walk") + ["--dimacs", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == WALK_DIMACS_SHA256


def test_join_domain_grounds_at_the_cost_of_its_output(capsys, tmp_path):
    # 240³ bindings of the rule, 238 instances: the rule is joined from the
    # 239 edges, so grounding never holds anything the size of the product
    import tracemalloc

    from elang.cli import main

    k = 240
    path = tmp_path / "join.e"
    path.write_text(join_domain(k))
    assert main(["ground", str(path), "--horizon", "2", "--stats"]) == 0
    stats = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    assert stats["ramification rules"] == str(k - 2)
    assert stats["dropped instances"] == str(k**3 - (k - 2))
    domain = parse_domain(path.read_text()).domain
    tracemalloc.start()
    try:
        th = ground(domain, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(th.rules) == k - 2
    assert peak < 25 * 2**20, peak
