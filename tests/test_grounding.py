"""Grounder: sort expansion, constant fixpoint, residuation, indexes."""

import random

import pytest

from elang.grounding import GroundingError, ground
from elang.parser import parse_domain

from oracles import naive_ground_strings, random_sorted_domain, theory_strings


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
    conds = [(cp.action, cp.fluent) for cp in th.cprops]
    assert conds == sorted(conds, key=lambda t: (str(t[0]), t[1]))
    assert len(th.cprops) == 4  # two bindings of X times two of Y


def test_diseq_instances_dropped():
    text = """
    sort s: a, b.
    fluent f(s).
    neg f(X) whenever { f(Y), X != Y }.
    """
    th = g(text, 1)
    assert len(th.rprops) == 2  # only the X != Y bindings survive


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
    assert len(th.rprops) == 1
    assert th.lit_str(th.rprops[0].head) == "dyn(a)"
    assert not th.rprops[0].condition


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
    assert len(th.cprops) == 1
    assert str(th.cprops[0].action) == "pet(a)"
    assert not th.cprops[0].condition  # the constant condition was consumed


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
    assert len(th.pprops) == 1
    assert th.pprops[0].impossible


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
    assert not th.cprops


def test_rule_indexes_cover_all_rules():
    from elang.corpus import load_domain

    th = ground(load_domain("corpus:zoo_dual.e"), 2)
    body_indexed = {ri for lst in th.rprops_by_body_atom.values() for ri in lst}
    head_indexed = {ri for lst in th.rprops_by_head_atom.values() for ri in lst}
    for ri, rp in enumerate(th.rprops):
        if rp.condition:
            assert ri in body_indexed
    assert head_indexed == {ri for ri, rp in enumerate(th.rprops) if rp.head is not None}


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
