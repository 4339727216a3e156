"""Query answering: model counts, modes, budgets, relevance slicing."""

import random

import pytest

from elang.corpus import corpus_path, load_domain, load_golden
from elang.grounding import ground
from elang.model import Atom
from elang.parser import parse_domain, parse_query
from elang.query import (
    BudgetExceeded,
    Evaluator,
    Query,
    answer,
    answer_theory,
    check_consistency,
    count_models,
    required_horizon,
    slice_for_goals,
)

from elang.sat import answer_sat

from oracles import (
    NaiveTheory,
    effect_instances,
    precondition_instances,
    ramification_cycle,
    random_theory,
    slice_atoms,
)


def dom(text):
    return parse_domain(text).domain


def q(text):
    return parse_query(text)


def test_bulb_has_one_model():
    th = ground(load_domain("corpus:bulb.e"), 4)
    assert count_models(th) == 1


def test_bulb_noinit_has_two_models():
    th = ground(load_domain("corpus:bulb_noinit.e"), 4)
    assert count_models(th) == 2


def test_bulb_skeptical_vs_credulous():
    r = answer(load_domain("corpus:bulb.e"), q("skeptical { light holds-at 3 } horizon 4"))
    assert r.answer == "true"
    assert r.witness is None  # skeptical truth has no single witness
    r = answer(load_domain("corpus:bulb_noinit.e"), q("skeptical { light holds-at 3 } horizon 4"))
    assert r.answer == "false"
    assert r.witness is not None  # the countermodel is reported
    r = answer(load_domain("corpus:bulb_noinit.e"), q("credulous { light holds-at 3 } horizon 4"))
    assert r.answer == "true"
    assert r.witness["states"][3] == ["light", "normal"]


def test_duality_on_random_theories():
    # skeptical goal true iff credulous negation false, given consistency
    rng = random.Random(11)
    done = 0
    while done < 60:
        domain = random_theory(rng)
        th = ground(domain)
        if not check_consistency(th)[0]:
            continue
        name = rng.choice(list(domain.signature.fluents))
        t = rng.randint(0, th.horizon)
        sk = answer_theory(th, q("skeptical { %s holds-at %d }" % (name, t)))
        cr = answer_theory(th, q("credulous { neg %s holds-at %d }" % (name, t)))
        assert {sk.answer, cr.answer} == {"true", "false"} or sk.answer == cr.answer == "true" and False
        done += 1


def test_inconsistent_domain_reported():
    text = """
    fluent f.
    f holds-at 0.
    neg f holds-at 0.
    """
    r = answer(dom(text), q("credulous { f holds-at 0 }"))
    assert r.answer == "domain-inconsistent"
    ok, _ = check_consistency(ground(dom(text), 1))
    assert not ok


def test_required_horizon():
    d = load_domain("corpus:bulb.e")  # occurrence at 2, observation at 0
    assert required_horizon(d, q("credulous { light holds-at 3 }")) == 4
    assert required_horizon(d, q("credulous { light holds-at 3 } horizon 6")) == 6
    assert required_horizon(d, q("credulous { light holds-at 1 }")) == 3
    with pytest.raises(ValueError):
        required_horizon(d, q("credulous { light holds-at 9 } horizon 4"))


def test_empty_goal_queries_probe_consistency():
    r = answer(load_domain("corpus:bulb.e"), Query("credulous", frozenset(), 4))
    assert r.answer == "true"
    r = answer(load_domain("corpus:bulb.e"), Query("skeptical", frozenset(), 4))
    assert r.answer == "true"


def test_multi_goal_conjunction():
    r = answer(load_domain("corpus:bulb.e"), q("credulous { light holds-at 3, normal holds-at 3 } horizon 4"))
    assert r.answer == "true"
    r = answer(load_domain("corpus:bulb.e"), q("credulous { light holds-at 3, neg normal holds-at 3 } horizon 4"))
    assert r.answer == "false"


def test_constant_fluent_goals():
    text = """
    sort s: a, b.
    constant fluent tame(s).
    fluent dyn(s).
    tame(a) holds-at 0.
    """
    assert answer(dom(text), q("credulous { tame(a) holds-at 0 }")).answer == "true"
    assert answer(dom(text), q("skeptical { neg tame(b) holds-at 0 }")).answer == "true"
    assert answer(dom(text), q("credulous { tame(b) holds-at 2 }")).answer == "false"


def test_occurrence_with_violated_precondition_kills_branch():
    # the occurrence is trusted, so a state violating its precondition
    # cannot appear in any model
    text = """
    fluent f.
    fluent g.
    action a.
    a initiates g.
    a needs { f }.
    a happens-at 0.
    """
    r = answer(dom(text), q("skeptical { f holds-at 0 } horizon 1"))
    assert r.answer == "true"
    r = answer(dom(text), q("skeptical { g holds-at 1 } horizon 1"))
    assert r.answer == "true"


def test_observations_prune_models():
    d = load_domain("corpus:bulb_noinit.e")
    r = answer(d, q("skeptical { light holds-at 3 } horizon 4"))
    assert r.answer == "false"
    pinned = parse_domain(corpus_path("bulb_noinit.e").read_text() + "\nnormal holds-at 0.\n").domain
    r = answer(pinned, q("skeptical { light holds-at 3 } horizon 4"))
    assert r.answer == "true"


def test_budget_raises_deterministically():
    th = ground(load_domain("corpus:zoo_dual.e", "corpus:zoo_scenario_base.e"), 6)
    goal = q("credulous { rides(john,dumpo) holds-at 4 } horizon 6")
    with pytest.raises(BudgetExceeded) as exc:
        answer_theory(th, goal, budget=3)
    assert exc.value.stats.nodes == 4
    full = answer_theory(th, goal)
    assert full.answer == "true"


def test_evaluator_counts_are_stable():
    th = ground(load_domain("corpus:bulb_noinit.e"), 4)
    a = Evaluator(th)
    models_a = list(a.models())
    b = Evaluator(th)
    models_b = list(b.models())
    assert [m.states for m in models_a] == [m.states for m in models_b]
    assert len(models_a) == 2


def test_slice_drops_disconnected_atoms():
    th = ground(load_domain("corpus:zoo_dual_feed.e", "corpus:chain_scenario.e"), 6)
    goal_atom = next(i for i, a in enumerate(th.fluents) if str(a) == "animal_pos(john,p3)")
    sliced, kept = slice_for_goals(th, {goal_atom})
    names = {str(th.fluents[i]) for i in kept}
    assert sliced.stats.fluent_atoms == len(kept) < th.n_fluents
    assert not any(n.startswith("hungry") for n in names)
    assert "animal_pos(john,p3)" in names


def test_sliced_answers_match_unsliced_on_corpus():
    th = ground(load_domain("corpus:zoo_dual.e", "corpus:chain_scenario.e"), 4)
    for text in (
        "skeptical { animal_pos(john,p3) holds-at 3 } horizon 4",
        "credulous { animal_pos(john,p1) holds-at 2 } horizon 4",
        "skeptical { neg rides(john,elly) holds-at 2 } horizon 4",
    ):
        goal = q(text)
        plain = answer_theory(th, goal)
        sliced = answer_theory(th, goal, use_slice=True)
        assert plain.answer == sliced.answer, text


def test_sliced_answers_match_on_random_theories():
    rng = random.Random(23)
    done = 0
    while done < 80:
        domain = random_theory(rng)
        th = ground(domain)
        if not check_consistency(th)[0]:
            continue
        name = rng.choice(list(domain.signature.fluents))
        sign = "" if rng.random() < 0.5 else "neg "
        mode = rng.choice(["credulous", "skeptical"])
        goal = q("%s { %s%s holds-at %d }" % (mode, sign, name, rng.randint(0, th.horizon)))
        plain = answer_theory(th, goal)
        sliced = answer_theory(th, goal, use_slice=True)
        assert plain.answer == sliced.answer
        done += 1


# A node or decision budget no draw of ``random_theory`` comes near.
UNBOUNDED = 10**9


def test_backends_match_the_trajectory_reference():
    # Each query asked of the reference, of the engine unsliced, of the SAT
    # backend, and of both again under a budget that never binds: one
    # answer, and every witness a model of the reference that meets the
    # goals (credulous) or breaks one (a skeptical countermodel).  The
    # sliced engine waits for ROADMAP item 1, the strict xfails below.
    rng = random.Random(909)
    inconsistent = cyclic = 0
    for _ in range(200):
        domain = random_theory(rng)
        th = ground(domain)
        ref = NaiveTheory(domain, th.horizon)
        cyclic += ramification_cycle(th) is not None
        fluents = list(domain.signature.fluents)
        for _ in range(3):
            goals = ", ".join(
                "%s%s holds-at %d" % (rng.choice(("", "neg ")), rng.choice(fluents), rng.randint(0, th.horizon))
                for _ in range(rng.randint(1, 2))
            )
            query = q("%s { %s }" % (rng.choice(("credulous", "skeptical")), goals))
            expected = ref.answer(query.mode, query.goals)
            for result in (
                answer_theory(th, query),
                answer_sat(th, query),
                answer_theory(th, query, budget=UNBOUNDED),
                answer_sat(th, query, budget=UNBOUNDED),
            ):
                assert result.answer == expected, (query, result.backend)
                if result.witness is not None:
                    assert ref.accepts(result.witness), (query, result.backend)
                    path = [frozenset(names) for names in result.witness["states"]]
                    met = all(ref.goal_holds(path, lit, t) for lit, t in query.goals)
                    assert met == (query.mode == "credulous"), (query, result.backend)
        inconsistent += expected == "domain-inconsistent"
    # the draws reach both: no model at all, and a ramification cycle
    assert inconsistent >= 30 and cyclic >= 30, (inconsistent, cyclic)


# An inconsistency on atoms the slice drops: b is observed true and denied.
DROPPED_INCONSISTENCY = (
    "fluent a. fluent b. false whenever { b }. b holds-at 0.",
    "credulous { neg a holds-at 1 } horizon 2",
)


# The slice drops b, and with it the only literal of go's precondition, so
# go becomes legal in every state.
DROPPED_PRECONDITION = (
    "fluent a. fluent b. action go. go initiates a. go needs { b }. neg b holds-at 0. go happens-at 0.",
    "credulous { a holds-at 1 } horizon 2",
)


def test_unsliced_answers_see_an_inconsistency_on_other_atoms():
    for text, query in (DROPPED_INCONSISTENCY, DROPPED_PRECONDITION):
        th = ground(parse_domain(text).domain, 2)
        assert answer_theory(th, q(query)).answer == "domain-inconsistent"
        assert answer_sat(th, q(query)).answer == "domain-inconsistent"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the slice answers over the goal's atoms only")
@pytest.mark.parametrize("case", [DROPPED_INCONSISTENCY, DROPPED_PRECONDITION], ids=["denial", "precondition"])
def test_sliced_answer_sees_an_inconsistency_on_dropped_atoms(case):
    th = ground(parse_domain(case[0]).domain, 2)
    query = q(case[1])
    assert answer_theory(th, query, use_slice=True).answer == answer_theory(th, query).answer


def test_slice_keeps_the_oracle_atoms_on_corpus():
    # each distinct theory once: the goals of its cases and a few atoms alone
    rng = random.Random(17)
    goal_sets: dict[tuple, list[set[int]]] = {}
    theories = {}
    for case in load_golden():
        domain = load_domain(*("corpus:" + name for name in (case.domain,) + case.scenarios))
        key = (case.domain, case.scenarios, required_horizon(domain, case.query))
        if key not in theories:
            theories[key] = th = ground(domain, key[2])
            goal_sets[key] = [{i} for i in rng.sample(range(th.n_fluents), min(8, th.n_fluents))]
        th = theories[key]
        goal_sets[key].append({th.index[lit.atom] for lit, _ in case.query.goals if lit.atom in th.index})
    for key, th in theories.items():
        for goals in goal_sets[key]:
            _, kept = slice_for_goals(th, goals)
            assert set(kept) == slice_atoms(th, goals), (key, goals)


def test_slice_keeps_the_oracle_atoms_on_random_theories():
    rng = random.Random(41)
    partly_scheduled = 0
    for _ in range(200):
        domain = random_theory(rng)
        th = ground(domain)
        scheduled = set().union(*th.occurrences.values())
        partly_scheduled += len(scheduled) < len(domain.signature.actions)
        goals = set(rng.sample(range(th.n_fluents), rng.randint(1, min(2, th.n_fluents))))
        _, kept = slice_for_goals(th, goals)
        assert set(kept) == slice_atoms(th, goals)
    assert partly_scheduled >= 30


UNSCHEDULED_LINK = """
fluent f.
fluent g.
action a.
action b.
a initiates f.
b initiates g when { f }.
neg g holds-at 0.
a happens-at 0.
"""


def test_slice_drops_atoms_linked_only_by_unscheduled_effects():
    # b never occurs, so its effect is the only statement linking f and g
    # and the slice for f leaves g out
    th = ground(dom(UNSCHEDULED_LINK), 2)
    sliced, kept = slice_for_goals(th, {th.index[Atom("f")]})
    assert [str(th.fluents[i]) for i in kept] == ["f"]
    assert sliced.stats.fluent_atoms == 1
    assert [str(action) for action, _, _ in effect_instances(sliced)] == ["a"]
    for text in (
        "skeptical { f holds-at 1 }",
        "credulous { neg f holds-at 1 }",
        "skeptical { neg g holds-at 2 }",
        "credulous { f holds-at 2, g holds-at 2 }",
    ):
        goal = q(text)
        plain = answer_theory(th, goal)
        sliced = answer_theory(th, goal, use_slice=True)
        assert plain.answer == sliced.answer, text
        assert (plain.witness is None) == (sliced.witness is None), text


FREE_NEIGHBOUR = """
fluent f.
fluent g.
action a.
a initiates f.
a happens-at 0.
"""


def test_slice_pins_dropped_atoms_false():
    # g is unobserved and unconstrained: the full theory doubles every model
    # of f on it, the slice for f pins it false and counts f's alone
    th = ground(dom(FREE_NEIGHBOUR), 2)
    alone = ground(dom(FREE_NEIGHBOUR.replace("fluent g.\n", "")), 2)
    sliced, kept = slice_for_goals(th, {th.index[Atom("f")]})
    assert kept == (th.index[Atom("f")],)
    assert count_models(th) == 2 * count_models(alone) == 4
    assert count_models(sliced) == count_models(alone)
    g = th.index[Atom("g")]
    assert all(g not in state for m in Evaluator(sliced).models() for state in m.states)


SHARED = """
fluent f.
fluent g.
fluent h.
fluent k.
fluent z.
action a.
action b.
a initiates f.
b initiates h.
g whenever { f }.
neg k whenever { h }.
a needs { neg f }.
a needs { neg f, neg h }.
neg h holds-at 0.
neg f holds-at 0.
a happens-at 0.
b happens-at 0.
"""


def test_slice_shares_the_theory_objects():
    th = ground(dom(SHARED), 2)
    f, h = th.index[Atom("f")], th.index[Atom("h")]
    sliced, kept = slice_for_goals(th, {f})
    assert kept == (f, th.index[Atom("g")])
    assert sliced.fluents is th.fluents and sliced.index is th.index
    assert sliced.occurrences is th.occurrences
    assert sliced.constant_values is th.constant_values
    # the kept rule and effect rows are the theory's own objects
    assert len(sliced.rules) == 1 and sliced.rules[0] is th.rules[0]
    assert sliced.effects_of(Atom("a")) is th.effects_of(Atom("a"))
    assert sliced.effects_of(Atom("b")) == ()
    # only the precondition row with an atom of h is rebuilt, without it;
    # both keep their positions in the theory's list
    first, second = th.preconditions_of(Atom("a"))
    first1, second1 = sliced.preconditions_of(Atom("a"))
    assert first1 is first and first == (0, frozenset(), {f}, False)
    assert second1 is not second
    assert second == (1, frozenset(), {f, h}, False)
    assert second1 == (1, frozenset(), {f}, False)
    # read as instances, the view's rows are the theory's without h
    assert [condition for _, condition, _ in precondition_instances(sliced)] == [{-(f + 1)}, {-(f + 1)}]
    assert [condition for _, condition, _ in precondition_instances(th)] == [{-(f + 1)}, {-(f + 1), -(h + 1)}]
    # h, k and z are pinned false at 0; the stats count f's observation only
    pins = {-(th.index[Atom(name)] + 1) for name in "hkz"}
    assert sliced.observations[0] == {-(f + 1)} | pins
    assert sliced.stats.observations == 1
    assert sliced.stats.fluent_atoms == 2 and sliced.stats.rprops == 1
    # every rule kept, z dropped: the view holds the theory's own list
    sliced, kept = slice_for_goals(th, {f, h})
    assert len(kept) == 4
    assert sliced.rules is th.rules
    assert sliced.effects_of(Atom("b")) is th.effects_of(Atom("b"))


def test_atoms_sliced_counts_the_kept_atoms():
    th = ground(load_domain("corpus:zoo_dual_feed.e", "corpus:chain_scenario.e"), 6)
    for text in (
        "skeptical { animal_pos(john,p3) holds-at 3 } horizon 6",
        "credulous { neg rides(john,elly) holds-at 2 } horizon 6",
    ):
        goal = q(text)
        result = answer_theory(th, goal, use_slice=True)
        _, kept = slice_for_goals(th, {th.index[lit.atom] for lit, _ in goal.goals})
        assert result.stats.atoms_sliced == len(kept) < th.n_fluents
        assert result.stats.atoms_total == th.n_fluents


def test_result_record_shape():
    r = answer(load_domain("corpus:bulb.e"), q("credulous { light holds-at 3 } horizon 4"))
    rec = r.to_record()
    assert rec["answer"] == "true"
    assert rec["mode"] == "credulous"
    assert rec["goals"] == ["light holds-at 3"]
    assert rec["horizon"] == 4
    assert rec["backend"] == "engine"
    assert isinstance(rec["stats"], dict)
    traj = rec["witness"]
    assert len(traj["states"]) == 5 and len(traj["actions"]) == 4
    assert traj["actions"][2] == ["switch_on"]
