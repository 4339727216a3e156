"""Transition relation: direct effects, closure, guided vs brute force."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elang.clauses import ClauseSet
from elang.corpus import load_domain
from elang.grounding import ground
from elang.model import Atom
from elang.parser import parse_domain
from elang.transition import (
    brute_force_successors,
    direct_candidates,
    legal_occurrence,
    ramification_closure,
    successor_states,
)

from oracles import random_state, random_theory
from test_acceptance import mini_throw_domain


def g(text, horizon=2):
    return ground(parse_domain(text).domain, horizon)


def atoms(theory, *names):
    by_name = {str(a): i for i, a in enumerate(theory.fluents)}
    return frozenset(by_name[n] for n in names)


def lit(theory, name, positive=True):
    num = atoms(theory, name).__iter__().__next__() + 1
    return num if positive else -num


def actions_of(theory, *names):
    acts = {str(h): h for t, hs in theory.occurrences.items() for h in hs}
    for cp in theory.cprops:
        acts.setdefault(str(cp.action), cp.action)
    return frozenset(acts[n] for n in names)


def close_state(theory, seed):
    # saturate under the positive rules so derived fluents are present
    state = set(seed)
    for _ in range(100):
        grew = False
        for rp in theory.rprops:
            if rp.head is None or rp.head < 0:
                continue
            if all(theory.holds(frozenset(state), c) for c in rp.condition):
                if abs(rp.head) - 1 not in state:
                    state.add(abs(rp.head) - 1)
                    grew = True
        if not grew:
            break
    return frozenset(state)


BULB_LAWS = """
fluent light.
fluent normal.
action switch_on.
action switch_off.
action break_bulb.
switch_on initiates light when { normal }.
switch_off terminates light.
break_bulb terminates normal.
neg light whenever { neg normal }.
switch_on needs { neg light }.
"""


def test_bulb_switch_on_from_dark_normal():
    th = g(BULB_LAWS)
    src = atoms(th, "normal")
    target = atoms(th, "normal", "light")
    assert successor_states(th, src, actions_of(th, "switch_on")) == [target]
    on = frozenset({lit(th, "light")})
    assert ramification_closure(th, on, target) == on


def test_bulb_break_forces_light_off():
    # breaking the bulb terminates normal; the constraint then ends light too
    th = g(BULB_LAWS)
    src = atoms(th, "normal", "light")
    assert successor_states(th, src, actions_of(th, "break_bulb")) == [frozenset()]
    changed = ramification_closure(th, frozenset({lit(th, "normal", False)}), frozenset())
    assert {th.lit_str(l) for l in changed} == {"neg normal", "neg light"}


def test_empty_action_set_is_identity():
    th = g(BULB_LAWS)
    for src in (frozenset(), atoms(th, "normal"), atoms(th, "normal", "light")):
        assert successor_states(th, src, frozenset()) == [src]
        assert ramification_closure(th, frozenset(), src) == frozenset()


def test_inconsistent_source_has_no_successors():
    th = g(BULB_LAWS)
    src = atoms(th, "light")  # light without normal violates the constraint
    assert not th.state_consistent(src)
    assert successor_states(th, src, frozenset()) == []


def test_preconditions_are_a_separate_check():
    # the raw relation ignores p-propositions; callers filter via legal_occurrence
    th = g(BULB_LAWS)
    src = atoms(th, "normal", "light")
    on = actions_of(th, "switch_on")
    assert not legal_occurrence(th, src, on)
    assert len(successor_states(th, src, on)) == 1


def test_direct_candidates_respect_conditions():
    th = g(BULB_LAWS)
    on = actions_of(th, "switch_on")
    assert direct_candidates(th, atoms(th, "normal"), on) == frozenset({lit(th, "light")})
    assert direct_candidates(th, frozenset(), on) == frozenset()


def test_legal_occurrence():
    th = g(BULB_LAWS)
    on = actions_of(th, "switch_on")
    assert legal_occurrence(th, atoms(th, "normal"), on)
    assert not legal_occurrence(th, atoms(th, "normal", "light"), on)


def test_conflicting_effects_yield_both_branches():
    text = """
    fluent f.
    action a.
    action b.
    a initiates f.
    b terminates f.
    """
    th = g(text)
    succs = successor_states(th, frozenset(), actions_of(th, "a", "b"))
    assert set(succs) == {frozenset(), frozenset({0})}


def test_nondeterminism_from_mutually_exclusive_rules():
    # after a makes f true, the rule pair admits g-without-h and h-without-g;
    # a target with both is unreachable since neither head is then explained
    text = """
    fluent f.
    fluent g.
    fluent h.
    action a.
    a initiates f.
    g whenever { f, neg h }.
    h whenever { f, neg g }.
    """
    th = g(text)
    succs = successor_states(th, frozenset(), actions_of(th, "a"))
    shown = {th.state_str(s) for s in succs}
    assert shown == {"{f, g}", "{f, h}"}


ZOO_BY_VARIANT = {}


def zoo(variant):
    if variant not in ZOO_BY_VARIANT:
        ZOO_BY_VARIANT[variant] = ground(
            load_domain("corpus:zoo_%s.e" % variant, "corpus:zoo_scenario_base.e"), 6
        )
    return ZOO_BY_VARIANT[variant]


def zoo_state(th, riders=(), **pos):
    seed = {th.index[Atom("animal_pos", (a, p))] for a, p in pos.items()}
    seed |= {th.index[Atom("rides", pair)] for pair in riders}
    return close_state(th, seed)


def named(th, state):
    return {str(th.fluents[i]) for i in state}


def test_mover_with_rider_dual_vs_indirect():
    # moving a ridden animal: the rider follows on dual, may fall off on indirect
    for variant, expected in (("dual", 1), ("indirect", 2)):
        th = zoo(variant)
        src = zoo_state(th, riders=[("john", "dumpo")], john="p1", dumpo="p1", elly="p2")
        assert th.state_consistent(src), variant
        succs = successor_states(th, src, actions_of(th, "move_to_position(dumpo,p3)"))
        assert len(succs) == expected, variant
        carried = [s for s in succs if "animal_pos(john,p3)" in named(th, s)]
        assert len(carried) == 1, variant


def test_getoff_while_moving():
    # dismounting to p2 while the mount heads to p3: the dual variant admits
    # both the dismounted and the carried reading, the indirect variant only
    # the dismounted one
    for variant, expected in (("dual", {"p2", "p3"}), ("indirect", {"p2"})):
        th = zoo(variant)
        src = zoo_state(th, riders=[("john", "dumpo")], john="p1", dumpo="p1", elly="p2")
        acts = actions_of(th, "move_to_position(dumpo,p3)", "getoff(john,dumpo,p2)")
        succs = successor_states(th, src, acts)
        ends = set()
        for s in succs:
            names = named(th, s)
            assert "rides(john,dumpo)" not in names, variant
            ends |= {n[-3:-1] for n in names if n.startswith("animal_pos(john,")}
        assert len(succs) == len(expected), variant
        assert ends == expected, variant


def test_throwoff_lands_on_some_neighbour():
    th = zoo("dual")
    src = zoo_state(th, riders=[("john", "elly")], john="p1", elly="p1", dumpo="p2")
    succs = successor_states(th, src, actions_of(th, "throwoff(elly,john)"))
    landings = set()
    for s in succs:
        names = named(th, s)
        assert "rides(john,elly)" not in names
        landings |= {n for n in names if n.startswith("animal_pos(john,")}
    # p1 neighbours exactly p2 and p3 in the six-position terrain
    assert landings == {"animal_pos(john,p2)", "animal_pos(john,p3)"}
    assert len(succs) == 2


def test_one_kernel_enumeration_per_step(monkeypatch):
    # three landing candidates form eight conflict-free subsets; the step
    # still needs one search, since only the candidates true in a target
    # can explain it
    th = ground(mini_throw_domain(3), 1)
    calls = []
    models = ClauseSet.models

    def counted(self, *args, **kwargs):
        calls.append(self)
        return models(self, *args, **kwargs)

    monkeypatch.setattr(ClauseSet, "models", counted)
    succs = successor_states(th, atoms(th, "at(home)"), actions_of(th, "throw"))
    assert len(calls) == 1
    assert isinstance(succs, list)
    assert succs == sorted(succs, key=lambda s: tuple(sorted(s)))
    assert [named(th, s) for s in succs] == [{"at(l1)"}, {"at(l2)"}, {"at(l3)"}]


def test_guided_matches_brute_force_on_seeded_theories():
    rng = random.Random(7)
    for _ in range(200):
        domain = random_theory(rng)
        th = ground(domain)
        names = list(domain.signature.actions)
        acts = frozenset(Atom(a, ()) for a in names if rng.random() < 0.7)
        src = random_state(rng, th.n_fluents)
        guided = successor_states(th, src, acts)
        brute = brute_force_successors(th, src, acts)
        assert set(guided) == set(brute)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 255))
def test_guided_matches_brute_force_property(seed, state_bits):
    rng = random.Random(seed)
    domain = random_theory(rng)
    th = ground(domain)
    src = frozenset(i for i in range(th.n_fluents) if state_bits >> i & 1)
    acts = frozenset(Atom(a, ()) for a in domain.signature.actions)
    guided = set(successor_states(th, src, acts))
    brute = set(brute_force_successors(th, src, acts))
    assert guided == brute


def test_brute_force_bound():
    th = ground(load_domain("corpus:zoo_direct.e"), 1)
    with pytest.raises(ValueError):
        brute_force_successors(th, frozenset(), frozenset(), bound=8)
