"""Transition relation: direct effects, closure, the step search against
the step reference of ``oracles.NaiveTheory``."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import elang.query
import elang.transition
from elang.clauses import ClauseSet
from elang.corpus import load_domain, load_golden
from elang.grounding import ground
from elang.model import Atom
from elang.parser import parse_domain, parse_query
from elang.query import Evaluator, answer_theory, required_horizon
from elang.transition import (
    _searched,
    direct_candidates,
    legal_occurrence,
    ramification_closure,
    step_holds,
    successor_states,
    unbranched,
)

from oracles import (
    NaiveTheory,
    effect_instances,
    named,
    numbered,
    override_at_source,
    ramification_cycle,
    random_step,
    random_theory,
    reference_successors,
)
from test_acceptance import mini_throw_domain


def g(text, horizon=2):
    return ground(parse_domain(text).domain, horizon)


def reference(text, horizon=2):
    return NaiveTheory(parse_domain(text).domain, horizon)


def atoms(theory, *names):
    by_name = {str(a): i for i, a in enumerate(theory.fluents)}
    return frozenset(by_name[n] for n in names)


def lit(theory, name, positive=True):
    num = atoms(theory, name).__iter__().__next__() + 1
    return num if positive else -num


def actions_of(theory, *names):
    acts = {str(h): h for t, hs in theory.occurrences.items() for h in hs}
    for action, _, _ in effect_instances(theory):
        acts.setdefault(str(action), action)
    return frozenset(acts[n] for n in names)


def close_state(theory, seed):
    # saturate under the positive rules so derived fluents are present
    state = set(seed)
    for _ in range(100):
        grew = False
        for head, body in theory.rules:
            if head is None or head < 0:
                continue
            if all(theory.holds(frozenset(state), c) for c in body):
                if head - 1 not in state:
                    state.add(head - 1)
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


def zoo_domain(variant):
    return load_domain("corpus:zoo_%s.e" % variant, "corpus:zoo_scenario_base.e")


def zoo(variant):
    if variant not in ZOO_BY_VARIANT:
        ZOO_BY_VARIANT[variant] = ground(zoo_domain(variant), 6)
    return ZOO_BY_VARIANT[variant]


def zoo_state(th, riders=(), **pos):
    seed = {th.index[Atom("animal_pos", (a, p))] for a, p in pos.items()}
    seed |= {th.index[Atom("rides", pair)] for pair in riders}
    return close_state(th, seed)


def test_mover_with_rider_dual_vs_indirect():
    # moving a ridden animal: the rider follows on dual, may fall off on indirect
    for variant, expected in (("dual", 1), ("indirect", 2)):
        th = zoo(variant)
        src = zoo_state(th, riders=[("john", "dumpo")], john="p1", dumpo="p1", elly="p2")
        assert NaiveTheory(zoo_domain(variant), 6).consistent(named(th, src)), variant
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
    # the kernel's order: atom 0 most significant, false before true
    assert succs == sorted(succs, key=lambda s: [a in s for a in range(th.n_fluents)])
    assert [named(th, s) for s in succs] == [{"at(l3)"}, {"at(l2)"}, {"at(l1)"}]


def drawn(domain):
    """A random theory, its reference, and its states that satisfy the
    constraints, numbered as the theory numbers its atoms."""
    th = ground(domain)
    ref = NaiveTheory(domain, th.horizon)
    return th, ref, numbered(th, ref.states())


def searched(th, src, acts):
    """The kernel search's targets for a step, whichever path
    ``successor_states`` takes."""
    candidates = direct_candidates(th, src, acts)
    return _searched(th, src, candidates) if candidates else [src]


def test_guided_matches_brute_force_on_seeded_theories():
    rng = random.Random(7)
    checked = closed = 0
    for _ in range(200):
        domain = random_theory(rng)
        th, ref, sources = drawn(domain)
        names = list(domain.signature.actions)
        acts = frozenset(Atom(a, ()) for a in names if rng.random() < 0.7)
        if not sources:
            continue
        src = rng.choice(sources)
        # the same targets, in the kernel's order
        assert successor_states(th, src, acts) == reference_successors(th, ref, src, acts)
        checked += 1
        candidates = direct_candidates(th, src, acts)
        closed += bool(candidates) and unbranched(th, candidates)
    assert checked > 150 and closed >= 30, (checked, closed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 255))
def test_guided_matches_brute_force_property(seed, pick):
    domain = random_theory(random.Random(seed))
    th, ref, sources = drawn(domain)
    assume(sources)
    src = sources[pick % len(sources)]
    acts = frozenset(Atom(a, ()) for a in domain.signature.actions)
    assert successor_states(th, src, acts) == reference_successors(th, ref, src, acts)


def test_consistent_source_path_matches_brute_force_on_seeded_theories():
    # the kernel search, on the unbranched steps too
    rng = random.Random(17)
    checked = closed = 0
    for _ in range(200):
        domain = random_theory(rng)
        th, ref, sources = drawn(domain)
        acts = frozenset(Atom(a, ()) for a in domain.signature.actions if rng.random() < 0.7)
        if not sources:
            continue
        src = rng.choice(sources)
        assert searched(th, src, acts) == reference_successors(th, ref, src, acts)
        checked += 1
        candidates = direct_candidates(th, src, acts)
        closed += bool(candidates) and unbranched(th, candidates)
    assert checked > 150 and closed >= 40, (checked, closed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 255))
def test_consistent_source_path_matches_brute_force_property(seed, pick):
    domain = random_theory(random.Random(seed))
    th, ref, sources = drawn(domain)
    assume(sources)
    src = sources[pick % len(sources)]
    acts = frozenset(Atom(a, ()) for a in domain.signature.actions)
    assert searched(th, src, acts) == reference_successors(th, ref, src, acts)


# Unbranched steps the closure could get wrong, each a domain and the
# named targets of its step from the observed source at 0.
CLOSURE_CASES = {
    # b is re-asserted at its source value and still triggers c's rule
    "reasserted": (
        "fluent a. fluent b. fluent c. action go. go initiates a. go initiates b.\n"
        "c whenever { a, b }.\n"
        "neg a holds-at 0. b holds-at 0. neg c holds-at 0. go happens-at 0.",
        [{"a", "b", "c"}],
    ),
    # a fires both values of h
    "clash": (
        "fluent a. fluent h. fluent k. action go. go initiates a.\n"
        "h whenever { a, k }. neg h whenever { a }.\n"
        "neg a holds-at 0. neg h holds-at 0. k holds-at 0. go happens-at 0.",
        [],
    ),
    # the denial is broken only through the derived d
    "denial": (
        "fluent a. fluent d. fluent e. action go. go initiates a.\n"
        "d whenever { a }. false whenever { d, e }.\n"
        "neg a holds-at 0. neg d holds-at 0. e holds-at 0. go happens-at 0.",
        [],
    ),
    # h's rule has a body of true constants: a unit that the change to
    # neg h breaks
    "unit": (
        "constant fluent k. fluent a. fluent h. action go. go initiates a.\n"
        "h whenever { k }. neg h whenever { a }.\n"
        "k holds-at 0. neg a holds-at 0. h holds-at 0. go happens-at 0.",
        [],
    ),
    # c's body mixes the candidate a with b, derived at a higher rank;
    # c's rule comes first, so it is triggered first
    "rank": (
        "fluent a. fluent b. fluent c. action go. go initiates a.\n"
        "c whenever { a, b }. b whenever { a }.\n"
        "neg a holds-at 0. neg b holds-at 0. neg c holds-at 0. go happens-at 0.",
        [{"a", "b", "c"}],
    ),
}


def test_closure_edge_cases_match_the_reference_and_the_kernel():
    for name, (text, expected) in CLOSURE_CASES.items():
        th, ref = g(text, 1), reference(text, 1)
        source = frozenset(c - 1 for c in th.observations[0] if c > 0)
        actions = th.occurrences[0]
        assert unbranched(th, direct_candidates(th, source, actions)), name
        found = successor_states(th, source, actions)
        assert [named(th, s) for s in found] == expected, name
        assert found == reference_successors(th, ref, source, actions) == searched(th, source, actions), name


def failed_rule(th, source, candidates, target):
    """The first of rules a, b, c and e that ``target`` breaks, or None."""
    applied = frozenset(c for c in candidates if th.holds(target, c))
    changed = ramification_closure(th, applied, target)
    if changed is None:
        return "a"
    if not all(th.holds(target, l) for l in changed):
        return "b"
    if not source ^ target <= {abs(l) - 1 for l in changed}:
        return "c"
    if not all(-c in changed for c in candidates - applied):
        return "e"
    return None


def count_leaves(monkeypatch):
    """Leaves the step search verifies, by the rule they fail ("ok" when
    they pass)."""
    counts = {}

    def counted(th, source, candidates, target):
        ok = step_holds(th, source, candidates, target)
        rule = "ok" if ok else failed_rule(th, source, candidates, target)
        counts[rule] = counts.get(rule, 0) + 1
        return ok

    monkeypatch.setattr(elang.transition, "step_holds", counted)
    return counts


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_golden_leaves_break_no_support_rule(monkeypatch):
    counts = count_leaves(monkeypatch)
    [case] = [c for c in load_golden() if c.name == "dual-mounted-necessary-at-4"]
    domain = load_domain("corpus:" + case.domain, *("corpus:" + s for s in case.scenarios))
    theory = ground(domain, required_horizon(domain, case.query))
    assert answer_theory(theory, case.query).answer == case.expect
    assert counts.get("ok", 0) > 0
    assert "c" not in counts and "e" not in counts, counts


# A walk as the benchmark builds them: the direct zoo with feeding on the
# six-position ring p2 p1 p3 p4 p5 p6, a fully observed start with john
# riding dumpo, and one move per step.
WALK_MOVES = (
    ("dumpo", "p3"), ("elly", "p5"), ("dumpo", "p4"), ("elly", "p6"), ("dumpo", "p5"),
    ("elly", "p2"), ("dumpo", "p6"), ("elly", "p1"), ("dumpo", "p2"), ("elly", "p3"),
    ("dumpo", "p1"),
)


def walk_narrative():
    lines = ["animal_pos(john, p1) holds-at 0.", "animal_pos(dumpo, p1) holds-at 0."]
    lines.append("animal_pos(elly, p6) holds-at 0.")
    for a in ("john", "elly", "dumpo"):
        for b in ("john", "elly", "dumpo"):
            sign = "" if (a, b) == ("john", "dumpo") else "neg "
            lines.append("%srides(%s, %s) holds-at 0." % (sign, a, b))
    lines += ["hungry(john) holds-at 0.", "neg hungry(elly) holds-at 0.", "hungry(dumpo) holds-at 0."]
    for t, (mover, place) in enumerate(WALK_MOVES):
        lines.append("move_to_position(%s, %s) happens-at %d." % (mover, place, t))
    lines += ["feed_animal(elly) happens-at 2.", "feed_animal(john) happens-at 7."]
    return "\n".join(lines) + "\n"


def count_step_leaves(monkeypatch):
    """Every kernel model a step search yields (the step searches are the
    kernel calls with an overlay), whether re-checked or not."""
    leaves = []
    models = ClauseSet.models

    def counted(self, *args, **kwargs):
        for model in models(self, *args, **kwargs):
            if kwargs.get("extra"):
                leaves.append(model)
            yield model

    monkeypatch.setattr(ClauseSet, "models", counted)
    return leaves


def walk_steps(monkeypatch):
    """The walk's theory, and every step (theory, source, actions) its
    queries take, with the targets found."""
    scenario_steps = []
    search = elang.query.successor_states

    def recorded(*args):
        found = search(*args)
        scenario_steps.append((args, found))
        return found

    monkeypatch.setattr(elang.query, "successor_states", recorded)
    return scenario_steps


def walk_theory(tmp_path):
    scenario = tmp_path / "walk.e"
    scenario.write_text(walk_narrative())
    return ground(load_domain("gen:direct:6:feed", str(scenario)), len(WALK_MOVES))


def test_walk_steps_skip_whole_theory_checks(monkeypatch, tmp_path):
    # Every walk step is unbranched: the closure computes its one target,
    # with no kernel search and no re-check.
    th = walk_theory(tmp_path)
    horizon = len(WALK_MOVES)
    assert th.first_cycle is None
    query = parse_query(
        "skeptical { animal_pos(john, p1) holds-at %d, neg hungry(john) holds-at %d } horizon %d"
        % (horizon, horizon, horizon)
    )
    counts = count_leaves(monkeypatch)
    leaves = count_step_leaves(monkeypatch)
    steps = walk_steps(monkeypatch)
    initial = []
    first_states = Evaluator._initial_states

    def counted_initial(self, forced):
        for state in first_states(self, forced):
            initial.append(state)
            yield state

    monkeypatch.setattr(Evaluator, "_initial_states", counted_initial)
    for use_slice in (False, True):
        assert answer_theory(th, query, use_slice=use_slice).answer == "true"
    assert counts == {} and leaves == []
    assert all(len(found) == 1 for _, found in steps)
    closed = [args for args, _ in steps if direct_candidates(*args)]
    assert closed and all(unbranched(args[0], direct_candidates(*args)) for args in closed)
    assert len(initial) < len(steps)


def test_walk_steps_pass_the_kernel_no_auxiliary(monkeypatch, tmp_path):
    # The kernel search, called on the walk's steps, finds the closure's
    # targets.  Every rule body of the generated zoo is one literal, which
    # enters a support clause as itself: no overlay clause reaches past
    # the atoms.
    th = walk_theory(tmp_path)
    horizon = len(WALK_MOVES)
    steps = walk_steps(monkeypatch)
    query = parse_query("credulous { animal_pos(john, p1) holds-at %d } horizon %d" % (horizon, horizon))
    assert answer_theory(th, query).answer == "true"
    overlays = []
    models = ClauseSet.models

    def spied(self, *args, **kwargs):
        overlays.append(kwargs.get("extra", ()))
        return models(self, *args, **kwargs)

    monkeypatch.setattr(ClauseSet, "models", spied)
    searched = 0
    for (theory, source, actions), found in steps:
        candidates = direct_candidates(theory, source, actions)
        if candidates:
            assert _searched(theory, source, candidates) == found
            searched += 1
    assert searched == len(overlays) > 0
    clauses = [c for extra in overlays for c in extra]
    assert len(clauses) > 50
    assert max(abs(l) for c in clauses for l in c) <= th.n_fluents


# A ramification cycle next to an effect that fires: a's effect sets k,
# and f and g could each be changed because the other is, since the rule
# { k, h } makes them producible but cannot fire (h stays false).
SUPPORT_CYCLE = """
fluent k. fluent f. fluent g. fluent h. action a.
a initiates k.
g whenever { f }. f whenever { g }. f whenever { k, h }.
neg k holds-at 0. neg f holds-at 0. neg g holds-at 0. neg h holds-at 0.
a happens-at 0.
"""


def test_self_supported_change_beside_applied_candidates_is_rejected():
    # The target { k, f, g } holds every candidate and meets the support
    # clauses, but f and g support only each other: only the re-check,
    # which runs on a cyclic theory, rules it out.
    th = g(SUPPORT_CYCLE, 1)
    assert th.first_cycle is not None
    source, actions = frozenset(), th.occurrences[0]
    only = [atoms(th, "k")]
    found = list(Evaluator(th).successors(source, actions))
    assert found == reference_successors(th, reference(SUPPORT_CYCLE, 1), source, actions) == only
    query = parse_query("credulous { f holds-at 1 } horizon 1")
    assert answer_theory(th, query).answer == "false"


def test_successors_match_brute_force_on_planted_steps():
    # random_step plants the step shapes the support clauses get wrong or
    # branch on: an override whose rule support holds at the source, and
    # a split into several targets.
    rng = random.Random(20261)
    draws = overrides = splits = 0
    while draws < 1000:
        domain = random_step(rng)
        th = ground(domain, 1)
        if ramification_cycle(th) is not None:
            continue
        source = frozenset(c - 1 for c in th.observations[0] if c > 0)
        actions = th.occurrences[0]
        brute = reference_successors(th, NaiveTheory(domain, 1), source, actions)
        assert list(Evaluator(th).successors(source, actions)) == brute
        draws += 1
        overrides += override_at_source(th, source, actions)
        splits += len(brute) > 1
    assert overrides >= 400 and splits >= 400, (overrides, splits)

