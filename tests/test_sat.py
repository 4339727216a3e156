"""Clausal backend: fragment check, compilation, solver, agreement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elang.cli
import elang.sat
from elang.clauses import ClauseSet
from elang.corpus import ZOO_SCENARIOS, load_domain, load_golden
from elang.grounding import ground
from elang.parser import parse_domain, parse_query
from elang.query import (
    BudgetExceeded,
    Evaluator,
    Query,
    answer_theory,
    check_consistency,
    required_horizon,
    slice_for_goals,
)
from elang.sat import (
    Solver,
    answer_sat,
    check_fragment,
    compile_theory,
    decode_model,
    steps_hold,
    to_dimacs,
)
from elang.transition import direct_candidates, successor_states

from oracles import (
    NaiveTheory,
    _column,
    cnf_satisfiable,
    effect_conflicts,
    fragment_report,
    model_satisfies,
    normalize,
    random_cnf,
    ramification_cycle,
    named,
    numbered,
    random_step,
    random_theory,
    reference_successors,
)


def dom(text):
    return parse_domain(text).domain


def test_bulb_is_in_fragment():
    th = ground(load_domain("corpus:bulb.e"), 4)
    report = check_fragment(th)
    assert report.accepted and not report.violations


def test_zoo_direct_in_fragment_others_not():
    acc = check_fragment(ground(load_domain("corpus:zoo_direct.e", "corpus:chain_scenario.e"), 4))
    assert acc.accepted and not acc.violations
    for name in ("zoo_indirect.e", "zoo_dual.e"):
        rep = check_fragment(ground(load_domain("corpus:" + name, "corpus:chain_scenario.e"), 4))
        assert not rep.accepted, name
        # the one violation is the cycle
        [violation] = rep.violations
        assert violation.startswith("ramification-cycle: "), name


def test_clashing_effects_are_in_fragment():
    text = """
    fluent f.
    action a.
    action b.
    a initiates f.
    b terminates f.
    a happens-at 0.
    b happens-at 0.
    """
    th = ground(dom(text), 1)
    assert effect_conflicts(th) == ["effects 0 and 1 can disagree on f"]
    rep = check_fragment(th)
    assert rep.accepted and not rep.violations
    # either effect can win, on both backends
    for text, expect in (("credulous { f holds-at 1 }", "true"), ("credulous { neg f holds-at 1 }", "true"),
                         ("skeptical { f holds-at 1 }", "false")):
        query = parse_query(text)
        result, engine = answer_sat(th, query), answer_theory(th, query)
        assert (result.answer, result.witness) == (engine.answer, engine.witness) and result.answer == expect, text


def test_nonconcurrent_opposite_effects_accepted():
    text = """
    fluent f.
    action a.
    action b.
    a initiates f.
    b terminates f.
    a happens-at 0.
    b happens-at 1.
    """
    assert check_fragment(ground(dom(text), 2)).accepted


def decoded_step_checks(monkeypatch) -> list[bool]:
    """Whether each ``Solver`` that ``answer_sat`` builds checks decoded
    steps, filled as the answers run."""
    installed = []

    class Spied(Solver):
        def __init__(self, *args, accept=None, **kwargs):
            installed.append(accept is not None)
            super().__init__(*args, accept=accept, **kwargs)

    monkeypatch.setattr(elang.sat, "Solver", Spied)
    return installed


def assert_report_matches_oracle(th, installed):
    # One verdict everywhere: check_fragment is the oracle's cycle verdict,
    # and it says whether answer_sat checks decoded steps.
    report = check_fragment(th)
    assert (report.accepted, report.violations) == fragment_report(th)
    del installed[:]
    atom = (th.fluents or tuple(th.constant_values))[0]  # zoo_landscape.e has no fluent that changes
    answer_sat(th, parse_query("credulous { %s holds-at 0 }" % atom))
    assert installed == [not report.accepted]
    return report


def assert_verdict_on_refs(refs, horizon, tmp_path, installed):
    """The verdict on the domain the references name, and --dimacs exports
    it exactly when the verdict accepts."""
    report = assert_report_matches_oracle(ground(load_domain(*refs), horizon), installed)
    target = tmp_path / "out.cnf"
    argv = ["ground", *refs, "--dimacs", str(target)] + ([] if horizon is None else ["--horizon", str(horizon)])
    assert elang.cli.main(argv) == (0 if report.accepted else 3), refs
    assert target.exists() == report.accepted, refs
    target.unlink(missing_ok=True)
    return report


@pytest.mark.parametrize("variant", ["direct", "indirect", "dual"])
@pytest.mark.parametrize("positions", [3, 4, 6, 15])
@pytest.mark.parametrize("feed", ["", ":feed"])
def test_fragment_matches_oracle_on_generated_zoos(variant, positions, feed, tmp_path, monkeypatch):
    ref = "gen:%s:%d%s" % (variant, positions, feed)
    report = assert_verdict_on_refs((ref, "corpus:zoo_scenario_move.e"), None, tmp_path, decoded_step_checks(monkeypatch))
    assert report.accepted == (variant == "direct")


def test_fragment_matches_oracle_on_corpus(tmp_path, monkeypatch):
    installed = decoded_step_checks(monkeypatch)
    for name in ("bulb.e", "bulb_noinit.e", "zoo_landscape.e"):
        assert assert_verdict_on_refs(("corpus:" + name,), 4, tmp_path, installed).accepted
    for name in ("zoo_direct.e", "zoo_indirect.e", "zoo_dual.e", "zoo_dual_feed.e"):
        for scenario in ("chain_scenario.e",) + ZOO_SCENARIOS:
            report = assert_verdict_on_refs(("corpus:" + name, "corpus:" + scenario), None, tmp_path, installed)
            assert report.accepted == (name == "zoo_direct.e")


def test_fragment_matches_oracle_on_random_theories(monkeypatch):
    installed = decoded_step_checks(monkeypatch)
    rng = random.Random(41)
    conflicts = cycles = accepted = accepted_conflicts = 0
    for _ in range(300):
        th = ground(random_theory(rng, max_fluents=5, max_cprops=6, max_rprops=4))
        report = assert_report_matches_oracle(th, installed)
        clash = bool(effect_conflicts(th))
        conflicts += clash
        cycles += not report.accepted
        accepted += report.accepted
        accepted_conflicts += report.accepted and clash
    # the draws reach both verdicts, and clashing effects inside the fragment
    assert conflicts > 30 and cycles > 30 and accepted > 30 and accepted_conflicts > 30


DUAL_QUERIES = (
    "credulous { rides(john,dumpo) holds-at 1 } horizon 4",
    "skeptical { rides(john,dumpo) holds-at 1 } horizon 4",
    "skeptical { animal_pos(john,p3) holds-at 4 } horizon 4",
    "credulous { neg rides(john,dumpo) holds-at 4 } horizon 4",
)


def test_answer_sat_agrees_with_engine_outside_fragment():
    domain = load_domain("corpus:zoo_dual.e", "corpus:chain_scenario.e")
    th = ground(domain, 4)
    ref = NaiveTheory(domain, 4)
    assert not check_fragment(th).accepted
    for text in DUAL_QUERIES:
        query = parse_query(text)
        result = answer_sat(th, query)
        assert result.answer == answer_theory(th, query).answer, text
        if result.witness is not None:
            assert ref.accepts(result.witness), text


MEMO_QUERIES = (
    ("corpus:bulb.e", (
        "credulous { light holds-at 3 } horizon 4",
        "skeptical { light holds-at 3 } horizon 4",
        "skeptical { neg light holds-at 1, normal holds-at 4 } horizon 4",
        "credulous { neg normal holds-at 4 } horizon 4",
        "skeptical { light holds-at 1 } horizon 4",
    )),
    ("corpus:bulb_noinit.e", (
        "skeptical { light holds-at 3 } horizon 4",
        "credulous { light holds-at 3, normal holds-at 0 } horizon 4",
        "skeptical { neg light holds-at 0 } horizon 4",
    )),
)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(elang.sat, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(elang.sat, name, counted)
    return calls


@pytest.mark.parametrize("ref, texts", MEMO_QUERIES)
def test_held_theory_answers_as_fresh_theories(ref, texts, monkeypatch):
    compiles = count_calls(monkeypatch, "compile_theory")
    held = ground(load_domain(ref), 4)
    answers = set()
    for _ in range(2):
        for text in texts:
            query = parse_query(text)
            got = answer_sat(held, query).to_record()
            assert got == answer_sat(ground(load_domain(ref), 4), query).to_record(), text
            answers.add(got["answer"])
    assert answers == {"true", "false"}
    # the held theory once, each fresh theory once
    assert len(compiles) == 1 + 2 * len(texts)
    assert sum(args[0] is held for args in compiles) == 1


def test_outside_fragment_compiles_once_and_agrees_on_every_query(monkeypatch):
    compiles = count_calls(monkeypatch, "compile_theory")
    th = ground(load_domain("corpus:zoo_dual.e", "corpus:chain_scenario.e"), 4)
    for text in DUAL_QUERIES + DUAL_QUERIES[:1]:
        query = parse_query(text)
        assert answer_sat(th, query).answer == answer_theory(th, query).answer, text
    assert len(compiles) == 1 and compiles[0][0] is th


def test_budget_holds_after_an_unbudgeted_query():
    th = ground(load_domain("corpus:bulb_noinit.e"), 4)
    query = parse_query("skeptical { light holds-at 3 } horizon 4")
    first = answer_sat(th, query)
    assert first.stats.decisions > 0
    with pytest.raises(BudgetExceeded):
        answer_sat(th, query, budget=0)
    assert answer_sat(th, query).to_record() == first.to_record()


def test_sliced_copy_does_not_share_the_memo(monkeypatch):
    compiles = count_calls(monkeypatch, "compile_theory")
    th = ground(load_domain("corpus:bulb.e"), 4)
    query = parse_query("skeptical { light holds-at 3 } horizon 4")
    answer_sat(th, query)
    assert th.sat_memo is not None
    sliced, _ = slice_for_goals(th, {th.index[lit.atom] for lit, _ in query.goals})
    assert sliced.sat_memo is None
    assert answer_sat(sliced, query).answer == answer_sat(th, query).answer
    assert len(compiles) == 2 and compiles[0][0] is th and compiles[1][0] is sliced


def test_sat_on_a_slice_answers_as_on_the_theory():
    th = ground(load_domain("corpus:zoo_dual_feed.e", "corpus:chain_scenario.e"), 6)
    for text in (
        "skeptical { animal_pos(john,p3) holds-at 3 } horizon 6",
        "credulous { animal_pos(john,p1) holds-at 2 } horizon 6",
        "skeptical { neg rides(john,elly) holds-at 2 } horizon 6",
        "credulous { neg hungry(dumpo) holds-at 4 } horizon 6",
    ):
        query = parse_query(text)
        sliced, kept = slice_for_goals(th, {th.index[lit.atom] for lit, _ in query.goals})
        assert len(kept) < th.n_fluents
        on_view = answer_sat(sliced, query)
        assert on_view.answer == answer_sat(th, query).answer, text
        assert on_view.answer == answer_theory(th, query).answer, text


def test_bulb_agreement_with_engine():
    th = ground(load_domain("corpus:bulb.e"), 4)
    for text in (
        "credulous { light holds-at 3 } horizon 4",
        "skeptical { light holds-at 3 } horizon 4",
        "skeptical { neg light holds-at 1 } horizon 4",
        "credulous { neg normal holds-at 4 } horizon 4",
    ):
        goal = parse_query(text)
        assert answer_sat(th, goal).answer == answer_theory(th, goal).answer, text


def test_sat_witness_decodes_to_valid_trajectory():
    th = ground(load_domain("corpus:bulb.e"), 4)
    r = answer_sat(th, parse_query("credulous { light holds-at 3 } horizon 4"))
    assert r.answer == "true"
    assert r.backend == "sat"
    assert r.witness["states"][3] == ["light", "normal"]
    assert r.witness["actions"][2] == ["switch_on"]


def test_compile_shape_and_dimacs():
    th = ground(load_domain("corpus:bulb.e"), 4)
    inst = compile_theory(th, labels=False)
    assert inst.num_vars >= (th.horizon + 1) * th.n_fluents
    assert decode_model(th, frozenset({1})).states[0] == frozenset({0})
    text = to_dimacs(inst)
    header = text.splitlines()[0].split()
    assert header[:2] == ["p", "cnf"]
    assert int(header[2]) == inst.num_vars
    # the state constraints at every time point, then the compiler's clauses
    assert int(header[3]) == inst.num_clauses == len(th.constraint_clauses) * 5 + len(inst.clauses)
    assert len(text.splitlines()) == 1 + inst.num_clauses
    assert all(line.endswith(" 0") for line in text.splitlines()[1:] if line)
    named = to_dimacs(compile_theory(th))
    assert "c var 1 light@0" in named
    assert named.endswith(text)


def test_answers_compile_without_export_labels(monkeypatch):
    # variable names are for --dimacs only
    built = []
    original = elang.sat.compile_theory

    def recorded(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(elang.sat, "compile_theory", recorded)
    th = ground(load_domain("corpus:bulb.e"), 4)
    answer_sat(th, parse_query("skeptical { light holds-at 3 } horizon 4"))
    [bare] = built
    labelled = compile_theory(th)
    assert not bare.names
    assert (bare.num_vars, bare.clauses) == (labelled.num_vars, labelled.clauses)
    assert bare.rows is labelled.rows is th.constraint_clauses
    assert bare.num_clauses == labelled.num_clauses
    assert set(labelled.names) == set(range(1, labelled.num_vars + 1))


@pytest.mark.parametrize("num_vars", range(1, 11))
def test_truth_column_matches_its_definition(num_vars):
    for i in range(num_vars):
        col = _column(i, num_vars)
        assert col >> (1 << num_vars) == 0
        assert all((col >> j) & 1 == (j >> i) & 1 for j in range(1 << num_vars))


def test_solver_matches_truth_table():
    rng = random.Random(5)
    for _ in range(300):
        num_vars, clauses = random_cnf(rng, max_vars=12)
        sat, model = Solver(ClauseSet(num_vars, clauses)).solve()
        assert sat == cnf_satisfiable(num_vars, clauses)
        if sat:
            assert model_satisfies({v: v in model for v in range(1, num_vars + 1)}, clauses)


def test_solver_assumptions():
    # (x1 or x2) and (neg x1 or x2): x2 must hold once x1 is assumed
    clauses = [(1, 2), (-1, 2)]
    solver = Solver(ClauseSet(2, clauses))
    sat, model = solver.solve(assumptions=(1,))
    assert sat and 2 in model
    sat, model = solver.solve(assumptions=(-1,))
    assert sat and model == {2}
    sat, _ = solver.solve(assumptions=(-2,))  # forces both x1 and neg x1
    assert not sat


def test_solver_budget():
    rng = random.Random(9)
    clauses = []
    # pigeonhole instances are expensive for a CDCL-free solver
    holes, pigeons = 6, 7
    def var(p, h):
        return p * holes + h + 1
    for p in range(pigeons):
        clauses.append(tuple(var(p, h) for h in range(holes)))
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    with pytest.raises(BudgetExceeded):
        Solver(ClauseSet(pigeons * holes, clauses), budget=100).solve()


def test_engine_agreement_on_random_theories():
    # drawn as in test_fragment_matches_oracle_on_random_theories, so that
    # many theories have clashing effects or a cycle
    rng = random.Random(31)
    multi = random.Random(32)  # conjunctions, drawn apart so the single goals stay as they were
    conflicts = cycles = 0
    for _ in range(120):
        domain = random_theory(rng, max_fluents=5, max_cprops=6, max_rprops=4)
        th = ground(domain)
        ref = NaiveTheory(domain, th.horizon)
        conflicts += bool(effect_conflicts(th))
        cycles += ramification_cycle(th) is not None
        name = rng.choice(list(domain.signature.fluents))
        sign = "" if rng.random() < 0.5 else "neg "
        mode = rng.choice(["credulous", "skeptical"])
        single = "%s { %s%s holds-at %d }" % (mode, sign, name, rng.randint(0, th.horizon))
        goals = ", ".join(
            "%s%s holds-at %d"
            % ("" if multi.random() < 0.5 else "neg ", multi.choice(list(domain.signature.fluents)),
               multi.randint(0, th.horizon))
            for _ in range(multi.randint(2, 3))
        )
        for text in [single] + ["%s { %s }" % (m, goals) for m in ("credulous", "skeptical")]:
            query = parse_query(text)
            result = answer_sat(th, query)
            engine = answer_theory(th, query)
            # one model order: the same witness, countermodels included
            assert (result.answer, result.witness) == (engine.answer, engine.witness), text
            if result.witness is not None:
                assert ref.accepts(result.witness), text
            if query.mode == "skeptical" and result.answer == "false":  # a countermodel
                states = decode_witness(th, result.witness)
                assert any(not th.holds(states[t], th.code(lit)) for lit, t in query.goals)
    # the draws reach clashing effects and cycles
    assert conflicts >= 30 and cycles >= 30

    # Fully observed single steps with several targets (``random_step``):
    # where the kernel's first target differs from the least one in the
    # earlier sorted-tuple order, only one order can give both backends'
    # witness.
    rng = random.Random(33)
    splits = 0
    for _ in range(60):
        domain = random_step(rng)
        th = ground(domain, 1)
        source = frozenset(c - 1 for c in th.observations[0] if c > 0)
        targets = reference_successors(th, NaiveTheory(domain, 1), source, th.occurrences[0])
        for name in domain.signature.fluents:
            for sign in ("", "neg "):
                query = parse_query("credulous { %s%s holds-at 1 }" % (sign, name))
                result = answer_sat(th, query)
                engine = answer_theory(th, query)
                assert (result.answer, result.witness) == (engine.answer, engine.witness)
                code = th.code(next(iter(query.goals))[0])
                matching = [t for t in targets if th.holds(t, code)]
                if result.witness is not None:
                    assert decode_witness(th, result.witness)[1] == matching[0]
                    splits += matching[0] != min(matching, key=lambda t: tuple(sorted(t)))
    assert splits >= 30, splits


SELF_SUPPORT = """
fluent f.
fluent g.
fluent h.
action a.
a initiates f when { h }.
g whenever { f }.
f whenever { g }.
neg f holds-at 0.
neg h holds-at 0.
a happens-at 0.
"""


def test_decoded_step_check_rejects_self_supported_change(monkeypatch):
    # a's effect does not fire, yet f and g could each be changed because
    # the other is: a model of the completion, but no step of the engine.
    domain = dom(SELF_SUPPORT)
    th = ground(domain, 1)
    query = parse_query("credulous { f holds-at 1 }")
    rejected = []
    original = elang.sat.steps_hold

    def counted(theory, traj):
        ok = original(theory, traj)
        if not ok:
            rejected.append(traj)
        return ok

    monkeypatch.setattr(elang.sat, "steps_hold", counted)
    assert answer_sat(th, query).answer == answer_theory(th, query).answer == "false"
    [traj] = rejected
    assert traj.states[1] not in reference_successors(th, NaiveTheory(domain, 1), traj.states[0], traj.actions[0])
    # without the check the self-supported change is a witness
    monkeypatch.setattr(elang.sat, "steps_hold", lambda theory, traj: True)
    assert answer_sat(th, query).answer == "true"


def test_golden_cases_answer_on_sat():
    for case in load_golden():
        domain = load_domain(*("corpus:" + name for name in (case.domain,) + case.scenarios))
        th = ground(domain, required_horizon(domain, case.query))
        result = answer_sat(th, case.query)
        assert result.answer == case.expect, case.name
        assert result.witness == answer_theory(th, case.query).witness, case.name
        if result.witness is not None:
            assert NaiveTheory(domain, th.horizon).accepts(result.witness), case.name


def test_stats_count_every_clause_dimacs_writes():
    # every state constraint counts once per time point, as when the
    # compiler listed each shifted copy
    checked = 0
    for case in load_golden():
        domain = load_domain(*("corpus:" + name for name in (case.domain,) + case.scenarios))
        th = ground(domain, required_horizon(domain, case.query))
        if ramification_cycle(th) is not None:
            continue
        header = to_dimacs(compile_theory(th, labels=False)).splitlines()[0].split()
        assert answer_sat(th, case.query).stats.clauses == int(header[3]), case.name
        checked += bool(th.constraint_clauses)
    assert checked >= 5


def wide_step_domain(k):
    """One action sets ``trig``, and each of k pairs of rules then makes
    exactly one of ``fi`` and ``gi`` true: 2^k successors from one step."""
    lines = ["fluent trig.", "action go.", "go initiates trig.", "go happens-at 0.", "neg trig holds-at 0."]
    for i in range(1, k + 1):
        lines += ["fluent f%d." % i, "fluent g%d." % i]
        lines += ["f%d whenever { trig, neg g%d }." % (i, i), "g%d whenever { trig, neg f%d }." % (i, i)]
        lines += ["neg f%d holds-at 0." % i, "neg g%d holds-at 0." % i]
    return dom("\n".join(lines))


def test_wide_step_witness_is_the_least_trajectory_on_both_backends():
    th = ground(wide_step_domain(4), 1)
    assert len(successor_states(th, frozenset(), th.occurrences[0])) == 16
    query = parse_query("credulous { f3 holds-at 1 } horizon 1")
    # atoms in declaration order, false first: fi false forces gi
    least = {"states": [[], ["f3", "g1", "g2", "g4", "trig"]], "actions": [["go"]]}
    assert answer_theory(th, query).witness == answer_sat(th, query).witness == least


UNCHANGED_SUPPORT = """
fluent h. fluent a. fluent q. fluent r. action go.
go terminates h. go initiates q.
a whenever { q, r }. h whenever { a }.
h holds-at 0. a holds-at 0. neg q holds-at 0. neg r holds-at 0.
go happens-at 0.
"""


def test_acyclic_support_that_never_changed_is_rejected():
    # The only target that meets the support clauses keeps h through its
    # body { a }, which holds but was never changed, so go's terminates h
    # is dropped without an override: no step, even though the theory is
    # acyclic.
    th = ground(dom(UNCHANGED_SUPPORT), 1)
    assert check_fragment(th).accepted
    source, actions = frozenset(c - 1 for c in th.observations[0] if c > 0), th.occurrences[0]
    ref = NaiveTheory(dom(UNCHANGED_SUPPORT), 1)
    assert successor_states(th, source, actions) == reference_successors(th, ref, source, actions) == []
    query = parse_query("credulous { h holds-at 1 } horizon 1")
    assert answer_theory(th, query).answer == answer_sat(th, query).answer == "domain-inconsistent"


def test_compiled_models_are_the_engines_trajectories_in_order():
    # Every model of the compiled clauses, decoded in the kernel's order,
    # is a trajectory, and every trajectory is one; around a cycle the
    # decoded-step check keeps the trajectories.  One model order: the
    # list is the engine's.  Without a cycle each trajectory has one model;
    # around one it may have several (a value kept but marked changed,
    # supported by itself), so each is listed where it first decodes.
    rng = random.Random(2205)
    cyclic = fires = ramifies = 0
    for _ in range(150):
        th = ground(random_theory(rng, max_fluents=4, max_cprops=5, max_rprops=4))
        decoded = {}
        models = 0
        for model in elang.sat._compiled(th).models():
            traj = decode_model(th, model)
            models += 1
            if th.first_cycle is None or steps_hold(th, traj):
                decoded.setdefault(traj, None)
        assert list(decoded) == list(Evaluator(th).models())
        assert th.first_cycle is not None or models == len(decoded)
        cyclic += th.first_cycle is not None
        names = compile_theory(th).names.values()
        fires += any(name.startswith("fire[") for name in names)
        ramifies += any(name.startswith("ramify[") for name in names)
    # both kinds of draw, and conditions and bodies longer than one literal
    assert 30 <= cyclic <= 120 and fires >= 30 and ramifies >= 20, (cyclic, fires, ramifies)


def one_literal_auxiliaries(th) -> list[str]:
    """The names of the fire and ramify variables that ``compile_theory``
    gives a condition or body of one literal: none, since the literal
    stands for them."""
    sizes = {
        ci: len(true) + len(false)
        for acts in th.occurrences.values()
        for action in acts
        for ci, _, true, false in th.effects_of(action)
    }
    found = []
    for name in compile_theory(th).names.values():
        role, _, rest = name.partition("[")
        index = int(rest.partition("]")[0]) if role in ("fire", "ramify") else None
        if role == "fire" and sizes[index] == 1:
            found.append(name)
        elif role == "ramify" and len(th.rules[index][1]) == 1:
            found.append(name)
    return found


def test_one_literal_conditions_and_bodies_get_no_variable():
    rng = random.Random(2206)
    singles = 0
    for _ in range(100):
        th = ground(random_theory(rng, max_fluents=5, max_cprops=6, max_rprops=4))
        assert one_literal_auxiliaries(th) == []
        singles += any(len(body) == 1 for _, body in th.rules)
    assert singles >= 50
    # the generated zoo, whose rule bodies are one literal each
    th = ground(load_domain("gen:direct:6:feed", "corpus:zoo_scenario_move.e"), 4)
    names = compile_theory(th).names.values()
    assert one_literal_auxiliaries(th) == [] and not any(n.startswith("ramify[") for n in names)


# Statements that name their own head: h supports itself; neg h supports
# h, which every state constraint then forces; and x and neg x each
# support h, and fire h through two conditions of one literal, so that
# their completion clauses are tautologies.
SELF_REFERENCES = {
    "self": """
fluent h. fluent g. fluent x. action a.
a initiates g.
h whenever { g, x }.
h whenever { h }.
""",
    "negated": """
fluent h. fluent g. action a.
a terminates h.
a initiates g when { g }.
h whenever { neg h }.
""",
    "complements": """
fluent h. fluent x. fluent g. action a.
a initiates x when { g }.
a terminates x when { neg g }.
a terminates h.
h whenever { x }.
h whenever { neg x }.
a initiates h when { g }.
a initiates h when { neg g }.
""",
}


def step_overlays(monkeypatch) -> list[tuple[list, list]]:
    """Each kernel call with an overlay (a step search), as its overlay
    and the models the kernel yields, filled as the calls run."""
    calls = []
    models = ClauseSet.models

    def spied(self, *args, **kwargs):
        extra = kwargs.get("extra", ())
        found = []
        if extra:
            calls.append((list(extra), found))
        for model in models(self, *args, **kwargs):
            found.append(model)
            yield model

    monkeypatch.setattr(ClauseSet, "models", spied)
    return calls


@pytest.mark.parametrize("name", sorted(SELF_REFERENCES))
def test_self_referent_statements_agree_everywhere(name, monkeypatch):
    text = SELF_REFERENCES[name] + "a happens-at 0. a happens-at 1.\n"
    th = ground(dom(text), 2)
    ref = NaiveTheory(dom(text), 2)
    assert (th.first_cycle is None) == (name == "complements")
    # the compiled clauses are normal: no tautology, no repeated literal
    assert all(normalize(c) == tuple(c) for c in compile_theory(th, labels=False).clauses)
    calls = step_overlays(monkeypatch)
    actions = th.occurrences[0]
    sources = numbered(th, ref.states())
    assert len(sources) >= 2
    for source in sources:
        del calls[:]
        found = successor_states(th, source, actions)
        assert found == reference_successors(th, ref, source, actions), sorted(source)
        for extra, leaves in calls:
            assert all(normalize(c) == tuple(c) for c in extra), extra
            if name == "negated":
                # h's support clause is the unit neg h, which the state
                # constraint h contradicts: the kernel yields nothing,
                # though the re-check would hide a model it let through
                assert leaves == []
    queries = 0
    for atom in th.fluents:
        for t in range(th.horizon + 1):
            for sign in ("", "neg "):
                for mode in ("credulous", "skeptical"):
                    query = parse_query("%s { %s%s holds-at %d }" % (mode, sign, atom, t))
                    engine, sat = answer_theory(th, query), answer_sat(th, query)
                    assert (sat.answer, sat.witness) == (engine.answer, engine.witness), query
                    queries += 1
    assert queries == th.n_fluents * 12


def test_step_overlay_is_normal(monkeypatch):
    # The clauses a step adds to the state constraints are in the kernel's
    # normal form, as ``clauses.py`` requires: the clause "some candidate
    # holds" is left out when the candidates hold both values of an atom,
    # and a support clause is merged or left out when its one-literal
    # bodies repeat or complement its literals.
    calls = step_overlays(monkeypatch)
    rng = random.Random(2207)
    both = 0
    for _ in range(300):
        domain = random_step(rng)
        th = ground(domain, 1)
        ref = NaiveTheory(domain, 1)
        source = frozenset(c - 1 for c in th.observations[0] if c > 0)
        assert ref.consistent(named(th, source))
        del calls[:]
        assert successor_states(th, source, th.occurrences[0]) == reference_successors(
            th, ref, source, th.occurrences[0]
        )
        for extra, _ in calls:
            assert all(normalize(c) == tuple(c) for c in extra), extra
        candidates = direct_candidates(th, source, th.occurrences[0])
        both += any(-c in candidates for c in candidates)
    assert both >= 50, both


def test_opposite_candidates_add_no_tautology(monkeypatch):
    # "f or neg f" would be the step's only overlay clause: it is left out
    calls = step_overlays(monkeypatch)
    th = ground(dom("fluent f. action a. action b. a initiates f. b terminates f. a happens-at 0. b happens-at 0."), 1)
    assert successor_states(th, frozenset(), th.occurrences[0]) == [frozenset(), frozenset({0})]
    assert calls == []


def decode_witness(th, witness):
    by_name = {str(atom): i for i, atom in enumerate(th.fluents)}
    return [frozenset(by_name[name] for name in names) for names in witness["states"]]


def test_sat_detects_inconsistency():
    text = """
    fluent f.
    f holds-at 0.
    neg f holds-at 0.
    """
    th = ground(dom(text), 1)
    r = answer_sat(th, parse_query("credulous { f holds-at 0 } horizon 1"))
    assert r.answer == "domain-inconsistent"


def test_decode_model_roundtrip():
    domain = load_domain("corpus:bulb.e")
    th = ground(domain, 4)
    inst = compile_theory(th)
    sat, model = Solver(ClauseSet(inst.num_vars, inst.clauses, th.constraints, th.horizon + 1)).solve()
    assert sat
    traj = decode_model(th, model)
    assert len(traj.states) == 5
    assert all(NaiveTheory(domain, 4).consistent(named(th, s)) for s in traj.states)


@pytest.mark.parametrize("refs", [("corpus:bulb.e",), ("corpus:zoo_direct.e", "corpus:chain_scenario.e")])
def test_decode_model_matches_its_per_atom_definition(refs):
    th = ground(load_domain(*refs), 4)
    inst = compile_theory(th, labels=False)
    rng = random.Random(53)
    for _ in range(20):
        # the true variables, auxiliary ones included
        model = frozenset(v for v in range(1, inst.num_vars + 1) if rng.random() < 0.5)
        states = tuple(
            frozenset(i for i in range(th.n_fluents) if t * inst.n_fluents + i + 1 in model)
            for t in range(th.horizon + 1)
        )
        assert decode_model(th, model).states == states


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_solver_matches_truth_table_property(seed):
    num_vars, clauses = random_cnf(random.Random(seed), max_vars=10)
    sat, model = Solver(ClauseSet(num_vars, clauses)).solve()
    assert sat == cnf_satisfiable(num_vars, clauses)
    if sat:
        assert model_satisfies({v: v in model for v in range(1, num_vars + 1)}, clauses)
