"""Acceptance criteria, one test per criterion.

Each test prints a single summary line; run with -v to get one pass/fail
line per criterion from pytest itself.  Criterion 10 records measurements
without judging them.
"""

import random
import time

import elang.sat
from elang.bench import (
    REFERENCE_INSTANCES_AT_15,
    inject_irrelevant,
    parse_spec,
    run_experiment,
    time_answer,
)
from elang.clauses import ClauseSet
from elang.corpus import load_domain
from elang.grounding import ground
from elang.model import Atom
from elang.parser import parse_domain, parse_query
from elang.query import answer, answer_theory, check_consistency
from elang.sat import Solver, answer_sat
from elang.transition import successor_states

from oracles import (
    NaiveTheory,
    cnf_satisfiable,
    effect_conflicts,
    effect_instances,
    model_satisfies,
    named,
    numbered,
    ramification_cycle,
    random_cnf,
    random_theory,
    reference_successors,
)


def report(criterion, status, detail):
    print("criterion %d: %s - %s" % (criterion, status, detail))


def run_query(domain_name, scenarios, text):
    domain = load_domain("corpus:" + domain_name, *("corpus:" + s for s in scenarios))
    return answer(domain, parse_query(text, domain.signature)).answer


def close_state(theory, seed):
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


def test_criterion_01_necessity_flips_with_initial_observation():
    start = time.perf_counter()
    with_init = run_query("bulb.e", (), "skeptical { light holds-at 4 } horizon 4")
    first = time.perf_counter() - start
    assert first < 1.0
    start = time.perf_counter()
    without = run_query("bulb_noinit.e", (), "skeptical { light holds-at 4 } horizon 4")
    still_possible = run_query("bulb_noinit.e", (), "credulous { light holds-at 4 } horizon 4")
    second = time.perf_counter() - start
    assert second < 1.0
    assert (with_init, without, still_possible) == ("true", "false", "true")
    report(1, "PASS", "light necessary with the initial observation, only possible "
                      "without it (%.3fs, %.3fs)" % (first, second))


def test_criterion_02_story_conclusions_and_flips():
    start = time.perf_counter()
    base = ("zoo_scenario_base.e",)
    moved = base + ("zoo_scenario_move.e",)
    seen = moved + ("zoo_scenario_obs.e",)
    checks = [
        ("ride necessary at 1", "zoo_dual.e", base,
         "skeptical { rides(john, elly) holds-at 1 } horizon 6", "true"),
        ("landing p2 possible but not necessary", "zoo_dual.e", base,
         "credulous { animal_pos(john, p2) holds-at 2 } horizon 6", "true"),
        ("mounted necessarily at 4", "zoo_dual.e", base,
         "skeptical { rides(john, dumpo) holds-at 4 } horizon 6", "true"),
        ("concurrent move breaks the necessity", "zoo_dual.e", moved,
         "skeptical { rides(john, dumpo) holds-at 4 } horizon 6", "false"),
        ("late observation restores it", "zoo_dual.e", seen,
         "skeptical { rides(john, dumpo) holds-at 4 } horizon 6", "true"),
    ]
    for label, domain, scenarios, query, expected in checks:
        got = run_query(domain, scenarios, query)
        assert got == expected, "%s: expected %s, got %s" % (label, expected, got)
    # the landing is not settled either way
    assert run_query("zoo_dual.e", base,
                     "skeptical { animal_pos(john, p2) holds-at 2 } horizon 6") == "false"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, "PASS", "five story conclusions including both flips (%.1fs)" % elapsed)


def mini_throw_domain(k):
    spots = ", ".join(["home"] + ["l%d" % i for i in range(1, k + 1)])
    lines = [
        "sort spot: %s." % spots,
        "constant fluent landing(spot).",
        "fluent at(spot).",
        "action throw.",
        "throw initiates at(P) when { landing(P) }.",
        "neg at(P1) whenever { at(P), P1 != P }.",
        "at(home) holds-at 0.",
        "throw happens-at 0.",
    ]
    lines += ["landing(l%d) holds-at 0." % i for i in range(1, k + 1)]
    return parse_domain("\n".join(lines)).domain


def test_criterion_03_throwoff_landings_exact():
    # bespoke miniatures, checked against the exhaustive relation
    for k in (1, 2, 3):
        domain = mini_throw_domain(k)
        theory = ground(domain, 1)
        src = frozenset({next(i for i, a in enumerate(theory.fluents)
                         if str(a) == "at(home)")})
        acts = frozenset({Atom("throw", ())})
        guided = successor_states(theory, src, acts)
        brute = reference_successors(theory, NaiveTheory(domain, 1), src, acts)
        assert set(guided) == set(brute)
        assert len(guided) == k
        for i in range(1, k + 1):
            mode = "skeptical" if k == 1 else "credulous"
            got = answer(domain, parse_query(
                "%s { at(l%d) holds-at 1 } horizon 1" % (mode, i)))
            assert got.answer == "true", (k, i, mode)
        if k >= 2:
            for i in range(1, k + 1):
                got = answer(domain, parse_query(
                    "skeptical { at(l%d) holds-at 1 } horizon 1" % i))
                assert got.answer == "false", (k, i)
        assert answer(domain, parse_query(
            "credulous { at(home) holds-at 1 } horizon 1")).answer == "false"
    # the bundled story shows the same shape: two reachable landings
    landings = set()
    for p in ("p1", "p2", "p3", "p4", "p5", "p6"):
        got = run_query("zoo_dual.e", ("zoo_scenario_base.e",),
                        "credulous { animal_pos(john, %s) holds-at 2 } horizon 6" % p)
        if got == "true":
            landings.add(p)
    assert landings == {"p2", "p3"}
    for p in sorted(landings):
        got = run_query("zoo_dual.e", ("zoo_scenario_base.e",),
                        "skeptical { animal_pos(john, %s) holds-at 2 } horizon 6" % p)
        assert got == "false", p
    report(3, "PASS", "k landings possible and none necessary for k in {1,2,3}; "
                      "story landings exactly {p2, p3}")


def test_criterion_04_carried_rider_branch_counts():
    for variant, expected in (("dual", 1), ("indirect", 2)):
        domain = load_domain("corpus:zoo_%s.e" % variant, "corpus:zoo_scenario_base.e")
        theory = ground(domain, 6)
        seed = {theory.index[Atom("animal_pos", (a, p))]
                for a, p in (("john", "p1"), ("dumpo", "p1"), ("elly", "p2"))}
        seed.add(theory.index[Atom("rides", ("john", "dumpo"))])
        src = close_state(theory, seed)
        assert NaiveTheory(domain, 6).consistent(named(theory, src)), variant
        move = next(action for action, _, _ in effect_instances(theory)
                    if str(action) == "move_to_position(dumpo,p3)")
        succs = successor_states(theory, src, frozenset({move}))
        assert len(succs) == expected, variant
        carried = sum(
            1 for s in succs
            if theory.index[Atom("animal_pos", ("john", "p3"))] in s
        )
        assert carried == 1, variant
    report(4, "PASS", "moving a ridden animal: one successor under the direct law, "
                      "two under the ramification reading")


def test_criterion_05_guided_search_equals_exhaustive():
    rng = random.Random(505)
    checked = 0
    for trial in range(500):
        domain = random_theory(rng)
        theory = ground(domain)
        ref = NaiveTheory(domain, theory.horizon)
        sources = numbered(theory, ref.states())
        if not sources:
            continue
        src = rng.choice(sources)
        acts = frozenset(
            Atom(a, ()) for a in domain.signature.actions if rng.random() < 0.6
        )
        guided = successor_states(theory, src, acts)
        brute = reference_successors(theory, ref, src, acts)
        assert set(guided) == set(brute), trial
        checked += 1
    assert checked > 400
    report(5, "PASS", "successor sets agree on %d random theories" % checked)


def test_criterion_06_sat_backend_agreement(monkeypatch):
    rng = random.Random(606)
    rejected = []
    original = elang.sat.steps_hold

    def counted(theory, traj):
        ok = original(theory, traj)
        if not ok:
            rejected.append(traj)
        return ok

    monkeypatch.setattr(elang.sat, "steps_hold", counted)
    queries = conflicts = cycles = 0
    for _ in range(100):
        domain = random_theory(rng, max_fluents=5, max_cprops=6, max_rprops=4)
        theory = ground(domain)
        conflicts += bool(effect_conflicts(theory))
        cycles += ramification_cycle(theory) is not None
        for _ in range(5):
            name = rng.choice(list(domain.signature.fluents))
            sign = "" if rng.random() < 0.5 else "neg "
            mode = rng.choice(["credulous", "skeptical"])
            q = parse_query("%s { %s%s holds-at %d }"
                            % (mode, sign, name, rng.randint(0, theory.horizon)))
            assert answer_sat(theory, q).answer == answer_theory(theory, q).answer
            queries += 1
    # clashing effects and cycles are drawn, and around cycles the
    # decoded-step check turns models of the clauses down
    assert conflicts >= 30 and cycles >= 30 and rejected
    sat_checked = 0
    for _ in range(200):
        num_vars, clauses = random_cnf(rng, max_vars=20)
        got, model = Solver(ClauseSet(num_vars, clauses)).solve()
        assert got == cnf_satisfiable(num_vars, clauses)
        if got:
            assert model_satisfies({v: v in model for v in range(1, num_vars + 1)}, clauses)
        sat_checked += 1
    report(6, "PASS", "engine and clausal backend agree on %d queries (%d theories with "
                      "effect conflicts, %d with ramification cycles, %d models rejected); "
                      "solver matches the truth table on %d formulas"
                      % (queries, conflicts, cycles, len(rejected), sat_checked))


def test_criterion_07_slicing_preserves_answers():
    rng = random.Random(707)
    done = 0
    while done < 100:
        domain = random_theory(rng)
        theory = ground(domain)
        if not check_consistency(theory)[0]:
            continue
        name = rng.choice(list(domain.signature.fluents))
        sign = "" if rng.random() < 0.5 else "neg "
        mode = rng.choice(["credulous", "skeptical"])
        q = parse_query("%s { %s%s holds-at %d }"
                        % (mode, sign, name, rng.randint(0, theory.horizon)))
        plain = answer_theory(theory, q)
        sliced = answer_theory(theory, q, use_slice=True)
        assert plain.answer == sliced.answer
        done += 1
    report(7, "PASS", "sliced and unsliced answers identical on 100 consistent domains")


REPRESENTATION_QUERIES = (
    "skeptical { animal_pos(john, p3) holds-at 4 } horizon 6",
    "credulous { animal_pos(john, p3) holds-at 4 } horizon 6",
    "skeptical { rides(john, dumpo) holds-at 4 } horizon 6",
    "skeptical { animal_pos(dumpo, p3) holds-at 4 } horizon 6",
    "credulous { neg rides(john, dumpo) holds-at 4 } horizon 6",
)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def test_criterion_08_direct_laws_no_slower_than_indirect():
    timings = {}
    for variant in ("direct", "indirect"):
        domain = load_domain("corpus:zoo_%s.e" % variant, "corpus:chain_scenario.e")
        theory = ground(domain, 6)
        runs = []
        for q in REPRESENTATION_QUERIES:
            timed = time_answer(theory, q, domain, repeats=3, budget=None,
                                backend="engine", use_slice=False)
            runs.append(timed.median_s)
        timings[variant] = median(runs)
    assert timings["direct"] <= timings["indirect"], timings
    report(8, "PASS", "median query time %.1fms under direct laws vs %.1fms under "
                      "indirect ones" % (timings["direct"] * 1e3, timings["indirect"] * 1e3))


IRRELEVANCE_QUERIES = (
    "skeptical { animal_pos(john, p3) holds-at 4 } horizon 6",
    "credulous { animal_pos(john, p2) holds-at 1 } horizon 6",
    "skeptical { rides(john, dumpo) holds-at 4 } horizon 6",
)


def test_criterion_09_irrelevant_occurrences_stay_cheap():
    base = load_domain("corpus:zoo_dual_feed.e", "corpus:chain_scenario.e")
    domains = {0: base, 3: inject_irrelevant(base, 3, 6)}
    theories = {count: ground(domain, 6) for count, domain in domains.items()}
    answers = {0: [], 3: []}
    medians = {0: [], 3: []}
    for text in IRRELEVANCE_QUERIES:
        queries = {count: parse_query(text, domains[count].signature) for count in domains}
        runs = {0: [], 3: []}
        # a warm-up run on each side, then the sides take turns, so that
        # a slow spell of the host hits both
        for i in range(6):
            for count in (0, 3):
                start = time.perf_counter()
                result = answer_theory(theories[count], queries[count], use_slice=True)
                elapsed = time.perf_counter() - start
                if i == 0:
                    answers[count].append(result)
                else:
                    runs[count].append(elapsed)
        for count in (0, 3):
            medians[count].append(median(runs[count]))
    assert [r.answer for r in answers[0]] == [r.answer for r in answers[3]], "answers changed under injection"
    # the injected steps bring a new action set, so only ``transitions``
    # may grow: the search and the slice are the baseline's
    for before, after in zip(answers[0], answers[3]):
        for stat in ("nodes", "models", "atoms_sliced"):
            assert getattr(after.stats, stat) == getattr(before.stats, stat), stat
    ratio = median(medians[3]) / median(medians[0])
    assert ratio < 2.0, "slowdown ratio %.2f" % ratio
    report(9, "PASS", "three injected occurrences leave answers and search unchanged at %.2fx "
                      "the baseline median" % ratio)


def test_criterion_10_scaling_record():
    text = "\n".join([
        "name = acceptance-scaling",
        "family = scaling",
        "variant = direct",
        "sizes = 3 4 5 6 7 8 9 10 11 12 13 14 15",
        "scenario = corpus:chain_scenario.e",
        "horizon = 4",
        "repeats = 1",
        "query = credulous { animal_pos(dumpo,p3) holds-at 3 } horizon 4",
    ]) + "\n"
    table = run_experiment(parse_spec(text))
    assert [row["positions"] for row in table.rows] == list(range(3, 16))
    last = table.rows[-1]
    assert last["reference_instances"] == REFERENCE_INSTANCES_AT_15
    assert all(row["answer_q0"] == "true" for row in table.rows)
    report(10, "RECORDED", "size 15: %d per-step instances (reference figure %d), "
                           "%d fluent atoms, grounding %.0fms, query %.1fms"
           % (last["total_instances"], REFERENCE_INSTANCES_AT_15, last["atoms"],
              last["ground_ms"], last["median_ms_q0"]))
