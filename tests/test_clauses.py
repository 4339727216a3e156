"""The clause kernel against a brute-force enumeration of assignments."""

import random

import pytest

from elang import BudgetExceeded as TopLevelBudgetExceeded
from elang.clauses import BudgetExceeded, ClauseSet
from elang.query import BudgetExceeded as QueryBudgetExceeded

from oracles import cnf_models, normalize, random_cnf


def random_literals(rng, num_vars, count):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), count)]


def test_models_match_brute_force_in_order():
    rng = random.Random(17)
    for _ in range(400):
        num_vars, clauses = random_cnf(rng, max_vars=8)
        assumptions = random_literals(rng, num_vars, rng.randint(0, min(3, num_vars)))
        got = list(ClauseSet(num_vars, clauses).models(assumptions))
        assert got == cnf_models(num_vars, clauses, assumptions)


def test_interleaved_enumerations_do_not_interfere():
    rng = random.Random(23)
    for _ in range(100):
        num_vars, clauses = random_cnf(rng, max_vars=7)
        cs = ClauseSet(num_vars, clauses)
        a_assumed = random_literals(rng, num_vars, 1)
        b_assumed = random_literals(rng, num_vars, rng.randint(0, 1))
        alone_a = list(cs.models(a_assumed))
        alone_b = list(cs.models(b_assumed))
        gen_a, gen_b = cs.models(a_assumed), cs.models(b_assumed)
        mixed_a, mixed_b = [], []
        done_a = done_b = False
        while not (done_a and done_b):
            if not done_a:
                m = next(gen_a, None)
                done_a = m is None
                if m is not None:
                    mixed_a.append(m)
            for _ in range(rng.randint(0, 2)):
                if not done_b:
                    m = next(gen_b, None)
                    done_b = m is None
                    if m is not None:
                        mixed_b.append(m)
        assert mixed_a == alone_a
        assert mixed_b == alone_b


@pytest.mark.parametrize(
    "num_vars, clauses, assumptions",
    [
        (2, [(1, -1), (2, 2, -1)], ()),  # a tautology and a duplicate literal
        (3, [(1, 2, -2), (-3, -3)], (1,)),
        (2, [(1, 2), ()], ()),  # the empty clause
        (3, [(1, 2)], (2, -2)),  # contradictory assumptions
        (3, [(1,), (-1, 2)], (-2,)),  # an assumption against a propagated unit
        (3, [], ()),
        (0, [], ()),
        (0, [()], ()),
    ],
)
def test_degenerate_inputs(num_vars, clauses, assumptions):
    # the kernel takes normal clauses: the oracle's normal form of these
    normal = [c for c in map(normalize, clauses) if c is not None]
    got = list(ClauseSet(num_vars, normal).models(assumptions))
    assert got == cnf_models(num_vars, clauses, assumptions)


def test_clause_index_leaves_out_only_the_empty_clause():
    assert normalize((1, -1, 2)) is None and normalize((2, 2, 3)) == (2, 3)
    cs = ClauseSet(3, [(2, 3), (3,), ()])
    assert cs.clauses == [(2, 3), (3,)]
    assert cs.units == (3,)
    assert cs.empty


def occurrence(clause, lit):
    """The entry a clause of two or more literals has in the occurrence
    list of its literal ``lit``: the other literal of a binary clause, the
    clause itself otherwise.  Units have none; the root assigns them."""
    if len(clause) == 2:
        return clause[1] if clause[0] == lit else clause[0]
    return clause


def test_normal_clauses_index_as_given():
    rng = random.Random(19)
    for _ in range(300):
        num_vars, clauses = random_cnf(rng, max_vars=8)
        # some with a repeated atom, a duplicate or a tautology, and maybe
        # the empty clause, put in normal form by the oracle
        clauses = [c + random_literals(rng, num_vars, 1) * (rng.random() < 0.3) for c in clauses]
        clauses += [()] * (rng.random() < 0.1)
        normal = [c for c in map(normalize, clauses) if c is not None]
        got = ClauseSet(num_vars, normal)
        assert got.empty == (() in normal)
        assert got.clauses == [c for c in normal if c]
        assert got.size == len(got.clauses)
        assert got.units == tuple(c[0] for c in normal if len(c) == 1)
        for l in range(-num_vars, num_vars + 1):
            assert got.occurs[l] == [occurrence(c, l) for c in got.clauses if l in c and len(c) > 1]
        assert list(got.models()) == cnf_models(num_vars, clauses)
        if not got.empty:
            assert got.clauses is normal


def test_stats_count_decisions_and_propagations():
    class Stats:
        decisions = 0
        propagations = 0

    stats = Stats()
    models = list(ClauseSet(3, [(1, 2)]).models(stats=stats))
    assert len(models) == 6
    assert stats.decisions > 0 and stats.propagations > 0


def test_budget_bounds_decisions():
    # pigeonhole: 5 pigeons never fit in 4 holes; seeing it takes 51 decisions
    holes, pigeons = 4, 5
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    cs = ClauseSet(pigeons * holes, clauses)
    with pytest.raises(BudgetExceeded) as exc:
        next(cs.models(budget=10), None)
    assert exc.value.budget == 10 and exc.value.stats.decisions == 11
    assert next(cs.models(), None) is None
    assert BudgetExceeded is QueryBudgetExceeded is TopLevelBudgetExceeded



class Tally:
    def __init__(self):
        self.decisions = 0
        self.propagations = 0

    def counts(self):
        return self.decisions, self.propagations


def enumerate_with_stats(cs, assumptions):
    tally = Tally()
    return list(cs.models(assumptions, stats=tally)), tally.counts()


def test_held_clause_set_answers_as_fresh_clause_sets():
    # the first call propagates the units once; later calls start from that
    # root and must give the models and the counts a fresh ClauseSet gives
    rng = random.Random(41)
    for _ in range(200):
        num_vars, clauses = random_cnf(rng, max_vars=8)
        held = ClauseSet(num_vars, clauses)
        calls = [random_literals(rng, num_vars, rng.randint(0, min(3, num_vars))) for _ in range(4)]
        for assumptions in calls + calls[::-1]:
            got = enumerate_with_stats(held, assumptions)
            assert got == enumerate_with_stats(ClauseSet(num_vars, clauses), assumptions)
            assert got[0] == cnf_models(num_vars, clauses, assumptions)


def test_interleaved_calls_on_a_held_root_match_fresh_clause_sets():
    rng = random.Random(43)
    for _ in range(100):
        num_vars, clauses = random_cnf(rng, max_vars=7)
        held = ClauseSet(num_vars, clauses)
        calls = [random_literals(rng, num_vars, rng.randint(0, min(2, num_vars))) for _ in range(3)]
        tallies = [Tally() for _ in calls]
        gens = [held.models(a, stats=s) for a, s in zip(calls, tallies)]
        got = [[] for _ in calls]
        live = list(range(len(calls)))
        while live:
            k = rng.choice(live)
            m = next(gens[k], None)
            if m is None:
                live.remove(k)
            else:
                got[k].append(m)
        for assumptions, models, tally in zip(calls, got, tallies):
            assert (models, tally.counts()) == enumerate_with_stats(ClauseSet(num_vars, clauses), assumptions)
            assert models == cnf_models(num_vars, clauses, assumptions)


@pytest.mark.parametrize(
    "clauses",
    [
        [(1,), (-1,)],  # contradictory units
        [(1,), (-1, 2), (-2, 3), (-3, -1)],  # a conflict reached by propagation
    ],
)
def test_root_conflict_yields_nothing_on_every_call(clauses):
    cs = ClauseSet(3, clauses)
    first = enumerate_with_stats(cs, ())
    assert first == ([], (0, first[1][1]))
    for assumptions in ((), (2,), (-3,), (1, -1)):
        assert enumerate_with_stats(cs, assumptions) == first


def test_calls_stopped_early_leave_later_calls_exact():
    rng = random.Random(47)
    stopped = 0
    for _ in range(100):
        num_vars, clauses = random_cnf(rng, max_vars=8)
        held = ClauseSet(num_vars, clauses)
        # the first call, which stores the root, runs out of budget or is abandoned
        if rng.random() < 0.5:
            try:
                list(held.models(budget=rng.randint(0, 2)))
            except BudgetExceeded:
                stopped += 1
        else:
            gen = held.models(random_literals(rng, num_vars, 1))
            next(gen, None)
            gen.close()
        for _ in range(3):
            assumptions = random_literals(rng, num_vars, rng.randint(0, min(3, num_vars)))
            got = enumerate_with_stats(held, assumptions)
            assert got == enumerate_with_stats(ClauseSet(num_vars, clauses), assumptions)
            assert got[0] == cnf_models(num_vars, clauses, assumptions)
    assert stopped > 20


def fixed_from(rng, num_vars, source):
    """Each variable fixed at its value in the model ``source`` with
    probability 0.4 and open otherwise: the fixed values as literals, and
    the kernel's ``fixed`` argument (open variables, true fixed ones)."""
    held = [v if v in source else -v for v in range(1, num_vars + 1) if rng.random() < 0.4]
    fixed_vars = {abs(l) for l in held}
    open_vars = [v for v in range(1, num_vars + 1) if v not in fixed_vars]
    return held, (open_vars, [l for l in held if l > 0])


def overlay_case(rng, satisfied_by_fixed):
    """A base clause set, fixed values drawn from one of its models, and an
    overlay over the base atoms and up to three auxiliaries.  With
    ``satisfied_by_fixed`` every base clause that mentions a fixed atom
    also has a true fixed literal, so the fixed values leave no base
    clause unit.  Base units on open atoms the overlay mentions make the
    root reach the overlay."""
    while True:
        num_vars, base = random_cnf(rng, max_vars=7)
        sources = cnf_models(num_vars, base)
        if sources:
            break
    source = rng.choice(sources)
    held, fixed = fixed_from(rng, num_vars, source)
    if satisfied_by_fixed:
        true = set(held)
        base = [c for c in base if not true.isdisjoint(c) or true.isdisjoint([-l for l in c])]
    top = num_vars + rng.randint(0, 3)
    extra = [random_literals(rng, top, rng.randint(1, min(3, top))) for _ in range(rng.randint(1, 5))]
    mentioned = sorted({abs(l) for c in extra for l in c if abs(l) <= num_vars} - {abs(l) for l in held})
    for v in rng.sample(mentioned, min(2, len(mentioned))):
        base.append([v if v in source else -v])
    return num_vars, base, held, fixed, extra


def folded(base, held, extra):
    """The base clauses with the fixed values folded in, the overlay and
    the fixed values as units: one clause set for the same models."""
    held = set(held)
    kept = [[l for l in c if -l not in held] for c in base if held.isdisjoint(c)]
    return kept + [list(c) for c in extra] + [[l] for l in held]


def test_fixed_values_and_overlay_match_one_merged_clause_set():
    rng = random.Random(53)
    for _ in range(400):
        num_vars, base, held, fixed, extra = overlay_case(rng, satisfied_by_fixed=True)
        top = max([num_vars] + [abs(l) for c in extra for l in c])
        clauses = ClauseSet(num_vars, base)
        merged = ClauseSet(top, folded(base, held, extra))
        for _ in range(2):  # the second call starts from the stored root
            assumptions = random_literals(rng, top, rng.randint(0, min(2, top)))
            tally = Tally()
            got = list(clauses.models(assumptions, stats=tally, fixed=fixed, extra=extra))
            want = enumerate_with_stats(merged, assumptions)
            assert (got, tally.decisions) == (want[0], want[1][0])
            assert got == cnf_models(top, base + extra, assumptions + held)
        # neither the overlay nor the fixed values change the clause set
        assert list(clauses.models()) == cnf_models(num_vars, base)


def test_fixed_values_from_a_model_give_exact_models():
    # the documented precondition alone: base clauses may have false fixed
    # literals, and only the decisions may differ from the merged set
    rng = random.Random(59)
    for _ in range(400):
        num_vars, base, held, fixed, extra = overlay_case(rng, satisfied_by_fixed=False)
        top = max([num_vars] + [abs(l) for c in extra for l in c])
        got = list(ClauseSet(num_vars, base).models(fixed=fixed, extra=extra))
        assert got == cnf_models(top, base + extra, held)
        assert got == list(ClauseSet(top, folded(base, held, extra)).models())


def test_fixed_values_search_as_their_units():
    # the same clauses with the fixed values written as unit clauses: the
    # same models in the same order, the overlay's auxiliaries open
    rng = random.Random(71)
    for _ in range(400):
        num_vars, base, held, fixed, extra = overlay_case(rng, satisfied_by_fixed=rng.random() < 0.5)
        top = max([num_vars] + [abs(l) for c in extra for l in c])
        clauses = ClauseSet(num_vars, base)
        as_units = ClauseSet(top, base + [list(c) for c in extra] + [[l] for l in held])
        for _ in range(2):
            assumptions = random_literals(rng, top, rng.randint(0, min(2, top)))
            got = list(clauses.models(assumptions, fixed=fixed, extra=extra))
            assert got == list(as_units.models(assumptions))


def test_a_root_literal_against_a_fixed_value_gives_no_model():
    # a unit u and the literal w it propagates are root literals; fixing
    # either variable at its other value leaves no model, with or without
    # an overlay, while fixing it at the root's value keeps every model
    rng = random.Random(73)
    for _ in range(300):
        num_vars, base = random_cnf(rng, max_vars=7)
        if num_vars < 2:
            continue
        u, w = random_literals(rng, num_vars, 2)
        base = base + [(u,), (-u, w)]
        clauses = ClauseSet(num_vars, base)
        lit = rng.choice((u, w))
        v = abs(lit)
        open_vars = [x for x in range(1, num_vars + 1) if x != v and rng.random() < 0.6]
        true_vars = [x for x in range(1, num_vars + 1) if x != v and x not in open_vars and rng.random() < 0.5]
        extra = [random_literals(rng, num_vars + 1, 2)] if rng.random() < 0.5 else []
        against = true_vars + [v] if lit < 0 else true_vars
        assert list(clauses.models(fixed=(open_vars, against), extra=extra)) == []
        agreeing = ([x for x in range(1, num_vars + 1) if x != v], [v] if lit > 0 else [])
        assert list(clauses.models(fixed=agreeing)) == cnf_models(num_vars, base, [lit])


def shifted(clause, t, width):
    """A row clause at time t: literal l shifted by t*width away from zero."""
    return tuple(l + t * width if l > 0 else l - t * width for l in clause)


def binary_heavy_clause(rng, top):
    width = min(top, 2 if rng.random() < 0.7 else rng.choice((1, 3)))
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, top + 1), width))


def rows_case(rng):
    """k blocks of m variables and up to two more: a binary-heavy row
    template over 1..m, and clauses of their own over every variable,
    some across blocks; the empty clause now and then in either.  Returns
    the set indexed with rows and the same clauses materialized, the
    rows first in (clause, time) order."""
    m, k = rng.randint(1, 3), rng.randint(1, 4)
    num_vars = k * m + rng.randint(0, 2)
    template = [binary_heavy_clause(rng, m) for _ in range(rng.randint(0, 2 * m))]
    own = [binary_heavy_clause(rng, num_vars) for _ in range(rng.randint(0, num_vars))]
    for clauses in (template, own):
        if rng.random() < 0.05:
            clauses.insert(rng.randint(0, len(clauses)), ())
    flat = [shifted(c, t, m) for c in template for t in range(k)] + own
    return ClauseSet(num_vars, own, ClauseSet(m, template), k), ClauseSet(num_vars, flat), flat


def run(cs, assumptions=(), **kwargs):
    """The models a call yields, its counters, and whether it ran out of
    budget."""
    tally, got = Tally(), []
    try:
        for model in cs.models(assumptions, stats=tally, **kwargs):
            got.append(model)
    except BudgetExceeded:
        return got, tally.counts(), True
    return got, tally.counts(), False


def test_rows_search_as_their_clauses_materialized():
    rng = random.Random(61)
    stopped = 0
    for _ in range(400):
        rowed, flat, clauses = rows_case(rng)
        num_vars = flat.num_vars
        assert (rowed.empty, rowed.units, rowed.size) == (flat.empty, flat.units, len(flat.clauses))
        for _ in range(3):  # the later calls start from the stored root
            assumptions = random_literals(rng, num_vars, rng.randint(0, min(3, num_vars)))
            budget = rng.choice((None, rng.randint(0, 3)))
            got = run(rowed, assumptions, budget=budget)
            assert got == run(flat, assumptions, budget=budget)
            stopped += got[2]
            if budget is None and num_vars <= 10:
                assert got[0] == cnf_models(num_vars, clauses, assumptions)
    assert stopped > 50


def test_rows_with_fixed_values_and_an_overlay_search_as_materialized():
    rng = random.Random(67)
    checked = 0
    for _ in range(400):
        rowed, flat, clauses = rows_case(rng)
        num_vars = flat.num_vars
        source = next(flat.models(), None)
        if source is None:
            continue
        held, fixed = fixed_from(rng, num_vars, source)
        extra = [binary_heavy_clause(rng, num_vars + rng.randint(0, 3)) for _ in range(rng.randint(1, 6))]
        top = max([num_vars] + [abs(l) for c in extra for l in c])
        for _ in range(2):
            assumptions = random_literals(rng, top, rng.randint(0, min(2, top)))
            got = run(rowed, assumptions, fixed=fixed, extra=extra)
            assert got == run(flat, assumptions, fixed=fixed, extra=extra)
            if top <= 10:
                assert got[0] == cnf_models(top, clauses + extra, assumptions + held)
        checked += 1
    assert checked > 200
