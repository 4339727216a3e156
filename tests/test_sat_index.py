"""The clause index the SAT backend builds from the compiler's clauses.

``answer_sat`` indexes ``compile_theory``'s own clauses with
``ClauseSet``, which trusts them to be normal already, and reads the
state constraints from the theory's own ``constraints`` index as rows,
one per time point.  These tests check that the trust holds and that the
rows stand for the clauses they replace: the index solves as the whole
compiled list put in normal form by the oracle (``oracles.normalize``)
and materialized, with the same models in the same order and the same
counters; the rows ``--dimacs`` writes are the theory's own
``constraint_clauses`` shifted to each time point; the index keeps the
compiler's list rather than a copy; and normalizing at the source leaves
the ``--dimacs`` export as it was.
"""

import hashlib
import itertools
import random

import pytest

import elang.sat
from elang.cli import main
from elang.clauses import BudgetExceeded, ClauseSet
from elang.corpus import CORPUS_HORIZONS, ZOO_SCENARIOS, generate_zoo, load_domain, load_golden
from elang.grounding import ground
from elang.parser import parse_domain, parse_query
from elang.query import answer_theory, required_horizon
from elang.sat import SatStats, Solver, answer_sat, compile_theory, to_dimacs

from oracles import constraint_clause, normalize, ramification_cycle, random_theory, walk_scenario


def outcome(clauses: ClauseSet, assumptions) -> tuple:
    """What a budgeted solve under the assumptions returns, with its stats."""
    stats = SatStats()
    try:
        result = Solver(clauses, 300, stats).solve(assumptions)
    except BudgetExceeded:
        result = "budget"
    return result, stats.as_dict()


def counted(clauses: ClauseSet, assumptions, limit: int = 20) -> tuple:
    """The first ``limit`` models under the assumptions, in order, with
    the decisions and propagations that took."""
    stats = SatStats()
    models = list(itertools.islice(clauses.models(assumptions, stats=stats), limit))
    return models, stats.decisions, stats.propagations


def assert_index_matches_normalizing(th, rng: random.Random, solves: int = 6) -> ClauseSet:
    """The index ``answer_sat`` builds for ``th`` solves as the whole
    compiled list, materialized and put in normal form by the oracle: the
    same models in the same order, the same counters, and the same
    budgeted solves under random assumptions over the fluent variables.
    Its state constraints are the theory's, shifted."""
    th.sat_memo = None
    got = elang.sat._compiled(th)
    inst = compile_theory(th, labels=False)
    assert_constraints_shifted(th, inst)
    want = ClauseSet(inst.num_vars, [c for c in map(normalize, inst.all_clauses()) if c is not None])
    assert got.num_vars == want.num_vars
    assert got.size == len(want.clauses)
    assert got.empty == want.empty
    fluent_vars = (th.horizon + 1) * th.n_fluents
    for k in range(solves):
        picked = rng.sample(range(1, fluent_vars + 1), min(fluent_vars, rng.randint(0, 4)))
        assumptions = [v if rng.random() < 0.5 else -v for v in picked]
        assert outcome(got, assumptions) == outcome(want, assumptions), assumptions
        if k < 2:
            assert counted(got, assumptions) == counted(want, assumptions), assumptions
    return got


def assert_constraints_shifted(th, inst) -> None:
    """The state constraints ``to_dimacs`` writes first are the theory's
    ``constraint_clauses``, each at every time point in turn, literal l at
    time t shifted by t*n away from zero; and those are the oracle's
    normal form of each statement's clause."""
    n = th.n_fluents
    assert inst.rows is th.constraint_clauses
    assert th.constraint_clauses == [c for c in map(constraint_clause, th.rules) if c is not None]
    shifted = [
        tuple(l + t * n if l > 0 else l - t * n for l in clause)
        for clause in th.constraint_clauses
        for t in range(th.horizon + 1)
    ]
    lines = to_dimacs(inst).splitlines()
    assert lines[0] == "p cnf %d %d" % (inst.num_vars, len(shifted) + len(inst.clauses))
    written = [tuple(map(int, line.split()[:-1])) for line in lines[1:]]
    assert written == shifted + inst.clauses


def test_golden_cases_index_as_normalized():
    rng = random.Random(1)
    for case in load_golden():
        domain = load_domain(*("corpus:" + name for name in (case.domain,) + case.scenarios))
        assert_index_matches_normalizing(ground(domain, required_horizon(domain, case.query)), rng)


@pytest.mark.parametrize("name", ["zoo_direct.e", "zoo_indirect.e", "zoo_dual.e", "zoo_dual_feed.e"])
def test_zoo_representations_index_as_normalized(name):
    rng = random.Random(name)
    for scenario in ZOO_SCENARIOS:
        th = ground(load_domain("corpus:" + name, "corpus:" + scenario), 6)
        assert_index_matches_normalizing(th, rng)


def walk(positions: int, steps: int, seed: int):
    """The generated direct zoo with feeding and a seeded walk: a fully
    observed start, one move per step, a feeding now and then."""
    text = generate_zoo("direct", positions, include_feed=True)
    return ground(parse_domain(text + walk_scenario(positions, steps, seed)).domain, steps)


@pytest.mark.parametrize("positions, steps", [(6, 12), (9, 8), (12, 5)])
def test_walks_index_as_normalized(positions, steps):
    rng = random.Random(positions)
    for seed in range(2):
        assert_index_matches_normalizing(walk(positions, steps, seed), rng)


def test_random_theories_index_as_normalized():
    rng = random.Random(7)
    for _ in range(150):
        th = ground(random_theory(rng, max_fluents=5, max_cprops=6, max_rprops=4))
        assert_index_matches_normalizing(th, rng, solves=3)


# Heads in their own bodies: g's rule is a tautology (-f, -g, g), and
# neg f whenever { f } is the duplicate (-f, -f), a unit.
SELF_LOOPS = """
fluent f.
fluent g.
fluent h.
action a.
a initiates g when { h }.
g whenever { f, g }.
h whenever { g }.
g whenever { h }.
neg f whenever { f }.
neg h holds-at 0.
a happens-at 0.
a happens-at 1.
"""


def test_heads_in_their_own_bodies_index_as_normalized():
    th = ground(parse_domain(SELF_LOOPS).domain, 3)
    assert ramification_cycle(th) is not None
    raw = [sorted({-c for c in body}) + [head] for head, body in th.rules]
    assert sum(normalize(clause) is None for clause in raw) == 1
    assert sum(normalize(clause) not in (None, tuple(clause)) for clause in raw) == 1
    index = assert_index_matches_normalizing(th, random.Random(3), solves=20)
    # the tautology is dropped and the duplicate merged at every time point
    assert index.units.count(-1) == 1 and -1 - 3 * 3 in index.units
    for text in ("credulous { f holds-at 2 }", "skeptical { g holds-at 2 }", "credulous { neg h holds-at 3 }"):
        query = parse_query(text)
        assert answer_sat(th, query).answer == answer_theory(th, query).answer, text


def test_impossible_precondition_indexes_as_the_empty_clause():
    th = ground(parse_domain("fluent f. action a. a needs { f, neg f }. a happens-at 0.").domain, 1)
    index = assert_index_matches_normalizing(th, random.Random(4))
    assert index.empty and () not in index.clauses
    assert () in compile_theory(th, labels=False).clauses


def test_groundless_denial_indexes_as_the_empty_clause():
    # a denial with no literal left; grounding never builds one, since a
    # denial over constants alone is checked and dropped, so add its row
    th = ground(load_domain("corpus:bulb.e"), 4)
    th.rules.append((None, ()))
    inst = compile_theory(th, labels=False)
    assert inst.rows.count(()) == 1 and () not in inst.clauses
    assert list(inst.all_clauses()).count(()) == 5
    assert to_dimacs(inst).splitlines().count(" 0") == 5
    index = assert_index_matches_normalizing(th, random.Random(5))
    assert index.empty and th.constraints.empty


def compiled_by_answer(monkeypatch, th, text):
    """The instance ``answer_sat`` compiled for its first query on ``th``."""
    built = []
    original = elang.sat.compile_theory

    def recorded(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(elang.sat, "compile_theory", recorded)
    answer_sat(th, parse_query(text))
    answer_sat(th, parse_query(text))
    [inst] = built
    return inst


@pytest.mark.parametrize(
    "refs, text",
    [
        (("corpus:bulb.e",), "skeptical { light holds-at 3 } horizon 4"),
        (("corpus:zoo_dual.e", "corpus:chain_scenario.e"), "credulous { rides(john,dumpo) holds-at 1 } horizon 4"),
    ],
)
def test_held_index_keeps_the_compilers_clauses(monkeypatch, refs, text):
    th = ground(load_domain(*refs), 4)
    inst = compiled_by_answer(monkeypatch, th, text)
    index = th.sat_memo
    assert isinstance(index, ClauseSet)
    assert index.clauses is inst.clauses
    # the rows are the theory's own constraint index, read in place:
    # literal l at time t reads the entries of l at time 0
    n, times = th.n_fluents, th.horizon + 1
    assert inst.rows is th.constraint_clauses
    assert index.span == n * times
    for l in range(1, n + 1):
        for t in range(times):
            assert index.row_occurs[l + t * n] is th.constraints.occurs[l]
            assert index.row_occurs[-l - t * n] is th.constraints.occurs[-l]
    assert index.size == inst.num_clauses


# sha256 of `elang ground REF [--horizon H] --dimacs FILE`, taken before
# the compiler emitted normal clauses; bulb.e's, which schedules an
# action, retaken when a one-literal effect condition became its own fire
# literal (12 vars and 29 clauses before, 11 and 27 after)
DIMACS_SHA256 = {
    ("corpus:bulb.e", 4): "b6a139f86e6237893c86bd8d0ef4922589dbfacd4922d4f1b6233c1ef4e1d0a7",
    ("gen:direct:6", None): "18894a6c787d7fe926fd23d0d9eba71eaf260d84a7a9fcf49c8b2f0c10a00348",
    ("gen:direct:6", 4): "9a2010de51921a74225db860dc98b7489ede2308c34b2dc8b8bd6ce6afe86361",
    ("gen:direct:8:feed", None): "e8d7323c6b52f318b2131f50ab8075cefc499dbbbbde1f953e9babfe32f13b3c",
    ("gen:direct:8:feed", 4): "f2b3eca594956a4caf1ed6385633c225c34d3f8e82444f27cbefd9362dd8cf49",
}


@pytest.mark.parametrize("ref, horizon", sorted(DIMACS_SHA256, key=str))
def test_dimacs_export_is_pinned(tmp_path, capsys, ref, horizon):
    out = tmp_path / "theory.cnf"
    argv = ["ground", ref] + ([] if horizon is None else ["--horizon", str(horizon)])
    assert main(argv + ["--dimacs", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIMACS_SHA256[ref, horizon]


def acyclic_theories():
    for name, horizon in CORPUS_HORIZONS.items():
        yield ground(load_domain("corpus:" + name), horizon)
    for positions in (3, 6, 9):
        for feed in ("", ":feed"):
            yield ground(load_domain("gen:direct:%d%s" % (positions, feed), "corpus:zoo_scenario_move.e"))
    rng = random.Random(11)
    for _ in range(300):
        yield ground(random_theory(rng, max_fluents=5, max_cprops=6, max_rprops=4))


def test_acyclic_constraint_clauses_are_already_normal():
    # Only a head in its own body repeats an atom in a constraint clause,
    # and that is a cycle, which --dimacs refuses: so normalizing at the
    # source cannot change an exported clause.
    checked = 0
    for th in acyclic_theories():
        if ramification_cycle(th) is not None:
            continue
        for head, body in th.rules:
            clause = [-c for c in body] + ([] if head is None else [head])
            assert len({abs(l) for l in clause}) == len(clause), (head, body)
        checked += 1
    assert checked > 100


def test_compiled_state_constraints_are_the_ground_clauses_shifted():
    self_loops = ground(parse_domain(SELF_LOOPS).domain, 3)
    assert len(self_loops.constraint_clauses) == len(self_loops.rules) - 1  # the tautology
    checked = 0
    for th in [self_loops, *acyclic_theories()]:
        assert_constraints_shifted(th, compile_theory(th, labels=False))
        checked += bool(th.constraint_clauses)
    assert checked > 100
