"""Command line interface: subcommands, exit codes, output shapes."""

import hashlib
import json
import tracemalloc

import pytest

from elang.cli import main
from elang.corpus import corpus_path, generate_zoo, load_domain
from elang.grounding import ground
from elang.sat import check_fragment
from elang.specfiles import parse_stanzas

from oracles import effect_conflicts, walk_scenario


@pytest.fixture()
def bulb_file():
    return str(corpus_path("bulb.e"))


@pytest.fixture()
def noinit_file():
    return str(corpus_path("bulb_noinit.e"))


def test_check_consistent(bulb_file, capsys):
    assert main(["check", bulb_file]) == 0
    out = capsys.readouterr().out
    assert "consistent" in out and "2 fluent atoms" in out


def test_check_inconsistent(tmp_path, capsys):
    path = tmp_path / "bad.e"
    path.write_text("fluent f.\nf holds-at 0.\nneg f holds-at 0.\n")
    assert main(["check", str(path)]) == 2


def test_check_validation_errors(tmp_path, capsys):
    path = tmp_path / "broken.e"
    path.write_text("sort s: a.\nfluent f(s).\nf(X) holds-at 0.\n")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr().out
    assert "non-ground" in out


def test_check_prints_warnings_but_passes(tmp_path, capsys):
    path = tmp_path / "warned.e"
    path.write_text("fluent f.\naction a.\na initiates f when { f, neg f }.\n")
    assert main(["check", str(path), "--horizon", "1"]) == 0
    out = capsys.readouterr().out
    assert "warning unsat-condition" in out


def test_check_parse_error(tmp_path):
    path = tmp_path / "syntax.e"
    path.write_text("fluent f\n")
    assert main(["check", str(path)]) == 3


def test_check_non_decimal_digit_is_parse_error(tmp_path, capsys):
    path = tmp_path / "digit.e"
    path.write_text("fluent f. action a. a happens-at \u00b2.\n", encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert "invalid number" in capsys.readouterr().err


def test_query_true_false_exit_codes(bulb_file):
    argv = ["query", bulb_file, "--mode", "skeptical", "--goal", "light holds-at 3",
            "--horizon", "4"]
    assert main(argv) == 0
    argv = ["query", bulb_file, "--mode", "skeptical", "--goal", "neg light holds-at 3",
            "--horizon", "4"]
    assert main(argv) == 1


def test_query_inconsistent_exit_code(tmp_path):
    path = tmp_path / "bad.e"
    path.write_text("fluent f.\nf holds-at 0.\nneg f holds-at 0.\n")
    argv = ["query", str(path), "--mode", "credulous", "--goal", "f holds-at 0"]
    assert main(argv) == 2


def test_query_from_file(bulb_file, tmp_path, capsys):
    qfile = tmp_path / "probe.q"
    qfile.write_text("credulous { light holds-at 3 } horizon 4.\n")
    assert main(["query", bulb_file, "--query", str(qfile)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_query_json_output(bulb_file, capsys):
    argv = ["query", bulb_file, "--mode", "credulous", "--goal", "light holds-at 3",
            "--horizon", "4", "--json"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["answer"] == "true"
    assert record["backend"] == "engine"
    assert record["witness"]["actions"][2] == ["switch_on"]


def test_query_witness_rendering(noinit_file, capsys):
    argv = ["query", noinit_file, "--mode", "credulous", "--goal", "light holds-at 3",
            "--horizon", "4", "--witness"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "true"
    assert "state 3: {light, normal}" in out
    assert "actions 2: switch_on" in out


def test_query_sat_backend_agrees(bulb_file, capsys):
    for mode, expected in (("skeptical", 0), ("credulous", 0)):
        argv = ["query", bulb_file, "--mode", mode, "--goal", "light holds-at 3",
                "--horizon", "4", "--backend", "sat"]
        assert main(argv) == expected
    record_argv = ["query", bulb_file, "--mode", "skeptical", "--goal", "light holds-at 3",
                   "--horizon", "4", "--backend", "sat", "--json"]
    assert main(record_argv) == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(out)["backend"] == "sat"


def test_query_sat_exits_as_engine_outside_fragment(tmp_path):
    path = tmp_path / "loop.e"
    path.write_text(
        "fluent f.\nfluent g.\naction a.\na initiates f.\n"
        "g whenever { f }.\nf whenever { g }.\na happens-at 0.\n"
    )
    for mode, goal in (("credulous", "g holds-at 1"), ("skeptical", "neg g holds-at 1"),
                       ("credulous", "neg f holds-at 1")):
        argv = ["query", str(path), "--mode", mode, "--goal", goal, "--horizon", "1"]
        assert main(argv + ["--backend", "sat"]) == main(argv), (mode, goal)


def test_query_needs_mode_or_file(bulb_file):
    assert main(["query", bulb_file, "--goal", "light holds-at 3"]) == 3


def test_query_budget_exit(noinit_file):
    argv = ["query", noinit_file, "--mode", "skeptical", "--goal", "light holds-at 3",
            "--horizon", "4", "--budget", "1"]
    assert main(argv) == 4


@pytest.mark.parametrize("backend, unit", [("engine", "nodes"), ("sat", "decisions")])
def test_query_budget_message_names_the_unit(noinit_file, backend, unit, capsys):
    # the engine charges trajectory nodes, the clausal backend decisions
    argv = ["query", noinit_file, "--mode", "skeptical", "--goal", "light holds-at 3",
            "--horizon", "4", "--budget", "0", "--backend", backend]
    assert main(argv) == 4
    assert capsys.readouterr().err == "error: search budget of 0 %s exceeded\n" % unit


def test_query_long_horizon_answers(bulb_file, capsys):
    argv = ["query", bulb_file, "--mode", "credulous", "--goal", "light holds-at 3",
            "--horizon", "5000"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.fixture()
def wide_file(tmp_path):
    """2,000 fluent atoms, none observed: every initial state is possible."""
    path = tmp_path / "wide.e"
    path.write_text(
        "sort num: %s.\n" % ", ".join("c%d" % i for i in range(2000))
        + "fluent f(num).\naction poke(num).\npoke(X) initiates f(X).\npoke(c5) happens-at 0.\n"
    )
    return str(path)


def test_query_many_atoms_answers(wide_file, capsys):
    assert main(["query", wide_file, "--mode", "credulous", "--goal", "f(c5) holds-at 1"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_query_many_atoms_hits_budget(wide_file, capsys):
    # g links every f(X) to the goal's component, so proving f(c5) in
    # every model would visit all 2**2000 of its initial states
    with open(wide_file, "a") as fh:
        fh.write("fluent g.\ng whenever { f(X) }.\n")
    argv = ["query", wide_file, "--mode", "skeptical", "--goal", "f(c5) holds-at 1",
            "--budget", "200"]
    assert main(argv) == 4
    assert "budget of 200" in capsys.readouterr().err


def test_query_charges_the_rest_search_to_the_budget(tmp_path, capsys):
    # go's precondition is on atoms no goal reaches: the rest, searched
    # apart, meets its one legal initial state after 1,023 others
    hs = ", ".join("h(c%d)" % i for i in range(10))
    path = tmp_path / "rest.e"
    path.write_text(
        "sort num: %s.\nfluent f.\nfluent h(num).\naction go.\n" % hs.replace("h(", "").replace(")", "")
        + "go initiates f.\ngo needs { %s }.\ngo happens-at 0.\n" % hs
    )
    argv = ["query", str(path), "--mode", "skeptical", "--goal", "f holds-at 1"]
    assert main(argv + ["--budget", "200"]) == 4
    assert capsys.readouterr().err == "error: search budget of 200 nodes exceeded\n"
    assert main(argv + ["--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["atoms_sliced"] == 1 and stats["nodes"] > 1024


def test_query_long_horizon_hits_budget_before_it_allocates(capsys):
    # a million quiet steps: the search runs out of nodes long before it
    # reaches a model, so nothing as long as the horizon is built
    argv = ["query", "corpus:bulb.e", "--goal", "light holds-at 1000000", "--mode", "credulous",
            "--budget", "1000"]
    tracemalloc.start()
    try:
        assert main(argv) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == "error: search budget of 1000 nodes exceeded\n"
    assert peak < 10 * 2**20, peak


@pytest.fixture()
def chain_file(tmp_path):
    """1,100 fluents, each ramifying the next: f(i+1) whenever { f(i) }."""
    n = 1100
    lines = ["fluent f%d." % i for i in range(n)] + ["action go.", "go initiates f0."]
    lines += ["f%d whenever { f%d }." % (i + 1, i) for i in range(n - 1)]
    lines += ["neg f%d holds-at 0." % (n - 1), "go happens-at 0."]
    path = tmp_path / "chain.e"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("backend", ["engine", "sat"])
def test_query_long_ramification_chain_answers(chain_file, backend, capsys):
    argv = ["query", chain_file, "--mode", "skeptical", "--goal", "f1099 holds-at 1",
            "--backend", backend]
    assert main(argv) == 0
    assert capsys.readouterr().out == "true\n"


def query_records(capsys, tmp_path, files, queries, *flags) -> str:
    """The ``elang query FILES --query Q --json --witness`` record of each
    query text, exit code first, one per line."""
    lines = []
    for i, text in enumerate(queries):
        qfile = tmp_path / ("q%d.q" % i)
        qfile.write_text(text + "\n")
        code = main(["query", *files, "--query", str(qfile), "--json", "--witness", *flags])
        lines.append("%d %s" % (code, capsys.readouterr().out))
    return "".join(lines)


# sha256 of query_records over the golden cases, in file order, and over
# WALK_QUERIES on a seeded walk with --slice on, which has no effect; the
# engine and walk records were retaken when every engine answer began to
# decompose by component (``atoms_sliced`` on every answer with a dynamic
# goal, and the walk's exact answers and witnesses); a change that moves a
# counter or a witness retakes them and says so
ANSWER_RECORDS_SHA256 = {
    "engine": "dda7382a88728e01c69dcd8f0c54d18d861c328931fabbf275bbc2f0fa40e2f5",
    "sat": "c12f9bc4d58ee594ea83735be87173b3949248314d4363b95ab3b45154c394e6",
    "walk": "fcddce729235aba0a5ab45019f62af67d4586809352ccb964f69ba734fa9e3f5",
}
WALK_QUERIES = (
    "credulous { hungry(john) holds-at 20 }",
    "skeptical { neg hungry(dumpo) holds-at 12 }",
    "credulous { animal_pos(john, p3) holds-at 1 }",
    "skeptical { neg rides(john, dumpo) holds-at 5 }",
)


@pytest.mark.parametrize("backend", ["engine", "sat"])
def test_golden_records_are_pinned(capsys, tmp_path, backend):
    records = []
    for case in parse_stanzas(corpus_path("golden.cases").read_text(), section="case"):
        files = ["corpus:" + name for name in [case.one("domain"), *case.many("scenario")]]
        records.append(query_records(capsys, tmp_path, files, [case.one("query")], "--backend", backend))
    assert len(records) == 18
    assert hashlib.sha256("".join(records).encode()).hexdigest() == ANSWER_RECORDS_SHA256[backend]


def test_sliced_walk_records_are_pinned(capsys, tmp_path):
    path = tmp_path / "walk.e"
    path.write_text(generate_zoo("direct", 8, include_feed=True) + walk_scenario(8, 20, 2))
    records = query_records(capsys, tmp_path, [str(path)], WALK_QUERIES, "--slice", "on")
    assert hashlib.sha256(records.encode()).hexdigest() == ANSWER_RECORDS_SHA256["walk"]


def test_query_multiple_files_merge(tmp_path):
    base = tmp_path / "base.e"
    base.write_text("fluent f.\naction a.\na initiates f.\n")
    scen = tmp_path / "scen.e"
    scen.write_text("a happens-at 0.\nneg f holds-at 0.\n")
    argv = ["query", str(base), str(scen), "--mode", "skeptical",
            "--goal", "f holds-at 1", "--horizon", "1"]
    assert main(argv) == 0


def test_query_takes_corpus_and_generator_refs():
    argv = ["query", "corpus:bulb.e", "--mode", "skeptical", "--goal", "light holds-at 4"]
    assert main(argv) == 0
    argv = ["query", "gen:direct:4", "corpus:chain_scenario.e", "--mode", "skeptical",
            "--goal", "animal_pos(john, p3) holds-at 4", "--horizon", "6"]
    assert main(argv) == 0


@pytest.mark.parametrize("backend", ["engine", "sat"])
def test_query_slice_flag_has_no_effect(noinit_file, backend, capsys):
    argv = ["query", noinit_file, "--mode", "skeptical", "--goal", "light holds-at 3",
            "--horizon", "4", "--json", "--backend", backend]
    outputs = []
    for flags in ([], ["--slice", "on"], ["--slice", "off"]):
        assert main(argv + flags) == 1
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]


def test_query_file_excludes_goal_and_mode(bulb_file, tmp_path, capsys):
    qfile = tmp_path / "probe.q"
    qfile.write_text("credulous { light holds-at 3 } horizon 4.\n")
    assert main(["query", bulb_file, "--query", str(qfile), "--goal", "light holds-at 2"]) == 3
    assert main(["query", bulb_file, "--query", str(qfile), "--mode", "skeptical"]) == 3
    assert "--query" in capsys.readouterr().err


def test_query_horizon_must_match_query_file(bulb_file, tmp_path, capsys):
    qfile = tmp_path / "probe.q"
    qfile.write_text("credulous { light holds-at 3 } horizon 4.\n")
    assert main(["query", bulb_file, "--query", str(qfile), "--horizon", "5"]) == 3
    assert "horizon" in capsys.readouterr().err
    assert main(["query", bulb_file, "--query", str(qfile), "--horizon", "4"]) == 0
    bare = tmp_path / "bare.q"
    bare.write_text("credulous { light holds-at 3 }.\n")
    assert main(["query", bulb_file, "--query", str(bare), "--horizon", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["horizon"] == 5


@pytest.mark.parametrize("command", ["check", "query", "corpus"])
def test_negative_budget_is_a_usage_error(bulb_file, command, capsys):
    argv = {
        "check": ["check", bulb_file],
        "query": ["query", bulb_file, "--mode", "credulous", "--goal", "light holds-at 3"],
        "corpus": ["corpus", "verify"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "-1"])
    assert exc.value.code == 3
    assert "budget" in capsys.readouterr().err


BAD_REFS = ["corpus:no_such_domain.e", "no/such/file.e", "gen:dual", "gen:bogus:4"]


@pytest.mark.parametrize("ref", BAD_REFS)
def test_check_bad_reference_exits_three(ref, capsys):
    assert main(["check", ref]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("ref", BAD_REFS)
def test_query_bad_reference_exits_three(ref, capsys):
    assert main(["query", ref, "--mode", "credulous", "--goal", "light holds-at 1"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("backend", ["engine", "sat"])
def test_query_goal_outside_its_sort_exits_three(backend, tmp_path, capsys):
    # p9 is no position and p1 no animal: a usage error, inline or from a
    # query file, on both backends
    files = ["corpus:zoo_direct.e", "corpus:zoo_scenario_base.e"]
    query = tmp_path / "goal.q"
    for goal, column, message in (
        ("neighbor_pos(p1, p9) holds-at 0", 30, "constant p9 is not of sort position"),
        ("animal_pos(p1, p9) holds-at 0", 24, "constant p1 is not of sort animal"),
    ):
        query.write_text("credulous { %s }\n" % goal)
        # the message names the query file, or <query> for an inline goal
        for argv, at in ((["--mode", "credulous", "--goal", goal], "<query>"), (["--query", str(query)], query)):
            assert main(["query", *files, *argv, "--backend", backend]) == 3
            assert capsys.readouterr().err == "error: %s:1:%d: %s\n" % (at, column, message)


def test_domain_constant_outside_its_sort_is_reported_by_validate(tmp_path, capsys):
    path = tmp_path / "sorts.e"
    path.write_text("sort s: a. fluent f(s). f(b) holds-at 0.\n")
    assert main(["check", str(path)]) == 3
    assert "error sort-mismatch: statement 1: constant b is not of sort s" in capsys.readouterr().out


@pytest.mark.parametrize("ref", BAD_REFS)
def test_ground_bad_reference_exits_three(ref, capsys):
    assert main(["ground", "corpus:zoo_direct.e", ref, "--horizon", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("ref", BAD_REFS)
def test_bench_bad_reference_exits_three(ref, tmp_path, capsys):
    spec = tmp_path / "bad_ref.spec"
    spec.write_text(
        "family = representation\n"
        "domain = %s\n"
        "query = credulous { } horizon 2\n"
        "repeats = 1\n" % ref
    )
    assert main(["bench", str(spec), "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_ground_stats_default(bulb_file, capsys):
    assert main(["ground", bulb_file, "--horizon", "4"]) == 0
    out = capsys.readouterr().out
    assert "fluent atoms" in out


def test_ground_dump(bulb_file, capsys):
    assert main(["ground", bulb_file, "--horizon", "4", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "switch_on initiates light" in out


def test_ground_dump_marks_a_precondition_that_never_holds(tmp_path, capsys):
    # c(x) is false, so a(x)'s precondition never holds and the scheduled
    # a(x) makes the narrative inconsistent; a(y)'s holds where f is false
    path = tmp_path / "never.e"
    path.write_text(
        "sort s: x, y. constant fluent c(s). fluent f. action a(s). c(y) holds-at 0. "
        "a(S) initiates f. a(S) needs { c(S), neg f }. a(x) happens-at 0.\n"
    )
    assert main(["ground", str(path), "--dump"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "a(x) needs { neg f }. % never holds" in lines
    assert "a(y) needs { neg f }." in lines
    assert main(["check", str(path)]) == 2


def test_ground_dimacs(bulb_file, tmp_path, capsys):
    target = tmp_path / "bulb.cnf"
    assert main(["ground", bulb_file, "--horizon", "4", "--dimacs", str(target)]) == 0
    text = target.read_text()
    assert text.splitlines()[0].startswith("c var 1 ")
    [header] = [line.split() for line in text.splitlines() if line.startswith("p cnf ")]
    # the printed count is the header's: every clause written, the state
    # constraints once per time point
    assert "(%s vars, %s clauses)" % (header[2], header[3]) in capsys.readouterr().out
    assert int(header[3]) == sum(not line.startswith(("c ", "p ")) for line in text.splitlines())


def test_ground_dimacs_rejects_nonfragment(tmp_path):
    path = tmp_path / "loop.e"
    path.write_text("fluent f.\nfluent g.\ng whenever { f }.\nf whenever { g }.\n")
    target = tmp_path / "loop.cnf"
    assert main(["ground", str(path), "--horizon", "1", "--dimacs", str(target)]) == 3
    assert not target.exists()


def test_ground_dimacs_exports_effect_conflicts(tmp_path):
    # acyclic, so every model of the clauses is a trajectory: the fragment
    # holds the clash, and the export takes it
    path = tmp_path / "clash.e"
    path.write_text(
        "fluent f.\naction a.\naction b.\na initiates f.\nb terminates f.\n"
        "a happens-at 0.\nb happens-at 0.\n"
    )
    th = ground(load_domain(str(path)), 1)
    assert effect_conflicts(th) and check_fragment(th).accepted
    target = tmp_path / "clash.cnf"
    assert main(["ground", str(path), "--horizon", "1", "--dimacs", str(target)]) == 0
    assert "p cnf 6 12" in target.read_text().splitlines()


def test_bench_subcommand(tmp_path, capsys):
    spec = tmp_path / "tiny.spec"
    spec.write_text(
        "name = tiny\n"
        "family = representation\n"
        "domain = corpus:zoo_direct.e\n"
        "scenario = corpus:chain_scenario.e\n"
        "query = credulous { animal_pos(dumpo,p3) holds-at 3 } horizon 4\n"
        "repeats = 1\n"
        "horizon = 4\n"
    )
    out_dir = tmp_path / "results"
    assert main(["bench", str(spec), "--out", str(out_dir)]) == 0
    assert (out_dir / "tiny.tsv").exists()
    assert (out_dir / "tiny.jsonl").exists()


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_repeats_below_one_exits_three(repeats, tmp_path, capsys):
    spec = tmp_path / "tiny.spec"
    spec.write_text(
        "family = representation\ndomain = corpus:bulb.e\n"
        "query = credulous { light holds-at 1 } horizon 2\n"
    )
    assert main(["bench", str(spec), "--out", str(tmp_path / "r"), "--repeats", repeats]) == 3
    assert "repeats must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_bench_bad_spec(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("family = unheard_of\n")
    assert main(["bench", str(spec), "--out", str(tmp_path / "r")]) == 3


BAD_SPECS = [
    "family = representation\ndomain = corpus:zoo_direct.e\nbudget = lots\n",
    "family = representation\ndomain = corpus:zoo_direct.e\nhorizon = 4.5\n",
    "family = irrelevance\ndomain = corpus:zoo_direct.e\ninject = some\n",
    "family = completeness\n",  # no domain
    "family = representation\ndomain = corpus:zoo_direct.e\nrepeats = 0\n",
]


@pytest.mark.parametrize("text", BAD_SPECS, ids=["budget", "horizon", "inject", "no-domain", "repeats"])
def test_bench_bad_spec_value_exits_three(text, tmp_path, capsys):
    spec = tmp_path / "bad_value.spec"
    spec.write_text(text + "query = credulous { } horizon 2\n")
    assert main(["bench", str(spec), "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "bulb.e" in out and "golden.cases" in out


def test_corpus_show(capsys):
    assert main(["corpus", "show", "bulb.e"]) == 0
    assert capsys.readouterr().out == corpus_path("bulb.e").read_text()
    assert main(["corpus", "show", "missing.e"]) == 3


def test_corpus_generate(capsys):
    assert main(["corpus", "generate", "indirect:4"]) == 0
    out = capsys.readouterr().out
    assert "sort position: p1, p2, p3, p4." in out
    # the references load_domain reads as gen:..., and a bare variant at 6
    for name, variant, positions, feed in (
        ("direct:6:feed", "direct", 6, True),
        ("dual:15", "dual", 15, False),
        ("dual", "dual", 6, False),
    ):
        assert main(["corpus", "generate", name]) == 0
        assert capsys.readouterr().out == generate_zoo(variant, positions, include_feed=feed), name
    for name in ("bogus:4", "direct:16", "direct:6:food", "direct:six", "direct:6:feed:x", "direct:feed"):
        assert main(["corpus", "generate", name]) == 3, name
        assert capsys.readouterr().err.startswith("error: bad generator reference %r" % name), name


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no_such_command"])
    assert exc.value.code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("elang ")
