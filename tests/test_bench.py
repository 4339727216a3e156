"""Benchmark harness: spec parsing, domain refs, timing, result tables."""

import json
import re
from pathlib import Path

import pytest

from elang.bench import (
    REFERENCE_INSTANCES_AT_15,
    domain_label,
    enrich_with_conclusions,
    ground_for,
    inject_irrelevant,
    load_spec,
    parse_spec,
    run_experiment,
    time_answer,
)
from elang.corpus import DomainRefError, load_domain
from elang.grounding import ground
from elang.model import HProp
from elang.specfiles import SpecError


def spec_text(**overrides):
    base = {
        "name": "t",
        "family": "representation",
        "domain": "corpus:zoo_direct.e",
        "scenario": "corpus:chain_scenario.e",
        "query": "skeptical { animal_pos(dumpo,p3) holds-at 3 } horizon 4",
        "repeats": "1",
    }
    base.update(overrides)
    lines = []
    for k, v in base.items():
        if v is None:
            continue
        if isinstance(v, (list, tuple)):
            lines += ["%s = %s" % (k, item) for item in v]
        else:
            lines.append("%s = %s" % (k, v))
    return "\n".join(lines) + "\n"


def test_parse_spec_fields():
    spec = parse_spec(spec_text(inject=["0", "2"], sizes="3 5", budget="100"))
    assert spec.family == "representation"
    assert spec.domains == ["corpus:zoo_direct.e"]
    assert spec.inject == [0, 2]
    assert spec.sizes == [3, 5]
    assert spec.budget == 100
    assert spec.repeats == 1


def test_parse_spec_rejects_bad_values():
    with pytest.raises(SpecError):
        parse_spec(spec_text(family="nonsense"))
    with pytest.raises(SpecError):
        parse_spec(spec_text(backend="z3"))
    # every engine answer decomposes, so there is no slice to choose
    with pytest.raises(SpecError, match="unknown key 'slice'"):
        parse_spec(spec_text(slice="on"))
    with pytest.raises(SpecError):
        parse_spec(spec_text() + "\n[extra]\nname = x\n")
    with pytest.raises(SpecError, match="unknown key 'backnd'"):
        parse_spec(spec_text(backnd="sat"))
    for key in ("budget", "horizon", "inject", "sizes", "repeats"):
        with pytest.raises(SpecError, match=key):
            parse_spec(spec_text(**{key: "lots"}))
    with pytest.raises(SpecError, match="sizes"):
        parse_spec(spec_text(family="scaling", sizes="3 five"))
    for family in ("completeness", "irrelevance", "representation"):
        with pytest.raises(SpecError, match="needs a domain"):
            parse_spec(spec_text(family=family, domain=None))
    assert parse_spec(spec_text(family="scaling", domain=None, sizes="3")).domains == []


def test_resolve_domain_refs(tmp_path):
    d = load_domain("corpus:bulb.e")
    assert "light" in d.signature.fluents
    gen = load_domain("gen:indirect:4")
    assert len(gen.signature.sorts["position"]) == 4
    assert "feed_animal" not in gen.signature.actions
    fed = load_domain("gen:dual:3:feed")
    assert "feed_animal" in fed.signature.actions
    path = tmp_path / "tiny.e"
    path.write_text("fluent f.\nf holds-at 0.\n")
    assert "f" in load_domain(str(path)).signature.fluents
    with pytest.raises(DomainRefError):
        load_domain("corpus:no_such_domain.e")
    with pytest.raises(DomainRefError):
        load_domain("gen:bogus:4")
    with pytest.raises(DomainRefError):
        load_domain("gen:dual:3:food")
    with pytest.raises(DomainRefError):
        load_domain(str(tmp_path / "missing.e"))
    with pytest.raises(DomainRefError):
        load_domain(str(tmp_path))  # a directory
    merged = load_domain("corpus:zoo_dual.e", "corpus:zoo_scenario_base.e")
    alone = load_domain("corpus:zoo_dual.e")
    assert len(merged.propositions) > len(alone.propositions)


def test_domain_label():
    assert domain_label("corpus:zoo_direct.e") == "zoo_direct"
    assert domain_label("gen:dual:6:feed") == "dual-6-feed"
    assert domain_label("/some/dir/file.e") == "file"


def test_inject_irrelevant_adds_disjoint_occurrences():
    domain = load_domain("gen:dual:3:feed")
    base_occ = sum(isinstance(p, HProp) for p in domain.propositions)
    bigger = inject_irrelevant(domain, 3, horizon=6)
    occs = [p for p in bigger.propositions if isinstance(p, HProp)]
    assert len(occs) == base_occ + 3
    assert all(o.action.name == "feed_animal" for o in occs[base_occ:])
    # the original description is untouched
    assert sum(isinstance(p, HProp) for p in domain.propositions) == base_occ
    with pytest.raises(SpecError):
        inject_irrelevant(load_domain("gen:dual:3"), 1, horizon=6)


def test_enrich_keeps_only_necessary_conclusions():
    domain = load_domain("corpus:zoo_direct.e", "corpus:chain_scenario.e")
    theory = ground(domain, 4)
    probes = [
        "animal_pos(dumpo,p3) holds-at 3.",   # forced by the move chain
        "animal_pos(dumpo,p2) holds-at 3.",   # false at 3
    ]
    enriched, added = enrich_with_conclusions(domain, theory, probes, budget=None)
    assert added == 1
    assert len(enriched.propositions) == len(domain.propositions) + 1


def test_time_answer_median_and_determinism():
    domain = load_domain("corpus:bulb.e")
    theory = ground(domain, 4)
    timed = time_answer(
        theory,
        "credulous { light holds-at 3 } horizon 4",
        domain,
        repeats=3,
        budget=None,
        backend="engine",
    )
    assert timed.answer == "true"
    assert timed.stats["atoms_sliced"] == 2 and timed.stats["nodes"] > 0
    assert len(timed.runs) == 3
    assert timed.median_s == sorted(timed.runs)[1]


def test_reference_constant():
    assert REFERENCE_INSTANCES_AT_15 == 25000


def test_representation_family_end_to_end(tmp_path):
    spec = parse_spec(spec_text(domain=["corpus:zoo_direct.e"], repeats="1"))
    table = run_experiment(spec)
    assert table.columns[0] == "domain"
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["domain"] == "zoo_direct"
    assert row["fragment"] is True
    assert row["agree"] is True
    paths = table.write(tmp_path)
    tsv = (tmp_path / "t.tsv").read_text()
    assert tsv.startswith("%")
    meta = json.loads(tsv.splitlines()[0][1:].strip())
    assert meta["name"] == "t" and meta["family"] == "representation"
    header = tsv.splitlines()[1].split("\t")
    cells = dict(zip(header, tsv.splitlines()[2].split("\t")))
    assert cells["fragment"] == "yes" and cells["agree"] == "yes"
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["record"] == "meta"
    assert json.loads(lines[1])["domain"] == "zoo_direct"
    assert {p.name for p in paths} == {"t.tsv", "t.jsonl"}


def test_representation_family_marks_domains_outside_the_fragment(tmp_path):
    domains = ["corpus:zoo_direct.e", "corpus:zoo_indirect.e"]
    spec = parse_spec(spec_text(domain=domains, backend="sat", repeats="1"))
    table = run_experiment(spec)
    direct, indirect = table.rows
    assert direct["fragment"] is True and direct["answer"] == "true"
    assert direct["agree"] is True and direct["median_ms"] >= 0
    # outside the fragment the row is marked, and answered as on the engine
    engine = run_experiment(parse_spec(spec_text(domain=domains, backend="engine", repeats="1")))
    assert indirect["fragment"] is False
    assert indirect["answer"] == engine.rows[1]["answer"] == "true"
    assert indirect["agree"] is True and indirect["median_ms"] >= 0
    table.write(tmp_path)
    tsv = (tmp_path / "t.tsv").read_text().splitlines()
    cells = dict(zip(tsv[1].split("\t"), tsv[3].split("\t")))
    assert cells["fragment"] == "no"
    assert [cells[c] for c in ("answer", "agree")] == ["true", "yes"]
    record = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[2])
    assert record["domain"] == "zoo_indirect"
    assert (record["fragment"], record["answer"], record["agree"]) == (False, "true", True)
    # with the first listed domain outside, the others agree against it
    spec.domains.reverse()
    indirect, direct = run_experiment(spec).rows
    assert indirect["agree"] is True
    assert direct["answer"] == "true" and direct["agree"] is True


def test_scaling_family_small_sizes():
    text = spec_text(
        family="scaling",
        domain=None,
        scenario="corpus:chain_scenario.e",
        variant="direct",
        sizes="3 4",
        horizon="4",
        query="credulous { animal_pos(dumpo,p3) holds-at 3 } horizon 4",
    )
    table = run_experiment(parse_spec(text))
    assert [r["positions"] for r in table.rows] == [3, 4]
    row = table.rows[0]
    assert row["total_instances"] > 0
    assert row["atoms"] > 0
    assert "reference_instances" not in row
    assert row["answer_q0"] == "true"
    # the reference constant appears only on the size-15 row
    tsv_rows = table.to_tsv().splitlines()[2:]
    ref_col = table.columns.index("reference_instances")
    assert {line.split("\t")[ref_col] for line in tsv_rows} == {"-"}


def test_irrelevance_family_small():
    text = spec_text(
        family="irrelevance",
        domain="gen:dual:3:feed",
        scenario="corpus:chain_scenario.e",
        inject=["0", "1"],
        horizon="4",
        query="skeptical { animal_pos(dumpo,p3) holds-at 3 } horizon 4",
    )
    table = run_experiment(parse_spec(text))
    assert [r["injected"] for r in table.rows] == [0, 1]
    assert all(row["agree"] is True for row in table.rows)
    # the fed animals' atoms are the rest, searched apart from the goal's
    # components: the injected occurrence costs the search no node
    before, after = (row["stats"] for row in table.rows)
    assert before["nodes"] == after["nodes"] and before["atoms_sliced"] < before["atoms_total"]
    assert json.loads(table.to_tsv().splitlines()[2].split("\t")[-1]) == before


def test_completeness_family_small():
    text = spec_text(
        family="completeness",
        domain="corpus:zoo_direct.e",
        scenario="corpus:chain_scenario.e",
        horizon="4",
        enrich="animal_pos(dumpo,p3) holds-at 3.",
        query="skeptical { animal_pos(dumpo,p3) holds-at 3 } horizon 4",
    )
    table = run_experiment(parse_spec(text))
    assert [r["level"] for r in table.rows] == ["base", "enriched"]
    base, enriched = table.rows
    assert base["added_observations"] == 0
    assert enriched["added_observations"] == 1
    assert base["answer"] == enriched["answer"] == "true"


def test_load_spec_roundtrip(tmp_path):
    p = tmp_path / "probe.spec"
    p.write_text(spec_text())
    spec = load_spec(p)
    assert spec.name == "t"


def test_bench_record_times_cases_and_specs(tmp_path):
    # scripts/run_experiments.py --bench: golden cases, specs, environment
    import importlib.util
    from pathlib import Path

    from elang.corpus import load_golden

    root = Path(__file__).resolve().parent.parent
    loader = importlib.util.spec_from_file_location("run_experiments", root / "scripts" / "run_experiments.py")
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    spec = tmp_path / "t.spec"
    spec.write_text(spec_text())
    cases = [c for c in load_golden() if c.domain == "bulb.e"]
    record = script.bench(cases, [spec], 1)
    assert [g["name"] for g in record["golden"]] == [c.name for c in cases]
    assert all(g["ok"] and g["seconds"] >= 0 and g["sat_seconds"] >= 0 for g in record["golden"])
    assert record["golden_sat_seconds"] == round(sum(g["sat_seconds"] for g in record["golden"]), 4)
    assert [(s["name"], s["repeats"]) for s in record["specs"]] == [("t", 1)]
    assert set(record["environment"]) == {"python", "platform", "nproc", "commit", "dirty"}
    sources = sorted((root / "src" / "elang").glob("**/*.py"))
    assert record["src_lines"] == sum(len(p.read_text().splitlines()) for p in sources)
    json.dumps(record)
    with pytest.raises(SpecError, match="repeats must be at least 1"):
        script.bench([], [spec], 0)


def test_readme_lists_every_bench_record():
    # README's Performance section names each BENCH_<n>.json at the root
    root = Path(__file__).resolve().parent.parent
    listed = re.findall(r"^- `(BENCH_\d+\.json)`", (root / "README.md").read_text(), re.M)
    assert sorted(listed) == sorted(path.name for path in root.glob("BENCH_*.json"))
