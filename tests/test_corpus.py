"""Bundled corpus: files in sync with generators, golden regressions."""

import re

import pytest

from elang import corpus
from elang.corpus import (
    CORPUS_HORIZONS,
    VARIANTS,
    ZOO_SCENARIOS,
    corpus_path,
    generate_zoo,
    load_corpus,
    load_domain,
    load_golden,
    run_golden,
)
from elang.grounding import ground
from elang.model import Atom
from elang.parser import parse_query

from oracles import precondition_instances


def test_data_files_match_generators():
    for variant in VARIANTS:
        assert corpus_path("zoo_%s.e" % variant).read_text() == generate_zoo(variant, 6)
    assert corpus_path("zoo_dual_feed.e").read_text() == generate_zoo(
        "dual", 6, include_feed=True
    )


def test_every_domain_grounds_at_its_horizon():
    pairs = load_corpus()
    assert len(pairs) == len(CORPUS_HORIZONS)
    assert any(cases for _, cases in pairs)


def test_variants_share_signature():
    base = load_domain("corpus:zoo_direct.e")
    for variant in ("zoo_indirect.e", "zoo_dual.e"):
        other = load_domain("corpus:" + variant)
        assert other.signature.sorts == base.signature.sorts
        assert set(other.signature.fluents) == set(base.signature.fluents)
        dynamic = {n for n, d in other.signature.fluents.items() if not d.constant}
        assert dynamic == {"animal_pos", "rides", "reachable"}
    fed = load_domain("corpus:zoo_dual_feed.e")
    assert set(fed.signature.actions) - set(base.signature.actions) == {"feed_animal"}


def test_terrain_neighbours_of_p1_are_stable():
    # p1 keeps the same two neighbours at every size so queries about the
    # first position mean the same thing across the scaling sweep
    for n in range(3, 16):
        text = generate_zoo("direct", n)
        edges = set(re.findall(r"neighbor_pos\((p\d+), (p\d+)\) holds-at 0", text))
        edges |= set(re.findall(r"gate_connects\(g\d+, (p\d+), (p\d+)\) holds-at 0", text))
        adjacency = edges | {(b, a) for a, b in edges}
        n1 = {b for a, b in adjacency if a == "p1"}
        assert n1 == {"p2", "p3"}, n


def test_gates_connect_the_two_cages():
    text = generate_zoo("direct", 6)
    gates = re.findall(r"gate_connects\((g\d+), (p\d+), (p\d+)\) holds-at 0", text)
    assert len(gates) == 2
    assert {g for g, _, _ in gates} == {"g1", "g2"}


def test_scenarios_merge_with_every_variant():
    for variant in VARIANTS:
        for scen in ZOO_SCENARIOS:
            domain = load_domain("corpus:zoo_%s.e" % variant, "corpus:" + scen)
            ground(domain, 6)


def test_landscape_grounds():
    th = corpus.ground_corpus_domain("zoo_landscape.e")
    assert th.horizon == 1
    assert any(a.name == "animal_is_large" for a in th.constant_values)


def test_golden_list_shape():
    cases = load_golden()
    assert len(cases) == 18
    names = [c.name for c in cases]
    assert len(set(names)) == len(names)
    assert {c.source for c in cases} == {"stated", "derived"}
    assert all(c.expect in ("true", "false", "domain-inconsistent") for c in cases)
    domains = {c.domain for c in cases}
    assert "bulb.e" in domains and "zoo_dual.e" in domains


def test_golden_cases_all_pass():
    report = run_golden()
    rendered = report.render()
    assert report.ok, "\n" + rendered
    assert rendered.count("PASS") == 18


def test_query_files_parse():
    q = parse_query(corpus_path("bulb_skeptical.q").read_text())
    assert q.mode == "skeptical" and q.horizon == 4
    q = parse_query(corpus_path("bulb_credulous.q").read_text())
    assert q.mode == "credulous"


def test_bulb_files_answer_as_documented():
    from elang.query import answer

    d = load_domain("corpus:bulb.e")
    q = parse_query(corpus_path("bulb_skeptical.q").read_text())
    assert answer(d, q).answer == "true"
    noinit = load_domain("corpus:bulb_noinit.e")
    assert answer(noinit, q).answer == "false"
    qc = parse_query(corpus_path("bulb_credulous.q").read_text())
    assert answer(noinit, qc).answer == "true"


def test_mount_without_position_constraint_dies_by_denial():
    # mounting from apart is not blocked by a precondition; those branches
    # are removed by the state constraints instead, so the occurrence at 3
    # forces john onto dumpo in every surviving model
    th = corpus.ground_corpus_domain("zoo_dual.e")
    mounts = [a for acts in th.occurrences.values() for a in acts if a.name == "mount_animal"]
    assert not any(
        action == m for m in mounts for action, _, _ in precondition_instances(th)
    ), "mount gained a precondition; golden skeptical cases rely on none"
