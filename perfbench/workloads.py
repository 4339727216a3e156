"""The benchmark's three workloads, as passes of checked requests.

A request is one question put to the program, timed on its own and
checked against an answer known without the program: the ``expect`` line
of ``golden.cases`` for ``golden``, the walk oracle of ``walks.py`` for
the two walk workloads.  A pass is the fixed list of requests a run
repeats, with fresh inputs on every pass, until its time is up.

* ``golden`` puts the 18 golden cases to ``elang query FILES --query Q
  --json`` with the CLI defaults, in seeded order.  The seed changes only
  that order.  Three wide cases on the dual and indirect zoo take most of
  a pass.
* ``walk_engine`` asks three ``elang query ... --slice on --json``
  questions of each of ten seeded walks, one walk for every terrain size
  from 6 to 15 positions, at horizons from 40 to 120.  Every request reads,
  parses and grounds its files again.
* ``walk_sat`` holds one session per walk, as ``elang bench`` uses the
  library: the narrative is parsed and grounded once, then its three
  queries go to ``answer_sat`` on the held theory.  Its horizons, 10 to
  25, are shorter than ``walk_engine``'s, because one clausal answer costs
  several engine answers at the same size.

Requests call ``elang`` in-process, through module attributes looked up
at call time, so that ``tracing.py`` can time them where they are called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import walks

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "elang" / "corpus" / "data"
WORKLOADS = ("golden", "walk_engine", "walk_sat")

EXIT_CODES = {"true": 0, "false": 1, "domain-inconsistent": 2}

# (positions, horizon) of the walks in one pass, listed before the seed
# shuffles them: every size once, with horizons spread over the range so
# that each pass costs about the same
ENGINE_SIZES = (
    (6, 120), (7, 60), (8, 100), (9, 40), (10, 80),
    (11, 120), (12, 60), (13, 100), (14, 40), (15, 80),
)
SAT_SIZES = (
    (6, 25), (7, 12), (8, 22), (9, 10), (10, 16),
    (11, 25), (12, 12), (13, 22), (14, 10), (15, 16),
)
GOLDEN_WARMUP = "direct-chain-carried-to-p3"
WARMUP_SIZE = (6, 20)


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], None]  # raises RequestFailed on a wrong answer


class RequestFailed(Exception):
    pass


@dataclass
class Pass:
    requests: list[Request]
    texts: list[str]  # every generated input, in order, for the digest


# ---------------------------------------------------------------------------
# Calling the program


def cli_request(label: str, argv: list[str], expect: str) -> Request:
    """One ``elang`` command run in-process; the exit code and the JSON
    answer must both match ``expect``."""

    def run() -> None:
        from elang import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        if code != EXIT_CODES[expect]:
            raise RequestFailed("exit %s, expected %d: %s" % (code, EXIT_CODES[expect], err.getvalue().strip()))
        answer = json.loads(out.getvalue())["answer"]
        if answer != expect:
            raise RequestFailed("answered %s, expected %s" % (answer, expect))

    return Request(label, run)


def sat_session(walk: walks.Walk, domain_text: str) -> list[Request]:
    """The queries of one walk on a theory parsed and ground by the first."""
    from elang import grounding, parser, sat

    held = {}

    def theory():
        if not held:
            unit = parser.parse_domain(domain_text, file="domain.e")
            extra = parser.parse_domain(walk.scenario, file="walk.e", base_signature=unit.domain.signature)
            unit.domain.propositions.extend(extra.domain.propositions)
            held["domain"] = unit.domain
            held["theory"] = grounding.ground(unit.domain, walk.horizon)
        return held["domain"], held["theory"]

    def request(i: int, query: walks.Query) -> Request:
        def run() -> None:
            domain, th = theory()
            result = sat.answer_sat(th, parser.parse_query(query.text, domain.signature))
            if i == len(walk.queries) - 1:
                held.clear()  # the session ends and lets go of its theory
            if result.answer != query.expect:
                raise RequestFailed("answered %s, expected %s" % (result.answer, query.expect))

        return Request("%s/q%d" % (walk.name, i), run)

    return [request(i, q) for i, q in enumerate(walk.queries)]


# ---------------------------------------------------------------------------
# Inputs


def golden_cases() -> list[dict]:
    """The golden cases as dicts of name, domain, scenarios, query and
    expect, read with the stanza rules of ``docs/formats.md``."""
    cases = []
    for block in (CORPUS / "golden.cases").read_text().split("[case]")[1:]:
        case = {"scenarios": []}
        for raw in block.splitlines():
            line = raw.split("%", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "scenario":
                case["scenarios"].append(value)
            else:
                case[key] = value
        cases.append(case)
    return cases


def _golden_request(case: dict, work: Path) -> tuple[Request, str]:
    qfile = work / ("%s.q" % case["name"])
    qfile.write_text(case["query"] + "\n")
    files = [str(CORPUS / case["domain"])] + [str(CORPUS / s) for s in case["scenarios"]]
    argv = ["query", *files, "--query", str(qfile), "--json"]
    text = "\n".join([case["name"], case["query"], case["expect"]] + [Path(f).read_text() for f in files])
    return cli_request(case["name"], argv, case["expect"]), text


def _domain_text(positions: int) -> str:
    from elang.corpus import generate_zoo

    return generate_zoo("direct", positions, include_feed=True)


def _walk_files(walk: walks.Walk, work: Path) -> tuple[list[Request], list[str]]:
    domain = _domain_text(walk.positions)
    dfile = work / ("zoo_direct_feed_%d.e" % walk.positions)
    dfile.write_text(domain)
    sfile = work / ("%s.e" % walk.name)
    sfile.write_text(walk.scenario)
    requests, texts = [], [domain, walk.scenario]
    for i, query in enumerate(walk.queries):
        qfile = work / ("%s.q%d" % (walk.name, i))
        qfile.write_text(query.text)
        argv = ["query", str(dfile), str(sfile), "--query", str(qfile), "--slice", "on", "--json"]
        requests.append(cli_request("%s/q%d" % (walk.name, i), argv, query.expect))
        texts.append(query.text)
    return requests, texts


def pass_walks(workload: str, seed: int, index: int) -> list[walks.Walk]:
    """The walks of pass ``index`` of a walk workload, in the order asked."""
    sizes = list(ENGINE_SIZES if workload == "walk_engine" else SAT_SIZES)
    random.Random("%s:%s:pass%d" % (workload, seed, index)).shuffle(sizes)
    return [
        walks.make_walk(seed, index * len(sizes) + k, positions, horizon)
        for k, (positions, horizon) in enumerate(sizes)
    ]


def make_pass(workload: str, seed: int, index: int, work: Path) -> Pass:
    """Pass ``index`` of ``workload`` for ``seed``.  Files it needs are
    written under ``work``."""
    requests: list[Request] = []
    texts: list[str] = []
    if workload == "golden":
        cases = golden_cases()
        random.Random("%s:%s:pass%d" % (workload, seed, index)).shuffle(cases)
        for case in cases:
            request, text = _golden_request(case, work)
            requests.append(request)
            texts.append(text)
        return Pass(requests, texts)
    for walk in pass_walks(workload, seed, index):
        if workload == "walk_engine":
            reqs, more = _walk_files(walk, work)
        else:
            domain = _domain_text(walk.positions)
            reqs, more = sat_session(walk, domain), [domain, walk.scenario, *(q.text for q in walk.queries)]
        requests += reqs
        texts += more
    return Pass(requests, texts)


def warmup_walk() -> walks.Walk:
    return walks.make_walk("warmup", 0, *WARMUP_SIZE)


def warmup_request(workload: str, work: Path) -> Request:
    """One small request of the workload's own kind, the same for every
    seed, so that set-up time does not vary with the seed: a fixed golden
    case, or a small fixed walk."""
    if workload == "golden":
        case = next(c for c in golden_cases() if c["name"] == GOLDEN_WARMUP)
        return _golden_request(case, work)[0]
    walk = warmup_walk()
    if workload == "walk_engine":
        return _walk_files(walk, work)[0][0]
    return sat_session(walk, _domain_text(walk.positions))[0]
