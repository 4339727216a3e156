#!/usr/bin/env python3
"""Checks that the benchmark measures what it claims.

    python3 perfbench/selfcheck.py

Run from the repository root; it takes a few minutes and exits 1 on the
first failed check.

1. The same seed gives byte-identical inputs, also across processes with
   different string hashing.
2. Every narrative the walk workloads generate is inside the clausal
   fragment.
3. On small terrains and horizons the walk oracle agrees with both
   backends: the engine finds exactly one model, the state of that model
   and of the SAT backend's model match the oracle's replay atom by atom,
   and every generated query gets the oracle's answer from ``answer_theory``
   (with and without slicing) and from ``answer_sat``.
4. A short run of each workload fails no request.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import walks  # noqa: E402
import workloads  # noqa: E402

def fail(message: str) -> None:
    print("FAIL " + message)
    sys.exit(1)


def digests(seed: int) -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in workloads.WORKLOADS:
            texts = []
            for index in range(2):
                texts += workloads.make_pass(workload, seed, index, Path(tmp)).texts
            out[workload] = walks.digest(texts)
    return out


def check_determinism() -> None:
    mine = digests(7)
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, str(HERE / "selfcheck.py"), "--digests", "7"],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        if json.loads(proc.stdout) != mine:
            fail("inputs for seed 7 differ between processes")
    if digests(8) == mine:
        fail("seeds 7 and 8 gave the same inputs")
    print("ok   same seed, same inputs: %s" % mine)


def load(walk: walks.Walk):
    from elang.corpus import generate_zoo
    from elang.grounding import ground
    from elang.parser import parse_domain

    unit = parse_domain(generate_zoo("direct", walk.positions, include_feed=True))
    extra = parse_domain(walk.scenario, base_signature=unit.domain.signature)
    unit.domain.propositions.extend(extra.domain.propositions)
    return unit.domain, ground(unit.domain, walk.horizon)


def check_fragment_membership() -> None:
    from elang.sat import check_fragment

    count = 0
    for workload, seeds in (("walk_engine", (0,)), ("walk_sat", (0, 1, 2))):
        for seed in seeds:
            for walk in workloads.pass_walks(workload, seed, 0) + [workloads.warmup_walk()]:
                report = check_fragment(load(walk)[1])
                if not report.accepted:
                    fail("%s is outside the fragment: %s" % (walk.name, report.violations[:2]))
                count += 1
    print("ok   %d generated narratives inside the clausal fragment" % count)


def witness_matches(witness, walk: walks.Walk, states) -> bool:
    for t, true_atoms in enumerate(witness["states"]):
        shown = set(true_atoms)
        for atom in walks.atoms(walk.positions):
            if (atom.replace(" ", "") in shown) != walks.holds(states[t], walk.positions, atom):
                return False
    return True


def replay(walk: walks.Walk):
    """The oracle's states, rebuilt from the narrative text."""
    start_pos, hungry, steps = {}, {}, []
    feeds: dict[int, str] = {}
    for line in walk.scenario.splitlines():
        if line.startswith("animal_pos("):
            animal, place = line[len("animal_pos("):line.index(")")].split(", ")
            start_pos[animal] = place
        elif line.startswith("hungry(") or line.startswith("neg hungry("):
            hungry[line[line.index("(") + 1:line.index(")")]] = not line.startswith("neg")
        elif line.startswith("move_to_position("):
            mover, target = line[len("move_to_position("):line.index(")")].split(", ")
            steps.append([mover, target, None])
        elif line.startswith("feed_animal("):
            feeds[int(line.rsplit(" ", 1)[1].rstrip("."))] = line[len("feed_animal("):line.index(")")]
    for t, animal in feeds.items():
        steps[t][2] = animal
    return walks.simulate(start_pos, hungry, [walks.Step(*s) for s in steps])


def check_oracle() -> None:
    from elang.parser import parse_query
    from elang.query import answer_theory, count_models
    from elang.sat import answer_sat

    asked = 0
    for seed in range(4):
        for positions in (3, 4, 5, 6, 7):
            for horizon in (1, 3, 6, 10):
                walk = walks.make_walk(seed, 0, positions, horizon)
                domain, theory = load(walk)
                states = replay(walk)
                if count_models(theory) != 1:
                    fail("%s has %d models, not one" % (walk.name, count_models(theory)))
                everything = parse_query("credulous { } horizon %d." % horizon, domain.signature)
                for result in (answer_theory(theory, everything), answer_sat(theory, everything)):
                    if not witness_matches(result.witness, walk, states):
                        fail("%s: the %s model differs from the oracle" % (walk.name, result.backend))
                for query in walk.queries:
                    q = parse_query(query.text, domain.signature)
                    got = (
                        answer_theory(theory, q).answer,
                        answer_theory(theory, q, use_slice=True).answer,
                        answer_sat(theory, q).answer,
                    )
                    if got != (query.expect,) * 3:
                        fail("%s: %s expected %s, got %s" % (walk.name, query.text.strip(), query.expect, got))
                    asked += 1
    print("ok   oracle agrees with both backends on %d small-walk queries and every state" % asked)


def check_runs() -> None:
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S, cwd=workloads.ROOT,
        )
        if proc.returncode != 0:
            fail("%s run exited %d: %s" % (workload, proc.returncode, proc.stderr.strip()))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            fail("%s run failed requests:\n%s" % (workload, proc.stdout))
        print("ok   %s: %d requests, error_rate 0" % (workload, result["attempted"]))


def main() -> int:
    run.import_elang()
    run.OUT.mkdir(exist_ok=True)
    if sys.argv[1:2] == ["--digests"]:
        print(json.dumps(digests(int(sys.argv[2]))))
        return 0
    check_determinism()
    check_fragment_membership()
    check_oracle()
    check_runs()
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
