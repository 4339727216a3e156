#!/usr/bin/env python3
"""Run every experiment spec and write result tables.

Usage: python scripts/run_experiments.py [--out DIR] [--repeats N] [--only NAME]
       python scripts/run_experiments.py --bench FILE [--repeats N] [--only NAME]

With ``--bench FILE`` no tables are written.  Instead FILE receives one
JSON record: the wall time of each golden case (load, ground and answer)
on the engine backend and on the SAT backend, each the median of
``GOLDEN_RUNS`` runs (recorded as ``golden_runs``), the elapsed time of each
spec at ``--repeats`` (1 unless given), the size of the package source
(``src_lines``: the ``wc -l`` total over ``src/elang/**/*.py``), and the
environment the run was made in.  Compare two such records only when
their environments match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from elang.bench import load_spec, run_experiment
from elang.corpus import evaluate_case, load_domain, load_golden
from elang.grounding import ground
from elang.query import required_horizon
from elang.sat import answer_sat

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "experiments"
SRC_DIR = ROOT / "src" / "elang"
# Runs per golden case and backend: a case takes a few milliseconds, and
# one run of each spreads the suite's total by half between runs.
GOLDEN_RUNS = 5


def _git(*argv: str) -> str | None:
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    """Python version, platform, usable CPUs and the checked-out commit;
    ``dirty`` says whether tracked files differ from that commit."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": cpus,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def source_lines() -> int:
    """Newlines in every ``.py`` file under the package, as ``wc -l``
    totals them."""
    return sum(path.read_bytes().count(b"\n") for path in SRC_DIR.rglob("*.py"))


def answer_case_on_sat(case) -> None:
    """Load and ground a golden case, and answer it with ``answer_sat``."""
    domain = load_domain(*("corpus:" + name for name in (case.domain,) + case.scenarios))
    answer_sat(ground(domain, required_horizon(domain, case.query)), case.query)


def median_seconds(run) -> tuple[float, object]:
    """The median wall time of ``GOLDEN_RUNS`` calls of ``run``, and what
    the last one returned."""
    times = []
    for _ in range(GOLDEN_RUNS):
        start = time.perf_counter()
        got = run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), got


def bench(cases, specs: list[Path], repeats: int) -> dict:
    """Time each golden case on both backends, as the median of
    ``GOLDEN_RUNS`` runs each, and each spec once, in the given order."""
    golden = []
    for case in cases:
        elapsed, outcome = median_seconds(lambda: evaluate_case(case))
        sat_elapsed, _ = median_seconds(lambda: answer_case_on_sat(case))
        golden.append({
            "name": case.name, "answer": outcome.got, "ok": outcome.ok,
            "seconds": round(elapsed, 4), "sat_seconds": round(sat_elapsed, 4),
        })
    timed_specs = []
    for path in specs:
        spec = load_spec(path)
        spec.repeats = repeats
        start = time.perf_counter()
        run_experiment(spec)
        elapsed = time.perf_counter() - start
        timed_specs.append({"name": spec.name, "repeats": repeats, "seconds": round(elapsed, 4)})
    return {
        "environment": environment(),
        "golden": golden,
        "golden_runs": GOLDEN_RUNS,
        "golden_seconds": round(sum(g["seconds"] for g in golden), 4),
        "golden_sat_seconds": round(sum(g["sat_seconds"] for g in golden), 4),
        "specs": timed_specs,
        "src_lines": source_lines(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--repeats", type=int, help="override each spec's repeat count")
    ap.add_argument("--only", help="run a single spec by name")
    ap.add_argument("--bench", metavar="FILE", help="write timings to FILE instead of tables")
    args = ap.parse_args()

    specs = sorted(SPEC_DIR.glob("*.spec"))
    if args.only:
        specs = [p for p in specs if p.stem == args.only]
        if not specs:
            print("no spec named %s under %s" % (args.only, SPEC_DIR), file=sys.stderr)
            return 2
    if args.bench:
        record = bench(load_golden(), specs, 1 if args.repeats is None else args.repeats)
        Path(args.bench).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print("golden %5.1fs, on sat %5.1fs  %s"
              % (record["golden_seconds"], record["golden_sat_seconds"], args.bench))
        return 0
    for path in specs:
        spec = load_spec(path)
        if args.repeats is not None:
            spec.repeats = args.repeats
        start = time.perf_counter()
        table = run_experiment(spec)
        elapsed = time.perf_counter() - start
        written = table.write(args.out)
        print("%-16s %5.1fs  %s" % (spec.name, elapsed, ", ".join(str(w) for w in written)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
