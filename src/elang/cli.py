"""Command line interface.

Exit codes: 0 success (query answered true), 1 query answered false,
2 inconsistent domain, 3 usage, parse or validation errors, 4 budget
exhausted, 5 internal errors.

``FILES`` are domain references, the same ones experiment specs take: a
file path, ``corpus:NAME`` or ``gen:VARIANT:N[:feed]``.  Later files
merge into the first one's signature.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import __version__, corpus
from .corpus import DomainRefError, load_domain
from .grounding import GroundingError, GroundTheory, ground, report_stats, dump_ground
from .model import errors_of, validate
# parse_domain is unused here but stays bound: perfbench/tracing.py patches it
from .parser import ParseError, parse_domain, parse_query  # noqa: F401
from .query import (
    BudgetExceeded,
    EntailmentResult,
    Query,
    answer_theory,
    check_consistency,
    required_horizon,
)
from .sat import FragmentError, answer_sat, check_fragment, compile_theory, to_dimacs
from .specfiles import SpecError

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

# Errors in what the user gave rather than in the program.
INPUT_ERRORS = (DomainRefError, FragmentError, GroundingError, OSError, ParseError, SpecError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep 2 for inconsistency
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(message: str, code: int) -> int:
    print("error: %s" % message, file=sys.stderr)
    return code


def cmd_check(args) -> int:
    domain = load_domain(*args.files)
    diagnostics = validate(domain)
    for diag in diagnostics:
        print("%s %s: %s" % (diag.severity, diag.code, diag.message))
    if errors_of(diagnostics):
        return EXIT_USAGE
    theory = ground(domain, args.horizon)
    consistent, stats = check_consistency(theory, args.budget)
    print(
        "%s: %d fluent atoms, horizon %d, %s"
        % (
            " ".join(args.files),
            theory.n_fluents,
            theory.horizon,
            "consistent" if consistent else "inconsistent",
        )
    )
    return EXIT_TRUE if consistent else EXIT_INCONSISTENT


def answer_on(
    theory: GroundTheory,
    query: Query,
    backend: str,
    *,
    budget: int | None = None,
) -> EntailmentResult:
    """Answer ``query`` on the ``engine`` or ``sat`` backend: the one
    dispatch ``elang query`` and the bench families share.  It calls the
    answer functions through this module's names, which
    ``perfbench/tracing.py`` wraps."""
    if backend == "sat":
        return answer_sat(theory, query, budget=budget)
    return answer_theory(theory, query, budget=budget)


def cmd_query(args) -> int:
    if args.query and (args.goal or args.mode):
        return _fail("--query FILE excludes --goal and --mode", EXIT_USAGE)
    if not args.query and not (args.goal and args.mode):
        return _fail("--goal requires --mode (or use --query FILE)", EXIT_USAGE)
    domain = load_domain(*args.files)
    if args.query:
        qtext = Path(args.query).read_text()
    else:
        qtext = "%s { %s }" % (args.mode, args.goal)
    query = parse_query(qtext, domain.signature, file=args.query or "<query>")
    if args.horizon is not None:
        if query.horizon not in (None, args.horizon):
            return _fail(
                "--horizon %d contradicts the query's horizon %d" % (args.horizon, query.horizon),
                EXIT_USAGE,
            )
        query = dataclasses.replace(query, horizon=args.horizon)
    try:
        horizon = required_horizon(domain, query)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    theory = ground(domain, horizon)
    result = answer_on(theory, query, args.backend, budget=args.budget)
    if args.json:
        print(json.dumps(result.to_record(), sort_keys=True))
    else:
        print(result.answer)
        if args.witness and result.witness is not None:
            for t, state in enumerate(result.witness["states"]):
                print("  state %d: {%s}" % (t, ", ".join(state)))
            for t, acts in enumerate(result.witness["actions"]):
                if acts:
                    print("  actions %d: %s" % (t, ", ".join(acts)))
    if result.answer == "true":
        return EXIT_TRUE
    if result.answer == "false":
        return EXIT_FALSE
    return EXIT_INCONSISTENT


def cmd_ground(args) -> int:
    theory = ground(load_domain(*args.files), args.horizon)
    if args.dimacs:
        report = check_fragment(theory)
        if not report.accepted:
            raise FragmentError(report)
        inst = compile_theory(theory)
        Path(args.dimacs).write_text(to_dimacs(inst))
        print("wrote %s (%d vars, %d clauses)" % (args.dimacs, inst.num_vars, inst.num_clauses))
    if args.stats:
        print(report_stats(theory))
    if args.dump:
        print(dump_ground(theory))
    if not (args.stats or args.dump or args.dimacs):
        print(report_stats(theory))
    return EXIT_TRUE


def cmd_bench(args) -> int:
    # the experiment harness is imported only here, so that the other
    # commands do not pay for compiling and importing it at start-up
    from .bench import load_spec, run_experiment

    spec = load_spec(args.specfile)
    if args.repeats is not None:
        spec.repeats = args.repeats
    table = run_experiment(spec)
    paths = table.write(args.out)
    print("wrote %s" % " and ".join(str(p) for p in paths))
    return EXIT_TRUE


def cmd_corpus(args) -> int:
    if args.action == "list":
        for path in sorted(corpus.DATA_DIR.iterdir()):
            print(path.name)
        return EXIT_TRUE
    if args.action == "show":
        if not args.name:
            return _fail("corpus show needs a file name", EXIT_USAGE)
        try:
            print(corpus.corpus_path(args.name).read_text(), end="")
        except FileNotFoundError as exc:
            return _fail(str(exc), EXIT_USAGE)
        return EXIT_TRUE
    if args.action == "generate":
        if not args.name:
            return _fail("corpus generate needs VARIANT:POSITIONS", EXIT_USAGE)
        print(corpus.generated_zoo(args.name, positions=6), end="")
        return EXIT_TRUE
    # verify
    corpus.load_corpus()
    report = corpus.run_golden(budget=args.budget)
    print(report.render())
    passed = sum(1 for o in report.outcomes if o.ok)
    print("%d/%d golden cases passed" % (passed, len(report.outcomes)))
    return EXIT_TRUE if report.ok else EXIT_FALSE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: ``parse_args`` keeps no state between calls, so one process
    that calls ``main`` many times builds the argparse tree once."""
    parser = _Parser(prog="elang", description=__doc__)
    parser.add_argument("--version", action="version", version="elang " + __version__)
    # not required here, so that ``main`` reports an unknown option before a
    # missing command
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="parse, validate and probe consistency")
    p.add_argument("files", nargs="+")
    p.add_argument("--horizon", type=int)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("query", help="answer a credulous or skeptical query")
    p.add_argument("files", nargs="+")
    p.add_argument("--query", help="file holding the query text")
    p.add_argument("--goal", help="inline goal, e.g. 'light holds-at 4'")
    p.add_argument("--mode", choices=["credulous", "skeptical"])
    p.add_argument("--horizon", type=int)
    p.add_argument("--backend", choices=["engine", "sat"], default="engine")
    # accepted and without effect: every engine answer decomposes exactly
    p.add_argument("--slice", choices=["on", "off"], default="off")
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("ground", help="ground a description and report statistics")
    p.add_argument("files", nargs="+")
    p.add_argument("--horizon", type=int)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--dump", action="store_true")
    p.add_argument("--dimacs", help="also compile and write clauses to this path")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("bench", help="run an experiment spec")
    p.add_argument("specfile")
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("corpus", help="inspect or verify the bundled corpus")
    p.add_argument(
        "action", choices=["verify", "list", "show", "generate"], default="verify", nargs="?"
    )
    p.add_argument("name", nargs="?")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    if args.command is None:
        parser.error("the following arguments are required: command")
    if getattr(args, "budget", None) is not None and args.budget < 0:
        parser.error("--budget must not be negative")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except INPUT_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)
    except BudgetExceeded as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except Exception as exc:  # surface anything unexpected with a stable code
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
