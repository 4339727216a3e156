"""Bundled domains: a switchable light bulb and a small zoo.

The zoo ships in three representations over one shared signature:

* ``zoo_indirect``: action laws state only the mover's new position; the
  rider being carried along, old positions being released, and riding
  ending on position mismatch all arise indirectly through ramification
  statements.
* ``zoo_dual``: the indirect representation plus direct laws that move
  the rider along and terminate the mover's old position.  Duplicating
  an indirect effect as a direct law gives it preference and removes the
  rider's fall-off branch.
* ``zoo_direct``: every effect of a move is a direct law and the
  constraints are written as denials, so they restrict states but never
  generate effects.  The throw-off action keeps no laws here: its landing
  choice is inherently non-deterministic and outside this style.  With
  no generating ramifications it has no ramification cycle, so it is the
  one variant inside the clausal backend's fragment.

The terrain is parameterized (3 to 15 positions): positions are laid out
as two chains of adjacent cells (two cages) joined by two gates, one
between the chain ends and one closing the outer loop.  Position ``p1``
always has exactly the neighbors ``p2`` and ``p3``, so the bundled
narratives stay valid at every size.

``golden.cases`` freezes the expected answers of the bundled narratives;
``run_golden`` re-evaluates them on the engine.  Expected values carry a
source tag: ``stated`` answers are asserted by the domain's written
description, ``derived`` ones were computed by the reference oracle here
and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .. import parser
from ..grounding import ground
from ..model import DomainDescription
from ..parser import parse_query
from ..query import EntailmentResult, Query, answer_theory, required_horizon
from ..specfiles import parse_stanzas

DATA_DIR = Path(__file__).parent / "data"

VARIANTS = ("direct", "indirect", "dual")

CORPUS_HORIZONS = {
    "bulb.e": 4,
    "bulb_noinit.e": 4,
    "zoo_landscape.e": 1,
    "zoo_direct.e": 6,
    "zoo_indirect.e": 6,
    "zoo_dual.e": 6,
    "zoo_dual_feed.e": 6,
}

ZOO_SCENARIOS = (
    "zoo_scenario_base.e",
    "zoo_scenario_move.e",
    "zoo_scenario_obs.e",
    "chain_scenario.e",
)


def corpus_path(name: str) -> Path:
    path = DATA_DIR / name
    if not path.exists():
        raise FileNotFoundError("no corpus file named %s" % name)
    return path


class DomainRefError(ValueError):
    """A domain reference that names no corpus file, no generator
    configuration or no readable file."""


def _read_ref(ref: str) -> tuple[str, str]:
    """The source label and text a domain reference stands for."""
    if ref.startswith("corpus:"):
        name = ref.split(":", 1)[1]
        try:
            return name, corpus_path(name).read_text()
        except FileNotFoundError as exc:
            raise DomainRefError(str(exc)) from exc
    if ref.startswith("gen:"):
        return ref, generated_zoo(ref)
    try:
        return ref, Path(ref).read_text()
    except OSError as exc:
        raise DomainRefError("cannot read domain file %s: %s" % (ref, exc.strerror)) from exc


def generated_zoo(ref: str, positions: int | None = None) -> str:
    """The zoo text a generator reference ``[gen:]VARIANT:N[:feed]``
    names; a bare ``VARIANT`` takes ``positions`` when given.  Raises
    ``DomainRefError`` for anything else."""
    parts = ref.removeprefix("gen:").split(":")
    if len(parts) == 1 and positions is not None:
        parts.append(str(positions))
    if len(parts) not in (2, 3) or parts[2:] not in ([], ["feed"]):
        raise DomainRefError("bad generator reference %r" % ref)
    try:
        return generate_zoo(parts[0], int(parts[1]), include_feed=len(parts) == 3)
    except ValueError as exc:
        raise DomainRefError("bad generator reference %r: %s" % (ref, exc)) from exc


def load_domain(*refs: str) -> DomainDescription:
    """Parse domain references and merge them into one description.

    A reference is ``corpus:NAME`` (a bundled data file),
    ``gen:VARIANT:N[:feed]`` (a generated zoo) or a file path.  Later
    references parse against the first one's signature, which is how
    scenario files join a domain.  Raises ``DomainRefError`` for a
    reference that names nothing and ``ParseError`` for bad text."""
    if not refs:
        raise DomainRefError("no domain reference given")
    domain: DomainDescription | None = None
    for ref in refs:
        label, text = _read_ref(ref)
        # looked up at call time so perfbench/tracing.py can wrap it
        unit = parser.parse_domain(
            text, file=label, base_signature=domain.signature if domain else None
        )
        if domain is None:
            domain = unit.domain
        else:
            domain.propositions.extend(unit.domain.propositions)
    return domain


# ---------------------------------------------------------------------------
# Generator


def _terrain(positions: int) -> tuple[list[str], list[str]]:
    """Position names and the terrain statements for a given size."""
    if not 3 <= positions <= 15:
        raise ValueError("terrain supports 3 to 15 positions, got %d" % positions)
    names = ["p%d" % i for i in range(1, positions + 1)]
    walk = ["p2", "p1"] + names[2:]  # adjacency follows this walk order
    half = (len(walk) + 1) // 2
    cage_a, cage_b = walk[:half], walk[half:]
    lines = ["% terrain: two cages of adjacent positions joined by two gates"]
    for cage in (cage_a, cage_b):
        for a, b in zip(cage, cage[1:]):
            lines.append("neighbor_pos(%s, %s) holds-at 0." % (a, b))
    lines.append("gate_connects(g1, %s, %s) holds-at 0." % (cage_a[-1], cage_b[0]))
    lines.append("gate_connects(g2, %s, %s) holds-at 0." % (walk[0], walk[-1]))
    lines.append("neighbor_pos(P1, P2) whenever { neighbor_pos(P2, P1) }.")
    lines.append("neighbor_pos(P1, P2) whenever { gate_connects(G, P1, P2) }.")
    return names, lines


def generate_zoo(variant: str, positions: int = 6, include_feed: bool = False) -> str:
    """Emit one zoo representation as domain text."""
    if variant not in VARIANTS:
        raise ValueError("variant must be one of %s" % (VARIANTS,))
    names, terrain = _terrain(positions)
    head = {
        "direct": "%% zoo, direct representation: every effect of an action is a direct law\n"
        "%% and the constraints are denials that never generate effects.",
        "indirect": "%% zoo, indirect representation: action laws give only the mover's new\n"
        "%% position; carried riders, released positions and broken rides all come\n"
        "%% from the ramification statements.",
        "dual": "%% zoo, dual representation: the indirect laws plus direct laws for the\n"
        "%% carried rider and the released position, so the direct reading wins\n"
        "%% where they overlap.",
    }[variant]
    out: list[str] = [head, ""]
    out.append("sort animal: john, elly, dumpo.")
    out.append("sort kind: human, elephant.")
    out.append("sort position: %s." % ", ".join(names))
    out.append("sort gate: g1, g2.")
    out.append("")
    out.append("constant fluent animal_species(animal, kind).")
    out.append("constant fluent neighbor_pos(position, position).")
    out.append("constant fluent gate_connects(gate, position, position).")
    out.append("fluent animal_pos(animal, position).")
    out.append("fluent rides(animal, animal).")
    out.append("fluent reachable(animal, position).")
    if include_feed:
        out.append("fluent hungry(animal).")
    out.append("action move_to_position(animal, position).")
    out.append("action mount_animal(animal, animal).")
    out.append("action getoff(animal, animal, position).")
    out.append("action throwoff(animal, animal).")
    if include_feed:
        out.append("action feed_animal(animal).")
    out.append("")
    out.append("animal_species(john, human) holds-at 0.")
    out.append("animal_species(elly, elephant) holds-at 0.")
    out.append("animal_species(dumpo, elephant) holds-at 0.")
    out.append("")
    out.extend(terrain)
    out.append("")
    out.append("% reachability: the positions adjacent to an animal's own")
    out.append("reachable(A, P) whenever { animal_pos(A, P1), neighbor_pos(P1, P) }.")
    out.append("neg reachable(A, P) whenever { animal_pos(A, P1), neg neighbor_pos(P1, P) }.")
    out.append("")
    out.append("% moving")
    out.append("move_to_position(A, P) initiates animal_pos(A, P) when { reachable(A, P) }.")
    out.append("move_to_position(A, P) needs { neg rides(A, A1) }.")
    if variant == "dual":
        out.append("move_to_position(A, P) initiates animal_pos(A1, P) when { rides(A1, A) }.")
        out.append(
            "move_to_position(A, P) terminates animal_pos(A, P1) when { animal_pos(A, P1) }."
        )
    if variant == "direct":
        out.append("move_to_position(A, P) initiates animal_pos(A1, P) when { rides(A1, A) }.")
        out.append(
            "move_to_position(A, P) terminates animal_pos(A, P1)"
            " when { animal_pos(A, P1), P1 != P }."
        )
        out.append(
            "move_to_position(A, P) terminates animal_pos(A1, P1)"
            " when { rides(A1, A), animal_pos(A1, P1), P1 != P }."
        )
    out.append("")
    out.append("% mounting and dismounting")
    out.append("mount_animal(A, A1) initiates rides(A, A1).")
    out.append("getoff(A, A1, P) terminates rides(A, A1).")
    out.append("getoff(A, A1, P) initiates animal_pos(A, P) when { reachable(A, P) }.")
    if variant == "direct":
        out.append(
            "getoff(A, A1, P) terminates animal_pos(A, P1) when { animal_pos(A, P1), P1 != P }."
        )
    out.append("getoff(A, A1, P) needs { rides(A, A1) }.")
    if variant != "direct":
        out.append("")
        out.append("% throwing a rider off: any reachable landing may be chosen")
        out.append("throwoff(A1, A2) initiates animal_pos(A2, P) when { reachable(A2, P) }.")
        out.append("throwoff(A1, A2) needs { rides(A2, A1) }.")
    if include_feed:
        out.append("")
        out.append("% feeding, detached from movement and riding")
        out.append("feed_animal(A) terminates hungry(A).")
    out.append("")
    if variant == "direct":
        out.append("% constraints, written as denials: restrict but never generate")
        out.append("false whenever { animal_pos(A, P), animal_pos(A, P1), P1 != P }.")
        out.append("false whenever { rides(A1, A), animal_pos(A, P), neg animal_pos(A1, P) }.")
        out.append("false whenever { rides(A, A1), rides(A, A2), A1 != A2 }.")
    else:
        out.append("% ramification statements: constrain states and generate effects")
        out.append("animal_pos(A1, P) whenever { animal_pos(A, P), rides(A1, A) }.")
        out.append("neg animal_pos(A, P1) whenever { animal_pos(A, P), P1 != P }.")
        out.append(
            "neg rides(A, A1) whenever"
            " { animal_pos(A, P), animal_pos(A1, P1), P1 != P }."
        )
        out.append("neg rides(A, A1) whenever { rides(A, A2), A1 != A2 }.")
    out.append("")
    out.append("% denials holding in every representation")
    out.append("false whenever { animal_species(A, human), rides(A1, A) }.")
    out.append("false whenever { rides(A, A) }.")
    out.append("false whenever { rides(A, A1), rides(A1, A) }.")
    somewhere = ", ".join("neg animal_pos(A, %s)" % p for p in names)
    out.append("% every animal is somewhere")
    out.append("false whenever { %s }." % somewhere)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Golden cases


@dataclass(frozen=True)
class GoldenCase:
    name: str
    domain: str
    scenarios: tuple[str, ...]
    query: Query
    expect: str  # "true" | "false" | "domain-inconsistent"
    source: str  # "stated" | "derived"


def _load_bundled(*names: str) -> DomainDescription:
    """``load_domain`` on bare corpus file names, as golden cases give them."""
    return load_domain(*("corpus:" + name for name in names))


def load_golden() -> list[GoldenCase]:
    text = corpus_path("golden.cases").read_text()
    cases: list[GoldenCase] = []
    for stanza in parse_stanzas(text, section="case"):
        domain_name = stanza.one("domain")
        scenarios = tuple(stanza.many("scenario"))
        domain = _load_bundled(domain_name, *scenarios)
        query = parse_query(stanza.one("query"), domain.signature)
        expect = stanza.one("expect")
        if expect not in ("true", "false", "domain-inconsistent"):
            raise ValueError("case %s: bad expect %r" % (stanza.one("name"), expect))
        source = stanza.one("source")
        if source not in ("stated", "derived"):
            raise ValueError("case %s: bad source %r" % (stanza.one("name"), source))
        cases.append(
            GoldenCase(stanza.one("name"), domain_name, scenarios, query, expect, source)
        )
    return cases


@dataclass
class GoldenOutcome:
    case: GoldenCase
    got: str
    result: EntailmentResult

    @property
    def ok(self) -> bool:
        return self.got == self.case.expect


@dataclass
class GoldenReport:
    outcomes: list[GoldenOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failures(self) -> list[GoldenOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def render(self) -> str:
        lines = []
        for o in self.outcomes:
            if o.ok:
                lines.append("PASS %s (%s)" % (o.case.name, o.got))
            else:
                lines.append(
                    "FAIL %s: expected %s, got %s" % (o.case.name, o.case.expect, o.got)
                )
                if o.result.witness is not None:
                    for t, state in enumerate(o.result.witness["states"]):
                        lines.append("  state %d: {%s}" % (t, ", ".join(state)))
        return "\n".join(lines)


def evaluate_case(case: GoldenCase, budget: int | None = None) -> GoldenOutcome:
    domain = _load_bundled(case.domain, *case.scenarios)
    theory = ground(domain, required_horizon(domain, case.query))
    result = answer_theory(theory, case.query, budget=budget)
    return GoldenOutcome(case, result.answer, result)


def run_golden(budget: int | None = None) -> GoldenReport:
    return GoldenReport([evaluate_case(c, budget) for c in load_golden()])


def load_corpus() -> list[tuple[DomainDescription, list[GoldenCase]]]:
    """Parse, validate and ground every bundled domain; returns each domain
    paired with the golden cases that run on it."""
    cases = load_golden()
    by_domain: dict[str, list[GoldenCase]] = {}
    for case in cases:
        by_domain.setdefault(case.domain, []).append(case)
    out: list[tuple[DomainDescription, list[GoldenCase]]] = []
    for name, horizon in CORPUS_HORIZONS.items():
        domain = _load_bundled(name)
        ground(domain, horizon)  # any failure is a corpus build failure
        out.append((domain, by_domain.get(name, [])))
    for scen in ZOO_SCENARIOS:
        merged = _load_bundled("zoo_dual.e", scen)
        ground(merged, 6)
    return out
