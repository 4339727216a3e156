"""Seeded zoo walks and the oracle that answers their queries.

A walk is a narrative on the direct zoo representation with feeding
(``generate_zoo("direct", P, include_feed=True)``): a fully observed start
with john riding dumpo, then exactly one move per time step, either dumpo
(carrying john) or elly stepping to a neighbouring position, with
``feed_animal`` occurrences scattered over the steps.  Two moves never
share a step: concurrent ``move_to_position`` occurrences fall outside the
clausal fragment.

The direct representation is deterministic and the start is fully
observed, so every walk has exactly one model.  ``simulate`` replays it
with plain Python, and the expected answer of every query follows from
that replay alone.  Nothing here imports ``elang``; the terrain adjacency
is re-derived from the corpus description (two cages of adjacent
positions joined by two gates, which closes the positions into one ring
in the order p2, p1, p3, ..., pP).

Horizons stay well below the depth at which the engine's recursive
trajectory generator overflows the interpreter stack.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

ANIMALS = ("john", "elly", "dumpo")
MOVERS = ("dumpo", "elly")  # john rides dumpo throughout and never moves alone
RIDER, CARRIER = "john", "dumpo"
FEED_RATE = 0.2  # share of steps that also feed one animal
MAX_HORIZON = 300


def ring(positions: int) -> list[str]:
    """Positions in ring order: each one neighbours the next, and the last
    neighbours the first."""
    if not 3 <= positions <= 15:
        raise ValueError("walks support 3 to 15 positions, got %d" % positions)
    return ["p2", "p1"] + ["p%d" % i for i in range(3, positions + 1)]


def neighbours(positions: int) -> dict[str, tuple[str, str]]:
    order = ring(positions)
    n = len(order)
    return {p: (order[i - 1], order[(i + 1) % n]) for i, p in enumerate(order)}


@dataclass(frozen=True)
class Query:
    text: str  # query file contents
    expect: str  # "true" | "false"


@dataclass(frozen=True)
class Walk:
    name: str
    positions: int
    horizon: int
    scenario: str  # narrative file contents
    queries: tuple[Query, ...]


@dataclass(frozen=True)
class Step:
    mover: str
    target: str
    fed: str | None


def _rng(*parts) -> random.Random:
    # string seeds hash with SHA-512, stable across processes and versions
    return random.Random(":".join(str(p) for p in parts))


def simulate(start_pos: dict[str, str], start_hungry: dict[str, bool], steps: list[Step]):
    """States 0..len(steps) as (positions, hungry) pairs."""
    pos, hungry = dict(start_pos), dict(start_hungry)
    states = [(dict(pos), dict(hungry))]
    for step in steps:
        pos[step.mover] = step.target
        if step.mover == CARRIER:
            pos[RIDER] = step.target
        if step.fed is not None:
            hungry[step.fed] = False
        states.append((dict(pos), dict(hungry)))
    return states


def holds(state, positions: int, atom: str) -> bool:
    """Truth of one ground fluent atom, written as in the domain, in a
    simulated state."""
    pos, hungry = state
    name, _, rest = atom.partition("(")
    args = [a.strip() for a in rest.rstrip(")").split(",")]
    if name == "animal_pos":
        return pos[args[0]] == args[1]
    if name == "reachable":
        return args[1] in neighbours(positions)[pos[args[0]]]
    if name == "hungry":
        return hungry[args[0]]
    if name == "rides":
        return (args[0], args[1]) == (RIDER, CARRIER)
    raise ValueError("unknown fluent %s" % name)


def atoms(positions: int) -> list[str]:
    names = ring(positions)
    out = ["animal_pos(%s, %s)" % (a, p) for a in ANIMALS for p in names]
    out += ["reachable(%s, %s)" % (a, p) for a in ANIMALS for p in names]
    out += ["hungry(%s)" % a for a in ANIMALS]
    out += ["rides(%s, %s)" % (a, b) for a in ANIMALS for b in ANIMALS]
    return out


def _literal(state, positions: int, atom: str, want: bool) -> str:
    """The literal on ``atom`` whose truth in ``state`` is ``want``."""
    return atom if holds(state, positions, atom) == want else "neg " + atom


def _goal(rng: random.Random, states, positions: int, fluent: str, want: bool) -> str:
    """A goal on ``fluent`` at a random time, true in the walk iff ``want``."""
    t = rng.randint(1, len(states) - 1)
    animal = rng.choice(ANIMALS)
    if fluent == "animal_pos":
        # half the time the animal's actual position, else any position
        place = states[t][0][animal] if rng.random() < 0.5 else rng.choice(ring(positions))
        atom = "animal_pos(%s, %s)" % (animal, place)
    elif fluent == "reachable":
        atom = "reachable(%s, %s)" % (animal, rng.choice(ring(positions)))
    else:
        atom = "hungry(%s)" % animal
    return "%s holds-at %d" % (_literal(states[t], positions, atom, want), t)


def make_walk(seed, index, positions: int, horizon: int) -> Walk:
    """One seeded walk of ``horizon`` steps on ``positions`` positions, with
    three queries: skeptical on a true position goal, skeptical on a false
    goal, and credulous on a three-goal conjunction.

    The shape of the queries depends on the size alone, so that a pass of
    walks costs the same for every seed: on an odd number of positions the
    false goal is about hunger, which slicing cuts down to one atom, and
    the conjunction has one false goal; on an even number they are about
    reachability and all true."""
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError("walk horizon must lie in 1..%d, got %d" % (MAX_HORIZON, horizon))
    rng = _rng("walk", seed, index, positions, horizon)
    names = ring(positions)
    near = neighbours(positions)
    start_pos = {CARRIER: rng.choice(names), "elly": rng.choice(names)}
    start_pos[RIDER] = start_pos[CARRIER]
    start_hungry = {a: rng.random() < 0.5 for a in ANIMALS}
    steps = []
    pos = dict(start_pos)
    for _ in range(horizon):
        mover = rng.choice(MOVERS)
        target = rng.choice(near[pos[mover]])
        pos[mover] = target
        fed = rng.choice(ANIMALS) if rng.random() < FEED_RATE else None
        steps.append(Step(mover, target, fed))
    states = simulate(start_pos, start_hungry, steps)

    lines = [
        "%% seeded walk %s/%s: %d positions, %d steps" % (seed, index, positions, horizon),
        "% fully observed start: john rides dumpo",
    ]
    for a in ANIMALS:
        lines.append("animal_pos(%s, %s) holds-at 0." % (a, start_pos[a]))
    for a in ANIMALS:
        for b in ANIMALS:
            lines.append("%s holds-at 0." % _literal(states[0], positions, "rides(%s, %s)" % (a, b), True))
    for a in ANIMALS:
        lines.append("%s holds-at 0." % _literal(states[0], positions, "hungry(%s)" % a, True))
    lines.append("% one move per step")
    for t, step in enumerate(steps):
        lines.append("move_to_position(%s, %s) happens-at %d." % (step.mover, step.target, t))
        if step.fed is not None:
            lines.append("feed_animal(%s) happens-at %d." % (step.fed, t))
    scenario = "\n".join(lines) + "\n"

    odd = positions % 2 == 1
    conjunction = [
        _goal(rng, states, positions, "animal_pos", True),
        _goal(rng, states, positions, "reachable", True),
        _goal(rng, states, positions, "hungry", not odd),
    ]
    queries = (
        Query("skeptical { %s } horizon %d.\n" % (_goal(rng, states, positions, "animal_pos", True), horizon), "true"),
        Query(
            "skeptical { %s } horizon %d.\n"
            % (_goal(rng, states, positions, "hungry" if odd else "reachable", False), horizon),
            "false",
        ),
        Query("credulous { %s } horizon %d.\n" % (", ".join(conjunction), horizon), "false" if odd else "true"),
    )
    return Walk("walk-%s-%s" % (seed, index), positions, horizon, scenario, queries)


def digest(texts) -> str:
    """SHA-256 over a sequence of generated texts, each length-prefixed."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode()
        h.update(b"%d:" % len(data))
        h.update(data)
    return h.hexdigest()
