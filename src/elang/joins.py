"""Joins: a statement's bindings at the cost of the ones it keeps.

A statement's variables are slots, numbered in sorted-name order, each
ranging over its sort's constants in declaration order (its pool); a
binding is a tuple of constants by slot, and binding order is the order
``itertools.product`` would visit the pools in.  An atom of a statement
is a pattern over the slots: per argument, the slot it reads or the
constant it names.  ``solve`` finds the bindings that a statement's
constraints keep the way gringo instantiates a rule body (Gebser et al.,
LPNMR 2007): its positive atoms over constant fluents are joined against
an index of the true atoms by bound argument positions, the slots still
free then take their pools, and each disequality, negative atom and
clashing pair of patterns filters the bindings as soon as the slots it
reads are bound.  No statement's full binding product is built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable

from .model import Atom, CProp, FluentLiteral, PProp, RProp, Signature


def is_slot(term) -> bool:
    return type(term) is int


# An atom of a statement as a pattern: per argument, the number of the
# slot it reads, or the constant it names.
Pattern = tuple


class Template:
    """One effect, whenever or needs statement compiled for grounding:
    its slots and their pools, its atoms as patterns (``pattern``) and
    its disequalities.  Nothing here enumerates the product (``size`` is
    its size): ``solve`` joins the bindings that constraints keep over
    the slots the constraints read, and ``count`` multiplies their number
    by the pools of the other slots."""

    def __init__(self, sig: Signature, prop: CProp | RProp | PProp, var_sorts: dict[str, str]):
        # ``var_sorts`` come from ``validate``, which has checked that they
        # agree and that every sort is declared
        names = sorted(var_sorts)
        self.names = names
        self.pools = [sig.sorts[var_sorts[v]] for v in names]
        self.slot = {v: i for i, v in enumerate(names)}
        self.size = math.prod(map(len, self.pools))
        self.ranks: dict[int, dict[str, int]] = {}
        # a disequality as (slot, slot or constant); one between two equal
        # constants rules out every binding
        self.diseqs: list[tuple[int, int | str]] = []
        self.void = False
        for a, b in prop.condition.diseqs:
            a, b = self.slot.get(a, a), self.slot.get(b, b)
            if is_slot(b):
                a, b = b, a
            if is_slot(a):
                self.diseqs.append((a, b))
            else:
                self.void |= a == b

    def pattern(self, atom: Atom) -> Pattern:
        return tuple([self.slot.get(t, t) for t in atom.args])

    def rank(self, i: int) -> dict[str, int]:
        """Each constant of slot ``i``'s pool by its place in the pool."""
        found = self.ranks.get(i)
        if found is None:
            found = self.ranks[i] = {c: k for k, c in enumerate(self.pools[i])}
        return found

    def reads(self, facts: Facts | None = None, positives=(), negatives=(), clashes=()) -> set[int]:
        """The slots the disequalities and the constraints (as ``solve``
        takes them) read."""
        patterns = [p for _, p in [*positives, *negatives]] + [p for pair in clashes for p in pair]
        return slots_of(*patterns, *self.diseqs)

    def count(self, **constraints) -> int:
        """How many bindings keep the disequalities and ``constraints``:
        the bindings kept over the slots they read times the pools of the
        others."""
        slots = self.reads(**constraints)
        kept = len(solve(self, sorted(slots), ordered=False, **constraints))
        return kept * math.prod(len(p) for i, p in enumerate(self.pools) if i not in slots)

    def first(self) -> tuple[str, ...] | None:
        """The first binding the disequalities keep, or None: the first
        kept over their slots, each other slot at its pool's first."""
        slots = sorted(self.reads())
        kept = solve(self, slots)
        if not kept:
            return None
        combo = [pool[0] for pool in self.pools]
        for i, value in zip(slots, kept[0]):
            combo[i] = value
        return tuple(combo)

    def instance(self, atom: Atom, combo: tuple[str, ...]) -> Atom:
        """``atom`` under one binding, for error messages."""
        return atom.substitute(dict(zip(self.names, combo)))


class Facts:
    """The true atoms of the constant fluents as argument tuples, by
    fluent, with an index per fluent and set of bound argument positions,
    made on first use and kept up to date as atoms are added."""

    def __init__(self, names: Iterable[str]):
        self.lists: dict[str, list[tuple[str, ...]]] = {name: [] for name in names}
        self.sets: dict[str, set[tuple[str, ...]]] = {name: set() for name in self.lists}
        self.indexes: dict[str, list[tuple[tuple[int, ...], dict]]] = {}

    def add(self, name: str, args: tuple[str, ...]) -> None:
        if args not in self.sets[name]:
            self.sets[name].add(args)
            self.lists[name].append(args)
            for positions, index in self.indexes.get(name, ()):
                index.setdefault(tuple([args[k] for k in positions]), []).append(args)

    def index(self, name: str, positions: tuple[int, ...]) -> dict:
        """The true atoms of ``name`` by their arguments at ``positions``."""
        for known, index in self.indexes.get(name, ()):
            if known == positions:
                return index
        index = _grouped(self.lists[name], positions)
        self.indexes.setdefault(name, []).append((positions, index))
        return index


def _grouped(atoms: list[tuple[str, ...]], positions: tuple[int, ...]) -> dict:
    index: dict = {}
    for args in atoms:
        index.setdefault(tuple([args[k] for k in positions]), []).append(args)
    return index


def reader(pattern: Pattern, cols: Iterable[int]) -> Callable[[list[tuple]], Iterable[tuple[str, ...]]]:
    """A pattern's argument tuple per binding, as a function of bindings
    whose tuples hold the slots ``cols`` in that order."""
    cols = list(cols)
    where = [cols.index(a) if is_slot(a) else None for a in pattern]
    if where == list(range(len(cols))):
        return iter  # the binding is the argument tuple
    if None not in where and len(where) > 1:
        pick = operator.itemgetter(*where)
        return lambda rel: map(pick, rel)
    if all(k is None for k in where):
        return lambda rel: itertools.repeat(pattern, len(rel))
    parts = [(k, a if k is None else operator.itemgetter(k)) for k, a in zip(where, pattern)]
    return lambda rel: zip(*[itertools.repeat(a) if k is None else map(a, rel) for k, a in parts])


def _join(rel: list[tuple], cols: list[int], pattern: Pattern, index_of: Callable[[tuple[int, ...]], dict]):
    """Extend each binding of ``rel`` by the true atoms that match
    ``pattern`` on its bound arguments; the pattern's other slots join
    ``cols``."""
    bound = tuple([k for k, a in enumerate(pattern) if not is_slot(a) or a in cols])
    index = index_of(bound)
    new: list[int] = []
    take: list[int] = []
    same: list[tuple[int, int]] = []  # a new slot repeated in the pattern
    for k, a in enumerate(pattern):
        if is_slot(a) and a not in cols:
            if a in new:
                same.append((k, take[new.index(a)]))
            else:
                new.append(a)
                take.append(k)
    keys = reader(tuple([pattern[k] for k in bound]), cols)(rel)
    out = []
    for t, key in zip(rel, keys):
        for args in index.get(key, ()):
            if all([args[k] == args[f] for k, f in same]):
                out.append(t + tuple([args[k] for k in take]))
    cols += new
    return out


def _absent(true: set, pattern: Pattern, rel: list[tuple], cols: list[int]) -> list[tuple]:
    return list(itertools.compress(rel, map(operator.not_, map(true.__contains__, reader(pattern, cols)(rel)))))


def _apart(p: Pattern, q: Pattern, rel: list[tuple], cols: list[int]) -> list[tuple]:
    return list(itertools.compress(rel, map(operator.ne, reader(p, cols)(rel), reader(q, cols)(rel))))


def slots_of(*patterns: Pattern) -> set[int]:
    return {a for p in patterns for a in p if is_slot(a)}


def solve(
    tpl: Template,
    slots: Iterable[int],
    facts: Facts | None = None,
    positives: Iterable[tuple[str, Pattern]] = (),
    negatives: Iterable[tuple[str, Pattern]] = (),
    clashes: Iterable[tuple[Pattern, Pattern]] = (),
    ordered: bool = True,
    delta: tuple[Pattern, list] | None = None,
) -> list[tuple[str, ...]]:
    """The bindings over ``slots`` (ascending; they must hold every slot
    the constraints read) that keep the template's disequalities, make
    each positive atom true and each negative one false among the true
    constant atoms, and give no clashing pair of patterns the same
    arguments; in binding order if ``ordered``.

    The positive atoms are joined first, the one with the fewest unbound
    slots (then the fewest true atoms) at each step, against ``facts``'
    indexes; ``delta``, a pattern and the atoms it is matched against,
    is joined before them.  The slots still free then take their pools
    in order.  Every other constraint filters as soon as its slots are
    bound, so no binding it rejects is extended."""
    if tpl.void:
        return []
    slots = list(slots)
    rel: list[tuple] = [()]
    cols: list[int] = []
    # a disequality keeps two one-argument patterns apart
    apart = [((a,), (b,)) for a, b in tpl.diseqs] + list(clashes)
    pending = [(slots_of(p, q), functools.partial(_apart, p, q)) for p, q in apart]
    pending += [(slots_of(p), functools.partial(_absent, facts.sets[name], p)) for name, p in negatives]

    def settle(rel):
        nonlocal pending
        bound = set(cols)
        ready = [test for needs, test in pending if needs <= bound]
        pending = [(needs, test) for needs, test in pending if not needs <= bound]
        for test in ready:
            rel = test(rel, cols)
        return rel

    rel = settle(rel)
    joined = False
    if delta is not None:
        pattern, atoms = delta
        rel = settle(_join(rel, cols, pattern, functools.partial(_grouped, atoms)))
        joined = True
    todo = list(positives)
    while todo and rel:
        name, pattern = min(todo, key=lambda p: (len(slots_of(p[1]) - set(cols)), len(facts.lists[p[0]])))
        todo.remove((name, pattern))
        rel = settle(_join(rel, cols, pattern, functools.partial(facts.index, name)))
        joined = True
    if not rel:
        return []
    for i in slots:
        if i not in cols:
            units = [(c,) for c in tpl.pools[i]]
            cols.append(i)
            rel = settle(list(itertools.starmap(operator.add, itertools.product(rel, units))))
    if cols != slots:
        rel = list(map(operator.itemgetter(*map(cols.index, slots)), rel))
    if ordered and joined:
        ranks = [tpl.rank(i) for i in slots]
        rel.sort(key=lambda t: tuple(map(operator.getitem, ranks, t)))
    return rel


def clash_pairs(tpl: Template, literals: list[FluentLiteral]) -> list[tuple[Pattern, Pattern]]:
    """The pairs of a fluent's literals of opposite signs, as patterns:
    a binding that gives a pair the same arguments makes a condition
    that can never hold."""
    return [
        (tpl.pattern(p.atom), tpl.pattern(q.atom))
        for p in literals
        if p.positive
        for q in literals
        if not q.positive and q.atom.name == p.atom.name
    ]


class PerAction:
    """An effect or needs statement, ground one action at a time.  Its
    instances take the positions from ``offset`` on in the theory's full
    list of its kind, one per binding that keeps its ``constraints`` (as
    ``solve`` takes them) in binding order; ``kept`` counts those.

    The slots before the first one the constraints read are free, so a
    kept binding is one of the product over their pools followed by one
    of the bindings kept over the slots from there on (its tail).  A
    binding's position is then arithmetic: its free part's place in that
    product times the number of kept tails, plus its tail's place among
    them.  The kept tails are joined on the first ``rows`` call and
    grouped by the action's slots among them; a statement whose action
    is never asked for joins nothing.  Its rows are the positions and the
    columns ``make_columns`` makes of an action's bindings."""

    def __init__(self, tpl: Template, action: Atom, offset: int, constraints: dict, make_columns: Callable):
        self.tpl = tpl
        self.action = action
        self.offset = offset
        self.constraints = constraints
        self.make_columns = make_columns
        self.start = min(tpl.reads(**constraints), default=len(tpl.pools))
        self.kept = tpl.count(**constraints)
        self._tails: dict[tuple[str, ...], tuple[list[int], list[tuple]]] | None = None

    def _prepare(self) -> None:
        """Join the kept tails and group them by the action's slots among
        them; lay out the free part, each slot with its pool, its stride
        and, if the action fixes it, its constants' places, else its
        weights."""
        tpl, start, width = self.tpl, self.start, len(self.tpl.pools)
        mine = {tpl.slot[t] for t in self.action.args if t in tpl.slot}
        own = [i for i in sorted(mine) if i >= start]
        tails = solve(tpl, range(start, width), **self.constraints) if start < width else [()]
        # a tail's key: its values in the action's slots, as the action's
        # values read off ``rows``'s dict of them
        self._key = operator.itemgetter(*own) if own else lambda fixed: ()
        keys = list(map(operator.itemgetter(*[i - start for i in own]), tails)) if own else [()] * len(tails)
        self._tails = {}
        for key, run in itertools.groupby(sorted(range(len(tails)), key=keys.__getitem__), keys.__getitem__):
            ranks = list(run)
            self._tails[key] = (ranks, list(map(tails.__getitem__, ranks)))
        layout, stride = [], len(tails)
        for i in reversed(range(start)):
            pool = tpl.pools[i]
            layout.append((i, pool, stride, tpl.rank(i) if i in mine else range(0, len(pool) * stride, stride)))
            stride *= len(pool)
        self._layout = layout[::-1]
        self._columns = self.make_columns()

    def rows(self, action: Atom):
        """The rows of ``action``, in binding order."""
        tpl, fixed = self.tpl, {}
        # the action's arguments fix the slots of the statement's variables
        # in their places; its other arguments must be the statement's
        # constants
        for t, value in zip(self.action.args, action.args):
            i = tpl.slot.get(t)
            if i is None:
                if t != value:
                    return ()
            elif fixed.setdefault(i, value) != value:
                return ()
        if not self.kept:
            return ()
        if self._tails is None:
            self._prepare()
        ranks, tails = self._tails.get(self._key(fixed), ((), ()))
        if not tails:
            return ()
        first, heads, weights = self.offset, [], []
        for i, pool, stride, places in self._layout:
            if i in fixed:
                first += places[fixed[i]] * stride
                heads.append((fixed[i],))
            else:
                heads.append(pool)
                weights.append(places)
        firsts = [first + w for w in map(sum, itertools.product(*weights))]
        if len(tails) == 1 and not tails[0]:
            combos = list(itertools.product(*heads))  # nothing constrained
            positions = firsts
        else:
            combos = list(itertools.starmap(operator.add, itertools.product(itertools.product(*heads), tails)))
            positions = itertools.starmap(operator.add, itertools.product(firsts, ranks))
        return zip(positions, *self._columns(combos))
