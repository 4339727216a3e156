"""The clause kernel: unit propagation with chronological backtracking.

Every clause elang enforces goes through :meth:`ClauseSet.models`: the
state constraints in the initial-state enumeration and in the single-step
search, and the compiled theory of the propositional backend.  Variables
are 1..n; literals are nonzero integers, negative for false.

The search branches on the lowest unassigned variable and tries false
first, so models come out with the lowest variable most significant and
false before true, the one model order both backends keep.  The clause
index is read-only once built, and each ``models()`` call keeps its own
assignment and trail, so enumerations over one ``ClauseSet`` may be
interleaved.  That is why the index is a plain occurrence list: watched
literals move during search.

A ``ClauseSet`` indexes clauses in normal form, no literal repeated and
no tautology, and keeps the given list and tuples as ``clauses`` without
copying them; the empty clause only sets ``empty`` and is not indexed.
Each literal has one occurrence list, in clause order.  The entry of a
binary clause is its other literal, so propagation enqueues it, or
finds the conflict, without reading the clause, as MiniSat and Glucose
keep binary clauses (Een and Sorensson, SAT 2003); a longer clause's
entry is the clause, read for a second open or a true literal; a unit
has none, since the root assigns it.  The order in which literals reach
the trail, and with it every model, decision and propagation count, is
that of reading every clause.

Both callers hand it normal clauses: the engine the theory's
``GroundTheory.constraint_clauses``, read off the rule rows with no sort,
indexed as ``GroundTheory.constraints``; and the SAT backend the
compiler's own list, with that index as ``rows`` repeated at every time
point, one clause schema per step as CCALC-style compilers unroll a
theory (McCain and Turner, AAAI 1997).  A row literal at time t reads
the entries of its time-0 literal, shifted by t times the row width,
and only then its own: the order of listing each row at every time
point, rows first, and the row units come first in (clause, time)
order.  So the shifted rows are never built nor indexed.

The unit clauses are propagated once per ``ClauseSet``, not once per
call, as incremental solvers keep their root level across calls under
assumptions (Een and Sorensson, SAT 2003).  The first ``models()`` call
stores the assignment and trail it reaches from the units alone, with
the number of propagations that took; every call starts from a copy of
that root, charges its propagations to its tally, and only then
enqueues its assumptions.  Unit propagation reaches the same fixpoint in
any order, so the models, their order, the decisions and where a budget
runs out are those of propagating units and assumptions together.  A
conflict at the root makes every call yield nothing.

A call may also fix every variable but some open ones and add ``extra``
clauses, as the single-step search does on the state constraints.  The
``fixed`` assignment names the open variables and the true fixed ones;
the rest are false.  The call builds its values as one list, every
variable false, clears the open variables, applies the root over them
and puts the true fixed variables on the trail, so it costs its open and
true variables and the root, not a step per variable.  A root literal
the fixed values make false leaves no model.  The fixed values are never
propagated, so the search reads the occurrences of its open variables
only; the caller guarantees that they agree with some model of the
clauses, so a clause over root and fixed variables alone already holds.
A clause the fixed values leave unit waits for its open literal, which
may cost decisions but no model.  The extra clauses, the overlay, may
use auxiliaries numbered after ``num_vars``, which are open.  They are
indexed into per-call copies of the occurrence lists, so propagation
runs one loop, and first checked once against the root and the fixed
values, which were never propagated through them.  The SAT backend and
the initial-state enumeration pass neither.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Sequence
from types import SimpleNamespace


class BudgetExceeded(Exception):
    """More than ``budget`` engine nodes or kernel decisions of search."""

    def __init__(self, budget: int, stats, unit: str):
        super().__init__("search budget of %d %s exceeded" % (budget, unit))
        self.budget = budget
        self.stats = stats


class ClauseSet:
    """Clauses over variables 1..num_vars, indexed by literal occurrence:
    the ``rows`` clauses at each of ``times`` time points, then the
    clauses given.  ``clauses`` holds the given ones, units included, and
    the empty clause only as ``empty``; ``size`` counts every clause but
    the empty one, each row once per time point."""

    def __init__(
        self,
        num_vars: int,
        clauses: list[Sequence[int]],
        rows: ClauseSet | None = None,
        times: int = 0,
    ):
        """The index of ``clauses``, which the caller guarantees are normal:
        no literal twice and no literal with its complement.  The list and
        its clauses become ``clauses`` as they are, unless an empty clause
        has to be left out.  ``rows``, an index over 1..w with no rows of
        its own, stands for its clauses at each time t < ``times``, literal
        l shifted by t*w away from zero; its entries are read in place."""
        self.num_vars = num_vars
        self.empty = not all(clauses)
        if self.empty:
            clauses = [c for c in clauses if c]
        self.clauses = clauses
        # occurs[l] lists an entry per clause of two or more literals that
        # contains l, in clause order: the other literal of a binary
        # clause, the clause itself otherwise.  A negative l indexes the
        # upper half of the list.
        occurs: list[list] = [[] for _ in range(2 * num_vars + 1)]
        units = []
        for clause in clauses:
            width = len(clause)
            if width == 2:
                a, b = clause
                occurs[a].append(b)
                occurs[b].append(a)
            elif width > 2:
                for l in clause:
                    occurs[l].append(clause)
            else:
                units.append(clause[0])
        self.occurs = occurs
        self.size = len(clauses)
        self.span = 0  # the row variables are 1..span
        if rows is not None and times:
            w = rows.num_vars
            self.empty = self.empty or rows.empty
            self.size += times * rows.size
            self.span = w * times
            # shift[t][l] is row literal l at time t.  A literal of the
            # variables 1..span reads the entries of its time-0 literal,
            # row_occurs[l], through the shift of its time, row_shift[l].
            shift = [
                [0, *range(t * w + 1, t * w + w + 1), *range(-t * w - w, -t * w)] for t in range(times)
            ]
            self.row_occurs = [None] + rows.occurs[1 : w + 1] * times + rows.occurs[w + 1 :] * times
            self.row_shift = [None] + [at for at in shift + shift[::-1] for _ in range(w)]
            units = [at[u] for u in rows.units for at in shift] + units
        self.units = tuple(units)
        # (ok, value, trail, propagations) after propagating the units,
        # stored by the first models() call and read-only after it.
        self._root: tuple[bool, list[int], list[int], int] | None = None

    def models(
        self,
        assumptions: Iterable[int] = (),
        stats=None,
        budget: int | None = None,
        fixed: tuple[Collection[int], Collection[int]] | None = None,
        extra: Sequence[Sequence[int]] = (),
    ) -> Iterator[frozenset[int]]:
        """Yield every total assignment satisfying the clauses, the
        ``extra`` clauses and the ``assumptions``, and agreeing with the
        ``fixed`` assignment ``(open, true)`` when one is given: every
        variable of 1..num_vars but the ``open`` ones fixed, true when in
        ``true`` and false otherwise (see the module docstring).  Each
        model is the frozenset of its true variables, in the order the
        module docstring gives.  ``stats``, any object with integer
        ``decisions`` and ``propagations``, accumulates the work, the
        root's propagations included on every call; more than ``budget``
        decisions on it raise BudgetExceeded."""
        if self.empty:
            return
        n = self.num_vars
        occurs, span = self.occurs, self.span
        if span:
            row_occurs, row_shift = self.row_occurs, self.row_shift
        tally = SimpleNamespace(decisions=0, propagations=0) if stats is None else stats
        # value[l] is 1 when literal l is true, -1 when false, 0 when open;
        # negative indexes put value[-v] in the upper half of the list.
        value: list[int] = []
        trail: list[int] = []
        qhead = 0

        def enqueue(lit: int) -> bool:
            v = value[lit]
            if v:
                return v > 0
            value[lit] = 1
            value[-lit] = -1
            trail.append(lit)
            return True

        def propagate() -> bool:
            # Each clause the false literal occurs in, rows first: a binary
            # clause's other literal is enqueued or a conflict; a longer
            # clause is read for a second open or a true literal.
            nonlocal qhead
            start = qhead
            try:
                while qhead < len(trail):
                    false = -trail[qhead]
                    qhead += 1
                    if -span <= false <= span:
                        at = row_shift[false]
                        for e in row_occurs[false]:
                            if type(e) is int:
                                e = at[e]
                                v = value[e]
                                if v > 0:
                                    continue
                                if v:
                                    return False
                                value[e] = 1
                                value[-e] = -1
                                trail.append(e)
                                continue
                            unit = 0
                            for l in e:
                                l = at[l]
                                v = value[l]
                                if v > 0 or (v == 0 and unit):
                                    break
                                if v == 0:
                                    unit = l
                            else:
                                if not unit:
                                    return False
                                enqueue(unit)
                    for e in occurs[false]:
                        if type(e) is int:
                            v = value[e]
                            if v > 0:
                                continue
                            if v:
                                return False
                            value[e] = 1
                            value[-e] = -1
                            trail.append(e)
                            continue
                        unit = 0
                        for l in e:
                            v = value[l]
                            if v > 0 or (v == 0 and unit):
                                break  # satisfied, or two literals open
                            if v == 0:
                                unit = l
                        else:
                            if not unit:
                                return False
                            enqueue(unit)
                return True
            finally:
                tally.propagations += qhead - start

        if self._root is None:
            value = [0] * (2 * n + 1)
            ok = all(map(enqueue, self.units)) and propagate()
            self._root = (ok, value[:], trail[:], qhead)
        else:
            tally.propagations += self._root[3]
        ok, root_value, root_trail, qhead = self._root
        if fixed is None or not ok:
            value, trail = root_value[:], root_trail[:]
        else:
            # Every variable false, the open ones cleared and the true ones
            # set, then the root over them: a root literal the fixed values
            # make false leaves no model.  The true fixed variables join
            # the trail unpropagated.
            open_vars, true_vars = fixed
            value = [0] + [-1] * n + [1] * n
            for v in open_vars:
                value[v] = value[-v] = 0
            for v in true_vars:
                value[v] = 1
                value[-v] = -1
            for lit in root_trail:
                if value[lit] < 0:
                    ok = False
                value[lit] = 1
                value[-lit] = -1
            trail = root_trail + [v for v in true_vars if not root_value[v]]
            qhead = len(trail)
        if extra:
            # A per-call copy of the occurrence lists; with auxiliaries, it
            # and the call's values are widened by their slots between the
            # two halves.
            top = max([n] + [abs(l) for clause in extra for l in clause])
            if top > n:
                aux = [0] * (2 * (top - n))
                value = value[: n + 1] + aux + value[n + 1 :]
                occurs = occurs[: n + 1] + [[] for _ in aux] + occurs[n + 1 :]
            else:
                occurs = occurs[:]
            for clause in extra:
                if len(clause) == 2:
                    a, b = clause
                    occurs[a] = occurs[a] + [b]
                    occurs[b] = occurs[b] + [a]
                elif len(clause) > 2:
                    for l in clause:
                        occurs[l] = occurs[l] + [clause]
                # Neither the root nor the fixed values were propagated
                # through it.
                free = [l for l in clause if value[l] >= 0]
                if not free:
                    ok = False
                elif len(free) == 1:
                    enqueue(free[0])  # a no-op when it is true
            n = top
        ok = ok and all(map(enqueue, assumptions)) and propagate()
        frames: list[list[int]] = []  # [decision literal, trail length, flipped]
        var = 1  # every variable below it is assigned
        while True:
            if ok:
                while var <= n and value[var]:
                    var += 1
                if var <= n:
                    tally.decisions += 1
                    if budget is not None and tally.decisions > budget:
                        raise BudgetExceeded(budget, tally, "decisions")
                    lit = -var
                    frames.append([lit, len(trail), 0])
                    enqueue(lit)
                    ok = propagate()
                    continue
                yield frozenset(l for l in trail if l > 0)
            # Backtrack to the latest decision whose other value is untried.
            while frames and frames[-1][2]:
                frames.pop()
            if not frames:
                return
            frame = frames[-1]
            lit, depth = frame[0], frame[1]
            for l in trail[depth:]:
                value[l] = value[-l] = 0
            del trail[depth:]
            qhead = depth
            frame[2] = 1
            enqueue(-lit)
            var = abs(lit)
            ok = propagate()
