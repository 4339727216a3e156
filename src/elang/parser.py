"""Surface syntax for domain (``.e``) and query (``.q``) files.

Statements end with a period, ``%`` starts a comment running to end of
line.  Declarations may appear anywhere in a file; they are collected in a
first pass so that statement order never matters:

    sort animal: john, elly, dumpo.
    fluent animal_pos(animal, position).
    constant fluent neighbor_pos(position, position).
    action move_to_position(animal, position).

Propositions use the keywords ``holds-at``, ``happens-at``, ``initiates``,
``terminates``, ``when``, ``whenever`` and ``needs``; ``neg`` negates a
fluent literal, ``false whenever { ... }`` states a denial, and ``X != Y``
inside a condition is a disequality between terms.  Identifiers starting
with an uppercase letter are variables in argument positions; fluent and
action names may use any case because they are resolved against the
declarations.  A condition atom whose name is a declared sort is read as an
inline variable typing, e.g. ``{ animal(A), ... }``.

Query files hold a single query:

    skeptical { Light holds-at 4 }.
    credulous { neg rides(john,elly) holds-at 2 } horizon 6.

The full grammar lives in docs/grammar.ebnf.

A text is scanned once: ``_SCAN.findall`` cuts it into (skip, token)
pairs, the skip being the blanks and comments before the token, and
``_Scan`` keeps the token texts and their kinds as two parallel lists,
the kinds looked up in a table made per text over its distinct tokens.
Statements are then parsed by index over those lists, so a clean parse
builds no token object.  Character offsets are ``itertools.accumulate``
over the lengths of the pieces, and a ``SourceSpan`` (file, line,
column) bisects the text's line starts; both are made only when an error
or a reader of ``ParsedUnit.spans`` asks, so a file that parses cleanly
builds no span at all.  ``tokenize`` returns the same scan as ``Token``
tuples.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import (
    ActionDecl,
    Atom,
    Condition,
    CProp,
    DomainDescription,
    FluentDecl,
    FluentLiteral,
    HProp,
    PProp,
    Proposition,
    RProp,
    Signature,
    TProp,
    _norm_diseq,
    is_variable,
)
from .query import Query

KEYWORDS = {
    "sort",
    "fluent",
    "constant",
    "action",
    "initiates",
    "terminates",
    "when",
    "whenever",
    "needs",
    "neg",
    "false",
    "holds-at",
    "happens-at",
    "credulous",
    "skeptical",
    "horizon",
}


@dataclass(frozen=True)
class SourceSpan:
    """A stretch of source text, built only when something asks for it:
    the scan keeps character offsets, and ``_Scan.span`` derives the line
    and column from them."""

    file: str
    start: int  # character offsets into the source text
    end: int
    line: int  # 1-based position of the span start
    column: int

    def __str__(self) -> str:
        return "%s:%d:%d" % (self.file, self.line, self.column)


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, kind: str = "syntax"):
        super().__init__("%s: %s" % (span, message))
        self.message = message
        self.span = span
        self.kind = kind  # "lexical" | "syntax" | "unknown-identifier" | "arity-mismatch" | "sort-mismatch"


# One scan step: blanks and comments, then a word, a punctuation mark, a
# character no token starts with, or the empty end of input.  ``\s`` is
# exactly ``str.isspace`` and ``\w`` exactly ``str.isalnum`` or ``_``, so
# a word is a run an identifier could continue over; ``_kind`` checks its
# first character with ``str.isdigit`` and ``str.isalpha``, which no
# regex class matches, and a number running into a word is split off it.
_SCAN = re.compile(r"(\s*(?:%[^\n]*\s*)*)([(){},:.]|\w[\w-]*|!=|.|)", re.S)
_PUNCTUATION = frozenset(("!=", "(", ")", "{", "}", ",", ":", "."))
_DECLARATIONS = frozenset(("sort", "fluent", "constant", "action"))
_TERMS = ("name", "var")


def _kind(tok: str) -> str:
    """A token's kind: "name" | "var" | "int" | "kw" | "eof" | its
    punctuation mark; "split" for a number running into a word and "bad"
    for a token no kind fits."""
    if tok in _PUNCTUATION:
        return tok
    if not tok:
        return "eof"
    if tok[0].isdigit():
        return "int" if tok.isdigit() else "split"
    if tok[0].isalpha() or tok[0] == "_":
        return "kw" if tok in KEYWORDS else "var" if is_variable(tok) else "name"
    return "bad"


class _Scan:
    """One text scanned: ``toks`` and ``kinds``, parallel lists that end
    with the end of input ("", "eof").  Offsets and line starts are made
    on first use.  Raises ``ParseError`` at the first bad character."""

    def __init__(self, text: str, file: str):
        self.text, self.file = text, file
        pairs = _SCAN.findall(text)
        if len(pairs) > 1 and not pairs[-2][1]:
            pairs.pop()  # the end matched after trailing blanks and again at the end
        toks = list(map(operator.itemgetter(1), pairs))
        kinds = {tok: _kind(tok) for tok in set(toks)}
        if "split" in kinds.values() or "bad" in kinds.values():
            pairs = self._split_numbers(pairs, kinds)
            toks = list(map(operator.itemgetter(1), pairs))
        self.pairs, self.toks = pairs, toks
        self.kinds = list(map(kinds.__getitem__, toks))

    def _split_numbers(self, pairs: list[tuple[str, str]], kinds: dict[str, str]):
        """``pairs`` with each number that runs into a word split off it
        (a number runs over digits only; '-' may occur inside identifiers,
        where it carries holds-at and happens-at).  Raises at the first
        token no kind fits."""
        out, pos = [], 0
        for skip, tok in pairs:
            pos += len(skip)
            if kinds[tok] == "split":
                j = next(j for j, ch in enumerate(tok) if not ch.isdigit())
                out.append((skip, tok[:j]))
                kinds[tok[:j]] = "int"
                skip, tok, pos = "", tok[j:], pos + j
                kinds.setdefault(tok, _kind(tok))
            if kinds[tok] == "bad":
                message = "stray '!'" if tok == "!" else "unexpected character %r" % tok[0]
                raise ParseError(message, self.span(pos, pos + 1), kind="lexical")
            out.append((skip, tok))
            pos += len(tok)
        return out

    @cached_property
    def offsets(self) -> list[int]:
        """Token ``i`` runs from ``offsets[2 * i]`` to ``offsets[2 * i + 1]``."""
        return list(itertools.accumulate(map(len, itertools.chain.from_iterable(self.pairs))))

    @cached_property
    def line_starts(self) -> list[int]:
        """Where each line starts.  Only a newline starts a line."""
        starts, i, find = [0], 0, self.text.find
        while i := find("\n", i) + 1:
            starts.append(i)
        return starts

    def span(self, start: int, end: int) -> SourceSpan:
        starts = self.line_starts
        line = bisect.bisect_right(starts, start)
        return SourceSpan(self.file, start, end, line, start - starts[line - 1] + 1)

    def token_span(self, first: int, last: int | None = None) -> SourceSpan:
        """From token ``first``'s start to token ``last``'s end (default ``first``'s)."""
        offsets = self.offsets
        return self.span(offsets[2 * first], offsets[2 * (first if last is None else last) + 1])


class Token(NamedTuple):
    kind: str  # "name" | "var" | "int" | "kw" | "eof" | punctuation
    value: str
    start: int  # character offsets into the source text
    end: int
    source: _Scan

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.start, self.end)


def tokenize(text: str, file: str = "<string>") -> list[Token]:
    """The scan of ``text`` as tokens, ending with the end of input."""
    scan = _Scan(text, file)
    offsets = scan.offsets
    return [
        Token(kind, tok, offsets[2 * i], offsets[2 * i + 1], scan)
        for i, (tok, kind) in enumerate(zip(scan.toks, scan.kinds))
    ]


class ParsedUnit:
    """A parsed domain file: its description and, built on first read,
    ``spans``, each proposition's statement span by proposition index."""

    def __init__(self, domain: DomainDescription, scan: _Scan, statements: list[tuple[int, int]]):
        self.domain = domain
        self._scan, self._statements = scan, statements

    @cached_property
    def spans(self) -> dict[int, SourceSpan]:
        span = self._scan.token_span
        return {k: span(first, stop - 1) for k, (first, stop) in enumerate(self._statements)}


class _Parser:
    """Parses statements by index over one scan.  A method that reads a
    phrase takes the index where it starts and returns what it read with
    the index after it.  ``stop`` is the index of the current statement's
    '.', which reads as its end of input with the span of the token
    before it; a query has no such stop and reads to the end of input."""

    def __init__(self, scan: _Scan, sig: Signature | None):
        self.scan, self.sig = scan, sig
        self.toks, self.kinds = scan.toks, scan.kinds
        self.stop = -1

    def statements(self) -> list[tuple[int, int]]:
        """Each statement's first token and its '.', by index."""
        toks, found, first = self.toks, [], 0
        last = len(toks) - 1  # the end of input
        while True:
            try:
                stop = toks.index(".", first, last)
            except ValueError:
                break
            if stop == first:
                raise ParseError("empty statement", self.scan.token_span(stop))
            found.append((first, stop))
            first = stop + 1
        if first < last:
            raise ParseError("statement does not end with '.'", self.scan.token_span(last - 1))
        return found

    def _error(self, i: int, message: str, kind: str = "syntax") -> ParseError:
        return ParseError(message, self.scan.token_span(i - 1 if i == self.stop else i), kind)

    def _expected(self, i: int, what: str) -> ParseError:
        found = "end of input" if i == self.stop else self.toks[i] or "end of input"
        return self._error(i, "expected %s, found %r" % (what, found))

    def _finish(self, i: int) -> None:
        if i != self.stop:
            raise self._error(i, "unexpected %r" % self.toks[i])

    def _number(self, i: int, what: str = "a time point") -> int:
        """An "int" token's value; ``int`` refuses some digits the scanner takes, such as '²'."""
        if self.kinds[i] != "int":
            raise self._expected(i, what)
        try:
            return int(self.toks[i])
        except ValueError:
            raise self._error(i, "invalid number %r" % self.toks[i], "lexical") from None

    def _names(self, i: int) -> tuple[tuple[str, ...], int]:
        toks, kinds, names = self.toks, self.kinds, []
        while True:
            if kinds[i] != "name":
                raise self._expected(i, "an identifier")
            names.append(toks[i])
            if toks[i + 1] != ",":
                return tuple(names), i + 1
            i += 2

    def declaration(self, i: int, stop: int) -> None:
        """Add the declaration from ``i`` to its '.' at ``stop`` to the signature."""
        self.stop = stop
        toks, sig = self.toks, self.sig
        head = toks[i]
        kind = head if head in ("sort", "action") else "fluent"
        i += 1
        if head == "constant":
            if toks[i] != "fluent":
                raise self._expected(i, "'fluent'")
            i += 1
        name = toks[i]
        if self.kinds[i] != "name":
            raise self._expected(i, "an action name" if kind == "action" else "a %s name" % kind)
        if name in sig.sorts or name in sig.fluents or name in sig.actions:
            raise self._error(i, "identifier %s is already declared" % name)
        if kind == "sort":
            if toks[i + 1] != ":":
                raise self._expected(i + 1, "':'")
            sig.sorts[name], i = self._names(i + 2)
        else:
            arg_sorts: tuple[str, ...] = ()
            i += 1
            if toks[i] == "(":
                arg_sorts, i = self._names(i + 1)
                if toks[i] != ")":
                    raise self._expected(i, "')'")
                i += 1
            if kind == "fluent":
                sig.fluents[name] = FluentDecl(name, arg_sorts, head == "constant")
            else:
                sig.actions[name] = ActionDecl(name, arg_sorts)
        if i != stop:
            raise self._error(i, "unexpected %r after declaration" % toks[i])

    def _args(self, i: int) -> tuple[tuple[str, ...], int]:
        """The argument list at ``i``, if there is one."""
        toks, kinds = self.toks, self.kinds
        if toks[i] != "(":
            return (), i
        args = []
        while True:
            i += 1
            if kinds[i] != "name" and kinds[i] != "var":
                raise self._expected(i, "a term")
            args.append(toks[i])
            i += 1
            if toks[i] != ",":
                break
        if toks[i] != ")":
            raise self._expected(i, "')'")
        return tuple(args), i + 1

    def _resolve(self, atom: Atom, kind: str, i: int) -> None:
        """Check ``atom``, named by token ``i``, against the signature."""
        sig = self.sig
        table, other = (sig.fluents, sig.actions) if kind == "fluent" else (sig.actions, sig.fluents)
        decl = table.get(atom.name)
        if decl is None:
            hint = ""
            if atom.name in other:
                hint = " (declared as an action)" if kind == "fluent" else " (declared as a fluent)"
            raise self._error(
                i, "%s %s is not declared%s" % (kind, atom.name, hint), "unknown-identifier"
            )
        if len(decl.arg_sorts) != len(atom.args):
            raise self._error(
                i,
                "%s %s takes %d arguments, got %d"
                % (kind, atom.name, len(decl.arg_sorts), len(atom.args)),
                "arity-mismatch",
            )

    def _atom(self, i: int, kind: str) -> tuple[Atom, int]:
        """A ``kind`` atom, checked against the signature if there is one."""
        if self.kinds[i] not in _TERMS:
            raise self._expected(i, "a %s name" % kind)
        args, j = self._args(i + 1)
        atom = Atom(self.toks[i], args)
        if self.sig is not None:
            self._resolve(atom, kind, i)
        return atom, j

    def _literal(self, i: int) -> tuple[FluentLiteral, int]:
        if self.toks[i] == "neg":
            atom, i = self._atom(i + 1, "fluent")
            return FluentLiteral(atom, False), i
        atom, i = self._atom(i, "fluent")
        return FluentLiteral(atom, True), i

    def _condition(self, i: int) -> tuple[Condition, tuple[tuple[str, str], ...], int]:
        """``{ ... }`` at ``i``: the condition and its inline typings."""
        toks, kinds = self.toks, self.kinds
        if toks[i] != "{":
            raise self._expected(i, "'{'")
        i += 1
        literals: list[FluentLiteral] = []
        diseqs: list[tuple[str, str]] = []
        typings: dict[str, str] = {}
        if toks[i] != "}":
            while True:
                tok = toks[i]
                if kinds[i] in _TERMS and toks[i + 1] == "!=":
                    if kinds[i + 2] not in _TERMS:
                        raise self._expected(i + 2, "a term")
                    if tok == toks[i + 2]:
                        raise self._error(i + 2, "disequality %s != %s is never true" % (tok, tok))
                    diseqs.append(_norm_diseq(tok, toks[i + 2]))
                    i += 3
                elif kinds[i] == "name" and tok in self.sig.sorts:
                    # Inline typing atom: sortname(Variable).
                    if toks[i + 1] != "(":
                        raise self._expected(i + 1, "'('")
                    if kinds[i + 2] not in _TERMS:
                        raise self._expected(i + 2, "a term")
                    term = toks[i + 2]
                    if toks[i + 3] != ")":
                        raise self._expected(i + 3, "')'")
                    if not is_variable(term):
                        raise self._error(i + 2, "typing atom %s(..) needs a variable" % tok)
                    if typings.get(term, tok) != tok:
                        raise self._error(
                            i + 2, "variable %s typed as both %s and %s" % (term, typings[term], tok)
                        )
                    typings[term] = tok
                    i += 4
                else:
                    literal, i = self._literal(i)
                    literals.append(literal)
                if toks[i] != ",":
                    break
                i += 1
        if toks[i] != "}":
            raise self._expected(i, "'}'")
        return Condition(frozenset(literals), frozenset(diseqs)), tuple(sorted(typings.items())), i + 1

    def proposition(self, i: int, stop: int) -> Proposition:
        """The proposition from ``i`` to its '.' at ``stop``."""
        self.stop = stop
        toks = self.toks
        tok = toks[i]
        if tok == "false":
            if toks[i + 1] != "whenever":
                raise self._expected(i + 1, "'whenever'")
            cond, typings, i = self._condition(i + 2)
            self._finish(i)
            return RProp(None, cond, typings)
        if tok == "neg":
            literal, i = self._literal(i)
            if toks[i] == "holds-at":
                t = self._number(i + 1)
                self._finish(i + 2)
                return TProp(literal, t)
            if toks[i] != "whenever":
                raise self._expected(i, "'whenever'")
            cond, typings, i = self._condition(i + 1)
            self._finish(i)
            return RProp(literal, cond, typings)

        # A bare atom: the following keyword decides the statement form.
        name = i
        if self.kinds[i] not in _TERMS:
            raise self._expected(i, "a statement")
        args, i = self._args(i + 1)
        atom = Atom(tok, args)
        kw = toks[i]
        if self.kinds[i] != "kw":
            raise self._expected(i, "a statement keyword after %s" % tok)
        if kw == "holds-at" or kw == "happens-at":
            self._resolve(atom, "fluent" if kw == "holds-at" else "action", name)
            t = self._number(i + 1)
            self._finish(i + 2)
            return TProp(FluentLiteral(atom, True), t) if kw == "holds-at" else HProp(atom, t)
        if kw == "initiates" or kw == "terminates":
            self._resolve(atom, "action", name)
            fluent, i = self._atom(i + 1, "fluent")
            cond, typings = Condition(), ()
            if toks[i] == "when":
                cond, typings, i = self._condition(i + 1)
            self._finish(i)
            return CProp(atom, kw == "initiates", fluent, cond, typings)
        if kw == "whenever" or kw == "needs":
            self._resolve(atom, "fluent" if kw == "whenever" else "action", name)
            cond, typings, i = self._condition(i + 1)
            self._finish(i)
            if kw == "whenever":
                return RProp(FluentLiteral(atom, True), cond, typings)
            return PProp(atom, cond, typings)
        raise self._error(i, "unexpected keyword %r" % kw)


def parse_domain(
    text: str, file: str = "<string>", base_signature: Signature | None = None
) -> ParsedUnit:
    """Parse a domain file.  Declarations are collected before propositions
    are resolved, so statement order is irrelevant.  ``base_signature``
    supplies declarations from an already-parsed file (used to read scenario
    files against a domain's vocabulary)."""
    sig = base_signature.copy() if base_signature is not None else Signature()
    parser = _Parser(_Scan(text, file), sig)
    props: list[tuple[int, int]] = []
    for first, stop in parser.statements():
        if parser.toks[first] in _DECLARATIONS:
            parser.declaration(first, stop)
        else:
            props.append((first, stop))
    domain = DomainDescription(sig, [parser.proposition(first, stop) for first, stop in props])
    return ParsedUnit(domain, parser.scan, props)


def parse_query(text: str, signature: Signature | None = None, file: str = "<query>") -> Query:
    """Parse a query: ``credulous|skeptical { L holds-at T, ... } [horizon N]``.

    With a signature, fluent names, arities and the sorts of the goals'
    constants are checked; goals must be ground either way."""
    parser = _Parser(_Scan(text, file), signature)
    toks = parser.toks
    mode = toks[0]
    if mode != "credulous" and mode != "skeptical":
        raise parser._error(0, "expected 'credulous' or 'skeptical'")
    if toks[1] != "{":
        raise parser._expected(1, "'{'")
    i, goals = 2, []
    if toks[i] != "}":
        while True:
            name = i + 1 if toks[i] == "neg" else i
            literal, i = parser._literal(i)
            if not literal.is_ground:
                raise parser._error(name, "query literal must be ground")
            if signature is not None:
                # a domain file's constants are checked by ``validate``
                sorts = signature.fluents[literal.atom.name].arg_sorts
                for k, (arg, sort) in enumerate(zip(literal.atom.args, sorts)):
                    if arg not in signature.sorts.get(sort, ()):
                        message = "constant %s is not of sort %s" % (arg, sort)
                        raise parser._error(name + 2 + 2 * k, message, "sort-mismatch")
            if toks[i] != "holds-at":
                raise parser._expected(i, "'holds-at'")
            goals.append((literal, parser._number(i + 1)))
            i += 2
            if toks[i] != ",":
                break
            i += 1
    if toks[i] != "}":
        raise parser._expected(i, "'}'")
    i += 1
    horizon: int | None = None
    if toks[i] == "horizon":
        horizon = parser._number(i + 1, "a horizon")
        i += 2
    if toks[i] == ".":
        i += 1
    if toks[i]:
        raise parser._error(i, "unexpected %r after query" % toks[i])
    return Query(mode, frozenset(goals), horizon)


# ---------------------------------------------------------------------------
# Pretty printing


def format_condition(cond: Condition, var_sorts: tuple[tuple[str, str], ...] = ()) -> str:
    parts = ["%s(%s)" % (s, v) for v, s in var_sorts]
    parts += [str(l) for l in sorted(cond.literals)]
    parts += ["%s != %s" % d for d in sorted(cond.diseqs)]
    return "{ %s }" % ", ".join(parts) if parts else "{ }"


def format_proposition(prop: Proposition) -> str:
    if isinstance(prop, TProp):
        return "%s holds-at %d." % (prop.literal, prop.time)
    if isinstance(prop, HProp):
        return "%s happens-at %d." % (prop.action, prop.time)
    if isinstance(prop, CProp):
        verb = "initiates" if prop.initiates else "terminates"
        base = "%s %s %s" % (prop.action, verb, prop.fluent)
        if prop.condition.is_empty and not prop.var_sorts:
            return base + "."
        return "%s when %s." % (base, format_condition(prop.condition, prop.var_sorts))
    if isinstance(prop, RProp):
        head = "false" if prop.head is None else str(prop.head)
        return "%s whenever %s." % (head, format_condition(prop.condition, prop.var_sorts))
    if isinstance(prop, PProp):
        return "%s needs %s." % (prop.action, format_condition(prop.condition, prop.var_sorts))
    raise TypeError("not a proposition: %r" % (prop,))


def pretty_print(domain: DomainDescription) -> str:
    """Canonical text for a domain; parsing it back yields an equal value."""
    sig = domain.signature
    lines: list[str] = []
    for sort, constants in sig.sorts.items():
        lines.append("sort %s: %s." % (sort, ", ".join(constants)))
    for decl in sig.fluents.values():
        head = "constant fluent" if decl.constant else "fluent"
        args = "(%s)" % ", ".join(decl.arg_sorts) if decl.arg_sorts else ""
        lines.append("%s %s%s." % (head, decl.name, args))
    for decl in sig.actions.values():
        args = "(%s)" % ", ".join(decl.arg_sorts) if decl.arg_sorts else ""
        lines.append("action %s%s." % (decl.name, args))
    if lines and domain.propositions:
        lines.append("")
    for prop in domain.propositions:
        lines.append(format_proposition(prop))
    return "\n".join(lines) + "\n"


def format_query(query: Query) -> str:
    goals = ", ".join("%s holds-at %d" % (lit, t) for lit, t in sorted(query.goals))
    text = "%s { %s }" % (query.mode, goals) if goals else "%s { }" % query.mode
    if query.horizon is not None:
        text += " horizon %d" % query.horizon
    return text + "."
