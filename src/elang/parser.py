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

``tokenize`` scans with one compiled regex (``_SCAN``), matched from
each token's end (``finditer`` raised peak memory).  A token is a named
tuple of its kind, its text and its start and end offsets; its ``span``
(file, line, column) is built only when asked for, by bisecting the
text's line starts, found on first use.  A file that parses cleanly thus
builds one ``SourceSpan`` per statement (``ParsedUnit.spans``), none per token.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
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
    tokens and statements keep character offsets, and ``_Source.span``
    derives the line and column from them."""

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
        self.kind = kind  # "lexical" | "syntax" | "unknown-identifier" | "arity-mismatch"


class _Source:
    """One scanned text: its file name and, on first use, where each of
    its lines starts.  Only a newline starts a line."""

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._starts: list[int] | None = None

    def span(self, start: int, end: int) -> SourceSpan:
        if self._starts is None:
            starts, i, find = [0], 0, self.text.find
            while i := find("\n", i) + 1:
                starts.append(i)
            self._starts = starts
        line = bisect.bisect_right(self._starts, start)
        return SourceSpan(self.file, start, end, line, start - self._starts[line - 1] + 1)


class Token(NamedTuple):
    kind: str  # "name" | "var" | "int" | "kw" | "eof" | punctuation
    value: str
    start: int  # character offsets into the source text
    end: int
    source: _Source

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.start, self.end)


# One scan step: skip blanks and comments, then read a word, a
# punctuation mark, a character no token starts with, or the end.  ``\s``
# is exactly ``str.isspace`` and ``\w`` exactly ``str.isalnum`` or ``_``,
# so a word is a run an identifier could continue over; ``tokenize``
# splits off a leading number and checks the first character with
# ``str.isdigit`` and ``str.isalpha``, which no regex class matches.
_SCAN = re.compile(
    r"(?:\s+|%[^\n]*)*(?:(?P<word>\w[\w-]*)|(?P<punct>!=|[(){},:.])|(?P<other>.)|\Z)", re.S
)


def tokenize(text: str, file: str = "<string>") -> list[Token]:
    source = _Source(file, text)
    tokens: list[Token] = []
    append = tokens.append
    match = _SCAN.match
    pos = 0
    while True:
        m = match(text, pos)  # never None: "other" or the end matches
        pos = m.end()
        group = m.lastgroup
        if group == "word":
            word, start = m.group(group), m.start(group)
            if word[0].isdigit():
                # a number runs over digits only; '-' may occur inside
                # identifiers (it carries holds-at and happens-at)
                j = 1
                while j < len(word) and word[j].isdigit():
                    j += 1
                append(Token("int", word[:j], start, start + j, source))
                if j == len(word):
                    continue
                word, start = word[j:], start + j
            ch = word[0]
            if not (ch.isalpha() or ch == "_"):
                raise ParseError(
                    "unexpected character %r" % ch, source.span(start, start + 1), kind="lexical"
                )
            kind = "kw" if word in KEYWORDS else "var" if is_variable(word) else "name"
            append(Token(kind, word, start, pos, source))
        elif group == "punct":
            append(Token(m.group(group), m.group(group), m.start(group), pos, source))
        elif group == "other":
            ch, start = m.group(group), m.start(group)
            message = "stray '!'" if ch == "!" else "unexpected character %r" % ch
            raise ParseError(message, source.span(start, start + 1), kind="lexical")
        else:
            append(Token("eof", "", len(text), len(text), source))
            break
    return tokens


def _number(tok: Token) -> int:
    """An "int" token's value; ``int`` refuses some digits the scanner takes, such as '²'."""
    try:
        return int(tok.value)
    except ValueError:
        raise ParseError("invalid number %r" % tok.value, tok.span, kind="lexical") from None


@dataclass
class ParsedUnit:
    domain: DomainDescription
    spans: dict[int, SourceSpan] = field(default_factory=dict)  # proposition index -> span


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind and not (kind == "kw" and tok.kind == "kw"):
            raise ParseError(
                "expected %s, found %r" % (what or kind, tok.value or "end of input"), tok.span
            )
        return self.next()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "kw" or tok.value != word:
            raise ParseError(
                "expected '%s', found %r" % (word, tok.value or "end of input"), tok.span
            )
        return self.next()


def _split_statements(tokens: list[Token]) -> list[list[Token]]:
    """Chop the token stream at statement periods."""
    statements: list[list[Token]] = []
    current: list[Token] = []
    for tok in tokens:
        if tok.kind == "eof":
            break
        if tok.kind == ".":
            if not current:
                raise ParseError("empty statement", tok.span)
            statements.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        raise ParseError("statement does not end with '.'", current[-1].span)
    return statements


def _eof_at(tok: Token) -> Token:
    """An end-of-input token over ``tok``'s span."""
    return tok._replace(kind="eof", value="")


def _statement_span(stmt: list[Token]) -> SourceSpan:
    return stmt[0].source.span(stmt[0].start, stmt[-1].end)


def _is_declaration(stmt: list[Token]) -> bool:
    head = stmt[0]
    return head.kind == "kw" and head.value in ("sort", "fluent", "constant", "action")


def _parse_name_list(cur: _Cursor) -> list[Token]:
    names = [cur.expect("name", "an identifier")]
    while cur.peek().kind == ",":
        cur.next()
        names.append(cur.expect("name", "an identifier"))
    return names


def _parse_declaration(stmt: list[Token], sig: Signature) -> None:
    cur = _Cursor(stmt + [_eof_at(stmt[-1])])
    head = cur.next()

    def declared(name: Token) -> None:
        if name.value in sig.sorts or name.value in sig.fluents or name.value in sig.actions:
            raise ParseError("identifier %s is already declared" % name.value, name.span)

    if head.value == "sort":
        name = cur.expect("name", "a sort name")
        declared(name)
        cur.expect(":", "':'")
        constants = _parse_name_list(cur)
        sig.sorts[name.value] = tuple(t.value for t in constants)
    else:
        constant = False
        if head.value == "constant":
            cur.expect_kw("fluent")
            constant = True
            kind = "fluent"
        else:
            kind = head.value  # "fluent" | "action"
        name = cur.expect("name", "a %s name" % kind)
        declared(name)
        arg_sorts: tuple[str, ...] = ()
        if cur.peek().kind == "(":
            cur.next()
            sorts = _parse_name_list(cur)
            cur.expect(")", "')'")
            arg_sorts = tuple(t.value for t in sorts)
        if kind == "fluent":
            sig.fluents[name.value] = FluentDecl(name.value, arg_sorts, constant)
        else:
            sig.actions[name.value] = ActionDecl(name.value, arg_sorts)
    trailing = cur.peek()
    if trailing.kind != "eof":
        raise ParseError("unexpected %r after declaration" % trailing.value, trailing.span)


class _PropParser:
    """Parses one proposition statement against a complete signature."""

    def __init__(self, stmt: list[Token], sig: Signature):
        self.cur = _Cursor(stmt + [_eof_at(stmt[-1])])
        self.sig = sig

    def _term(self) -> str:
        tok = self.cur.peek()
        if tok.kind in ("name", "var"):
            return self.cur.next().value
        raise ParseError("expected a term, found %r" % (tok.value or "end of input"), tok.span)

    def _atom(self, kind: str) -> Atom:
        name = self.cur.peek()
        if name.kind != "name" and not (name.kind == "var"):
            raise ParseError(
                "expected a %s name, found %r" % (kind, name.value or "end of input"), name.span
            )
        self.cur.next()
        args: list[str] = []
        if self.cur.peek().kind == "(":
            self.cur.next()
            args.append(self._term())
            while self.cur.peek().kind == ",":
                self.cur.next()
                args.append(self._term())
            self.cur.expect(")", "')'")
        atom = Atom(name.value, tuple(args))
        self._resolve(atom, kind, name)
        return atom

    def _resolve(self, atom: Atom, kind: str, tok: Token) -> None:
        """Check ``atom``, named by ``tok``, against the signature."""
        table = self.sig.fluents if kind == "fluent" else self.sig.actions
        decl = table.get(atom.name)
        if decl is None:
            other = "action" if kind == "fluent" else "fluent"
            hint = " (declared as a %s)" % other if atom.name in (
                self.sig.actions if kind == "fluent" else self.sig.fluents
            ) else ""
            raise ParseError(
                "%s %s is not declared%s" % (kind, atom.name, hint),
                tok.span,
                kind="unknown-identifier",
            )
        if len(decl.arg_sorts) != len(atom.args):
            raise ParseError(
                "%s %s takes %d arguments, got %d"
                % (kind, atom.name, len(decl.arg_sorts), len(atom.args)),
                tok.span,
                kind="arity-mismatch",
            )

    def _literal(self) -> FluentLiteral:
        positive = True
        tok = self.cur.peek()
        if tok.kind == "kw" and tok.value == "neg":
            self.cur.next()
            positive = False
        return FluentLiteral(self._atom("fluent"), positive)

    def _condition(self) -> tuple[Condition, tuple[tuple[str, str], ...]]:
        """Parse ``{ ... }``; returns the condition and inline typings."""
        self.cur.expect("{", "'{'")
        literals: list[FluentLiteral] = []
        diseqs: list[tuple[str, str]] = []
        typings: dict[str, str] = {}
        if self.cur.peek().kind != "}":
            while True:
                tok = self.cur.peek()
                if tok.kind in ("name", "var") and self.cur.peek(1).kind == "!=":
                    a = self.cur.next().value
                    self.cur.next()
                    b_tok = self.cur.peek()
                    b = self._term()
                    if a == b:
                        raise ParseError("disequality %s != %s is never true" % (a, b), b_tok.span)
                    diseqs.append(_norm_diseq(a, b))
                elif tok.kind == "name" and tok.value in self.sig.sorts:
                    # Inline typing atom: sortname(Variable).
                    self.cur.next()
                    self.cur.expect("(", "'('")
                    arg = self.cur.peek()
                    term = self._term()
                    self.cur.expect(")", "')'")
                    if not is_variable(term):
                        raise ParseError("typing atom %s(..) needs a variable" % tok.value, arg.span)
                    if typings.get(term, tok.value) != tok.value:
                        raise ParseError(
                            "variable %s typed as both %s and %s"
                            % (term, typings[term], tok.value),
                            arg.span,
                        )
                    typings[term] = tok.value
                else:
                    literals.append(self._literal())
                if self.cur.peek().kind != ",":
                    break
                self.cur.next()
        self.cur.expect("}", "'}'")
        cond = Condition(frozenset(literals), frozenset(diseqs))
        return cond, tuple(sorted(typings.items()))

    def _time(self) -> int:
        return _number(self.cur.expect("int", "a time point"))

    def _finish(self) -> None:
        tok = self.cur.peek()
        if tok.kind != "eof":
            raise ParseError("unexpected %r" % tok.value, tok.span)

    def parse(self) -> Proposition:
        tok = self.cur.peek()
        if tok.kind == "kw" and tok.value == "false":
            self.cur.next()
            self.cur.expect_kw("whenever")
            cond, typings = self._condition()
            self._finish()
            return RProp(None, cond, typings)
        if tok.kind == "kw" and tok.value == "neg":
            literal = self._literal()
            kw = self.cur.peek()
            if kw.kind == "kw" and kw.value == "holds-at":
                self.cur.next()
                t = self._time()
                self._finish()
                return TProp(literal, t)
            self.cur.expect_kw("whenever")
            cond, typings = self._condition()
            self._finish()
            return RProp(literal, cond, typings)

        # A bare atom: the following keyword decides the statement form.
        name_tok = self.cur.peek()
        atom = self._atom_unresolved()
        kw = self.cur.peek()
        if kw.kind != "kw":
            raise ParseError(
                "expected a statement keyword after %s, found %r"
                % (atom.name, kw.value or "end of input"),
                kw.span,
            )
        if kw.value == "holds-at":
            self._resolve(atom, "fluent", name_tok)
            self.cur.next()
            t = self._time()
            self._finish()
            return TProp(FluentLiteral(atom, True), t)
        if kw.value == "happens-at":
            self._resolve(atom, "action", name_tok)
            self.cur.next()
            t = self._time()
            self._finish()
            return HProp(atom, t)
        if kw.value in ("initiates", "terminates"):
            self._resolve(atom, "action", name_tok)
            self.cur.next()
            fluent = self._atom("fluent")
            cond, typings = Condition(), ()
            if self.cur.peek().kind == "kw" and self.cur.peek().value == "when":
                self.cur.next()
                cond, typings = self._condition()
            self._finish()
            return CProp(atom, kw.value == "initiates", fluent, cond, typings)
        if kw.value == "whenever":
            self._resolve(atom, "fluent", name_tok)
            self.cur.next()
            cond, typings = self._condition()
            self._finish()
            return RProp(FluentLiteral(atom, True), cond, typings)
        if kw.value == "needs":
            self._resolve(atom, "action", name_tok)
            self.cur.next()
            cond, typings = self._condition()
            self._finish()
            return PProp(atom, cond, typings)
        raise ParseError("unexpected keyword %r" % kw.value, kw.span)

    def _atom_unresolved(self) -> Atom:
        name = self.cur.peek()
        if name.kind not in ("name", "var"):
            raise ParseError(
                "expected a statement, found %r" % (name.value or "end of input"), name.span
            )
        self.cur.next()
        args: list[str] = []
        if self.cur.peek().kind == "(":
            self.cur.next()
            args.append(self._term())
            while self.cur.peek().kind == ",":
                self.cur.next()
                args.append(self._term())
            self.cur.expect(")", "')'")
        return Atom(name.value, tuple(args))


def parse_domain(
    text: str, file: str = "<string>", base_signature: Signature | None = None
) -> ParsedUnit:
    """Parse a domain file.  Declarations are collected before propositions
    are resolved, so statement order is irrelevant.  ``base_signature``
    supplies declarations from an already-parsed file (used to read scenario
    files against a domain's vocabulary)."""
    tokens = tokenize(text, file)
    statements = _split_statements(tokens)
    sig = base_signature.copy() if base_signature is not None else Signature()
    prop_stmts: list[list[Token]] = []
    for stmt in statements:
        if _is_declaration(stmt):
            _parse_declaration(stmt, sig)
        else:
            prop_stmts.append(stmt)
    domain = DomainDescription(sig, [])
    spans: dict[int, SourceSpan] = {}
    for stmt in prop_stmts:
        prop = _PropParser(stmt, sig).parse()
        spans[len(domain.propositions)] = _statement_span(stmt)
        domain.propositions.append(prop)
    return ParsedUnit(domain, spans)


def parse_query(text: str, signature: Signature | None = None, file: str = "<query>") -> Query:
    """Parse a query: ``credulous|skeptical { L holds-at T, ... } [horizon N]``.

    With a signature, fluent names are resolved and checked; goals must be
    ground either way."""
    tokens = tokenize(text, file)
    cur = _Cursor(tokens)
    mode_tok = cur.peek()
    if mode_tok.kind != "kw" or mode_tok.value not in ("credulous", "skeptical"):
        raise ParseError("expected 'credulous' or 'skeptical'", mode_tok.span)
    cur.next()
    cur.expect("{", "'{'")
    goals: list[tuple[FluentLiteral, int]] = []
    resolver = _PropParser([_eof_at(mode_tok)], signature or Signature())
    while cur.peek().kind != "}":
        positive = True
        if cur.peek().kind == "kw" and cur.peek().value == "neg":
            cur.next()
            positive = False
        name_tok = cur.peek()
        if name_tok.kind not in ("name", "var"):
            raise ParseError("expected a fluent literal", name_tok.span)
        cur.next()
        args: list[str] = []
        if cur.peek().kind == "(":
            cur.next()
            while True:
                t = cur.peek()
                if t.kind not in ("name", "var"):
                    raise ParseError("expected a term", t.span)
                cur.next()
                args.append(t.value)
                if cur.peek().kind != ",":
                    break
                cur.next()
            cur.expect(")", "')'")
        atom = Atom(name_tok.value, tuple(args))
        if signature is not None:
            resolver._resolve(atom, "fluent", name_tok)
        literal = FluentLiteral(atom, positive)
        if not literal.is_ground:
            raise ParseError("query literal must be ground", name_tok.span)
        cur.expect_kw("holds-at")
        goals.append((literal, _number(cur.expect("int", "a time point"))))
        if cur.peek().kind == ",":
            cur.next()
    cur.expect("}", "'}'")
    horizon: int | None = None
    if cur.peek().kind == "kw" and cur.peek().value == "horizon":
        cur.next()
        horizon = _number(cur.expect("int", "a horizon"))
    if cur.peek().kind == ".":
        cur.next()
    trailing = cur.peek()
    if trailing.kind != "eof":
        raise ParseError("unexpected %r after query" % trailing.value, trailing.span)
    return Query(mode_tok.value, frozenset(goals), horizon)


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
