"""Surface syntax: tokenizer, statements, queries, pretty printing."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elang.model import Atom, CProp, HProp, PProp, RProp, TProp, validate, errors_of
from elang.parser import (
    ParseError,
    format_proposition,
    format_query,
    parse_domain,
    parse_query,
    pretty_print,
    tokenize,
)

from elang.corpus import CORPUS_HORIZONS, ZOO_SCENARIOS, corpus_path, generate_zoo

from oracles import LexError, random_theory, reference_tokenize, walk_scenario

BASIC = """
% a bulb
fluent light.
fluent normal.
action switch_on.

switch_on initiates light when { normal }.
neg light whenever { neg normal }.
switch_on needs { neg light }.
switch_on happens-at 2.
normal holds-at 0.
"""


def test_tokenize_keeps_holds_at_single_token():
    values = [t.value for t in tokenize("normal holds-at 0.") if t.value]
    assert values == ["normal", "holds-at", "0", "."]


def test_comments_and_spans():
    tokens = [t for t in tokenize("a. % comment\nb.") if t.value]
    assert [t.value for t in tokens] == ["a", ".", "b", "."]
    assert tokens[2].span.line == 2


# Pieces of text for the scanner property: ASCII and non-ASCII letters,
# decimal digits ("٣"), digits that are not decimal ("²"), numerals that
# are not digits ("½", "Ⅻ"), "_" and "-", a stray "!", "!=", "%"
# comments, tabs, "\r\n" and a no-break space.
LEX_PIECES = [
    "a", "z", "Q", "é", "Ж", "ß", "_", "-", "0", "7", "٣", "²", "½", "Ⅻ",
    "!", "!=", "=", "%", " ", "\t", "\n", "\r\n", "\u00a0", "(", ")", "{", "}",
    ",", ":", ".", "holds-at", "neg", "X1", "#",
]


@given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join))
@settings(max_examples=400, deadline=None)
def test_scanner_matches_reference_lexer(text):
    try:
        expected = reference_tokenize(text)
    except LexError as exc:
        with pytest.raises(ParseError) as raised:
            tokenize(text, "f.e")
        err = raised.value
        assert (err.message, err.kind, err.span.line, err.span.column) == (
            exc.message,
            "lexical",
            exc.line,
            exc.column,
        )
        return
    tokens = tokenize(text, "f.e")
    spans = [t.span for t in tokens]
    assert [
        (t.kind, t.value, (sp.start, sp.end, sp.line, sp.column)) for t, sp in zip(tokens, spans)
    ] == expected
    assert {sp.file for sp in spans} == {"f.e"}


def test_scanner_keeps_unicode_classes():
    # "²" is a digit but not decimal, so it continues a number; "½" is
    # numeric but no digit, so it starts no token but continues a name
    assert [(t.kind, t.value) for t in tokenize("1²a x½ 12")] == [
        ("int", "1²"),
        ("name", "a"),
        ("name", "x½"),
        ("int", "12"),
        ("eof", ""),
    ]
    with pytest.raises(ParseError) as raised:
        tokenize("ok.\r\n\t½")
    assert (raised.value.message, raised.value.span.line, raised.value.span.column) == (
        "unexpected character '½'",
        2,
        2,
    )


def reference_statement_spans(text: str) -> list[tuple[int, int, int, int]]:
    """(start, end, line, column) of every statement, from its first token
    to the one before its '.', read off ``reference_tokenize``."""
    spans, first = [], None
    for kind, _, (start, end, line, column) in reference_tokenize(text):
        if kind == ".":
            spans.append((first[0], last_end, first[1], first[2]))
            first = None
        elif kind != "eof":
            first = first or (start, line, column)
            last_end = end
    return spans


def test_clean_parse_builds_spans_only_for_statements(monkeypatch):
    from pathlib import Path

    import elang.parser

    built = []

    class CountedSpan(elang.parser.SourceSpan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(elang.parser, "SourceSpan", CountedSpan)
    data = Path(elang.parser.__file__).parent / "corpus" / "data"
    domain_text = (data / "zoo_dual.e").read_text()
    scenario_text = (data / "chain_scenario.e").read_text()
    domain = parse_domain(domain_text, "zoo_dual.e")
    scenario = parse_domain(scenario_text, base_signature=domain.domain.signature)
    parse_query("skeptical { animal_pos(john,p3) holds-at 3 } horizon 4", domain.domain.signature)
    assert built == []
    # Each proposition's span, built on first read, covers its statement
    # less the '.'; the declarations come first in these files.
    for unit, text, file in ((domain, domain_text, "zoo_dual.e"), (scenario, scenario_text, "<string>")):
        props = len(unit.domain.propositions)
        want = reference_statement_spans(text)[-props:]
        got = [(sp.start, sp.end, sp.line, sp.column) for sp in unit.spans.values()]
        assert list(unit.spans) == list(range(props))
        assert got == want and {sp.file for sp in unit.spans.values()} == {file}
    assert len(built) == len(domain.domain.propositions) + len(scenario.domain.propositions)
    assert unit.spans is unit.spans


def test_parse_basic_domain():
    unit = parse_domain(BASIC)
    d = unit.domain
    assert set(d.signature.fluents) == {"light", "normal"}
    assert set(d.signature.actions) == {"switch_on"}
    kinds = [type(p).__name__ for p in d.propositions]
    assert kinds == ["CProp", "RProp", "PProp", "HProp", "TProp"]
    assert not errors_of(validate(d))


def test_parse_sorted_domain_with_variables():
    text = """
    sort animal: john, elly.
    fluent rides(animal, animal).
    action mount(animal, animal).
    mount(A, A1) initiates rides(A, A1).
    neg rides(A, A1) whenever { rides(A, A2), A1 != A2 }.
    """
    d = parse_domain(text).domain
    assert tuple(d.signature.sorts["animal"]) == ("john", "elly")
    rp = d.propositions[1]
    assert isinstance(rp, RProp)
    assert rp.condition.diseqs == frozenset({("A1", "A2")})


def test_inline_sort_typing_atom():
    text = """
    sort animal: john.
    sort place: p1.
    fluent at(animal, place).
    action go(animal, place).
    go(A, P) initiates at(A, P) when { animal(A), place(P) }.
    """
    d = parse_domain(text).domain
    cp = d.propositions[0]
    assert isinstance(cp, CProp)
    assert cp.condition.is_empty  # typing atoms become variable sorts
    assert dict(cp.var_sorts) == {"A": "animal", "P": "place"}


def test_constant_fluent_declaration():
    text = """
    sort k: a.
    constant fluent tame(k).
    fluent happy(k).
    tame(a) holds-at 0.
    """
    d = parse_domain(text).domain
    assert d.signature.fluents["tame"].constant
    assert not d.signature.fluents["happy"].constant


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_domain("fluent f.\nf holds-at x.")
    assert exc.value.span is not None
    assert exc.value.span.line == 2


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (parse_domain, "fluent f. action a. a happens-at \u00b2.", 34),
        (parse_query, "credulous { f holds-at \u00b2 }", 24),
        (parse_query, "credulous { f holds-at 0 } horizon \u00b2", 36),
    ],
)
def test_non_decimal_digit_is_lexical_error(parse, text, column):
    # '\u00b2' (superscript two) is a digit to the scanner, not to int()
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.kind == "lexical"
    assert exc.value.span.column == column


def test_unknown_identifier_is_parse_error():
    with pytest.raises(ParseError):
        parse_domain("fluent f.\ng holds-at 0.")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_domain("fluent f. action f.")


def test_missing_period_rejected():
    with pytest.raises(ParseError):
        parse_domain("fluent f")


def test_queries():
    d = parse_domain(BASIC).domain
    q = parse_query("skeptical { light holds-at 4 } horizon 4.", d.signature)
    assert q.mode == "skeptical"
    assert q.horizon == 4
    [(lit, t)] = list(q.goals)
    assert str(lit) == "light"
    assert t == 4
    q2 = parse_query("credulous { light holds-at 1, neg normal holds-at 2 }", d.signature)
    assert q2.horizon is None
    assert len(q2.goals) == 2
    q3 = parse_query("credulous { } horizon 3.", d.signature)
    assert not q3.goals


def test_query_requires_ground_goals():
    text = "sort s: a.\nfluent f(s).\n"
    d = parse_domain(text).domain
    with pytest.raises(ParseError):
        parse_query("skeptical { f(X) holds-at 0 }", d.signature)


def test_query_format_roundtrip():
    d = parse_domain(BASIC).domain
    q = parse_query("skeptical { light holds-at 4, neg normal holds-at 1 } horizon 5.", d.signature)
    assert parse_query(format_query(q), d.signature) == q


def test_base_signature_extension():
    base = parse_domain("fluent f. action a.").domain
    extra = parse_domain("a happens-at 1. f holds-at 0.", base_signature=base.signature)
    assert len(extra.domain.propositions) == 2


def test_pretty_print_roundtrip_fixed():
    d = parse_domain(BASIC).domain
    text = pretty_print(d)
    d2 = parse_domain(text).domain
    assert pretty_print(d2) == text
    assert [format_proposition(p) for p in d.propositions] == [
        format_proposition(p) for p in d2.propositions
    ]


def test_pretty_print_roundtrip_random():
    rng = random.Random(13)
    for _ in range(60):
        d = random_theory(rng)
        text = pretty_print(d)
        d2 = parse_domain(text).domain
        assert pretty_print(d2) == text
        assert len(d2.propositions) == len(d.propositions)
        for p, p2 in zip(d.propositions, d2.propositions):
            assert format_proposition(p) == format_proposition(p2)


def test_format_proposition_shapes():
    d = parse_domain(BASIC).domain
    rendered = [format_proposition(p) for p in d.propositions]
    assert rendered[0] == "switch_on initiates light when { normal }."
    assert rendered[1] == "neg light whenever { neg normal }."
    assert rendered[2] == "switch_on needs { neg light }."
    assert rendered[3] == "switch_on happens-at 2."
    assert rendered[4] == "normal holds-at 0."


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_pretty_print_roundtrip_property(seed):
    d = random_theory(random.Random(seed))
    text = pretty_print(d)
    again = parse_domain(text).domain
    assert pretty_print(again) == text


# ---------------------------------------------------------------------------
# Every raise of ParseError in elang/parser.py, reached by one malformed
# input each: (text, message, kind, line, column).

DOMAIN_ERRORS = {
    "lex-split-number": ("fluent f.\nf holds-at 3\u00bd.", "unexpected character '\u00bd'", "lexical", 2, 13),
    "lex-word-start": ("fluent \u00bd.", "unexpected character '\u00bd'", "lexical", 1, 8),
    "lex-other": ("fluent f # g.", "unexpected character '#'", "lexical", 1, 10),
    "lex-stray-bang": ("fluent f.\n  f ! g.", "stray '!'", "lexical", 2, 5),
    "number": ("fluent f.\nf holds-at \u00b2.", "invalid number '\u00b2'", "lexical", 2, 12),
    "empty-statement": ("fluent f.\n.", "empty statement", "syntax", 2, 1),
    "no-period": ("fluent f.\nfluent g", "statement does not end with '.'", "syntax", 2, 8),
    "no-period-prop": ("fluent f.\nf", "statement does not end with '.'", "syntax", 2, 1),
    "sort-name": ("sort : a.", "expected a sort name, found ':'", "syntax", 1, 6),
    "sort-colon": ("sort s a.", "expected ':', found 'a'", "syntax", 1, 8),
    "sort-empty": ("sort s:.", "expected an identifier, found 'end of input'", "syntax", 1, 7),
    "sort-constant": ("sort s: a, B.", "expected an identifier, found 'B'", "syntax", 1, 12),
    "redeclared": ("fluent f.\naction f.", "identifier f is already declared", "syntax", 2, 8),
    "constant-fluent": ("constant action a.", "expected 'fluent', found 'action'", "syntax", 1, 10),
    "fluent-name": ("fluent F.", "expected a fluent name, found 'F'", "syntax", 1, 8),
    "action-name": ("action 3.", "expected an action name, found '3'", "syntax", 1, 8),
    "decl-close": ("sort s: a.\nfluent f(s.", "expected ')', found 'end of input'", "syntax", 2, 10),
    "decl-trailing": ("fluent f g.", "unexpected 'g' after declaration", "syntax", 1, 10),
    "term": ("sort s: a. fluent f(s).\nf(3) holds-at 0.", "expected a term, found '3'", "syntax", 2, 3),
    "atom-name": ("fluent f. action a.\na initiates 3.", "expected a fluent name, found '3'", "syntax", 2, 13),
    "unknown": ("fluent f.\ng holds-at 0.", "fluent g is not declared", "unknown-identifier", 2, 1),
    "unknown-hint-fluent": (
        "fluent f. action a.\na holds-at 0.",
        "fluent a is not declared (declared as an action)",
        "unknown-identifier", 2, 1,
    ),
    "unknown-hint-action": (
        "fluent f.\nf happens-at 0.",
        "action f is not declared (declared as a fluent)",
        "unknown-identifier", 2, 1,
    ),
    "arity": ("sort s: a. fluent f(s).\nf holds-at 0.", "fluent f takes 1 arguments, got 0", "arity-mismatch", 2, 1),
    "condition-open": ("fluent f. action a.\na needs f.", "expected '{', found 'f'", "syntax", 2, 9),
    "disequality": ("fluent f.\nf whenever { X != X }.", "disequality X != X is never true", "syntax", 2, 19),
    "disequality-term": ("fluent f.\nf whenever { X != 3 }.", "expected a term, found '3'", "syntax", 2, 19),
    "typing-term": ("sort s: a. fluent f.\nf whenever { s(3) }.", "expected a term, found '3'", "syntax", 2, 16),
    "typing-close": ("sort s: a. fluent f.\nf whenever { s(X }.", "expected ')', found '}'", "syntax", 2, 18),
    "typing-open": ("sort s: a. fluent f.\nf whenever { s }.", "expected '(', found '}'", "syntax", 2, 16),
    "typing-constant": ("sort s: a. fluent f.\nf whenever { s(a) }.", "typing atom s(..) needs a variable", "syntax", 2, 16),
    "typing-conflict": (
        "sort s: a. sort t: b. fluent f.\nf whenever { s(X), t(X) }.",
        "variable X typed as both s and t",
        "syntax", 2, 22,
    ),
    "condition-comma": ("fluent f. fluent g.\nf whenever { g g }.", "expected '}', found 'g'", "syntax", 2, 16),
    "condition-trailing-comma": ("fluent f. fluent g.\nf whenever { g, }.", "expected a fluent name, found '}'", "syntax", 2, 17),
    "time": ("fluent f.\nf holds-at x.", "expected a time point, found 'x'", "syntax", 2, 12),
    "finish": ("fluent f.\nf holds-at 0 1.", "unexpected '1'", "syntax", 2, 14),
    "denial-keyword": ("fluent f.\nfalse when { }.", "expected 'whenever', found 'when'", "syntax", 2, 7),
    "negated-keyword": ("fluent f.\nneg f needs { }.", "expected 'whenever', found 'needs'", "syntax", 2, 7),
    "statement-keyword": ("fluent f.\nf g.", "expected a statement keyword after f, found 'g'", "syntax", 2, 3),
    "unexpected-keyword": ("fluent f.\nf when { }.", "unexpected keyword 'when'", "syntax", 2, 3),
    "statement-start": ("fluent f.\n( holds-at 0.", "expected a statement, found '('", "syntax", 2, 1),
    "statement-number": ("fluent f.\n3 holds-at 0.", "expected a statement, found '3'", "syntax", 2, 1),
}

# Parsed against QUERY_SIGNATURE_TEXT's signature.  Goals are read with
# the condition parser, whose messages "literal", "term", "unclosed" and
# the two separator cases share.
QUERY_SIGNATURE_TEXT = "sort s: a. fluent f(s). fluent h."
QUERY_ERRORS = {
    "mode": ("maybe { }", "expected 'credulous' or 'skeptical'", "syntax", 1, 1),
    "open": ("credulous f", "expected '{', found 'f'", "syntax", 1, 11),
    "literal": ("credulous { 3 holds-at 0 }", "expected a fluent name, found '3'", "syntax", 1, 13),
    "negated-literal": ("credulous { neg }", "expected a fluent name, found '}'", "syntax", 1, 17),
    "term": ("credulous {\n f(3) holds-at 0 }", "expected a term, found '3'", "syntax", 2, 4),
    "close-args": ("credulous { f(a holds-at 0 }", "expected ')', found 'holds-at'", "syntax", 1, 17),
    "unknown": ("credulous { g holds-at 0 }", "fluent g is not declared", "unknown-identifier", 1, 13),
    "ground": ("skeptical { f(X) holds-at 0 }", "query literal must be ground", "syntax", 1, 13),
    "sort": (
        "credulous { h holds-at 0, neg f(b) holds-at 1 }", "constant b is not of sort s", "sort-mismatch", 1, 33,
    ),
    "holds-at": ("credulous { h at 0 }", "expected 'holds-at', found 'at'", "syntax", 1, 15),
    "time": ("credulous { h holds-at x }", "expected a time point, found 'x'", "syntax", 1, 24),
    "unclosed": ("credulous { h holds-at 0 ", "expected '}', found 'end of input'", "syntax", 1, 26),
    "missing-comma": ("skeptical { h holds-at 1 h holds-at 2 }", "expected '}', found 'h'", "syntax", 1, 26),
    "trailing-comma": ("credulous { h holds-at 1, }", "expected a fluent name, found '}'", "syntax", 1, 27),
    "horizon": ("credulous { } horizon x", "expected a horizon, found 'x'", "syntax", 1, 23),
    "horizon-number": ("credulous { } horizon \u00b2", "invalid number '\u00b2'", "lexical", 1, 23),
    "trailing": ("credulous { } x", "unexpected 'x' after query", "syntax", 1, 15),
    "lexical": ("credulous { f # }", "unexpected character '#'", "lexical", 1, 15),
}


def _error_of(parse, text: str) -> tuple:
    with pytest.raises(ParseError) as raised:
        parse(text)
    err = raised.value
    return (text, err.message, err.kind, err.span.line, err.span.column)


@pytest.mark.parametrize("case", sorted(DOMAIN_ERRORS))
def test_domain_error_table(case):
    assert _error_of(lambda t: parse_domain(t, "d.e"), DOMAIN_ERRORS[case][0]) == DOMAIN_ERRORS[case]


@pytest.mark.parametrize("case", sorted(QUERY_ERRORS))
def test_query_error_table(case):
    sig = parse_domain(QUERY_SIGNATURE_TEXT).domain.signature
    assert _error_of(lambda t: parse_query(t, sig), QUERY_ERRORS[case][0]) == QUERY_ERRORS[case]


# ---------------------------------------------------------------------------
# The parser's output, pinned: sha256 of pretty_print(parse_domain(text))
# and the proposition count, taken before statements were parsed by index.
# A scenario file parses against zoo_dual.e's signature.


def _pinned_texts():
    for name in CORPUS_HORIZONS:
        yield name, corpus_path(name).read_text(), None
    for name in ZOO_SCENARIOS:
        yield name, corpus_path(name).read_text(), "zoo_dual.e"
    for variant in ("direct", "indirect", "dual"):
        for positions, feed in ((6, False), (15, True)):
            ref = "gen:%s:%d%s" % (variant, positions, ":feed" if feed else "")
            yield ref, generate_zoo(variant, positions, include_feed=feed), None
    yield "walk:15:40:5", walk_scenario(15, 40, 5), "gen:direct:15:feed"


PARSE_PINS = {
    'bulb.e': ('d35811f39647b019d7b02dc71b47822aaf0622cb59916385e588fbc94a3a3e57', 7),
    'bulb_noinit.e': ('656e8bb9f81feb3d927a8438ec01d194cdebea8011f020f4d4aa7693d0faa045', 6),
    'zoo_landscape.e': ('5dcd5333ca2df63e19acd83ace147599a7d70274f52df91cab980a39ac1760be', 15),
    'zoo_direct.e': ('c78685ba11a879e668ae9515e21845089c02e2aa6ca434e41ddd9aa0e57b73bd', 30),
    'zoo_indirect.e': ('6b10a2fad60dc02d1fde516c7431f6a197f7a94f6fdd796a02bc88b32c7828b0', 29),
    'zoo_dual.e': ('0c0625691367655e8432d4b3e0b6b8e2b8877ad287d39a017f435a31820fabf0', 31),
    'zoo_dual_feed.e': ('c33efe957c8ac1d8d8825052431485acf88ccf963ff4734b4c85cb83d51df5e6', 32),
    'zoo_scenario_base.e': ('19e4de7590639a6d8acf85900ddd3e82997c5e595713c5edd1ea058378ee5be6', 4),
    'zoo_scenario_move.e': ('8fcfcb9a58b07a7eb7c641e15b5f2329ca38b7dd662dd65ce3a712aa8e7cb842', 1),
    'zoo_scenario_obs.e': ('c2c0a2d1bbab2bdfb4d70fec9e9f0ed9d0746f950a4e7622a6071b999eec61b4', 1),
    'chain_scenario.e': ('94d73a6c99d4759b71e54c6c72970c5c3db3922d7dd524e0d15cd2b061ab8ccd', 10),
    'gen:direct:6': ('c78685ba11a879e668ae9515e21845089c02e2aa6ca434e41ddd9aa0e57b73bd', 30),
    'gen:direct:15:feed': ('66574b053723a7d433fd3c95847524b0a453757e1c4d566db17d9dfafafd948e', 40),
    'gen:indirect:6': ('6b10a2fad60dc02d1fde516c7431f6a197f7a94f6fdd796a02bc88b32c7828b0', 29),
    'gen:indirect:15:feed': ('b8e9c6a29a5cb137d4a0470344661d3b6712fea154e0006d3d79b32fd058788c', 39),
    'gen:dual:6': ('0c0625691367655e8432d4b3e0b6b8e2b8877ad287d39a017f435a31820fabf0', 31),
    'gen:dual:15:feed': ('8c8bb294a8f833ef5c02e6fb34149ad5160f4604628a8202409456956943cecd', 41),
    'walk:15:40:5': ('844b10a8fe53097c7faff83b7b1fcf78906dbf72b3a9935c41f8e4b058a9d371', 71),
}


def test_parser_output_is_pinned():
    texts = {name: (text, base) for name, text, base in _pinned_texts()}
    got = {}
    for name, (text, base) in texts.items():
        sig = None
        if base is not None:
            sig = parse_domain(texts[base][0]).domain.signature
        domain = parse_domain(text, name, base_signature=sig).domain
        got[name] = (hashlib.sha256(pretty_print(domain).encode()).hexdigest(), len(domain.propositions))
    assert got == PARSE_PINS
