"""Surface syntax: tokenizer, statements, queries, pretty printing."""

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

from oracles import LexError, random_theory, reference_tokenize

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
    domain = parse_domain((data / "zoo_dual.e").read_text())
    assert domain.spans and len(built) == len(domain.spans)
    scenario = parse_domain(
        (data / "chain_scenario.e").read_text(), base_signature=domain.domain.signature
    )
    assert len(built) == len(domain.spans) + len(scenario.spans)
    parse_query("skeptical { animal_pos(john,p3) holds-at 3 } horizon 4", domain.domain.signature)
    assert len(built) == len(domain.spans) + len(scenario.spans)


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
