"""Core value types and validation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from elang.model import (
    Atom,
    Condition,
    CProp,
    DomainDescription,
    FluentDecl,
    ActionDecl,
    FluentLiteral,
    HProp,
    PProp,
    RProp,
    Signature,
    TProp,
    errors_of,
    infer_variable_sorts,
    is_variable,
    negate,
    validate,
)

from elang.parser import parse_domain

from oracles import random_sorted_domain, random_theory


def lit(name, positive=True, *args):
    return FluentLiteral(Atom(name, tuple(args)), positive)


def test_variable_convention():
    assert is_variable("X")
    assert is_variable("Pos1")
    assert not is_variable("x")
    assert not is_variable("p1")


def test_atom_substitute_and_str():
    a = Atom("animal_pos", ("A", "p1"))
    assert str(a) == "animal_pos(A,p1)"
    assert a.substitute({"A": "john"}) == Atom("animal_pos", ("john", "p1"))
    assert a.variables() == ("A",)
    assert not a.is_ground
    assert a.substitute({"A": "john"}).is_ground


def test_negate_roundtrip():
    l = lit("f")
    assert negate(negate(l)) == l
    assert str(negate(l)) == "neg f"


def test_condition_complementary_pair():
    c = Condition.of(lit("f"), lit("f", False))
    assert c.has_complementary_pair()
    c2 = Condition.of(lit("f"), lit("g", False))
    assert not c2.has_complementary_pair()


def test_condition_diseq_normalized():
    c1 = Condition.of(diseqs=(("X", "Y"),))
    c2 = Condition.of(diseqs=(("Y", "X"),))
    assert c1 == c2


def simple_signature():
    return Signature(
        sorts={"animal": ["john", "elly"]},
        fluents={
            "rides": FluentDecl("rides", ("animal", "animal")),
            "tame": FluentDecl("tame", ("animal",), constant=True),
        },
        actions={"mount": ActionDecl("mount", ("animal", "animal"))},
    )


def test_infer_variable_sorts():
    sig = simple_signature()
    prop = CProp(
        Atom("mount", ("A", "B")),
        True,
        Atom("rides", ("A", "B")),
        Condition.of(lit("tame", True, "B")),
        (),
    )
    var_sorts, problems = infer_variable_sorts(sig, prop)
    assert not problems
    assert var_sorts == {"A": "animal", "B": "animal"}


def test_infer_conflicting_sorts_reported():
    sig = Signature(
        sorts={"animal": ["john"], "place": ["p1"]},
        fluents={
            "at": FluentDecl("at", ("place",)),
            "tame": FluentDecl("tame", ("animal",)),
        },
        actions={"go": ActionDecl("go", ("place",))},
    )
    prop = RProp(lit("at", True, "X"), Condition.of(lit("tame", True, "X")), ())
    _, problems = infer_variable_sorts(sig, prop)
    assert problems


def test_validate_clean_domain():
    sig = simple_signature()
    domain = DomainDescription(
        sig,
        [
            CProp(Atom("mount", ("A", "B")), True, Atom("rides", ("A", "B")),
                  Condition.of(), ()),
            HProp(Atom("mount", ("john", "elly")), 0),
            TProp(lit("rides", False, "john", "elly"), 0),
        ],
    )
    assert not errors_of(validate(domain))


def test_validate_catches_unknown_and_arity():
    sig = simple_signature()
    domain = DomainDescription(
        sig,
        [
            TProp(lit("flies", True, "john"), 0),
            TProp(lit("rides", True, "john"), 0),
            HProp(Atom("mount", ("john", "nessie")), 0),
            TProp(lit("rides", True, "john", "elly"), -1),
        ],
    )
    codes = {d.code for d in errors_of(validate(domain))}
    assert "unknown-identifier" in codes
    assert "arity-mismatch" in codes
    assert "bad-time" in codes


def test_validate_catches_non_ground_narrative():
    sig = simple_signature()
    domain = DomainDescription(sig, [HProp(Atom("mount", ("A", "elly")), 0)])
    codes = {d.code for d in errors_of(validate(domain))}
    assert "non-ground" in codes


def test_validate_warns_unsat_condition():
    sig = simple_signature()
    prop = PProp(
        Atom("mount", ("A", "B")),
        Condition.of(lit("rides", True, "A", "B"), lit("rides", False, "A", "B")),
        (),
    )
    domain = DomainDescription(sig, [prop])
    diags = validate(domain)
    assert not errors_of(diags)
    assert any(d.code == "unsat-condition" for d in diags)


DUPLICATES = """
fluent f. fluent g. fluent h.
action a.
a initiates f when { g, neg h }.
a initiates f when { g, neg h }.
a initiates f when { neg h, g }.
a terminates f when { g, neg h }.
a initiates f when { g }.
g whenever { f, neg h }.
g whenever { neg h, f }.
a needs { g }.
"""

# a wide condition in two orders: equal sets that are likely to print in
# different orders, since the order of a set with colliding hashes
# follows insertion
WIDE = ["w%d" % i for i in range(20)]


def test_validate_keys_duplicates_by_value():
    text = "".join("fluent %s. " % w for w in WIDE) + "action a. "
    text += "a needs { %s }. a needs { %s }." % (", ".join(WIDE), ", ".join(reversed(WIDE)))
    diags = validate(parse_domain(text).domain)
    assert [d.code for d in diags] == ["duplicate-statement"]


def test_validate_warns_duplicate_statements():
    # a verbatim repeat and a reordered condition are the same statement;
    # a different verb, condition or statement kind is not
    domain = parse_domain(DUPLICATES).domain
    diags = validate(domain)
    assert not errors_of(diags)
    flagged = [d.message for d in diags if d.code == "duplicate-statement"]
    assert flagged == [
        "statement 2 repeats an earlier statement",
        "statement 3 repeats an earlier statement",
        "statement 7 repeats an earlier statement",
    ]


SORT_ERRORS = """
sort s: a. sort t: b.
fluent f(s). fluent g(t).
action go(s).
go(X) initiates f(X) when { g(X) }.
g(Y) whenever { f(Y), s(Y) }.
go(X) needs { f(X), neg f(X) }.
"""


def test_error_half_is_the_errors_of_validate():
    # what grounding runs: the same errors in the same order, no
    # warnings, and each rule's variable sorts as infer_variable_sorts
    # gives them
    rng = random.Random(19)
    domains = [parse_domain(DUPLICATES).domain, parse_domain(SORT_ERRORS).domain]
    domains += [random_theory(rng) for _ in range(30)]
    domains += [random_sorted_domain(rng, wide=True) for _ in range(30)]
    unknown = DomainDescription(simple_signature(), [TProp(lit("flies", True, "john"), 0)])
    for domain in domains + [unknown]:
        rule_sorts = {}
        assert validate(domain, warnings=False, rule_sorts=rule_sorts) == errors_of(validate(domain))
        assert rule_sorts == {
            i: infer_variable_sorts(domain.signature, prop)[0]
            for i, prop in enumerate(domain.propositions)
            if isinstance(prop, (CProp, RProp, PProp))
        }
    assert [d.code for d in validate(domains[1])] == ["sort-conflict", "sort-conflict", "unsat-condition"]
    assert [d.code for d in validate(domains[1], warnings=False)] == ["sort-conflict", "sort-conflict"]


def test_random_theories_validate():
    rng = random.Random(7)
    for _ in range(50):
        domain = random_theory(rng)
        assert not errors_of(validate(domain))


@given(st.text(alphabet="abcxyz", min_size=1, max_size=6),
       st.tuples(st.sampled_from(["john", "elly", "X", "Y"])),
       st.booleans())
@settings(max_examples=100)
def test_negation_involution_property(name, args, positive):
    literal = FluentLiteral(Atom(name, args), positive)
    assert negate(negate(literal)) == literal
    assert negate(literal).positive == (not positive)
    assert Condition.of(literal, negate(literal)).has_complementary_pair()
    assert not Condition.of(literal, literal).has_complementary_pair()
