"""Reasoning toolkit for a narrative action language.

Domain descriptions pair action laws (initiation, termination,
preconditions) with ramification statements, observations and action
occurrences over integer time.  The toolkit grounds a description,
enumerates its models under persistence-with-consistency semantics, and
answers credulous and skeptical queries, either by explicit search or by
compilation to clauses.
"""

__version__ = "0.1.0"

from .model import (
    Atom,
    Condition,
    CProp,
    DomainDescription,
    FluentLiteral,
    HProp,
    PProp,
    RProp,
    Signature,
    TProp,
    validate,
)
from .parser import ParseError, parse_domain, parse_query, pretty_print
from .grounding import GroundingError, GroundTheory, ground
from .transition import successor_states
from .query import BudgetExceeded, EntailmentResult, Query, answer, answer_theory
from .sat import FragmentError, answer_sat, check_fragment, compile_theory

__all__ = [
    "Atom",
    "BudgetExceeded",
    "Condition",
    "CProp",
    "DomainDescription",
    "EntailmentResult",
    "FluentLiteral",
    "FragmentError",
    "GroundTheory",
    "GroundingError",
    "HProp",
    "ParseError",
    "PProp",
    "Query",
    "RProp",
    "Signature",
    "TProp",
    "__version__",
    "answer",
    "answer_sat",
    "answer_theory",
    "check_fragment",
    "compile_theory",
    "ground",
    "parse_domain",
    "parse_query",
    "pretty_print",
    "successor_states",
    "validate",
]
