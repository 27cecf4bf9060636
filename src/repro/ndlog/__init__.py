"""NDlog: the Network Datalog language front-end.

NDlog is the distributed recursive query language used by declarative
networking (Loo et al.) and by NetTrails/ExSPAN to express both the
distributed protocols whose provenance is tracked and the provenance
maintenance/query logic itself.

This package provides:

* an AST (:mod:`repro.ndlog.ast`),
* a lexer and recursive-descent parser (:mod:`repro.ndlog.lexer`,
  :mod:`repro.ndlog.parser`),
* the builtin ``f_*`` function library (:mod:`repro.ndlog.functions`),
* program validation / safety checks (:mod:`repro.ndlog.validation`),
* the localization rewrite that turns rules whose bodies span multiple
  nodes into purely node-local rules plus message-shipping rules
  (:mod:`repro.ndlog.localization`).

Semi-naive evaluation needs no rewrite here: the engine compiles one join
plan per (rule, positive body atom) itself (:mod:`repro.engine.joins`).
"""

from repro.ndlog.ast import (
    Aggregate,
    Assignment,
    Atom,
    Condition,
    Constant,
    Expression,
    FunctionCall,
    Materialize,
    Program,
    Rule,
    Variable,
)
from repro.ndlog.functions import FunctionRegistry, default_registry
from repro.ndlog.parser import parse_program, parse_rule
from repro.ndlog.validation import validate_program
from repro.ndlog.localization import localize_program, localize_rule

__all__ = [
    "Aggregate",
    "Assignment",
    "Atom",
    "Condition",
    "Constant",
    "Expression",
    "FunctionCall",
    "Materialize",
    "Program",
    "Rule",
    "Variable",
    "FunctionRegistry",
    "default_registry",
    "parse_program",
    "parse_rule",
    "validate_program",
    "localize_program",
    "localize_rule",
]
