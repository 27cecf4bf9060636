"""Compilation of NDlog programs into an executable form.

Compilation performs, in order:

1. validation (safety, location specifiers, stratification, localizability),
2. separation of ordinary rules from "maybe" rules (the latter are only used
   by the legacy-application integration layer, never by the fixpoint
   evaluator),
3. the localization rewrite, so every remaining rule is node-local,
4. construction of the relation catalog (location indices, primary keys),
5. construction of the semi-naive trigger indexes: for every relation, which
   (rule, delta position) pairs must be re-evaluated when that relation
   changes, and which rules mention the relation under negation, and
6. code generation (:mod:`repro.engine.joins`): every (rule, delta
   position) trigger, and every (rule, negated relation) pair, becomes one
   straight-line Python function made with the stdlib :func:`compile`.  The
   functions live on the :class:`CompiledProgram` (``joins`` and
   ``negation_joins``; the trigger indexes themselves are not kept), so
   they are generated once per program and shared by every node's
   evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NDlogValidationError
from repro.ndlog.ast import Program, Rule, Variable
from repro.ndlog.functions import FunctionRegistry, default_registry
from repro.ndlog.localization import localize_program
from repro.ndlog.validation import validate_program
from repro.engine.catalog import Catalog
from repro.engine.joins import JoinTable, NegationTable, compile_joins


@dataclass
class CompiledProgram:
    """An NDlog program ready for distributed execution."""

    name: str
    source: Program
    localized: Program
    maybe_rules: List[Rule]
    catalog: Catalog
    registry: FunctionRegistry
    #: relation -> the generated delta join of every (rule, delta position)
    #: that a new fact of the relation triggers, in rule and body order.
    joins: JoinTable = field(default_factory=dict)
    #: relation -> per rule that mentions the relation under negation, the
    #: generated joins listing the firings a new fact of the relation
    #: blocks and the firings a deleted one unblocks.
    negation_joins: NegationTable = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    @property
    def rules(self) -> List[Rule]:
        """The executable (localized, non-maybe) rules."""
        return list(self.localized.rules)

    def base_relations(self) -> List[str]:
        """Relations that are never derived (i.e. must be fed as base tuples)."""
        return sorted(self.localized.base_relations())

    def derived_relations(self) -> List[str]:
        return sorted(self.localized.head_relations())


def _check_aggregate_rules(localized: Program) -> None:
    """Aggregate rules must aggregate at the node where the group lives.

    After localization every rule body is at a single location variable; for
    an aggregate rule we additionally require the head's location specifier to
    be that same variable, so that the aggregation operator runs where its
    inputs are stored (this matches how MINCOST, path-vector etc. are
    written).
    """
    for rule in localized.rules:
        if not rule.has_aggregate:
            continue
        body_locations = rule.location_variables()
        head_term = rule.head.location_term
        if len(body_locations) != 1 or not isinstance(head_term, Variable):
            raise NDlogValidationError(
                f"aggregate rule {rule.name!r} must be local with a variable head location"
            )
        (body_location,) = tuple(body_locations)
        if head_term.name != body_location:
            raise NDlogValidationError(
                f"aggregate rule {rule.name!r}: the head location {head_term.name!r} must "
                f"match the body location {body_location!r} so that aggregation is local; "
                "split the rule into a local aggregation plus a shipping rule"
            )


def compile_program(
    program: Program,
    registry: Optional[FunctionRegistry] = None,
    validate: bool = True,
) -> CompiledProgram:
    """Compile *program* for execution by :class:`repro.engine.node.Node`."""
    registry = registry or default_registry()

    warnings: List[str] = []
    if validate:
        warnings = validate_program(program, registry)

    ordinary = Program(name=program.name, materialized=dict(program.materialized))
    maybe_rules: List[Rule] = []
    for rule in program.rules:
        if rule.is_maybe:
            maybe_rules.append(rule)
        else:
            ordinary.add_rule(rule)

    if ordinary.rules:
        localized = localize_program(ordinary)
    else:
        localized = ordinary
    _check_aggregate_rules(localized)

    catalog = Catalog.from_program(localized)
    # "maybe" rules also contribute schema information (e.g. outputRoute).
    for rule in maybe_rules:
        maybe_only = Program(name=f"{program.name}__maybe")
        maybe_only.add_rule(rule)
        catalog.add_program(maybe_only)

    delta_index: Dict[str, List[Tuple[Rule, int]]] = {}
    negation_index: Dict[str, List[Rule]] = {}
    for rule in localized.rules:
        for index, literal in enumerate(rule.positive_literals):
            delta_index.setdefault(literal.atom.relation, []).append((rule, index))
        for literal in rule.negative_literals:
            rules = negation_index.setdefault(literal.atom.relation, [])
            if rule not in rules:
                rules.append(rule)
    joins, negation_joins = compile_joins(delta_index, negation_index, registry)

    return CompiledProgram(
        name=program.name,
        source=program,
        localized=localized,
        maybe_rules=maybe_rules,
        catalog=catalog,
        registry=registry,
        joins=joins,
        negation_joins=negation_joins,
        warnings=warnings,
    )
