"""Automatic provenance rule rewriting (the ExSPAN rewrite).

The paper (§2.2): *"we have presented an automatic rule rewriting algorithm
that takes as input a NDlog program and outputs a modified program that
contains additional rules for capturing the program's provenance information.
These additional rules define network provenance in terms of views over base
and derived tuples.  As the network protocol executes and updates network
state, views are incrementally recomputed."*

:func:`rewrite_program` implements that rewrite.  For every (localized) rule

    rX  h(@H, ...) :- b1(@L, ...), ..., bk(@L, ...), <conditions/assignments>.

it adds two provenance rules:

    rX_prov      prov(@H, VID, RID, RLoc)            :- <same body>,
                     ProvVid1 := f_vid("b1", ...), ..., RLoc := L,
                     RID := f_rid("rX", RLoc, ProvVid1, ..., ProvVidK),
                     VID := f_vid("h", ...).
    rX_ruleExec  ruleExec(@RLoc, RID, "rX", "prog", CVIDs) :- <same body>, ... .

plus, for every base relation ``b``, a rule deriving its ``prov`` entry with
the ``BASE`` marker.  Because the added rules are ordinary NDlog rules over
the same bodies, the provenance tables are *views* that the engine maintains
incrementally exactly like any other derived relation — which demonstrates
the paper's claim that maintenance and querying are both expressible in
NDlog ("our architecture offers a unified framework").

The engine-level hooks in :mod:`repro.core.maintenance` compute the same
tables more efficiently (without re-evaluating rule bodies); the equivalence
of the two paths on concrete programs is checked by the test suite.

Aggregate rules are passed through unmodified: their provenance (which input
tuples currently support a ``min``/``max``/``count`` value) depends on the
aggregate's group state and is therefore captured by the engine-level hooks
only.  "maybe" rules are likewise passed through — they describe possible
dependencies observed at a proxy, not derivations the engine computes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProvenanceError
from repro.ndlog.ast import (
    Assignment,
    Atom,
    BodyElement,
    Constant,
    FunctionCall,
    Literal,
    Program,
    Rule,
    Term,
    Variable,
)
from repro.ndlog.functions import FunctionRegistry, default_registry
from repro.ndlog.localization import localize_program
from repro.core.keys import BASE_RID, rid_for, vid_for_values

#: Relation names used by the provenance views.
PROV_RELATION = "prov"
RULE_EXEC_RELATION = "ruleExec"

_VID_PREFIX = "Prov_Vid_"
_RID_VARIABLE = "Prov_Rid"
_HEAD_VID_VARIABLE = "Prov_HeadVid"
_CVIDS_VARIABLE = "Prov_ChildVids"
_RLOC_VARIABLE = "Prov_RLoc"


def provenance_registry(base: Optional[FunctionRegistry] = None) -> FunctionRegistry:
    """A function registry whose ``f_vid`` / ``f_rid`` match the engine's identifiers.

    Using this registry when executing a rewritten program makes the VIDs and
    RIDs it computes byte-for-byte identical to the ones produced by the
    engine-level :class:`~repro.core.maintenance.ProvenanceEngine`, so the two
    maintenance paths can be compared directly.
    """
    registry = (base or default_registry()).copy()
    registry.register("f_vid", lambda relation, *values: vid_for_values(str(relation), list(values)))
    registry.register(
        "f_rid",
        lambda rule_name, location, *vids: rid_for(str(rule_name), location, list(vids)),
    )
    return registry


def _location_variable(rule: Rule) -> Optional[str]:
    """The single body location variable of a localized rule (None if constant)."""
    names = rule.location_variables()
    if len(names) == 1:
        return next(iter(names))
    return None


def _vid_call(atom: Atom) -> FunctionCall:
    """Build ``f_vid("relation", <terms>)`` for one atom."""
    return FunctionCall("f_vid", (Constant(atom.relation),) + atom.terms)



def rewrite_rule(rule: Rule, program_name: str) -> List[Rule]:
    """Return the provenance rules for one localized, aggregate-free rule."""
    if rule.is_maybe or rule.has_aggregate:
        return []

    location_variable = _location_variable(rule)
    if location_variable is None:
        raise ProvenanceError(
            f"rule {rule.name!r} has no single body location variable; localize the program first"
        )

    shared_body: List[BodyElement] = list(rule.body)
    vid_assignments: List[Assignment] = []
    vid_variables: List[Variable] = []
    for index, literal in enumerate(rule.positive_literals, start=1):
        variable = f"{_VID_PREFIX}{index}"
        vid_assignments.append(Assignment(variable, _vid_call(literal.atom)))
        vid_variables.append(Variable(variable))

    rloc_assignment = Assignment(_RLOC_VARIABLE, Variable(location_variable))
    rid_assignment = Assignment(
        _RID_VARIABLE,
        FunctionCall(
            "f_rid",
            (Constant(rule.name), Variable(_RLOC_VARIABLE)) + tuple(vid_variables),
        ),
    )
    head_vid_assignment = Assignment(
        _HEAD_VID_VARIABLE, _vid_call(rule.head)
    )
    cvids_assignment = Assignment(
        _CVIDS_VARIABLE, FunctionCall("f_makeList", tuple(vid_variables))
    )

    head_location_term = rule.head.location_term
    if head_location_term is None:
        head_location_term = Variable(location_variable)

    prov_head = Atom(
        PROV_RELATION,
        (
            head_location_term,
            Variable(_HEAD_VID_VARIABLE),
            Variable(_RID_VARIABLE),
            Variable(_RLOC_VARIABLE),
        ),
        location_index=0,
    )
    prov_rule = Rule(
        head=prov_head,
        body=tuple(
            shared_body
            + vid_assignments
            + [rloc_assignment, rid_assignment, head_vid_assignment]
        ),
        name=f"{rule.name}_prov",
    )

    rule_exec_head = Atom(
        RULE_EXEC_RELATION,
        (
            Variable(_RLOC_VARIABLE),
            Variable(_RID_VARIABLE),
            Constant(rule.name),
            Constant(program_name),
            Variable(_CVIDS_VARIABLE),
        ),
        location_index=0,
    )
    rule_exec_rule = Rule(
        head=rule_exec_head,
        body=tuple(
            shared_body
            + vid_assignments
            + [rloc_assignment, rid_assignment, cvids_assignment]
        ),
        name=f"{rule.name}_ruleExec",
    )
    return [prov_rule, rule_exec_rule]


def base_provenance_rule(relation: str, arity: int, location_index: int = 0) -> Rule:
    """The rule deriving the ``prov`` entry (with the BASE marker) of one base relation."""
    terms: List[Term] = []
    for index in range(arity):
        terms.append(Variable(f"Base_A{index}"))
    atom = Atom(relation, tuple(terms), location_index=location_index)
    location_term = terms[location_index]
    vid_assignment = Assignment(_HEAD_VID_VARIABLE, _vid_call(atom))
    prov_head = Atom(
        PROV_RELATION,
        (location_term, Variable(_HEAD_VID_VARIABLE), Constant(BASE_RID), location_term),
        location_index=0,
    )
    return Rule(
        head=prov_head,
        body=(Literal(atom), vid_assignment),
        name=f"{relation}_base_prov",
    )


def rewrite_program(program: Program, localize: bool = True) -> Program:
    """Return *program* extended with provenance-capturing rules.

    The returned program contains the original rules (localized when
    ``localize=True``, which is what the execution engine will do anyway)
    plus the ``prov`` / ``ruleExec`` view rules.  Execute it with the
    registry returned by :func:`provenance_registry` so that the computed
    identifiers match the engine's.
    """
    working = program
    if localize:
        ordinary = Program(name=program.name, materialized=dict(program.materialized))
        maybe_rules = []
        for rule in program.rules:
            if rule.is_maybe:
                maybe_rules.append(rule)
            else:
                ordinary.add_rule(rule)
        working = localize_program(ordinary)
        for rule in maybe_rules:
            working.add_rule(rule)

    rewritten = Program(
        name=f"{program.name}_with_provenance", materialized=dict(program.materialized)
    )
    for rule in working.rules:
        rewritten.add_rule(rule)
    for rule in working.rules:
        for extra in rewrite_rule(rule, program.name):
            rewritten.add_rule(extra)

    # Base-tuple provenance: one rule per extensional relation.
    arities = {}
    location_indices = {}
    for rule in working.rules:
        for literal in rule.literals:
            atom = literal.atom
            arities.setdefault(atom.relation, atom.arity)
            if atom.location_index is not None:
                location_indices.setdefault(atom.relation, atom.location_index)
    derived = working.head_relations()
    for relation in sorted(arities):
        if relation in derived or relation in (PROV_RELATION, RULE_EXEC_RELATION):
            continue
        rewritten.add_rule(
            base_provenance_rule(
                relation, arities[relation], location_indices.get(relation, 0)
            )
        )
    return rewritten
