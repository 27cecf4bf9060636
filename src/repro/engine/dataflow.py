"""Dataflow primitives: unification, expression evaluation, head instantiation.

These define what executing an NDlog rule against a tuple store means:
matching body atoms against stored facts (producing variable bindings),
evaluating arithmetic / builtin-function expressions and boolean conditions
under a binding, and instantiating rule heads into concrete facts.  The
legacy layer's maybe-rule matcher runs on them directly; the per-node
evaluator runs joins generated at compile time (:mod:`repro.engine.joins`)
that follow these semantics exactly, and the join tests check them against
an interpreter built on these functions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import EngineError
from repro.ndlog.ast import (
    Aggregate,
    Atom,
    Condition,
    Constant,
    Expression,
    FunctionCall,
    Term,
    Variable,
)
from repro.ndlog.functions import FunctionRegistry
from repro.engine.tuples import Fact, _check_value

Bindings = Dict[str, object]


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}

_COMPARISON = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def evaluate_term(term: Term, bindings: Bindings, registry: FunctionRegistry) -> object:
    """Evaluate *term* to a concrete value under *bindings*.

    Raises :class:`EngineError` if the term mentions an unbound variable or
    an aggregate (aggregates are handled by the evaluator, not here).
    """
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        if term.name not in bindings:
            raise EngineError(f"variable {term.name!r} is unbound")
        return bindings[term.name]
    if isinstance(term, FunctionCall):
        args = [evaluate_term(arg, bindings, registry) for arg in term.args]
        return registry.call(term.name, args)
    if isinstance(term, Expression):
        left = evaluate_term(term.left, bindings, registry)
        right = evaluate_term(term.right, bindings, registry)
        if term.op in _ARITHMETIC:
            return _ARITHMETIC[term.op](left, right)
        if term.op in _COMPARISON:
            return _COMPARISON[term.op](left, right)
        raise EngineError(f"unsupported operator {term.op!r}")
    if isinstance(term, Aggregate):
        raise EngineError("aggregate terms cannot be evaluated directly")
    raise EngineError(f"cannot evaluate term {term!r}")


def term_is_ground(term: Term, bindings: Bindings) -> bool:
    """True when every variable mentioned by *term* is bound."""
    return all(name in bindings for name in term.variables())


def satisfies(condition: Condition, bindings: Bindings, registry: FunctionRegistry) -> bool:
    """Evaluate a body condition to a boolean under *bindings*.

    Numeric results follow the NDlog convention that nonzero means true, so
    conditions like ``f_member(P, D) == 0`` and bare ``f_isSomething(X)``
    both work.
    """
    return condition_truth(evaluate_term(condition.expression, bindings, registry), condition)


def condition_truth(value: object, condition: object) -> bool:
    """The truth of *value*, the result of *condition*; see :func:`satisfies`."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise EngineError(
        f"condition {condition} evaluated to non-boolean, non-numeric value {value!r}"
    )


# ---------------------------------------------------------------------------
# Atom matching (unification against facts)
# ---------------------------------------------------------------------------


def match_atom(
    atom: Atom, fact: Fact, bindings: Bindings, registry: FunctionRegistry
) -> Optional[Bindings]:
    """Try to match *atom* against *fact* under existing *bindings*.

    Returns the extended bindings on success or ``None`` on mismatch.  Terms
    that are ground expressions under the current bindings are evaluated and
    compared by value; non-ground complex terms cannot be matched and raise
    :class:`EngineError` (they should only appear in heads).
    """
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    extended = dict(bindings)
    for term, value in zip(atom.terms, fact.values):
        if isinstance(term, Variable):
            if term.name == "_":
                continue
            if term.name in extended:
                if extended[term.name] != value:
                    return None
            else:
                extended[term.name] = value
        elif isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            if not term_is_ground(term, extended):
                raise EngineError(
                    f"cannot match non-ground term {term} in body atom {atom}"
                )
            if evaluate_term(term, extended, registry) != value:
                return None
    return extended


def bound_positions(atom: Atom, bindings: Bindings) -> Dict[int, object]:
    """Return {attribute position: value} for atom arguments ground under *bindings*.

    Used to pick an index when scanning the store for matching facts.
    """
    positions: Dict[int, object] = {}
    for index, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            positions[index] = term.value
        elif isinstance(term, Variable) and term.name in bindings:
            positions[index] = bindings[term.name]
    return positions


# ---------------------------------------------------------------------------
# Head instantiation
# ---------------------------------------------------------------------------


def instantiate_head(
    atom: Atom,
    bindings: Bindings,
    registry: FunctionRegistry,
    aggregate_value: object = None,
) -> Fact:
    """Build the concrete head fact for a rule firing.

    ``aggregate_value`` replaces the (single) aggregate term, if present.
    """
    values: List[object] = []
    for term in atom.terms:
        if isinstance(term, Aggregate):
            if aggregate_value is None:
                raise EngineError(
                    f"head atom {atom} has an aggregate but no aggregate value was provided"
                )
            values.append(aggregate_value)
        else:
            values.append(evaluate_term(term, bindings, registry))
    return Fact.make(atom.relation, values)


def group_key_of(
    atom: Atom, bindings: Bindings, registry: FunctionRegistry
) -> Tuple[object, ...]:
    """Return the group-by key of an aggregate head under *bindings*.

    The key is the tuple of evaluated non-aggregate head terms, in order,
    each validated as a ``Fact`` value after all are evaluated, as
    :func:`instantiate_head` does.
    """
    key: List[object] = []
    for term in atom.terms:
        if isinstance(term, Aggregate):
            continue
        key.append(evaluate_term(term, bindings, registry))
    return tuple(_check_value(value) for value in key)
