"""Compile-time joins: one straight-line Python function per rule trigger.

:func:`compile_joins` is the last step of
:func:`repro.engine.compiler.compile_program`.  For every localized rule it
writes the rule's whole join out as Python source — the delta atom match,
each later literal's index probe in body order, assignments, conditions,
negative-literal probes and the head projection — and turns it into a
function with the stdlib :func:`compile`.  The functions are made once per
program and shared by every node; each call takes the node's store tables
as arguments.

Three kinds of function are generated:

* a **delta join** per (rule, delta position), ``run(facts, excl, seen, F,
  ensure)``: the firings in which each fact of *facts* plays the delta
  literal.  Literals before the delta position skip the facts in
  ``excl[relation]`` (batch semi-naive de-duplication);
* a **blocked join** per (rule, negated relation), ``run(fact, seen, F,
  ensure)``: the body of every positive binding that one of the rule's
  negative literals on that relation unifies with the new *fact*;
* an **unblocked join** per (rule, negated relation), same signature: the
  firings a deleted *fact* no longer blocks.

Non-aggregate joins yield ``(head values, body facts)`` and skip bodies
already in *seen* (the rule's live firings); aggregate joins yield
``(group key, aggregate value, body facts)``.  No bindings dict exists per
firing.  Head values and group keys leave the join valid for a ``Fact``: a
variable bound from a stored fact's slot was validated when that fact was
made, and a scalar constant is valid, so only computed terms and tuple
constants are checked, per firing, with ``_check`` (see
:meth:`_Codegen.values`).  ``F`` is the store's relation → facts map and
``ensure`` returns the index on a (relation, positions) pair, building it
on first use (see :meth:`TupleStore.join_tables`).  Every candidate list
is copied from the same index bucket in the same order as the interpreted
join this replaced, so the firings and their ids are the same.

Every variable binding and every assignment gets its own Python local, so
an assignment that overwrites a variable (``X := X + 1``) never changes
the value an outer loop bound.  Evaluation order, and so which exception a
bad rule raises, follows :mod:`repro.engine.dataflow`: terms left to right,
a non-ground body expression raises :class:`EngineError` when the match
reaches it, and an unknown function raises :class:`UnknownFunctionError`
after its arguments are evaluated.  The code objects are named
``<join RULE@POS>`` (and ``<join RULE@!REL>`` / ``<join RULE@+!REL>`` for
the blocked / unblocked joins) so a traceback points at the rule;
:attr:`CompiledJoin.source` holds the generated text.  Each positive
literal opens one loop, and CPython caps how deep blocks nest, so a rule
with more than :data:`_MAX_LOOPS` positive literals continues in a second
generated function called from the innermost loop of the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import FunctionType
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, cast

from repro.errors import EngineError
from repro.engine.dataflow import condition_truth
from repro.engine.tuples import SCALAR_TYPES, _check_value
from repro.ndlog.ast import (
    Aggregate,
    Assignment,
    Atom,
    Condition,
    Constant,
    Expression,
    FunctionCall,
    Rule,
    Term,
    Variable,
)
from repro.ndlog.functions import FunctionRegistry

#: One secondary-index probe: (relation, sorted attribute positions).
Probe = Tuple[str, Tuple[int, ...]]

_OPERATORS = frozenset(Expression.ARITHMETIC_OPS + Expression.COMPARISON_OPS)

#: Positive-literal loops one generated function nests before the join goes
#: on in a new function.  CPython refuses more than 20 statically nested
#: blocks; the delta loop, one negative probe's loop or a negation join's
#: ``try`` add at most two more.
_MAX_LOOPS = 16


@dataclass(frozen=True)
class CompiledJoin:
    """One generated join function and the indexes it probes.

    ``position`` is the delta position in ``rule.positive_literals``, or
    None for a blocked or unblocked join.  ``probes`` lists every
    (relation, positions) index the function may probe, positive literals
    in join order and then negative literals; batch evaluation builds them
    before the join runs.
    """

    rule: Rule
    label: str
    position: Optional[int]
    run: Callable[..., Iterator[tuple]]
    probes: Tuple[Probe, ...]
    aggregate: bool
    source: str


# -- helpers the generated code calls -----------------------------------------------


def _unbound(name: str) -> object:
    raise EngineError(f"variable {name!r} is unbound")


def _raise(message: str) -> object:
    raise EngineError(message)


def _bad_operator(left: object, right: object, op: str) -> object:
    raise EngineError(f"unsupported operator {op!r}")


# -- code generation -----------------------------------------------------------------


class _Codegen:
    """The source of one join, built statement by statement.

    ``env`` arguments map each NDlog variable bound at that point of the join
    to the Python local holding it.  Which variables are bound where is
    static, so every "is it bound?" question is answered here, once.  The
    join is usually one function, ``_join0``; :meth:`split` continues it in
    ``_join1``, ``_join2``, ... when its loops nest too deep.
    """

    def __init__(self, rule: Rule, parameters: str):
        self.rule = rule
        self.parameters = parameters
        self.functions: List[List[str]] = []
        self.constants: Dict[str, object] = {}
        self.indexes: Dict[Probe, str] = {}
        self.exclusions: Dict[str, str] = {}
        #: the candidate locals bound so far, which the body tuple names
        self.candidates: List[str] = []
        #: locals bound from a stored fact's slots: values ``Fact.make``
        #: already validated, which a head passes on unchecked
        self.checked: Set[str] = set()
        self.fresh_names = 0
        self.start(f"def _join0({parameters}):")

    def start(self, header: str) -> None:
        #: index and exclusion locals are set up at the top of each function
        self.prologue = [header]
        self.lines: List[str] = []
        self.prepared: Set[str] = set()
        self.loops = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def prepare(self, name: str, value: str) -> None:
        if name not in self.prepared:
            self.prepared.add(name)
            self.prologue.append(f"    {name} = {value}")

    def fresh(self) -> str:
        self.fresh_names += 1
        return f"v{self.fresh_names}"

    def const(self, value: object) -> str:
        if type(value) in (int, str, bool) or (type(value) is float and math.isfinite(value)):
            return repr(value)
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        return name

    def expr(self, term: Term, env: Dict[str, str]) -> str:
        """Python evaluating *term* the way :func:`dataflow.evaluate_term` does."""
        if isinstance(term, Constant):
            return self.const(term.value)
        if isinstance(term, Variable):
            return env[term.name] if term.name in env else f"_unbound({term.name!r})"
        if isinstance(term, FunctionCall):
            args = "".join(f"{self.expr(arg, env)}, " for arg in term.args)
            return f"_call({term.name!r}, ({args}))"
        if isinstance(term, Expression):
            left, right = self.expr(term.left, env), self.expr(term.right, env)
            if term.op in _OPERATORS:
                return f"({left} {term.op} {right})"
            return f"_bad_operator({left}, {right}, {term.op!r})"
        if isinstance(term, Aggregate):
            return "_raise('aggregate terms cannot be evaluated directly')"
        return f"_raise({f'cannot evaluate term {term!r}'!r})"

    def match(
        self, depth: int, atom: Atom, values: str, env: Dict[str, str], skip: Tuple[int, ...] = ()
    ) -> None:
        """Check *atom* against the value tuple *values*, ``continue`` on mismatch.

        Positions in *skip* were matched by the index probe.  Free variables
        are bound into *env* as they occur, as in :func:`dataflow.match_atom`.
        """
        self.emit(depth, f"if len({values}) != {atom.arity}: continue")
        for position, term in enumerate(atom.terms):
            if position in skip:
                continue
            slot = f"{values}[{position}]"
            if isinstance(term, Variable):
                if term.name == "_":
                    continue
                if term.name in env:
                    self.emit(depth, f"if {env[term.name]} != {slot}: continue")
                else:
                    env[term.name] = self.fresh()
                    self.checked.add(env[term.name])
                    self.emit(depth, f"{env[term.name]} = {slot}")
            elif isinstance(term, Constant):
                self.emit(depth, f"if {self.const(term.value)} != {slot}: continue")
            elif all(name in env for name in term.variables()):
                self.emit(depth, f"if {self.expr(term, env)} != {slot}: continue")
            else:
                message = f"cannot match non-ground term {term} in body atom {atom}"
                self.emit(depth, f"_raise({message!r})")

    def bucket(self, depth: int, atom: Atom, env: Dict[str, str]) -> Tuple[str, Tuple[int, ...]]:
        """The candidates for *atom* under *env*, and the positions the probe fixes.

        A position is fixed when its term is a constant or a bound variable —
        never ``_`` — exactly as :func:`dataflow.bound_positions` decides.
        """
        positions = tuple(
            position
            for position, term in enumerate(atom.terms)
            if isinstance(term, Constant) or (isinstance(term, Variable) and term.name in env)
        )
        if not positions:
            return f"F.get({atom.relation!r}, ())", positions
        probe = (atom.relation, positions)
        index = self.indexes.get(probe)
        if index is None:
            index = self.indexes[probe] = f"i{len(self.indexes)}"
        self.prepare(index, "None")
        self.emit(depth, f"if {index} is None: {index} = ensure{probe!r}")
        key = "".join(
            f"{self.const(term.value) if isinstance(term, Constant) else env[term.name]}, "
            for term in (atom.terms[position] for position in positions)
        )
        return f"{index}.get(({key}), ())", positions

    def scan(self, depth: int, position: int, atom: Atom, env: Dict[str, str], exclude: bool) -> int:
        """Open the loop over *atom*'s candidates; return the depth inside it."""
        if self.loops == _MAX_LOOPS:
            depth = self.split(depth, env)
        self.loops += 1
        bucket, fixed = self.bucket(depth, atom, env)
        candidate, values = f"c{position}", f"w{position}"
        self.candidates.append(candidate)
        self.emit(depth, f"for {candidate} in [*{bucket}]:")
        depth += 1
        if exclude:
            excluded = self.exclusions.get(atom.relation)
            if excluded is None:
                excluded = self.exclusions[atom.relation] = f"x{len(self.exclusions)}"
            self.prepare(excluded, f"excl.get({atom.relation!r})")
            self.emit(depth, f"if {excluded} is not None and {candidate} in {excluded}: continue")
        self.emit(depth, f"{values} = {candidate}.values")
        self.match(depth, atom, values, env, fixed)
        return depth

    def split(self, depth: int, env: Dict[str, str]) -> int:
        """Go on in a new function, passed every local bound so far; return its depth."""
        name = f"_join{len(self.functions) + 1}"
        arguments = ", ".join([self.parameters, *env.values(), *self.candidates])
        self.emit(depth, f"yield from {name}({arguments})")
        self.functions.append(self.prologue + self.lines)
        self.start(f"def {name}({arguments}):")
        return 1

    def assignments_and_conditions(self, depth: int, env: Dict[str, str]) -> None:
        """Assignments and conditions in body order; ``continue`` when one fails."""
        for element in self.rule.body:
            if isinstance(element, Assignment):
                value = self.expr(element.expression, env)
                env[element.variable] = self.fresh()
                self.emit(depth, f"{env[element.variable]} = {value}")
            elif isinstance(element, Condition):
                self.emit(depth, f"t = {self.expr(element.expression, env)}")
                self.emit(
                    depth,
                    "if t is not True and (t is False or not "
                    f"_truth(t, {self.const(element)})): continue",
                )

    def negations(self, depth: int, env: Dict[str, str]) -> None:
        """Drop the binding when a negative literal matches a stored fact."""
        for literal in self.rule.negative_literals:
            scoped = dict(env)
            bucket, fixed = self.bucket(depth, literal.atom, scoped)
            self.emit(depth, "n = False")
            self.emit(depth, f"for c in {bucket}:")
            self.emit(depth + 1, "w = c.values")
            self.match(depth + 1, literal.atom, "w", scoped, fixed)
            self.emit(depth + 1, "n = True")
            self.emit(depth + 1, "break")
            self.emit(depth, "if n: continue")

    def values(self, depth: int, terms: Iterable[Term], env: Dict[str, str]) -> str:
        """*terms* as a tuple display; all are evaluated before any is checked, as in ``instantiate_head``."""
        values = []
        for term in terms:
            if isinstance(term, Variable) and term.name in env:
                local = env[term.name]
                values.append(local if local in self.checked else f"_check({local})")
            elif isinstance(term, Constant):
                const = self.const(term.value)
                values.append(const if isinstance(term.value, SCALAR_TYPES) else f"_check({const})")
            else:
                name = self.fresh()
                self.emit(depth, f"{name} = {self.expr(term, env)}")
                values.append(f"_check({name})")
        return "(" + "".join(f"{value}, " for value in values) + ")"

    def firing(self, depth: int, env: Dict[str, str], body: str) -> None:
        """Yield the firing: head values, or group key and aggregate value, and body."""
        rule = self.rule
        aggregate = rule.aggregate
        if aggregate is None:
            self.emit(depth, f"body = {body}")
            self.emit(depth, "if body in seen: continue")
            head = self.values(depth, rule.head.terms, env)
            self.emit(depth, f"yield {head}, body")
            return
        key_terms = [term for term in rule.head.terms if not isinstance(term, Aggregate)]
        key = self.values(depth, key_terms, env)
        if aggregate.variable is None:
            value = "1"
        elif aggregate.variable in env:
            value = env[aggregate.variable]
        else:
            message = f"aggregate variable {aggregate.variable!r} is unbound in rule {rule.name!r}"
            value = f"_raise({message!r})"
        self.emit(depth, f"yield {key}, {value}, {body}")

    def build(self, label: str, position: Optional[int], registry: FunctionRegistry) -> CompiledJoin:
        self.functions.append(self.prologue + self.lines)
        source = "\n".join(line for function in self.functions for line in function) + "\n"
        namespace: Dict[str, object] = {
            "_call": registry.call,
            "_check": _check_value,
            "_truth": condition_truth,
            "_unbound": _unbound,
            "_raise": _raise,
            "_bad_operator": _bad_operator,
            "_EngineError": EngineError,
        }
        namespace.update(self.constants)
        exec(compile(source, label, "exec"), namespace)
        for number in range(len(self.functions)):
            function = cast(FunctionType, namespace[f"_join{number}"])
            function.__code__ = function.__code__.replace(co_name=label)
        run = cast(FunctionType, namespace["_join0"])
        return CompiledJoin(
            self.rule, label, position, run, tuple(self.indexes), self.rule.has_aggregate, source
        )


def _body(count: int) -> str:
    return "(" + "".join(f"c{position}, " for position in range(count)) + ")"


def _delta_join(rule: Rule, position: int, registry: FunctionRegistry) -> CompiledJoin:
    """The join run when facts of ``rule.positive_literals[position]`` appear."""
    positives = rule.positive_literals
    code = _Codegen(rule, "facts, excl, seen, F, ensure")
    env: Dict[str, str] = {}
    code.candidates.append(f"c{position}")
    code.emit(1, f"for c{position} in facts:")
    code.emit(2, f"w{position} = c{position}.values")
    code.match(2, positives[position].atom, f"w{position}", env)
    depth = 2
    for index, literal in enumerate(positives):
        if index != position:
            depth = code.scan(depth, index, literal.atom, env, exclude=index < position)
    code.assignments_and_conditions(depth, env)
    code.negations(depth, env)
    code.firing(depth, env, _body(len(positives)))
    return code.build(f"<join {rule.name}@{position}>", position, registry)


def _negation_join(
    rule: Rule, relation: str, unblock: bool, registry: FunctionRegistry
) -> CompiledJoin:
    """The blocked (``unblock=False``) or unblocked join of *rule* for *relation*.

    The positive literals are probed in body order from nothing bound, as a
    fresh evaluation would; an :class:`EngineError` from an assignment or
    condition drops the binding.  A binding counts when one of the rule's
    negative literals on *relation* unifies with *fact*.
    """
    positives = rule.positive_literals
    code = _Codegen(rule, "fact, seen, F, ensure")
    env: Dict[str, str] = {}
    depth = 1
    if not positives:
        code.emit(1, "for _ in (None,):")
        depth = 2
    for index, literal in enumerate(positives):
        depth = code.scan(depth, index, literal.atom, env, exclude=False)
    code.emit(depth, "try:")
    code.emit(depth + 1, "pass")
    code.assignments_and_conditions(depth + 1, env)
    code.emit(depth, "except _EngineError:")
    code.emit(depth + 1, "continue")
    code.emit(depth, "n = False")
    for literal in rule.negative_literals:
        if literal.atom.relation == relation:
            code.emit(depth, "if not n:")
            code.emit(depth + 1, "for w in (fact.values,):")
            code.match(depth + 2, literal.atom, "w", dict(env))
            code.emit(depth + 2, "n = True")
    code.emit(depth, "if not n: continue")
    body = _body(len(positives))
    if unblock:
        code.negations(depth, env)
        code.firing(depth, env, body)
    else:
        code.emit(depth, f"yield {body}")
    label = f"<join {rule.name}@{'+' if unblock else ''}!{relation}>"
    return code.build(label, None, registry)


#: Generated delta joins keyed by the relation whose new facts run them.
JoinTable = Dict[str, List[CompiledJoin]]
#: Generated (blocked, unblocked) join pairs keyed by the negated relation.
NegationTable = Dict[str, List[Tuple[CompiledJoin, CompiledJoin]]]


def compile_joins(
    delta_index: Dict[str, List[Tuple[Rule, int]]],
    negation_index: Dict[str, List[Rule]],
    registry: FunctionRegistry,
) -> Tuple[JoinTable, NegationTable]:
    """Generate the join of every trigger: the delta and the negation table.

    The tables have the keys and list order of the compiler's trigger
    indexes: one delta join per ``delta_index`` entry, and one (blocked,
    unblocked) pair per ``negation_index`` entry.
    """
    deltas = {
        relation: [_delta_join(rule, position, registry) for rule, position in triggers]
        for relation, triggers in delta_index.items()
    }
    negations = {
        relation: [
            (_negation_join(rule, relation, False, registry), _negation_join(rule, relation, True, registry))
            for rule in rules
        ]
        for relation, rules in negation_index.items()
    }
    return deltas, negations
