"""The generated joins against the interpreter they replaced.

:func:`reference_program` swaps every generated join of a compiled program
for the interpreted semi-naive join the evaluator used to run
(``_delta_bindings`` / ``_join_remaining`` / ``_finalize_binding`` and the
negation ``recurse``), rebuilt here on :func:`dataflow.match_atom` and
:func:`dataflow.bound_positions` with the generated functions' signature.
It differs from that code in one deliberate respect: a firing re-enabled by
a deleted blocker applies the rule's assignments once, as its first
derivation did, not twice.

The Hypothesis test drives one evaluator per program through the same
random store batches.  They must emit identical effects — the same head and
body facts, in the same order, under the same firing ids — stop on the same
exception type, and leave the same facts and secondary indexes behind.  The
reference shares the evaluator's bookkeeping, so the firings left live are
also checked against a fresh evaluator given the final store as one batch.
A rule with a variable no positive literal binds may raise in one order of
arrival and not in another, so that fresh run is first held to the
reference's fresh run, error type included, and its firings are compared
only when it completes.
"""

from __future__ import annotations

import ast
import dataclasses
import traceback
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EngineError, UnknownFunctionError
from repro.engine.compiler import compile_program
from repro.engine.dataflow import (
    bound_positions,
    evaluate_term,
    group_key_of,
    instantiate_head,
    match_atom,
    satisfies,
)
from repro.engine.evaluator import LocalEvaluator
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
from repro.legacy.proxy import LEGACY_PROGRAM_SOURCE
from repro.ndlog.ast import Assignment, Condition
from repro.ndlog.parser import parse_program
from repro.protocols import distance_vector, dsr, mincost, path_vector, prefix_routing

# -- the interpreted reference ---------------------------------------------------------


def _positive_bindings(rule, store, registry, slots, bindings, index, delta, excl):
    """Complete bindings of the positive literals from *index* on; *delta* is matched."""
    positives = rule.positive_literals
    if index == delta:
        index += 1
    if index == len(positives):
        yield bindings, tuple(slots)
        return
    atom = positives[index].atom
    excluded = excl.get(atom.relation) if index < delta else None
    for candidate in list(store.matching(atom.relation, bound_positions(atom, bindings))):
        if excluded is not None and candidate in excluded:
            continue
        extended = match_atom(atom, candidate, bindings, registry)
        if extended is not None:
            slots[index] = candidate
            yield from _positive_bindings(rule, store, registry, slots, extended, index + 1, delta, excl)


def _finish(rule, bindings, registry):
    """Apply assignments and check conditions in body order; None when one fails."""
    extended = dict(bindings)
    for element in rule.body:
        if isinstance(element, Assignment):
            extended[element.variable] = evaluate_term(element.expression, extended, registry)
        elif isinstance(element, Condition) and not satisfies(element, extended, registry):
            return None
    return extended


def _blocked(rule, store, bindings, registry):
    """True when one of the rule's negative literals matches a stored fact."""
    return any(
        match_atom(literal.atom, candidate, bindings, registry) is not None
        for literal in rule.negative_literals
        for candidate in store.matching(literal.atom.relation, bound_positions(literal.atom, bindings))
    )


def _firing(rule, bindings, body, seen, registry):
    """What a generated join yields for a complete binding; None for a live body."""
    aggregate = rule.aggregate
    if aggregate is None:
        if body in seen:
            return None
        return instantiate_head(rule.head, bindings, registry).values, body
    key = group_key_of(rule.head, bindings, registry)
    if aggregate.variable is None:
        return key, 1, body
    if aggregate.variable not in bindings:
        raise EngineError(f"aggregate variable {aggregate.variable!r} is unbound in rule {rule.name!r}")
    return key, bindings[aggregate.variable], body


def reference_delta(rule, position, store, registry):
    atom = rule.positive_literals[position].atom

    def run(facts, excl, seen, F, ensure):
        for fact in facts:
            initial = match_atom(atom, fact, {}, registry)
            if initial is None:
                continue
            slots = [fact] * len(rule.positive_literals)
            for bindings, body in _positive_bindings(rule, store, registry, slots, initial, 0, position, excl):
                final = _finish(rule, bindings, registry)
                if final is not None and not _blocked(rule, store, final, registry):
                    firing = _firing(rule, final, body, seen, registry)
                    if firing is not None:
                        yield firing

    return run


def reference_negation(rule, relation, unblock, store, registry):
    negated = [literal.atom for literal in rule.negative_literals if literal.atom.relation == relation]

    def run(fact, seen, F, ensure):
        slots = [None] * len(rule.positive_literals)
        for bindings, body in _positive_bindings(rule, store, registry, slots, {}, 0, -1, {}):
            try:
                final = _finish(rule, bindings, registry)
            except EngineError:
                continue
            if final is None or all(match_atom(atom, fact, final, registry) is None for atom in negated):
                continue
            if not unblock:
                yield body
            elif not _blocked(rule, store, final, registry):
                firing = _firing(rule, final, body, seen, registry)
                if firing is not None:
                    yield firing

    return run


def reference_program(compiled, store):
    """*compiled* with every generated join replaced by its interpreted reference."""
    registry = compiled.registry

    def negation(relation, join, unblock):
        return dataclasses.replace(join, run=reference_negation(join.rule, relation, unblock, store, registry))

    joins = {
        relation: [
            dataclasses.replace(join, run=reference_delta(join.rule, join.position, store, registry))
            for join in joins
        ]
        for relation, joins in compiled.joins.items()
    }
    negation_joins = {
        relation: [
            (negation(relation, blocked, False), negation(relation, unblocked, True))
            for blocked, unblocked in pairs
        ]
        for relation, pairs in compiled.negation_joins.items()
    }
    return dataclasses.replace(compiled, joins=joins, negation_joins=negation_joins)


def drive(compiled, store, script, batched):
    """The effects of *script* and the type of the exception that stopped it, if any."""
    evaluator = LocalEvaluator(compiled, store, "n0")
    effects = []
    try:
        for step in script:
            if batched:
                newly_present, disappeared, _ = store.apply_delta_batch((sign, fact, "t") for sign, fact in step)
                effects.extend(evaluator.on_batch(newly_present, disappeared))
                continue
            for sign, fact in step:
                if sign > 0 and store.add_derivation(fact, "t"):
                    effects.extend(evaluator.on_batch([fact], []))
                elif sign < 0 and store.remove_fact(fact):
                    effects.extend(evaluator.on_batch([], [fact]))
    except Exception as error:  # compared by type with the other evaluator's
        return effects, type(error)
    return effects, None


def live_firings(effects):
    """The net count of each (rule, head fact, body facts) in an effect history."""
    counts = Counter()
    for effect in effects:
        counts[(effect.rule_name, effect.head_fact, effect.body_facts)] += effect.sign
    return {key: count for key, count in counts.items() if count}


def fresh_run(compiled, store, joins="compiled"):
    """:func:`drive` of a fresh evaluator given every fact of *store* as one batch."""
    fresh = TupleStore()
    if joins == "reference":
        compiled = reference_program(compiled, fresh)
    facts = [fact for relation in store.relations() for fact in store.facts(relation)]
    return drive(compiled, fresh, [[(1, fact) for fact in facts]], batched=True)


def all_joins(compiled):
    deltas = [join for joins in compiled.joins.values() for join in joins]
    return deltas + [join for pairs in compiled.negation_joins.values() for pair in pairs for join in pair]


# -- the differential test -------------------------------------------------------------

RELATIONS = {"a": 3, "b": 3, "c": 2}
ARGUMENTS = ("X", "X", "Y", "Y", "Z", "_", "_", "1", "2", "X + 1", "f_max(Y, 1)")
ASSIGNMENTS = ("Z := X + Y", "X := X + 1", "W := f_min(X, 2)")
CONDITIONS = ("X < 2", "Y != 1", "X + Y", "X % 2 == 0", "f_member(f_init(X, Y), 1) == 0", "W > 0")
NEGATIONS = ("!c(@S, X)", "!b(@S, X, _)", "!c(@S, Y + 1)", "!a(@S, Z, 1)")
HEADS = (
    "h{i}(@S, X, Y)",
    "h{i}(@S, Z)",
    "h{i}(@S, X + Y, W)",
    "h{i}(@S, X, min<Y>)",
    "h{i}(@S, max<X>)",
    "h{i}(@S, Y, count<*>)",
    "h{i}(@S, sum<X>)",
    "h{i}(@S, X, avg<Y>)",
)
AGGREGATE_HEADS = tuple(head for head in HEADS if "<" in head)
FACTS = [Fact.make(relation, ["n0", x, y]) for relation in ("a", "b") for x in range(3) for y in range(3)] + [
    Fact.make("c", ["n0", x]) for x in range(3)
]


@st.composite
def rules(draw, index, negated_aggregate=False):
    """One rule over a/b/c: positive literals, assignments, conditions and negations, shuffled.

    A *negated_aggregate* rule has an aggregate head and at least one
    negative literal.
    """
    body = []
    for relation in draw(st.lists(st.sampled_from(sorted(RELATIONS)), min_size=1, max_size=3)):
        arguments = [draw(st.sampled_from(ARGUMENTS)) for _ in range(RELATIONS[relation] - 1)]
        body.append(f"{relation}(@S, {', '.join(arguments)})")
    body += draw(st.lists(st.sampled_from(ASSIGNMENTS + CONDITIONS), max_size=3))
    body += draw(st.lists(st.sampled_from(NEGATIONS), min_size=int(negated_aggregate), max_size=2, unique=True))
    head = draw(st.sampled_from(AGGREGATE_HEADS if negated_aggregate else HEADS)).format(i=index)
    return f"r{index} {head} :- {', '.join(draw(st.permutations(body)))}."


PROGRAMS = st.one_of(
    rules(0).map(lambda rule: [rule]),
    st.tuples(rules(0), rules(1)).map(list),
    rules(0, negated_aggregate=True).map(lambda rule: [rule]),
)
SCRIPTS = st.lists(
    st.lists(st.tuples(st.sampled_from((1, 1, -1)), st.sampled_from(FACTS)), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
)


def assert_same_behaviour(program, script, batched):
    compiled = compile_program(parse_program("\n".join(program), name="diff"), validate=False)
    compiled_store, reference_store = TupleStore(), TupleStore()
    expected = drive(reference_program(compiled, reference_store), reference_store, script, batched)
    actual = drive(compiled, compiled_store, script, batched)
    assert actual == expected
    assert compiled_store.snapshot() == reference_store.snapshot()
    assert set(compiled_store._indexes) == set(reference_store._indexes)
    effects, error = actual
    if error is None:
        fresh = fresh_run(compiled, compiled_store)
        assert fresh == fresh_run(compiled, compiled_store, "reference")
        fresh_effects, fresh_error = fresh
        if fresh_error is None:
            assert live_firings(effects) == live_firings(fresh_effects)
    return actual


def b(x, y):
    return Fact.make("b", ["n0", x, y])


#: An assignment overwriting a variable an outer loop bound, with several
#: inner candidates: every candidate must see the outer value, not the last
#: one's overwritten value.
OVERWRITE = "r0 h0(@S, X, Y) :- a(@S, X, _), b(@S, Y, _), X := X + 1, Y != 1."
OVERWRITE_SCRIPT = [[(1, b(0, 0)), (1, b(1, 0)), (1, b(2, 0))], [(1, Fact.make("a", ["n0", 1, 0]))]]


#: An aggregate rule with a negative literal, and a blocker that arrives
#: after the entry it blocks: the entry must leave its group.
BLOCKED_AGGREGATE = "r0 h0(@S, X, min<Y>) :- a(@S, X, Y), !c(@S, X)."
BLOCKED_AGGREGATE_SCRIPT = [[(1, Fact.make("a", ["n0", 0, 0]))], [(1, Fact.make("c", ["n0", 0]))]]


#: ``Y`` is bound by no positive literal.  Arriving before ``b``, the
#: blockers never reach ``!c(@S, Y + 1)``; in one batch they do, and raise.
UNSAFE_NEGATION = "r0 h0(@S, X, Y) :- a(@S, X, X), b(@S, X, X), !c(@S, X), !c(@S, Y + 1)."
UNSAFE_NEGATION_SCRIPT = [
    [(1, Fact.make("a", ["n0", 1, 1])), (1, Fact.make("c", ["n0", 0])), (1, Fact.make("c", ["n0", 1])), (1, b(1, 1))]
]


@settings(max_examples=150, deadline=None)
@given(program=PROGRAMS, script=SCRIPTS, batched=st.booleans())
@example(program=[OVERWRITE], script=OVERWRITE_SCRIPT, batched=True)
@example(program=[OVERWRITE], script=OVERWRITE_SCRIPT, batched=False)
@example(program=[BLOCKED_AGGREGATE], script=BLOCKED_AGGREGATE_SCRIPT, batched=True)
@example(program=[UNSAFE_NEGATION], script=UNSAFE_NEGATION_SCRIPT, batched=False)
def test_compiled_joins_fire_like_the_interpreter(program, script, batched):
    assert_same_behaviour(program, script, batched)


@pytest.mark.parametrize("batched", [True, False])
def test_an_overwriting_assignment_leaves_the_outer_binding_alone(batched):
    effects, error = assert_same_behaviour([OVERWRITE], OVERWRITE_SCRIPT, batched)
    assert error is None
    assert sorted(effect.head_fact.values for effect in effects) == [("n0", 2, 0), ("n0", 2, 2)]


@pytest.mark.parametrize("batched", [True, False])
def test_the_comparison_covers_firings_retractions_and_aggregates(batched):
    program = [
        "r0 h0(@S, X, Y) :- a(@S, X, Z), b(@S, Z, Y), !c(@S, Y).",
        "r1 h1(@S, X, min<Y>) :- a(@S, X, Y), b(@S, Y, _), Y < 2.",
    ]
    blocker = Fact.make("c", ["n0", 1])
    script = [
        [(1, fact) for fact in FACTS if fact != blocker],
        [(1, blocker)],
        [(-1, fact) for fact in FACTS[::4]],
        [(-1, blocker)],
    ]
    effects, error = assert_same_behaviour(program, script, batched)
    assert error is None
    assert {("r0", 1), ("r0", -1), ("r1", 1), ("r1", -1)} <= {(e.rule_name, e.sign) for e in effects}


# -- errors --------------------------------------------------------------------------------

ERRORS = [
    ("r1 h(@S, X) :- a(@S, X, Y), f_concat(X, Y).", EngineError, "non-boolean, non-numeric"),
    ("r1 h(@S, Z) :- a(@S, X, Y), Z := f_noSuch(X).", UnknownFunctionError, "f_noSuch"),
    ("r1 h(@S, X) :- a(@S, X, Y + 1).", EngineError, "non-ground term"),
    ("r1 h(@S, Z) :- a(@S, X, Y), Z := X / 0.", ZeroDivisionError, "division"),
]


def _batch_of_one(source, joins="compiled"):
    compiled = compile_program(parse_program(source, name="bad"), validate=False)
    store = TupleStore()
    if joins == "reference":
        compiled = reference_program(compiled, store)
    evaluator = LocalEvaluator(compiled, store, "n0")
    newly_present, disappeared, _ = store.apply_delta_batch([(+1, Fact.make("a", ["n0", 1, 2]), "t")])
    return lambda: evaluator.on_batch(newly_present, disappeared)


@pytest.mark.parametrize("joins", ["compiled", "reference"])
@pytest.mark.parametrize("source, error, message", ERRORS)
def test_on_batch_raises_what_the_interpreter_raised(source, error, message, joins):
    with pytest.raises(error, match=message) as raised:
        _batch_of_one(source, joins)()
    assert type(raised.value) is error


def test_a_traceback_names_the_rule_and_its_delta_position():
    with pytest.raises(ZeroDivisionError) as raised:
        _batch_of_one("r7 h(@S, Z) :- a(@S, X, Y), Z := X / 0.")()
    innermost = list(traceback.walk_tb(raised.value.__traceback__))[-1][0].f_code
    assert innermost.co_filename == innermost.co_name == "<join r7@0>"


@pytest.mark.parametrize("batched", [True, False])
def test_a_rule_deeper_than_python_nests_blocks_still_joins(batched):
    """40 positive literals: each join goes on in continuation functions."""
    length = 40
    body = ", ".join(f"a(@S, X{i}, X{i + 1})" for i in range(length))
    program = [f"deep h0(@S, X0, X{length}) :- {body}, !c(@S, X0)."]
    chain = [Fact.make("a", ["n0", i, i + 1]) for i in range(length)]
    blocker = Fact.make("c", ["n0", 0])
    script = [[(1, fact) for fact in chain], [(1, blocker)], [(-1, blocker)], [(-1, chain[length // 2])]]
    effects, error = assert_same_behaviour(program, script, batched)
    assert error is None
    assert [(effect.sign, effect.head_fact.values) for effect in effects] == [
        (sign, ("n0", 0, length)) for sign in (1, -1, 1, -1)
    ]
    joins = all_joins(compile_program(parse_program(program[0], name="deep"), validate=False))
    assert all(join.source.count("\ndef ") >= 2 for join in joins)


# -- what is generated ---------------------------------------------------------------------

NEGATION = "r1 up(@S, D) :- link(@S, D). r2 alone(@S, D) :- node(@S, D), !up(@S, D)."
SHIPPED = {
    "mincost": mincost.program,
    "path_vector": path_vector.program,
    "prefix_routing": prefix_routing.program,
    "distance_vector": distance_vector.program,
    "dsr": dsr.program,
    "legacy": lambda: parse_program(LEGACY_PROGRAM_SOURCE, name="legacy"),
    "negation": lambda: parse_program(NEGATION, name="negation"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_generated_source_is_python_3_9(name):
    joins = all_joins(compile_program(SHIPPED[name]()))
    assert joins
    for join in joins:
        ast.parse(join.source, filename=join.label, feature_version=(3, 9))


@pytest.mark.parametrize("name", ["path_vector", "negation"])
def test_one_generated_join_per_trigger_in_trigger_order(name):
    compiled = compile_program(SHIPPED[name]())
    deltas, negations = {}, {}
    for rule in compiled.rules:
        for position, literal in enumerate(rule.positive_literals):
            deltas.setdefault(literal.atom.relation, []).append((f"<join {rule.name}@{position}>", position))
        for literal in rule.negative_literals:
            relation = literal.atom.relation
            pair = (f"<join {rule.name}@!{relation}>", f"<join {rule.name}@+!{relation}>")
            if pair not in negations.setdefault(relation, []):
                negations[relation].append(pair)
    assert {
        relation: [(join.label, join.position) for join in joins] for relation, joins in compiled.joins.items()
    } == deltas
    assert {
        relation: [(blocked.label, unblocked.label) for blocked, unblocked in pairs]
        for relation, pairs in compiled.negation_joins.items()
    } == negations


def test_a_batch_builds_exactly_the_indexes_its_joins_probe():
    """``_`` binds nothing, so it fixes no index position."""
    compiled = compile_program(parse_program("r1 out(@N, B) :- a(@N, _), b(@N, _, B).", name="w"))
    store = TupleStore()
    evaluator = LocalEvaluator(compiled, store, "n0")
    newly_present, disappeared, _ = store.apply_delta_batch(
        [(+1, Fact.make("a", ["n0", 1]), "t"), (+1, Fact.make("b", ["n0", 2, 3]), "t")]
    )
    effects = evaluator.on_batch(newly_present, disappeared)
    assert [effect.head_fact for effect in effects] == [Fact.make("out", ["n0", 3])]
    probed = {probe for join in all_joins(compiled) for probe in join.probes}
    assert probed == {("a", (0,)), ("b", (0,))}
    assert set(store._indexes) == probed
