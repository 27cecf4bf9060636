"""Tests for the per-node incremental evaluator (single-node, no network)."""

import random
from collections import Counter

import pytest

from repro.engine.compiler import compile_program
from repro.engine.evaluator import LocalEvaluator
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
from repro.ndlog.parser import parse_program


def make_evaluator(source, node="n0", name="test"):
    compiled = compile_program(parse_program(source, name=name))
    store = TupleStore()
    return LocalEvaluator(compiled, store, node), store


def insert(evaluator, store, fact):
    """Insert a fact as if the node had stored it, returning the effects of
    the one-fact batch."""
    if store.add_derivation(fact, f"test:{fact}"):
        return evaluator.on_batch([fact], [])
    return []


def delete(evaluator, store, fact):
    derivations = store.remove_fact(fact)
    if derivations:
        return evaluator.on_batch([], [fact])
    return []


def batch(evaluator, store, inserts=(), deletes=()):
    """Apply a whole delta batch to the store and evaluator, returning the effects."""
    deltas = [(-1, fact, f"test:{fact}") for fact in deletes]
    deltas += [(+1, fact, f"test:{fact}") for fact in inserts]
    newly_present, disappeared, _ = store.apply_delta_batch(deltas)
    return evaluator.on_batch(newly_present, disappeared)


LOCAL_JOIN = """
r1 twoHop(@S, D) :- link(@S, Z), link2(@S, Z, D).
"""


class TestBasicFiring:
    def test_join_fires_when_both_sides_present(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        assert insert(evaluator, store, Fact.make("link", ["n0", "a"])) == []
        effects = insert(evaluator, store, Fact.make("link2", ["n0", "a", "b"]))
        assert len(effects) == 1
        effect = effects[0]
        assert effect.sign == +1
        assert effect.head_fact == Fact.make("twoHop", ["n0", "b"])
        assert effect.head_location == "n0"
        assert len(effect.body_facts) == 2

    def test_no_firing_without_join_partner(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        assert insert(evaluator, store, Fact.make("link2", ["n0", "x", "y"])) == []

    def test_duplicate_binding_not_refired(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        insert(evaluator, store, Fact.make("link", ["n0", "a"]))
        insert(evaluator, store, Fact.make("link2", ["n0", "a", "b"]))
        # Inserting the same fact again does not reach the evaluator at all
        # (the store reports it as already present), so no duplicate firing.
        assert insert(evaluator, store, Fact.make("link2", ["n0", "a", "b"])) == []

    def test_retraction_on_body_fact_deletion(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        insert(evaluator, store, Fact.make("link", ["n0", "a"]))
        inserted = insert(evaluator, store, Fact.make("link2", ["n0", "a", "b"]))
        retracted = delete(evaluator, store, Fact.make("link", ["n0", "a"]))
        assert len(retracted) == 1
        assert retracted[0].sign == -1
        assert retracted[0].firing_id == inserted[0].firing_id
        assert evaluator.firing_count == 0

    def test_conditions_and_assignments(self):
        evaluator, store = make_evaluator(
            "r1 far(@S, D, C) :- link(@S, D, C0), C := C0 * 2, C > 5."
        )
        assert insert(evaluator, store, Fact.make("link", ["n0", "a", 2])) == []
        effects = insert(evaluator, store, Fact.make("link", ["n0", "b", 4]))
        assert effects[0].head_fact == Fact.make("far", ["n0", "b", 8])

    def test_self_join_does_not_duplicate_derivations(self):
        evaluator, store = make_evaluator("r1 pair(@S, A, B) :- item(@S, A), item(@S, B).")
        insert(evaluator, store, Fact.make("item", ["n0", 1]))
        effects = insert(evaluator, store, Fact.make("item", ["n0", 2]))
        heads = sorted(str(e.head_fact) for e in effects)
        # (1,2), (2,1) and (2,2) are all new; (1,1) was derived on first insert.
        assert len(effects) == 3
        assert len(set(heads)) == 3

    def test_remote_head_location_reported(self):
        evaluator, store = make_evaluator("r1 echo(@D, S) :- link(@S, D).", node="n0")
        effects = insert(evaluator, store, Fact.make("link", ["n0", "n9"]))
        assert effects[0].head_location == "n9"


class TestAggregates:
    AGG = "r1 best(@S, D, min<C>) :- path(@S, D, C)."

    def test_min_aggregate_tracks_group_minimum(self):
        evaluator, store = make_evaluator(self.AGG)
        effects = insert(evaluator, store, Fact.make("path", ["n0", "d", 5]))
        assert effects[0].head_fact == Fact.make("best", ["n0", "d", 5])
        effects = insert(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        signs = [(e.sign, e.head_fact.values[2]) for e in effects]
        assert (-1, 5) in signs and (+1, 3) in signs

    def test_worse_value_does_not_change_aggregate(self):
        evaluator, store = make_evaluator(self.AGG)
        insert(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        assert insert(evaluator, store, Fact.make("path", ["n0", "d", 9])) == []

    def test_deleting_minimum_falls_back_to_next_best(self):
        evaluator, store = make_evaluator(self.AGG)
        insert(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        insert(evaluator, store, Fact.make("path", ["n0", "d", 9]))
        effects = delete(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        signs = [(e.sign, e.head_fact.values[2]) for e in effects]
        assert (-1, 3) in signs and (+1, 9) in signs

    def test_deleting_last_entry_removes_aggregate(self):
        evaluator, store = make_evaluator(self.AGG)
        insert(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        effects = delete(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        assert [e.sign for e in effects] == [-1]
        assert evaluator.firing_count == 0

    def test_groups_are_independent(self):
        evaluator, store = make_evaluator(self.AGG)
        insert(evaluator, store, Fact.make("path", ["n0", "d1", 3]))
        effects = insert(evaluator, store, Fact.make("path", ["n0", "d2", 7]))
        assert effects[0].head_fact == Fact.make("best", ["n0", "d2", 7])

    def test_count_star_aggregate(self):
        evaluator, store = make_evaluator("r1 total(@S, count<*>) :- item(@S, X).")
        insert(evaluator, store, Fact.make("item", ["n0", "a"]))
        effects = insert(evaluator, store, Fact.make("item", ["n0", "b"]))
        values = [e.head_fact.values[1] for e in effects if e.sign > 0]
        assert values == [2]

    def test_sum_aggregate(self):
        evaluator, store = make_evaluator("r1 total(@S, sum<C>) :- item(@S, C).")
        insert(evaluator, store, Fact.make("item", ["n0", 2]))
        effects = insert(evaluator, store, Fact.make("item", ["n0", 5]))
        assert any(e.sign > 0 and e.head_fact.values[1] == 7 for e in effects)

    def test_max_aggregate_contributing_facts(self):
        evaluator, store = make_evaluator("r1 worst(@S, max<C>) :- item(@S, C).")
        insert(evaluator, store, Fact.make("item", ["n0", 2]))
        effects = insert(evaluator, store, Fact.make("item", ["n0", 8]))
        positive = [e for e in effects if e.sign > 0][0]
        assert positive.body_facts == (Fact.make("item", ["n0", 8]),)


class TestNegation:
    NEG = """
    r1 candidate(@S, D) :- offer(@S, D), !blocked(@S, D).
    """

    def test_negative_literal_blocks_firing(self):
        evaluator, store = make_evaluator(self.NEG)
        insert(evaluator, store, Fact.make("blocked", ["n0", "d"]))
        assert insert(evaluator, store, Fact.make("offer", ["n0", "d"])) == []

    def test_firing_when_no_blocker(self):
        evaluator, store = make_evaluator(self.NEG)
        effects = insert(evaluator, store, Fact.make("offer", ["n0", "d"]))
        assert effects[0].head_fact == Fact.make("candidate", ["n0", "d"])

    def test_later_blocker_retracts_existing_firing(self):
        evaluator, store = make_evaluator(self.NEG)
        insert(evaluator, store, Fact.make("offer", ["n0", "d"]))
        effects = insert(evaluator, store, Fact.make("blocked", ["n0", "d"]))
        assert [e.sign for e in effects] == [-1]
        assert effects[0].head_fact == Fact.make("candidate", ["n0", "d"])

    def test_removing_blocker_rederives(self):
        evaluator, store = make_evaluator(self.NEG)
        insert(evaluator, store, Fact.make("blocked", ["n0", "d"]))
        insert(evaluator, store, Fact.make("offer", ["n0", "d"]))
        effects = delete(evaluator, store, Fact.make("blocked", ["n0", "d"]))
        assert [e.sign for e in effects] == [+1]
        assert effects[0].head_fact == Fact.make("candidate", ["n0", "d"])

    def test_unrelated_blocker_does_not_retract(self):
        evaluator, store = make_evaluator(self.NEG)
        insert(evaluator, store, Fact.make("offer", ["n0", "d"]))
        assert insert(evaluator, store, Fact.make("blocked", ["n0", "other"])) == []

    def test_later_blocker_drops_aggregate_entries(self):
        """A blocker inserted after an aggregate rule's entries drops the
        entries it matches, as deleting their body facts would."""
        evaluator, store = make_evaluator(
            "r1 best(@S, D, min<C>) :- path(@S, D, C), !banned(@S, C)."
        )
        insert(evaluator, store, Fact.make("path", ["n0", "d", 3]))
        insert(evaluator, store, Fact.make("path", ["n0", "d", 5]))
        effects = insert(evaluator, store, Fact.make("banned", ["n0", 3]))
        assert [(e.sign, e.head_fact.values[2]) for e in effects] == [(+1, 5), (-1, 3)]
        effects = insert(evaluator, store, Fact.make("banned", ["n0", 5]))
        assert [(e.sign, e.head_fact.values[2]) for e in effects] == [(-1, 5)]
        assert evaluator.firing_count == 0
        effects = delete(evaluator, store, Fact.make("banned", ["n0", 3]))
        assert [(e.sign, e.head_fact.values[2]) for e in effects] == [(+1, 3)]

    def test_rederived_firing_applies_each_assignment_once(self):
        compiled = compile_program(
            parse_program("r1 out(@S, X) :- a(@S, X), X := X + 1, !blk(@S).", name="once"),
            validate=False,
        )
        store = TupleStore()
        evaluator = LocalEvaluator(compiled, store, "n0")
        first = insert(evaluator, store, Fact.make("a", ["n0", 1]))
        assert [effect.head_fact for effect in first] == [Fact.make("out", ["n0", 2])]
        assert [effect.sign for effect in insert(evaluator, store, Fact.make("blk", ["n0"]))] == [-1]
        again = delete(evaluator, store, Fact.make("blk", ["n0"]))
        assert [(effect.sign, effect.head_fact) for effect in again] == [(+1, Fact.make("out", ["n0", 2]))]


def net_effects(effects):
    """Net derivation count per (rule, head, body) across an effect history.

    Firing ids differ between batched and one-at-a-time evaluation, but the
    *content* of the surviving derivations must be identical; summing signs
    per content key cancels every derive/retract pair.
    """
    counts = Counter()
    for effect in effects:
        counts[(effect.rule_name, effect.head_fact, effect.body_facts)] += effect.sign
    return {key: count for key, count in counts.items() if count}


class TestOnBatch:
    def test_join_across_batch_members(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        effects = batch(
            evaluator,
            store,
            inserts=[Fact.make("link", ["n0", "a"]), Fact.make("link2", ["n0", "a", "b"])],
        )
        assert len(effects) == 1
        assert effects[0].head_fact == Fact.make("twoHop", ["n0", "b"])

    def test_self_join_batch_produces_each_binding_once(self):
        evaluator, store = make_evaluator("r1 pair(@S, A, B) :- item(@S, A), item(@S, B).")
        effects = batch(
            evaluator,
            store,
            inserts=[Fact.make("item", ["n0", 1]), Fact.make("item", ["n0", 2])],
        )
        heads = [str(e.head_fact) for e in effects]
        assert len(heads) == 4  # (1,1), (1,2), (2,1), (2,2) — exactly once each
        assert len(set(heads)) == 4

    def test_aggregate_recomputed_once_per_batch(self):
        evaluator, store = make_evaluator("r1 best(@S, D, min<C>) :- path(@S, D, C).")
        effects = batch(
            evaluator,
            store,
            inserts=[Fact.make("path", ["n0", "d", cost]) for cost in (5, 3, 9)],
        )
        # One consolidated effect for the final minimum; a one-at-a-time
        # replay would emit +5, then -5/+3 as the minimum improves.
        assert [(e.sign, e.head_fact.values[2]) for e in effects] == [(+1, 3)]

    def test_negation_within_batch(self):
        evaluator, store = make_evaluator(
            "r1 candidate(@S, D) :- offer(@S, D), !blocked(@S, D)."
        )
        effects = batch(
            evaluator,
            store,
            inserts=[Fact.make("offer", ["n0", "d"]), Fact.make("blocked", ["n0", "d"])],
        )
        assert effects == []  # the blocker lands in the same batch
        effects = batch(evaluator, store, deletes=[Fact.make("blocked", ["n0", "d"])])
        assert [e.sign for e in effects] == [+1]

    def test_mixed_insert_and_delete_batch(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        batch(evaluator, store, inserts=[Fact.make("link", ["n0", "a"])])
        batch(evaluator, store, inserts=[Fact.make("link2", ["n0", "a", "b"])])
        effects = batch(
            evaluator,
            store,
            inserts=[Fact.make("link2", ["n0", "a", "c"])],
            deletes=[Fact.make("link2", ["n0", "a", "b"])],
        )
        signs = {(e.sign, str(e.head_fact)) for e in effects}
        assert signs == {(-1, 'twoHop("n0", "b")'), (+1, 'twoHop("n0", "c")')}

    def test_batch_is_not_reentrant(self):
        evaluator, store = make_evaluator(LOCAL_JOIN)
        evaluator._dirty_agg_groups = set()
        with pytest.raises(Exception):
            evaluator.on_batch([], [])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batch_equals_one_at_a_time_replay(self, seed):
        """Property: on_batch over many deltas reaches the same store and
        derivation state as one-fact batches."""
        source = """
        r1 best(@S, D, min<C>) :- path(@S, D, C).
        r2 path(@S, D, C) :- edge(@S, D, C).
        r3 good(@S, D) :- edge(@S, D, C), !bad(@S, D).
        """
        rng = random.Random(seed)
        pool = [
            Fact.make("edge", ["n0", dest, cost])
            for dest in ("a", "b", "c")
            for cost in (1, 2, 3)
        ] + [Fact.make("bad", ["n0", dest]) for dest in ("a", "b")]
        script = []
        present = set()
        for _ in range(40):
            fact = rng.choice(pool)
            if fact in present:
                script.append(("-", fact))
                present.discard(fact)
            else:
                script.append(("+", fact))
                present.add(fact)

        single_eval, single_store = make_evaluator(source)
        single_effects = []
        for op, fact in script:
            if op == "+":
                single_effects.extend(insert(single_eval, single_store, fact))
            else:
                single_effects.extend(delete(single_eval, single_store, fact))

        batch_eval, batch_store = make_evaluator(source)
        batch_effects = []
        cursor = 0
        while cursor < len(script):
            size = rng.randint(1, 8)
            chunk = script[cursor : cursor + size]
            cursor += size
            # Preserve the in-batch delta order (a fact may flip twice within
            # one chunk; apply_delta_batch collapses it to the net transition).
            deltas = [
                (+1 if op == "+" else -1, fact, f"test:{fact}") for op, fact in chunk
            ]
            newly_present, disappeared, _ = batch_store.apply_delta_batch(deltas)
            batch_effects.extend(batch_eval.on_batch(newly_present, disappeared))

        assert single_store.snapshot() == batch_store.snapshot()
        assert net_effects(single_effects) == net_effects(batch_effects)
        assert single_eval.firing_count == batch_eval.firing_count
