"""Tests for the aggregate update ordering.

When a group's aggregate value changes, the evaluator emits the new head
*before* retracting the old one.  Downstream nodes then see "new value
arrives, old value leaves" and change their own aggregates once, instead
of deriving, shipping and undoing the consequences of an intermediate
group state — the cascade that blows up deletions on cyclic topologies
(benchmark E10 pins its event count).
"""

from repro.engine import topology
from repro.engine.compiler import compile_program
from repro.engine.evaluator import LocalEvaluator
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
from repro.ndlog.parser import parse_program
from repro.protocols import mincost


class TestOrdering:
    def test_deletion_converges_to_the_reference(self):
        net = topology.ring(5)
        runtime = NetTrailsRuntime(mincost.program(), net)
        runtime.seed_links(run=True)
        assert mincost.check_against_reference(runtime, net)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        assert mincost.check_against_reference(runtime, net)

    def test_replacement_head_precedes_the_retraction(self):
        compiled = compile_program(parse_program("r1 best(@S, min<C>) :- path(@S, C).", name="order"))
        store = TupleStore()
        evaluator = LocalEvaluator(compiled, store, "n0")
        for cost in (5, 3):
            newly_present, disappeared, _ = store.apply_delta_batch([(+1, Fact.make("path", ["n0", cost]), "t")])
            effects = evaluator.on_batch(newly_present, disappeared)
        assert [(effect.sign, effect.head_fact.values) for effect in effects] == [(+1, ("n0", 3)), (-1, ("n0", 5))]


class TestGroupSortKeys:
    def test_the_memo_holds_only_live_groups(self):
        """An emptied group's sort key is dropped with its head; one that
        comes back gets an equal key."""
        compiled = compile_program(parse_program("r1 best(@S, D, min<C>) :- path(@S, D, C).", name="keys"))
        store = TupleStore()
        evaluator = LocalEvaluator(compiled, store, "n0")

        def apply(sign, *rows):
            deltas = [(sign, Fact.make("path", ["n0", *row]), "t") for row in rows]
            newly_present, disappeared, _ = store.apply_delta_batch(deltas)
            return evaluator.on_batch(newly_present, disappeared)

        def live_groups():
            return {(rule, group) for rule, groups in evaluator._agg_entries.items() for group in groups}

        apply(+1, ("a", 1), ("a", 2), ("b", 3), ("c", 4))
        assert set(evaluator._group_sort_keys) == live_groups() == set(evaluator._agg_heads)
        assert len(live_groups()) == 3
        effects = apply(-1, ("a", 1), ("a", 2), ("b", 3))  # empties a and b
        assert [(effect.sign, effect.head_fact.values) for effect in effects] == [
            (-1, ("n0", "a", 1)), (-1, ("n0", "b", 3)),
        ]
        assert set(evaluator._group_sort_keys) == live_groups() == {("r1", ("n0", "c"))}
        apply(+1, ("a", 5))
        assert evaluator._group_sort_keys[("r1", ("n0", "a"))] == repr(("r1", ("n0", "a")))
        assert set(evaluator._group_sort_keys) == live_groups() == set(evaluator._agg_heads)

    def test_churn_leaves_no_key_of_an_emptied_group(self):
        net = topology.ring(5)
        runtime = NetTrailsRuntime(mincost.program(), net)
        runtime.seed_links(run=True)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        runtime.remove_link("n2", "n3")  # the ring splits: groups to the far side empty
        runtime.run_to_quiescence()
        for node in runtime.nodes.values():
            evaluator = node.evaluator
            live = {(rule, group) for rule, groups in evaluator._agg_entries.items() for group in groups}
            assert set(evaluator._group_sort_keys) == live
