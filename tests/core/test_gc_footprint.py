"""Stored engine rows stay invisible to the cyclic garbage collector.

The provenance tables are relations of identifiers, so their rows are stored
as exact tuples of strings and node ids, which CPython untracks; the
one-member common case of every per-fact id index (consumers of a vid,
derivations of a fact, firings that used a fact) is a bare id string that
becomes a ``set`` only at the second member.  A fact is one slotted object
with no instance dict, and a live firing or aggregate head is three map
entries, not a record object.  At churn scale this is the difference between a full collection
scanning ~650 k objects or a third of that, several times per churn cycle.
These tests pin the shapes on a small prefix-routing runtime after a few
churn windows.
"""

from __future__ import annotations

import gc

from repro.core.keys import vid_for
from repro.core.maintenance import NodeProvenanceStore
from repro.engine import topology
from repro.engine.compiler import compile_program
from repro.engine.evaluator import LocalEvaluator
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
from repro.ndlog.parser import parse_program
from repro.protocols import prefix_routing

#: Tracked objects per ``prov`` row, runtime-wide, on the runtime below.  The
#: row-object representation measured 13.0 here; tuple rows, one-object facts
#: and record-free firings and aggregate heads measure 5.6.  The bound keeps
#: about 25 % headroom over the latter.
MAX_TRACKED_PER_PROV_ROW = 7.0

TWO_CONSUMERS = """
r1 left(@S, Z) :- link(@S, Z).
r2 right(@S, Z) :- link(@S, Z).
"""


def churned_runtime():
    net = topology.isp_hierarchy(4, 3, 3, seed=1)
    runtime = prefix_routing.setup(net)
    stubs = sorted(node for node in net.nodes if node.startswith("stub"))
    prefix_routing.announce(runtime, [(stubs[i * len(stubs) // 4], f"p{i}") for i in range(4)])
    for t2 in sorted(node for node in net.nodes if node.startswith("t2"))[:6]:
        t1 = "t1_" + t2.split("_")[1]
        runtime.remove_link(t1, t2)
        runtime.run_to_quiescence()
        runtime.add_link(t1, t2, 1.0)
        runtime.run_to_quiescence()
    return runtime


def assert_bare_or_plural(index, what):
    """Every value of a per-key id index is a bare id or a set of two or more."""
    for key, members in index.items():
        if type(members) is str:
            continue
        assert isinstance(members, set) and len(members) >= 2, (what, key, members)


class TestStoredRowsAreUntracked:
    def test_rows_and_index_entries_are_not_tracked(self):
        runtime = churned_runtime()
        # The collector untracks a tuple once it finds every member
        # untracked; a row visited before its (younger-generation) child-vid
        # tuple is only untracked by the next pass.
        gc.collect()
        gc.collect()
        provenance = runtime.provenance
        for node_id in provenance.node_ids():
            store = provenance.store(node_id)
            for vid, rows in store._prov.items():
                assert not gc.is_tracked(rows), (vid, rows)
            for row in store._rule_execs.values():
                assert not gc.is_tracked(row), row
            assert_bare_or_plural(store._uses, "uses")
        for node_id, node in runtime.nodes.items():
            for by_fact in node.store._facts.values():
                assert_bare_or_plural(by_fact, "derivations")
            assert_bare_or_plural(node.evaluator._fact_firings, "firings")
            # firing id -> rule name, and (rule, group) -> (firing id, value)
            # of an aggregate head, hold only atoms
            assert not gc.is_tracked(node.evaluator._firing_rules)
            assert not gc.is_tracked(node.evaluator._agg_heads)

    def test_a_fact_is_one_object(self):
        fact = Fact.make("link", ["n0", "a"])
        repr(fact)
        vid_for(fact)  # the memos live in slots, not in an instance dict
        assert not hasattr(fact, "__dict__")

    def test_tracked_objects_per_prov_row_stay_bounded(self):
        gc.collect()
        before = len(gc.get_objects())
        runtime = churned_runtime()
        gc.collect()
        tracked = len(gc.get_objects()) - before
        rows = runtime.provenance.table_sizes()["prov"]
        assert rows > 500
        assert tracked / rows < MAX_TRACKED_PER_PROV_ROW, (tracked, rows)


class TestConsumerIndexShape:
    def test_one_two_one_zero_consumers(self):
        """A vid consumed by 1 -> 2 -> 1 -> 0 rule executions is a bare rid,
        then a set, then a bare rid again, then gone; ``uses_of`` is the
        sorted rid list throughout and retraction stays a plain removal."""
        store = NodeProvenanceStore("n0")
        store.add_rule_exec("rid_b", "r", "p", ("child",), "head_b", "n0")
        assert store._uses["child"] == "rid_b"
        assert store.uses_of("child") == ["rid_b"]

        store.add_rule_exec("rid_a", "r", "p", ("child", "other"), "head_a", "n0")
        assert store._uses["child"] == {"rid_a", "rid_b"}
        assert store.uses_of("child") == ["rid_a", "rid_b"]
        assert store.uses_of("other") == ["rid_a"]

        store.remove_rule_exec("rid_b")
        assert store._uses["child"] == "rid_a"
        assert store.uses_of("child") == ["rid_a"]

        store.remove_rule_exec("rid_a")
        assert "child" not in store._uses and "other" not in store._uses
        assert store.uses_of("child") == []
        assert store.rule_execs() == []

    def test_repeated_child_and_repeated_exec_keep_one_member(self):
        store = NodeProvenanceStore("n0")
        store.add_rule_exec("rid_a", "r", "p", ("child", "child"), "head", "n0")
        store.add_rule_exec("rid_a", "r", "p", ("child", "child"), "head", "n0")
        assert store._uses["child"] == "rid_a"
        store.remove_rule_exec("rid_a")
        assert store._uses == {}

    def test_derivations_of_a_fact_one_two_one_zero(self):
        store = TupleStore()
        fact = Fact.make("link", ["n0", "a"])
        assert store.add_derivation(fact, "d1")
        assert store._facts["link"][fact] == "d1"
        assert not store.add_derivation(fact, "d2")
        assert store._facts["link"][fact] == {"d1", "d2"}
        assert store.derivations(fact) == {"d1", "d2"} and store.derivation_count(fact) == 2
        assert not store.remove_derivation(fact, "d1")
        assert store._facts["link"][fact] == "d2"
        assert not store.remove_derivation(fact, "d1")  # absent: a no-op
        assert store.remove_derivation(fact, "d2")
        assert not store.contains(fact) and store.derivation_count(fact) == 0

    def test_firings_of_a_fact_retract_in_firing_id_order(self):
        compiled = compile_program(parse_program(TWO_CONSUMERS, name="two"))
        store = TupleStore()
        evaluator = LocalEvaluator(compiled, store, "n0")
        link = Fact.make("link", ["n0", "a"])
        store.add_derivation(link, "d")
        fired = [effect.firing_id for effect in evaluator.on_batch([link], [])]
        assert len(fired) == 2
        assert evaluator._fact_firings[link] == set(fired)
        store.remove_fact(link)
        retracted = evaluator.on_batch([], [link])
        assert [effect.firing_id for effect in retracted] == sorted(fired)
        assert all(effect.sign < 0 for effect in retracted)
        assert link not in evaluator._fact_firings

    def test_prov_rows_keep_their_reported_order(self):
        """``prov_entries`` reports ``(rid, repr(rloc))`` order whatever the
        insertion order, and a retraction leaves the rest in that order."""
        store = NodeProvenanceStore("n0")
        for rid, rloc in (("rid_b", "n2"), ("rid_a", "n9"), ("rid_b", "n1"), ("rid_a", "n9")):
            store.add_prov("vid", rid, rloc)
        assert store.prov_entries("vid") == (("rid_a", "n9"), ("rid_b", "n1"), ("rid_b", "n2"))
        store.remove_prov("vid", "rid_b", "n1")
        assert store.prov_entries("vid") == (("rid_a", "n9"), ("rid_b", "n2"))
        store.remove_prov("vid", "rid_a", "n9")
        store.remove_prov("vid", "rid_b", "n2")
        assert store.prov_entries("vid") == () and store.prov_count == 0
