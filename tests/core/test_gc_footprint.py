"""Stored engine rows stay invisible to the cyclic garbage collector.

Neither provenance table is stored apart from the engine's own records.
A ``prov`` row is a fact's derivation in the node's tuple store: the exact
``(rid, rloc)`` tuple of a string and a node id (``None`` for a base
derivation) that the delta carried, which CPython untracks.  The
``ruleExec`` table is the evaluator's record of its live firings, where a
firing (plain, aggregate head or injected) is three map entries keyed by
its id, not a record object.  The one-member common case of every per-fact
index (firings that consumed a fact, derivations of a fact) is the bare
member, which becomes a ``set`` only at the second one, and a firing's head
is a bare fact that becomes a ``frozenset`` only at a second live head.  A fact is one slotted object with
no instance dict.  At churn scale this is the difference between a full
collection scanning ~650 k objects or a third of that, several times per
churn cycle.  These tests pin the shapes on a small prefix-routing runtime
after a few churn windows.
"""

from __future__ import annotations

import gc

from repro.core.keys import BASE_RID, vid_for
from repro.core.maintenance import NodeProvenanceStore, ProvenanceEngine
from repro.engine import topology
from repro.engine.compiler import compile_program
from repro.engine.evaluator import Firings, LocalEvaluator
from repro.engine.store import BASE_DERIVATION, TupleStore
from repro.engine.tuples import Fact
from repro.ndlog.parser import parse_program
from repro.protocols import prefix_routing

#: Tracked objects per ``prov`` row, runtime-wide, on the runtime below.  The
#: row-object representation measured 13.0 here; tuple rows, one-object facts
#: and record-free firings and aggregate heads measured 5.7, reading the
#: ``ruleExec`` rows from the evaluator's firings instead of a second table
#: 5.3, and reading the ``prov`` rows from the tuple store measures 5.2.  The
#: bound keeps about 30 % headroom over the 5.3.
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


def assert_bare_or_plural(index, what, bare=str, plural=set):
    """Every value of a per-key index is a bare member or a *plural* of two or more."""
    for key, members in index.items():
        if type(members) is bare:
            continue
        assert type(members) is plural and len(members) >= 2, (what, key, members)


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
            # the partition reads the node's records, it keeps no copy
            assert store.firings is runtime.nodes[node_id].evaluator.firings
            assert store.tuples is runtime.nodes[node_id].store
        for node_id, node in runtime.nodes.items():
            for by_fact in node.store._facts.values():
                assert_bare_or_plural(by_fact, "derivations", bare=tuple)
                for stored, derivations in by_fact.items():
                    for row in derivations if type(derivations) is set else (derivations,):
                        assert len(row) == 2 and not gc.is_tracked(row), (stored, row)
            firings = node.evaluator.firings
            assert_bare_or_plural(firings.consumers, "consumers")
            assert_bare_or_plural(firings.heads, "heads", bare=Fact, plural=frozenset)
            assert firings.rules.keys() == firings.heads.keys() == firings.bodies.keys()
            # firing id -> rule name, and (rule, group) -> (firing id, value)
            # of an aggregate head, hold only atoms
            assert not gc.is_tracked(firings.rules)
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


def fact(name):
    return Fact.make("t", ["n0", name])


class TestConsumerIndexShape:
    def test_one_two_one_zero_consumers(self):
        """A fact consumed by 1 -> 2 -> 1 -> 0 firings is a bare id, then a
        set, then a bare id again, then gone; ``consumers_of`` is the sorted
        id list throughout and retraction stays a plain removal."""
        firings = Firings("p")
        child, other = fact("child"), fact("other")
        firings.add("rid_b", "r", fact("head_b"), (child,))
        assert firings.consumers[child] == "rid_b"
        assert firings.consumers_of(child) == ["rid_b"]

        firings.add("rid_a", "r", fact("head_a"), (child, other))
        assert firings.consumers[child] == {"rid_a", "rid_b"}
        assert firings.consumers_of(child) == ["rid_a", "rid_b"]
        assert firings.consumers_of(other) == ["rid_a"]

        firings.remove("rid_b", fact("head_b"))
        assert firings.consumers[child] == "rid_a"
        assert firings.consumers_of(child) == ["rid_a"]

        firings.remove("rid_a", fact("head_a"))
        assert firings.consumers == {} and firings.consumers_of(child) == []
        assert firings.rules == firings.heads == firings.bodies == {}

    def test_repeated_child_and_repeated_firing_keep_one_member(self):
        firings = Firings("p")
        child, head = fact("child"), fact("head")
        firings.add("rid_a", "r", head, (child, child))
        firings.add("rid_a", "r", head, (child, child))
        assert firings.consumers[child] == "rid_a" and firings.heads["rid_a"] is head
        firings.remove("rid_a", head)
        assert firings.consumers == {} and firings.heads == {}

    def test_a_firing_lives_until_its_last_head_goes(self):
        """Two live heads under one id (one body explaining two outputs):
        a bare head, then a frozenset, then the survivor bare again; the
        row and its consumer entries stay until the last head goes."""
        store = NodeProvenanceStore("n0")
        firings = store.firings
        child, first, second = fact("child"), fact("first"), fact("second")
        firings.add("rid", "r", first, (child,))
        firings.add("rid", "r", second, (child,))
        assert firings.heads["rid"] == frozenset((first, second))
        assert firings.heads_of("rid") == (first, second)
        assert [entry.head_vid for entry in store.rule_execs()] == sorted(
            [vid_for(first), vid_for(second)]
        )
        assert store.rule_exec_count == 1 and len(store.rule_exec_table()) == 1

        firings.remove("rid", first)
        assert firings.heads["rid"] is second
        assert store.has_rule_exec("rid") and firings.consumers[child] == "rid"
        assert store.rule_exec("rid").head_vid == vid_for(second)

        firings.remove("rid", first)  # not a live head: a no-op
        assert firings.heads["rid"] is second
        firings.remove("rid", second)
        assert not store.has_rule_exec("rid") and firings.consumers == {}

    def test_derivations_of_a_fact_one_two_one_zero(self):
        store = TupleStore()
        fact = Fact.make("link", ["n0", "a"])
        assert store.apply_delta_batch([(+1, fact, "d1")]) == ([fact], [], [True])
        assert store._facts["link"][fact] == "d1"
        assert store.apply_delta_batch([(+1, fact, "d2")]) == ([], [], [True])
        assert store._facts["link"][fact] == {"d1", "d2"}
        assert store.derivations(fact) == {"d1", "d2"} and store.derivation_count(fact) == 2
        assert store.apply_delta_batch([(-1, fact, "d1")]) == ([], [], [True])
        assert store._facts["link"][fact] == "d2"
        assert store.apply_delta_batch([(-1, fact, "d1")]) == ([], [], [False])  # absent: a no-op
        assert store.apply_delta_batch([(-1, fact, "d2")]) == ([], [fact], [True])
        assert not store.contains(fact) and store.derivation_count(fact) == 0

    def test_firings_of_a_fact_retract_in_firing_id_order(self):
        compiled = compile_program(parse_program(TWO_CONSUMERS, name="two"))
        store = TupleStore()
        evaluator = LocalEvaluator(compiled, store, "n0")
        link = Fact.make("link", ["n0", "a"])
        store.apply_delta_batch([(+1, link, "d")])
        fired = [effect.firing_id for effect in evaluator.on_batch([link], [])]
        assert len(fired) == 2
        assert evaluator.firings.consumers[link] == set(fired)
        store.apply_delta_batch([(-1, link, "d")])
        retracted = evaluator.on_batch([], [link])
        assert [effect.firing_id for effect in retracted] == sorted(fired)
        assert all(effect.sign < 0 for effect in retracted)
        assert link not in evaluator.firings.consumers

    def test_prov_rows_keep_their_reported_order(self):
        """``prov_entries`` reports sorted ``(rid, rloc)`` order whatever the
        insertion order, a base derivation is its ``(BASE, Loc)`` row, and a
        retraction leaves the rest in that order."""
        engine, tuples = ProvenanceEngine(), TupleStore()
        engine.attach("n0", Firings("p"), tuples)
        store = engine.store("n0")
        row_fact = fact("row")
        vid = vid_for(row_fact)

        def apply(sign, rid, rloc):
            # what a node does with one delta
            present, gone, _ = tuples.apply_delta_batch([(sign, row_fact, (rid, rloc))])
            engine.apply_rule_exec_batch("n0", (), [row_fact], present, gone)

        for rid, rloc in (("rid_b", "n2"), ("rid_a", "n9"), ("rid_b", "n1"), ("rid_a", "n9")):
            apply(+1, rid, rloc)
        assert store.prov_entries(vid) == (("rid_a", "n9"), ("rid_b", "n1"), ("rid_b", "n2"))
        apply(+1, BASE_DERIVATION, "n0")
        assert store.prov_entries(vid) == (
            (BASE_RID, "n0"), ("rid_a", "n9"), ("rid_b", "n1"), ("rid_b", "n2")
        )
        apply(-1, BASE_DERIVATION, "n0")
        apply(-1, "rid_b", "n1")
        assert store.prov_entries(vid) == (("rid_a", "n9"), ("rid_b", "n2"))
        assert store.prov_count == 2 and store.find_tuple(vid) is row_fact
        apply(-1, "rid_a", "n9")
        assert store.prov_entries(vid) == (("rid_b", "n2"),) and tuples._facts["t"][row_fact] == ("rid_b", "n2")
        apply(-1, "rid_b", "n2")
        assert store.prov_entries(vid) == () and store.prov_count == 0
        assert store.find_tuple(vid) is None and engine.facts == {}
