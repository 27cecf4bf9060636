"""Tests for Node and NetTrailsRuntime: distributed execution end to end."""

import random

import pytest

from repro.errors import EngineError, UnknownNodeError
from repro.engine import topology
from repro.engine.node import Node
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
from repro.core.keys import vid_for
from repro.logstore import take_snapshot
from repro.protocols import mincost

TWO_NODE_PROGRAM = """
materialize(link, infinity, infinity, keys(1, 2)).
r1 reach(@S, D) :- link(@S, D, C).
r2 reach(@S, D) :- link(@S, Z, C), reach(@Z, D), S != D.
"""


@pytest.fixture
def line3_runtime():
    net = topology.line(3)
    runtime = NetTrailsRuntime(TWO_NODE_PROGRAM, net, provenance=False)
    runtime.seed_links(run=True)
    return runtime


class TestRuntimeBasics:
    def test_base_tuples_partitioned_by_location(self, line3_runtime):
        runtime = line3_runtime
        assert runtime.node_state("n0", "link") == [("n0", "n1", 1.0)]
        assert ("n1", "n0", 1.0) in runtime.node_state("n1", "link")

    def test_derived_state_reaches_fixpoint_across_nodes(self, line3_runtime):
        reach = set(line3_runtime.state("reach"))
        # every ordered pair of distinct nodes is reachable on a connected line
        assert reach == {
            (a, b)
            for a in ("n0", "n1", "n2")
            for b in ("n0", "n1", "n2")
            if a != b
        } | {("n0", "n0"), ("n1", "n1"), ("n2", "n2")} - {("n0", "n0"), ("n1", "n1"), ("n2", "n2")}

    def test_insert_routes_to_owning_node(self, line3_runtime):
        runtime = line3_runtime
        fact = runtime.insert("link", ["n2", "n0", 5.0])
        assert fact.values[0] == "n2"
        assert ("n2", "n0", 5.0) in runtime.node_state("n2", "link")

    def test_insert_with_existing_key_overwrites(self, line3_runtime):
        runtime = line3_runtime
        runtime.insert("link", ["n0", "n1", 9.0])
        runtime.run_to_quiescence()
        rows = [row for row in runtime.node_state("n0", "link") if row[1] == "n1"]
        assert rows == [("n0", "n1", 9.0)]

    def test_delete_base_tuple_retracts_derived_state(self, line3_runtime):
        runtime = line3_runtime
        runtime.delete("link", ["n0", "n1", 1.0])
        runtime.delete("link", ["n1", "n0", 1.0])
        runtime.run_to_quiescence()
        reach = set(runtime.state("reach"))
        assert ("n0", "n2") not in reach
        assert ("n1", "n2") in reach

    def test_unknown_node_rejected(self, line3_runtime):
        with pytest.raises(UnknownNodeError):
            line3_runtime.node("missing")
        with pytest.raises(UnknownNodeError):
            line3_runtime.insert("link", ["ghost", "n0", 1.0])

    def test_message_stats_grow_with_execution(self, line3_runtime):
        assert line3_runtime.message_stats().messages > 0

    def test_relation_sizes_and_total(self, line3_runtime):
        sizes = line3_runtime.relation_sizes()
        assert sizes["link"] == 4
        assert line3_runtime.total_facts() == sum(sizes.values())

    def test_snapshot_structure(self, line3_runtime):
        snapshot = line3_runtime.snapshot()
        assert snapshot["program"] == "program"
        assert set(snapshot["nodes"]) == {"'n0'", "'n1'", "'n2'"}


class TestNodeBehaviour:
    def test_insert_base_at_wrong_node_rejected(self, line3_runtime):
        node = line3_runtime.node("n0")
        with pytest.raises(EngineError):
            node.insert_base(Fact.make("link", ["n1", "n2", 1.0]))

    def test_unknown_message_category_rejected(self, line3_runtime):
        from repro.engine.messages import Message

        node = line3_runtime.node("n0")
        with pytest.raises(EngineError):
            node.receive(Message(sender="n1", receiver="n0", category="mystery", payload=None))

    def test_handler_registration(self, line3_runtime):
        from repro.engine.messages import Message

        node = line3_runtime.node("n0")
        seen = []
        node.register_handler("custom", seen.append)
        node.receive(Message(sender="n1", receiver="n0", category="custom", payload="data"))
        assert len(seen) == 1

    def test_node_stats_accumulate(self, line3_runtime):
        stats = line3_runtime.node("n1").stats
        assert stats.updates_processed > 0
        assert stats.rule_firings > 0


#: Knobs that once selected a hash-sharded or columnar store, an execution
#: backend, an emulated in-drain commit stall, the per-delta runtime, the
#: retract-first aggregate ordering or the interval-indexed query path, with
#: a value each accepted back then.
RETIRED_KNOBS = {
    "num_shards": 2,
    "shard_workers": 2,
    "columnar": True,
    "backend": "thread",
    "backend_workers": 2,
    "batch_commit_stall_s": 0.001,
    "batch_deltas": False,
    "aggregate_retract_first": True,
    "use_interval_index": True,
}


class TestRetiredKnobs:
    """Every node holds one dict store driven by one join path, one event
    loop runs every node, deltas are always evaluated in batches, and an
    aggregate's new head always precedes the old one's retraction, and
    every provenance query is answered by traversal.  The knobs that used to
    pick another store, another execution strategy or another query path
    are gone, so passing one is an error rather than a silently ignored
    setting."""

    @pytest.mark.parametrize("knob", sorted(RETIRED_KNOBS))
    def test_runtime_rejects_retired_knob(self, knob):
        with pytest.raises(TypeError, match=knob):
            NetTrailsRuntime(TWO_NODE_PROGRAM, topology.line(2), **{knob: RETIRED_KNOBS[knob]})

    @pytest.mark.parametrize("knob", sorted(RETIRED_KNOBS))
    def test_node_rejects_retired_knob(self, knob, line3_runtime):
        with pytest.raises(TypeError, match=knob):
            Node(
                "n0",
                line3_runtime.compiled,
                line3_runtime.network,
                **{knob: RETIRED_KNOBS[knob]},
            )

    @pytest.mark.parametrize("knob", sorted(RETIRED_KNOBS))
    def test_service_rejects_retired_knob(self, knob):
        from repro.durability.service import ServiceRuntime

        with pytest.raises(TypeError, match=knob):
            ServiceRuntime(TWO_NODE_PROGRAM, topology.line(2), **{knob: RETIRED_KNOBS[knob]})

    @pytest.mark.parametrize("knob", sorted(RETIRED_KNOBS))
    def test_recovery_rejects_retired_knob_as_override(self, knob, tmp_path):
        """Recovery drops a retired knob an older WAL recorded, but a caller
        passing one as an override gets the constructor's error."""
        from repro.durability.recovery import RecoveryManager

        NetTrailsRuntime(
            TWO_NODE_PROGRAM, topology.line(2), durable_dir=tmp_path, wal_fsync=False
        ).close()
        with pytest.raises(TypeError, match=knob):
            RecoveryManager(tmp_path).recover(
                attach=False, wal_fsync=False, **{knob: RETIRED_KNOBS[knob]}
            )

    @pytest.mark.parametrize("recorder", [None, object(), 1])
    def test_runtime_takes_only_a_bool_for_provenance(self, recorder):
        """``provenance=`` picks the built-in engine or none; it no longer
        adopts a duck-typed recorder object."""
        with pytest.raises(TypeError, match="provenance must be True or False"):
            NetTrailsRuntime(TWO_NODE_PROGRAM, topology.line(2), provenance=recorder)

    @pytest.mark.parametrize("value", ["global", "vid"])
    def test_query_engine_rejects_retired_cache_validation(self, value, line3_runtime):
        """Query caches always validate against per-VID versions."""
        from repro.core.query import DistributedQueryEngine

        with pytest.raises(TypeError, match="cache_validation"):
            DistributedQueryEngine(line3_runtime, cache_validation=value)

    def test_retired_columnar_env_var_changes_nothing(self, monkeypatch, store_snapshots):
        def build():
            runtime = NetTrailsRuntime(mincost.SOURCE, topology.ring(4))
            runtime.seed_links(run=True)
            return runtime

        monkeypatch.delenv("NETTRAILS_COLUMNAR", raising=False)
        reference = build()
        monkeypatch.setenv("NETTRAILS_COLUMNAR", "1")
        runtime = build()
        assert all(type(node.store) is TupleStore for node in runtime.nodes.values())
        assert store_snapshots(runtime) == store_snapshots(reference)

    def test_retired_backend_env_vars_change_nothing(self, monkeypatch, store_snapshots):
        def build():
            runtime = NetTrailsRuntime(mincost.SOURCE, topology.ring(4))
            runtime.seed_links(run=True)
            return runtime, runtime.message_stats().messages, runtime.simulator.processed_events

        monkeypatch.delenv("NETTRAILS_BACKEND", raising=False)
        monkeypatch.delenv("NETTRAILS_BACKEND_WORKERS", raising=False)
        reference, messages, events = build()
        # Neither a backend name nor a malformed worker count is read any more.
        monkeypatch.setenv("NETTRAILS_BACKEND", "thread")
        monkeypatch.setenv("NETTRAILS_BACKEND_WORKERS", "junk")
        runtime, again_messages, again_events = build()
        assert not hasattr(runtime, "backend")
        assert (again_messages, again_events) == (messages, events)
        assert store_snapshots(runtime) == store_snapshots(reference)


LOCAL_PROGRAM = """
materialize(item, infinity, infinity, keys(1, 2)).
r1 double(@N, X) :- item(@N, X).
r2 seen(@N) :- double(@N, X).
"""


class TestDrainScheduling:
    def test_single_node_topology(self):
        """A one-node system derives locally and sends nothing."""
        single = topology.from_edges([], name="solo")
        single.add_node("n0")
        runtime = NetTrailsRuntime(LOCAL_PROGRAM, single)
        runtime.insert_batch("item", [["n0", 1], ["n0", 2]], run=True)
        assert runtime.state("double") == [("n0", 1), ("n0", 2)]
        assert runtime.state("seen") == [("n0",)]
        assert runtime.message_stats().messages == 0

    def test_zero_delay_drains_coalesce_on_one_node(self):
        """Messages delivered to one node at one instant share one drain:
        the node schedules a single zero-delay drain event for the lot."""
        from repro.engine.messages import CATEGORY_TUPLE, TupleDelta

        runtime = NetTrailsRuntime(
            "r1 reach(@D, S) :- edge(@S, D).", topology.star(5), provenance=False
        )
        hub = runtime.node("n0")
        for spoke in ("n1", "n2", "n3", "n4"):
            fact = Fact.make("reach", ["n0", spoke])
            runtime.node(spoke).send("n0", CATEGORY_TUPLE, TupleDelta(+1, fact, ("r1", spoke), None))
        events = runtime.simulator.processed_events
        runtime.run_to_quiescence()
        # Four deliveries plus one drain, all in one round.
        assert runtime.simulator.processed_events - events == 5
        assert hub.stats.deltas_received == 4
        assert hub.stats.batches_processed == 1
        assert len(runtime.node_state("n0", "reach")) == 4


#: ``r2`` divides by the link cost, so a zero-cost link makes a drain raise.
DIVIDE_PROGRAM = """
r1 hop(@D, S, X) :- link(@S, D, X).
r2 out(@D, S, C) :- hop(@D, S, X), C := 10 / X.
"""

KEYED_DIVIDE_PROGRAM = "materialize(link, infinity, infinity, keys(1, 2)).\n" + DIVIDE_PROGRAM

FAILURE_SEEDS = [3, 11, 29]


def link_rows_with_zero_costs(net, seed):
    """Both directions of every edge, seeded costs, at least one cost 0."""
    rng = random.Random(seed)
    rows = [[source, target, rng.choice([0, 1, 2, 5])] for source, target, _ in net.directed_edges()]
    rows[rng.randrange(len(rows))][2] = 0
    return rows


def assert_provenance_readable(runtime, prov_vids_present):
    """Every provenance read succeeds, and each node's snapshot ``tuples``
    are the vids of the facts present there; returns how many."""
    checked = prov_vids_present(runtime)
    nodes = take_snapshot(runtime).to_dict()["nodes"]
    for node_id, node in runtime.nodes.items():
        assert set(nodes[str(node_id)]["tuples"]) == set(map(vid_for, node.store.all_facts()))
        runtime.provenance.store(node_id).content_key()
    runtime.provenance.build_graph()
    return checked


class TestFailureContract:
    """A raising event propagates out of the run with every later event
    still queued, so the next run resumes where the failed one stopped."""

    @pytest.mark.parametrize("seed", FAILURE_SEEDS, ids=lambda s: f"seed{s}")
    def test_runtime_resumes_from_its_queue(self, seed):
        runtime = NetTrailsRuntime(DIVIDE_PROGRAM, topology.star(4))
        rows = link_rows_with_zero_costs(runtime.topology, seed)
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            runtime.insert_batch("link", rows, run=True)
        for _ in range(runtime.simulator.pending_events + 1):
            try:
                runtime.run_to_quiescence()
                break
            except ZeroDivisionError:
                continue
        assert runtime.simulator.pending_events == 0

    def test_failed_runtime_stays_readable(self, store_snapshots, prov_vids_present):
        runtime = NetTrailsRuntime(DIVIDE_PROGRAM, topology.star(4))
        with pytest.raises(ZeroDivisionError):
            runtime.insert_batch("link", link_rows_with_zero_costs(runtime.topology, 3), run=True)
        assert runtime.state("hop")
        assert store_snapshots(runtime)
        assert runtime.message_stats().messages > 0
        assert runtime.provenance.versions()
        assert_provenance_readable(runtime, prov_vids_present)

    def test_a_failed_batch_that_replaces_a_fact_keeps_provenance_in_step(self, prov_vids_present):
        """A link cost overwritten to 0 sends the old ``hop`` retraction and
        the new ``hop`` to ``D`` in one batch, and ``r2`` then divides by
        zero: the partition still drops the old tuple and finds the new
        one, during and after the resumed run."""
        runtime = NetTrailsRuntime(KEYED_DIVIDE_PROGRAM, topology.line(2))
        runtime.insert_batch("link", [["n0", "n1", 2], ["n1", "n0", 5]], run=True)
        with pytest.raises(ZeroDivisionError):
            runtime.insert_batch("link", [["n0", "n1", 0]], run=True)
        old_hop, new_hop = Fact.make("hop", ["n1", "n0", 2]), Fact.make("hop", ["n1", "n0", 0])
        for _ in range(2):
            assert sorted(runtime.node_state("n1", "hop")) == [("n1", "n0", 0)]
            assert assert_provenance_readable(runtime, prov_vids_present) == 6
            partition = runtime.provenance.store("n1")
            assert partition.prov_entries(vid_for(old_hop)) == ()
            assert partition.find_tuple(vid_for(new_hop)) == new_hop
            assert partition.prov_entries(vid_for(new_hop))
            runtime.run_to_quiescence()


class TestQueryCacheCapacityArgument:
    """``query_cache_capacity=`` bounds every node's query cache."""

    def test_capacity_reaches_the_query_engine(self):
        from repro.core.query import DistributedQueryEngine

        runtime = NetTrailsRuntime(mincost.SOURCE, topology.ring(3), query_cache_capacity=7)
        assert runtime.query_cache_capacity == 7
        assert DistributedQueryEngine(runtime).cache_capacity == 7
        assert NetTrailsRuntime(mincost.SOURCE, topology.ring(3)).query_cache_capacity is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(EngineError, match=">= 0"):
            NetTrailsRuntime(mincost.SOURCE, topology.ring(3), query_cache_capacity=-3)


class TestDynamicTopology:
    def test_add_link_updates_state(self):
        net = topology.line(3)
        runtime = mincost.setup(net)
        assert ("n0", "n2", 2.0) in runtime.state("minCost")
        runtime.add_link("n0", "n2", 1.0)
        runtime.run_to_quiescence()
        assert ("n0", "n2", 1.0) in runtime.state("minCost")
        assert mincost.check_against_reference(runtime, net)

    def test_remove_link_updates_state(self):
        net = topology.ring(4)
        runtime = mincost.setup(net)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        assert mincost.check_against_reference(runtime, net)
        # n0 now reaches n1 the long way round
        assert ("n0", "n1", 3.0) in runtime.state("minCost")
