"""Tests for Node and NetTrailsRuntime: distributed execution end to end."""

import pytest

from repro.errors import EngineError, UnknownNodeError
from repro.engine import topology
from repro.engine.node import Node
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
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


#: Knobs that once selected a hash-sharded or columnar store, with a value
#: each accepted back then.
RETIRED_KNOBS = {"num_shards": 2, "shard_workers": 2, "columnar": True}


class TestRetiredKnobs:
    """Every node holds one dict store driven by one join path.  The knobs
    that used to pick another store are gone, so passing one is an error
    rather than a silently ignored setting."""

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
    def test_scenario_knobs_reject_retired_knob(self, knob):
        from repro.workloads.spec import RuntimeKnobs

        with pytest.raises(TypeError, match=knob):
            RuntimeKnobs(**{knob: RETIRED_KNOBS[knob]})

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


class TestQueryCacheCapacityEnvHook:
    """NETTRAILS_QUERY_CACHE_CAPACITY: env-var parity with NETTRAILS_BACKEND."""

    PROGRAM = "r1 reach(@D, S) :- edge(@S, D)."

    def build(self, **kwargs):
        return NetTrailsRuntime(self.PROGRAM, topology.line(2), **kwargs)

    def test_env_sets_the_default_capacity(self, monkeypatch):
        from repro.engine.runtime import CACHE_CAPACITY_ENV_VAR

        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "17")
        assert self.build().query_cache_capacity == 17

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        from repro.engine.runtime import CACHE_CAPACITY_ENV_VAR

        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "17")
        assert self.build(query_cache_capacity=5).query_cache_capacity == 5
        assert self.build(query_cache_capacity=0).query_cache_capacity == 0

    def test_unset_or_blank_defers_to_engine_default(self, monkeypatch):
        from repro.engine.runtime import CACHE_CAPACITY_ENV_VAR

        monkeypatch.delenv(CACHE_CAPACITY_ENV_VAR, raising=False)
        assert self.build().query_cache_capacity is None
        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "  ")
        assert self.build().query_cache_capacity is None

    def test_malformed_or_negative_env_rejected(self, monkeypatch):
        from repro.engine.runtime import CACHE_CAPACITY_ENV_VAR

        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "many")
        with pytest.raises(EngineError, match="not an integer"):
            self.build()
        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "-3")
        with pytest.raises(EngineError, match=">= 0"):
            self.build()

    def test_env_capacity_reaches_the_query_engine(self, monkeypatch):
        from repro.core.query import DistributedQueryEngine
        from repro.engine.runtime import CACHE_CAPACITY_ENV_VAR

        monkeypatch.setenv(CACHE_CAPACITY_ENV_VAR, "7")
        runtime = mincost.setup(topology.ring(3))
        engine = DistributedQueryEngine(runtime)
        assert engine.cache_capacity == 7
