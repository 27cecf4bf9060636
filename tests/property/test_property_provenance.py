"""Property-based tests on whole-system provenance invariants.

These generate small random topologies and change sequences, run MINCOST with
provenance enabled, and check the structural invariants that the ExSPAN model
guarantees:

* every stored fact has exactly as many ``prov`` entries as derivations;
* every non-base ``prov`` entry points to a ``ruleExec`` entry that exists at
  the node where the rule fired, and that entry's children are tuples known
  at that node;
* distributed query answers agree with the centralized provenance graph;
* incremental maintenance after a random link failure equals a from-scratch
  run on the changed topology.
"""

from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.core.keys import BASE_RID, vid_for
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.protocols import mincost

SLOW = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_runtime(seed, node_count):
    net = topology.random_connected(node_count, edge_probability=0.35, seed=seed)
    return net, mincost.setup(net)


class TestProvenanceInvariants:
    @given(seed=st.integers(min_value=0, max_value=40), node_count=st.integers(min_value=3, max_value=7))
    @settings(**SLOW)
    def test_prov_entries_match_derivation_counts(self, seed, node_count):
        _net, runtime = build_runtime(seed, node_count)
        provenance = runtime.provenance
        for node_id, node in runtime.nodes.items():
            store = provenance.store(node_id)
            for fact in node.store.all_facts():
                assert len(store.prov_entries(vid_for(fact))) == node.store.derivation_count(fact)

    @given(seed=st.integers(min_value=0, max_value=40), node_count=st.integers(min_value=3, max_value=7))
    @settings(**SLOW)
    def test_prov_entries_reference_existing_rule_execs(self, seed, node_count):
        _net, runtime = build_runtime(seed, node_count)
        provenance = runtime.provenance
        for node_id in runtime.node_ids():
            for _loc, _vid, rid, rloc in provenance.store(node_id).prov_table():
                if rid == BASE_RID:
                    continue
                remote = provenance.store(rloc)
                assert remote.has_rule_exec(rid)
                for child in remote.rule_exec(rid).child_vids:
                    fact = remote.find_tuple(child)
                    assert fact is not None and vid_for(fact) == child
                    assert runtime.nodes[rloc].store.contains(fact)

    @given(seed=st.integers(min_value=0, max_value=40), node_count=st.integers(min_value=3, max_value=6))
    @settings(**SLOW)
    def test_distributed_counts_match_centralized_graph(self, seed, node_count):
        _net, runtime = build_runtime(seed, node_count)
        queries = DistributedQueryEngine(runtime)
        graph = runtime.provenance.build_graph()
        rows = runtime.state("minCost")[:5]
        for source, destination, cost in rows:
            vertex = graph.find_tuples("minCost", (source, destination, cost))[0]
            assert (
                queries.derivation_count("minCost", [source, destination, cost]).value
                == graph.derivation_count(vertex.vid)
            )

    @given(seed=st.integers(min_value=0, max_value=30), node_count=st.integers(min_value=4, max_value=6))
    @settings(**SLOW)
    def test_incremental_failure_equals_fresh_run(self, seed, node_count):
        net, runtime = build_runtime(seed, node_count)
        # fail the highest-degree node's first link (deterministic choice)
        edge = sorted(net.edges)[0]
        runtime.remove_link(*edge)
        runtime.run_to_quiescence()
        assert mincost.check_against_reference(runtime, net)
        fresh = mincost.setup(net)
        assert sorted(runtime.state("minCost")) == sorted(fresh.state("minCost"))
        assert runtime.provenance.table_sizes() == fresh.provenance.table_sizes()


class TestLineageProperties:
    @given(seed=st.integers(min_value=0, max_value=30), node_count=st.integers(min_value=3, max_value=6))
    @settings(**SLOW)
    def test_lineage_is_a_set_of_links_forming_a_cheap_enough_path(self, seed, node_count):
        net, runtime = build_runtime(seed, node_count)
        queries = DistributedQueryEngine(runtime)
        rows = runtime.state("minCost")[:4]
        for source, destination, cost in rows:
            lineage = queries.lineage("minCost", [source, destination, cost]).value
            assert all(ref.relation == "link" for ref in lineage)
            # every contributing link is a real edge of the topology
            for ref in lineage:
                assert net.has_edge(ref.values[0], ref.values[1])
            # the union of contributing links costs at least the shortest-path cost
            assert sum(ref.values[2] for ref in lineage) >= cost
