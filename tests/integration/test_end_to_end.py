"""End-to-end integration tests combining multiple subsystems."""

from tempfile import TemporaryDirectory

import pytest

from repro import DistributedQueryEngine, QueryOptions
from repro.analysis import explain_derivation, root_causes
from repro.core.keys import vid_for
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.legacy.quagga import QuaggaDeployment
from repro.logstore import ReplaySession
from repro.protocols import mincost, path_vector
from repro.viz import exploration_views, render_ascii_tree, HypertreeLayout


class TestDeclarativeNetworkPipeline:
    """Use case 1 of the demonstration: declarative networks end to end."""

    def test_mincost_run_query_snapshot_replay_and_visualize(self, ring5):
        with TemporaryDirectory() as durable_dir:
            # 1. run the protocol with provenance maintenance, journalled
            runtime = NetTrailsRuntime(mincost.SOURCE, ring5, durable_dir=durable_dir)
            runtime.seed_links(run=True)
            assert mincost.check_against_reference(runtime, ring5)

            # 2. query provenance through the distributed query engine
            queries = DistributedQueryEngine(runtime)
            lineage = queries.lineage("minCost", ["n0", "n2", 2.0])
            assert len(lineage.value) == 2

            # 3. replay a topology change from the write-ahead log
            runtime.remove_link("n0", "n1")
            runtime.run_to_quiescence()
            runtime.close()
            session = ReplaySession(durable_dir)
            session.seek(1)  # after the link seeding
            diff = session.step()
            assert diff.removed_count() > 0
            assert session.at_end()

        # 4. visualize the provenance captured in the snapshot
        graph = session.provenance_graph()
        views = exploration_views(graph, "minCost", ("n0", "n1", 4.0))
        assert "minCost" in views["table"]
        root = vid_for(Fact.make("minCost", ["n0", "n1", 4.0]))
        assert render_ascii_tree(graph, root)
        layout = HypertreeLayout().compute(graph, root)
        assert layout

    def test_provenance_query_after_topology_change_reflects_new_derivations(self, ring5):
        runtime = mincost.setup(ring5)
        queries = DistributedQueryEngine(runtime)
        before = queries.lineage("minCost", ["n0", "n1", 1.0])
        assert {r.values for r in before.value} == {("n0", "n1", 1.0)}
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        after = queries.lineage("minCost", ["n0", "n1", 4.0])
        # the new lineage is the long way round the ring: four links
        assert len(after.value) == 4

    def test_path_vector_provenance_matches_selected_path(self, line4):
        runtime = path_vector.setup(line4)
        queries = DistributedQueryEngine(runtime)
        paths = path_vector.best_paths(runtime)
        path = paths[("n0", "n3")]
        result = queries.lineage("bestPath", ["n0", "n3", path, 3.0])
        link_endpoints = {(r.values[0], r.values[1]) for r in result.value}
        assert link_endpoints == set(zip(path, path[1:]))


class TestLegacyPipeline:
    """Use case 2: the Quagga/BGP legacy application."""

    def test_bgp_trace_provenance_and_analysis(self):
        deployment = QuaggaDeployment(tier1_count=2, tier2_per_tier1=2, stubs_per_tier2=1, seed=3)
        deployment.play_generated_trace(seed=7, flap_probability=0.5)
        prefix = deployment.events_played[0].prefix
        origin = deployment.events_played[0].asn
        entries = deployment.route_entries(prefix)
        if not entries:
            pytest.skip("the trace withdrew the prefix at the end; nothing to analyse")

        # provenance of every installed route traces back to the origin AS
        for asn in entries:
            lineage = deployment.derivation_of_route(asn, prefix)
            origins = {ref.location for ref in lineage.value}
            assert origins == {f"as{origin}"}

        # the offline graph supports the same analysis
        graph = deployment.provenance.build_graph()
        far = max(entries, key=lambda asn: len(entries[asn]))
        entry = deployment.proxy.current_route_entry(far, prefix)
        explanation = explain_derivation(graph, "routeEntry", list(entry.values))
        assert "br2" in explanation  # the maybe rule that explains RIB entries
        causes = root_causes(graph, "routeEntry", list(entry.values))
        assert all(vertex.relation == "outputRoute" for vertex in causes)

    def test_same_query_engine_serves_declarative_and_legacy_systems(self, ring5):
        # The unified framework claim: the identical query API works over both.
        declarative = mincost.setup(ring5)
        declarative_queries = DistributedQueryEngine(declarative)
        declarative_result = declarative_queries.lineage("minCost", ["n0", "n1", 1.0])

        deployment = QuaggaDeployment(tier1_count=2, tier2_per_tier1=1, stubs_per_tier2=1, seed=0)
        deployment.play_generated_trace(seed=1, flap_probability=0.0)
        prefix = deployment.events_played[0].prefix
        entries = deployment.route_entries(prefix)
        asn = sorted(entries)[0]
        legacy_result = deployment.derivation_of_route(asn, prefix)

        assert type(declarative_result) is type(legacy_result)
        assert declarative_result.mode == legacy_result.mode == "lineage"


class TestOptimizationBehaviour:
    def test_cached_queries_pay_once(self, small_random):
        runtime = mincost.setup(small_random)
        queries = DistributedQueryEngine(runtime)
        options = QueryOptions(use_cache=True)
        rows = [row for row in runtime.state("minCost") if row[2] >= 2]
        total_first = 0
        total_second = 0
        for row in rows[:5]:
            total_first += queries.lineage("minCost", list(row), options=options).stats.messages
            total_second += queries.lineage("minCost", list(row), options=options).stats.messages
        assert total_second < total_first
