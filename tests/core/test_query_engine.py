"""Tests for the distributed provenance query engine."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import QueryError
from repro.core.optimizations import QueryOptions
from repro.core.queries import CustomQuery, QUERY_COUNT, QUERY_LINEAGE
from repro.core.query import (
    DistributedQueryEngine,
    QueryReply,
    QueryReplyBatch,
    QueryRequest,
    QueryRequestBatch,
)
from repro.core.results import TupleRef
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import dsr, mincost, path_vector


@pytest.fixture
def mincost_engine(mincost_ring):
    return mincost_ring, DistributedQueryEngine(mincost_ring)


class TestLineageQueries:
    def test_lineage_of_two_hop_mincost(self, mincost_engine):
        runtime, queries = mincost_engine
        result = queries.lineage("minCost", ["n0", "n2", 2.0])
        expected = {
            TupleRef("link", ("n0", "n1", 1.0), "n0"),
            TupleRef("link", ("n1", "n2", 1.0), "n1"),
        }
        assert result.value == frozenset(expected)
        assert not result.truncated

    def test_lineage_of_direct_link_is_single_base(self, mincost_engine):
        _, queries = mincost_engine
        result = queries.lineage("minCost", ["n0", "n1", 1.0])
        assert result.value == frozenset({TupleRef("link", ("n0", "n1", 1.0), "n0")})

    def test_lineage_matches_centralized_graph(self, mincost_engine):
        runtime, queries = mincost_engine
        graph = runtime.provenance.build_graph()
        for source, destination, cost in runtime.state("minCost"):
            distributed = queries.lineage("minCost", [source, destination, cost]).value
            vertex = graph.find_tuples("minCost", (source, destination, cost))[0]
            centralized = {
                (v.relation,) + v.values for v in graph.base_tuples_of(vertex.vid)
            }
            assert {(r.relation,) + r.values for r in distributed} == centralized

    def test_query_for_absent_tuple_rejected(self, mincost_engine):
        _, queries = mincost_engine
        with pytest.raises(QueryError):
            queries.lineage("minCost", ["n0", "n2", 99.0])

    def test_unknown_mode_rejected(self, mincost_engine):
        _, queries = mincost_engine
        with pytest.raises(QueryError):
            queries.query("minCost", ["n0", "n1", 1.0], mode="nonsense")

    def test_engine_requires_provenance(self, ring5):
        runtime = mincost.setup(ring5, provenance=False)
        with pytest.raises(QueryError):
            DistributedQueryEngine(runtime)


class TestOtherModes:
    def test_participants_of_multi_hop_tuple(self, mincost_engine):
        _, queries = mincost_engine
        result = queries.participants("minCost", ["n0", "n2", 2.0])
        assert result.value == frozenset({"n0", "n1"})

    def test_derivation_count_on_ring(self, mincost_engine):
        runtime, queries = mincost_engine
        graph = runtime.provenance.build_graph()
        for source, destination, cost in runtime.state("minCost"):
            distributed = queries.derivation_count("minCost", [source, destination, cost]).value
            vertex = graph.find_tuples("minCost", (source, destination, cost))[0]
            assert distributed == graph.derivation_count(vertex.vid)

    def test_dsr_alternative_routes_counted(self):
        net = topology.ring(5)
        runtime = dsr.setup(net)
        dsr.request_route(runtime, "n0", "n2")
        queries = DistributedQueryEngine(runtime)
        count = queries.derivation_count("routeCount", ["n0", "n2", 2]).value
        assert count >= 1

    def test_subgraph_query_returns_renderable_graph(self, mincost_engine):
        _, queries = mincost_engine
        result = queries.subgraph("minCost", ["n0", "n2", 2.0])
        graph = result.value
        assert graph.tuple_count >= 3
        assert graph.find_tuples("minCost", ("n0", "n2", 2.0))

    def test_custom_query_depth(self, mincost_engine):
        _, queries = mincost_engine
        queries.register_query(
            CustomQuery(
                name="depth",
                on_base=lambda ref: 0,
                on_exec=lambda ref, children: 1 + max(children, default=0),
                on_tuple=lambda ref, derivations: max(derivations, default=0),
            )
        )
        shallow = queries.query("minCost", ["n0", "n1", 1.0], mode="depth").value
        deep = queries.query("minCost", ["n0", "n2", 2.0], mode="depth").value
        assert deep > shallow >= 1


class TestStatsAndIssuingNode:
    def test_remote_tuple_query_costs_messages(self, mincost_engine):
        _, queries = mincost_engine
        result = queries.lineage("minCost", ["n0", "n2", 2.0])
        assert result.stats.messages > 0
        assert result.stats.nodes_visited == 2
        assert result.stats.latency > 0

    def test_purely_local_query_costs_no_messages(self, mincost_engine):
        _, queries = mincost_engine
        result = queries.lineage("minCost", ["n0", "n1", 1.0])
        assert result.stats.messages == 0

    def test_query_issued_from_other_node(self, mincost_engine):
        _, queries = mincost_engine
        local = queries.lineage("minCost", ["n0", "n2", 2.0])
        remote = queries.lineage("minCost", ["n0", "n2", 2.0], at="n3")
        assert remote.value == local.value
        # issuing remotely costs at least the extra request/reply round trip
        assert remote.stats.messages >= local.stats.messages + 2

    def test_repeated_query_ships_identical_bytes(self, mincost_engine):
        """Query and request ids are bounded-width slots, not growing counters,
        so the 1001st repeat of a query ships exactly the bytes of the first."""
        _, queries = mincost_engine
        first = queries.lineage("minCost", ["n0", "n2", 2.0], at="n3").stats
        assert first.messages > 2
        for _ in range(1000):
            repeat = queries.lineage("minCost", ["n0", "n2", 2.0], at="n3").stats
            assert (repeat.messages, repeat.bytes) == (first.messages, first.bytes)

    def test_query_issued_at_unknown_node_rejected(self, mincost_engine):
        _, queries = mincost_engine
        with pytest.raises(QueryError):
            queries.lineage("minCost", ["n0", "n2", 2.0], at="ghost")


class TestEnginesShareARuntime:
    def test_interleaved_engines_answer_as_if_each_were_alone(self, ring5):
        """Two engines on one runtime, queried e1, e2, e1 with the cache on,
        answer and cost exactly what an engine alone on a fresh runtime does,
        and each keeps its own cache counters."""
        options = QueryOptions(use_cache=True)
        row = ["n0", "n2", 2.0]  # its lineage leaves the home node

        def alone(queries):
            engine = DistributedQueryEngine(mincost.setup(copy.deepcopy(ring5)))
            results = [engine.lineage("minCost", row, options=options) for _ in range(queries)]
            return results, engine.cache_totals()

        runtime = mincost.setup(ring5)
        e1, e2 = DistributedQueryEngine(runtime), DistributedQueryEngine(runtime)
        first = e1.lineage("minCost", row, options=options)
        second = e2.lineage("minCost", row, options=options)
        third = e1.lineage("minCost", row, options=options)

        (cold, warm), e1_totals = alone(2)
        (cold_e2,), e2_totals = alone(1)
        for got, want in ((first, cold), (second, cold_e2), (third, warm)):
            assert got.value == want.value
            # latency is a difference of virtual times, so it may differ in the last bit
            assert got.stats == dataclasses.replace(want.stats, latency=pytest.approx(want.stats.latency))
        assert second.stats.cache_hits == 0  # e2 started with its own, empty caches
        assert e1.cache_totals() == e1_totals
        assert e2.cache_totals() == e2_totals


class TestOptimizations:
    def test_cache_eliminates_messages_on_repeat(self, pathvector_line):
        queries = DistributedQueryEngine(pathvector_line)
        options = QueryOptions(use_cache=True)
        first = queries.lineage("bestPathCost", ["n0", "n3", 3.0], options=options)
        second = queries.lineage("bestPathCost", ["n0", "n3", 3.0], options=options)
        assert second.value == first.value
        assert first.stats.messages > 0
        assert second.stats.messages == 0
        assert second.stats.cache_hits >= 1

    def test_cache_invalidated_by_subtree_change(self, pathvector_line):
        """Churn that touches the queried subtree must invalidate the entry."""
        runtime = pathvector_line
        queries = DistributedQueryEngine(runtime)
        options = QueryOptions(use_cache=True)
        first = queries.lineage("bestPathCost", ["n0", "n3", 3.0], options=options)
        # Flap a link on the queried path: the tuple is retracted and
        # re-derived, so its reachability version moves past the entry's.
        runtime.remove_link("n2", "n3")
        runtime.run_to_quiescence()
        runtime.add_link("n2", "n3", 1.0)
        runtime.run_to_quiescence()
        second = queries.lineage("bestPathCost", ["n0", "n3", 3.0], options=options)
        assert second.value == first.value
        assert second.stats.messages > 0  # cache entry was stale, traversal re-ran

    def test_unrelated_churn_keeps_cache_entries(self, pathvector_line):
        """Per-VID validation: a delta outside the queried subtree is invisible."""
        runtime = pathvector_line
        queries = DistributedQueryEngine(runtime)
        options = QueryOptions(use_cache=True)
        first = queries.lineage("bestPathCost", ["n0", "n1", 1.0], options=options)
        # Churn at the far end of the chain: provenance changes everywhere
        # around, but not in bestPathCost(n0, n1)'s derivation subtree.
        runtime.remove_link("n2", "n3")
        runtime.run_to_quiescence()
        runtime.add_link("n2", "n3", 1.0)
        runtime.run_to_quiescence()
        second = queries.lineage("bestPathCost", ["n0", "n1", 1.0], options=options)
        assert second.value == first.value
        assert second.stats.cache_hits >= 1
        assert second.stats.messages == 0

    def test_remote_issuer_caches_reply_version(self, mincost_engine):
        """Reply bundles carry their computed-at version; the issuing node's
        cache answers the repeat query without any network hop."""
        _, queries = mincost_engine
        options = QueryOptions(use_cache=True)
        first = queries.lineage("minCost", ["n0", "n2", 2.0], at="n3", options=options)
        second = queries.lineage("minCost", ["n0", "n2", 2.0], at="n3", options=options)
        assert second.value == first.value
        assert first.stats.messages > 0
        assert second.stats.messages == 0
        assert second.stats.cache_hits == 1

    def test_parallel_fanout_batches_messages_and_rounds(self):
        """Two derivations at one peer: parallel = 1 request + 1 reply batch.

        ``flag(@D, S)`` has one derivation per matching ``src`` fact, and both
        rule executions happen at the source node — the canonical fan-out.
        Sequential traversal pays a request/reply pair per derivation (more
        messages, more rounds); parallel traversal ships both requests in one
        :class:`QueryRequestBatch` and both replies in one batch.
        """
        runtime = NetTrailsRuntime("r1 flag(@D, S) :- src(@S, D, X).", topology.line(2))
        runtime.insert("src", ["n1", "n0", 1])
        runtime.insert("src", ["n1", "n0", 2])
        runtime.run_to_quiescence()
        queries = DistributedQueryEngine(runtime)

        parallel = queries.lineage("flag", ["n0", "n1"], options=QueryOptions(traversal="parallel"))
        sequential = queries.lineage("flag", ["n0", "n1"], options=QueryOptions(traversal="sequential"))
        assert parallel.value == sequential.value
        assert parallel.value == frozenset(
            {TupleRef("src", ("n1", "n0", 1), "n1"), TupleRef("src", ("n1", "n0", 2), "n1")}
        )
        # one batched request + one batched reply...
        assert parallel.stats.messages == 2
        assert parallel.stats.rounds == 2
        # ...versus a request/reply pair per alternative derivation.
        assert sequential.stats.messages == 4
        assert sequential.stats.rounds == 4

    def test_parallel_traversal_fewer_rounds_same_answer(self):
        """On a branching workload parallel strictly wins on rounds."""
        net = topology.random_connected(10, edge_probability=0.5, seed=17)
        runtime = path_vector.setup(net)
        queries = DistributedQueryEngine(runtime)
        rows = sorted(runtime.state("bestPathCost"), key=lambda row: -row[2])
        strict_win = False
        for row in rows[:5]:
            parallel = queries.lineage(
                "bestPathCost", list(row), options=QueryOptions(traversal="parallel")
            )
            sequential = queries.lineage(
                "bestPathCost", list(row), options=QueryOptions(traversal="sequential")
            )
            assert parallel.value == sequential.value
            assert parallel.stats.rounds <= sequential.stats.rounds
            strict_win = strict_win or parallel.stats.rounds < sequential.stats.rounds
        assert strict_win

    def test_sequential_threshold_prunes_messages(self):
        # A richer topology gives minCost tuples several alternative
        # derivations, so pruning after the first one saves messages.
        net = topology.random_connected(8, edge_probability=0.5, seed=5)
        runtime = mincost.setup(net)
        queries = DistributedQueryEngine(runtime)
        rows = runtime.state("minCost")
        source, destination, cost = max(rows, key=lambda row: row[2])
        baseline = queries.lineage("minCost", [source, destination, cost])
        pruned = queries.lineage(
            "minCost",
            [source, destination, cost],
            options=QueryOptions(traversal="sequential", threshold=1),
        )
        assert pruned.stats.messages <= baseline.stats.messages
        assert pruned.truncated or pruned.value == baseline.value
        # the pruned result is a subset of the full lineage
        assert set(pruned.value) <= set(baseline.value)

    def test_max_depth_truncates(self, mincost_engine):
        _, queries = mincost_engine
        result = queries.lineage(
            "minCost", ["n0", "n2", 2.0], options=QueryOptions(max_depth=1)
        )
        assert result.truncated

    def test_truncated_results_not_cached(self, mincost_engine):
        _, queries = mincost_engine
        options = QueryOptions(use_cache=True, max_depth=1)
        queries.lineage("minCost", ["n0", "n2", 2.0], options=options)
        stats = queries.cache_stats()
        assert all(entry["entries"] == 0 for entry in stats.values())

    def test_cache_stats_structure(self, mincost_engine):
        _, queries = mincost_engine
        queries.lineage("minCost", ["n0", "n1", 1.0], options=QueryOptions(use_cache=True))
        stats = queries.cache_stats()
        assert "n0" in stats
        assert set(stats["n0"]) == {
            "hits",
            "misses",
            "stores",
            "entries",
            "evictions",
            "stale_dropped",
        }
        totals = queries.cache_totals()
        assert totals["stores"] == sum(entry["stores"] for entry in stats.values())

    def test_differing_options_never_share_an_entry(self, mincost_engine):
        """Regression: (threshold, max_depth) are part of the cache key, so
        queries with different pruning settings must not serve each other."""
        _, queries = mincost_engine
        target = ["n0", "n2", 2.0]
        # Neither run truncates (threshold/max_depth are generous), so both
        # complete, both are cached — under *separate* keys.
        loose = queries.lineage("minCost", target, options=QueryOptions(use_cache=True))
        bounded = queries.lineage(
            "minCost", target, options=QueryOptions(use_cache=True, threshold=50, max_depth=50)
        )
        assert bounded.value == loose.value
        assert bounded.stats.cache_hits == 0  # second query could not reuse the first
        repeat = queries.lineage(
            "minCost", target, options=QueryOptions(use_cache=True, threshold=50, max_depth=50)
        )
        assert repeat.stats.cache_hits >= 1  # but an exact-options repeat can


class TestWireReprs:
    """Message sizes are ``len(repr(payload))``: the hand-written reprs of the
    query payloads must render the bytes the generated dataclass repr would."""

    @staticmethod
    def _generated_repr(instance):
        cls = type(instance)
        fields = dataclasses.fields(cls)
        twin = dataclasses.make_dataclass(cls.__qualname__, [(f.name, f.type) for f in fields])
        return repr(twin(*(getattr(instance, f.name) for f in fields)))

    def test_reprs_match_the_generated_ones(self):
        ref = TupleRef("link", ("n0", "n1", 1.0), "n0")
        options = QueryOptions(use_cache=True, traversal="sequential", threshold=3)
        request = QueryRequest("query1", "n0/r1", "exec", "rid_1", "lineage", options, 2, "n0")
        reply = QueryReply("query1", "n0/r1", frozenset({ref}), False, frozenset({"n0"}), 1, 7)
        for payload in (
            ref,
            options,
            reply,
            QueryReplyBatch((reply, reply)),
            QueryRequestBatch((request, request)),
        ):
            assert repr(payload) == self._generated_repr(payload)

    def test_tuple_ref_vid_memo_is_invisible(self):
        plain = TupleRef("link", ("n0", "n1", 1.0), "n0")
        memo = TupleRef("link", ("n0", "n1", 1.0), "n0")
        object.__setattr__(memo, "_vid", "vid_x")
        assert memo == plain and hash(memo) == hash(plain) and repr(memo) == repr(plain)
        for clone in (pickle.loads(pickle.dumps(memo)), copy.deepcopy(memo)):
            assert clone == plain and not hasattr(clone, "_vid")
