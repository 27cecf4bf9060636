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

    def test_a_handler_wrapped_on_registration_stays_registered(self, ring5, monkeypatch):
        """A tracer may wrap handlers as nodes register them; the wrapped
        handler is still this engine's, so later queries keep it in place."""
        from repro.engine.node import Node

        handled = []
        inner = Node.__dict__["register_handler"]

        def register_handler(node, category, handler):
            def wrapped(message):
                handled.append(category)
                return handler(message)

            return inner(node, category, wrapped)

        monkeypatch.setattr(Node, "register_handler", register_handler)
        runtime = mincost.setup(ring5)
        engine = DistributedQueryEngine(runtime)
        registered = {node_id: dict(node._handlers) for node_id, node in runtime.nodes.items()}
        messages = 0
        for at in (None, "n3", None):
            result = engine.lineage("minCost", ["n0", "n2", 2.0], at=at)
            assert result.stats.messages > 0
            messages += result.stats.messages
            assert {node_id: dict(node._handlers) for node_id, node in runtime.nodes.items()} == registered
        assert len(handled) == messages  # every query message ran through the wrapper


class TestAQueryThatRaises:
    PROGRAM = """
        r1 reach(@D, S) :- edge(@S, D).
        r2 w2(@D, S, W) :- weight(@S, D, W).
        r3 ratio(@D, S, Q) :- w2(@D, S, W), Q := 10 / W.
    """

    def test_its_id_and_completion_are_released_once_its_messages_land(self):
        """A drain that divides by zero fails the query whose run it is in
        while that query's messages are still queued.  The next query
        delivers them; then the failed query's completion is dropped and its
        id is free again, so a third query costs what the first one did."""
        runtime = NetTrailsRuntime(self.PROGRAM, topology.line(3))
        runtime.insert_batch("edge", [["n0", "n1"], ["n1", "n0"], ["n1", "n2"], ["n2", "n1"]], run=True)
        engine = DistributedQueryEngine(runtime)
        clean = engine.lineage("reach", ["n1", "n0"], at="n2")
        assert clean.stats.messages == 4
        runtime.insert("weight", ["n0", "n1", 0])  # a delta in flight towards 10 / 0
        with pytest.raises(ZeroDivisionError):
            engine.lineage("reach", ["n1", "n0"], at="n2")
        straggled = engine.lineage("reach", ["n1", "n0"], at="n2")
        assert straggled.value == clean.value
        # the failed query's last 2 messages land before this query starts
        assert straggled.stats == dataclasses.replace(clean.stats, latency=pytest.approx(clean.stats.latency))
        assert straggled.stats.messages == 4
        assert engine._completions == {} and engine._abandoned == set()
        again = engine.lineage("reach", ["n1", "n0"], at="n2")
        assert again.value == clean.value
        assert again.stats == dataclasses.replace(clean.stats, latency=pytest.approx(clean.stats.latency))

    @pytest.mark.parametrize("at", ["n2", None], ids=["remote", "home"])
    @pytest.mark.parametrize("mode", ["participants", "derivation_count", "subgraph"])
    def test_the_next_query_shares_no_frame_with_its_stragglers(self, mode, at):
        """The failed lineage query's requests still in flight open frames
        of their own, so the next query, of another mode and issued remotely
        or at the tuple's home, answers what a fresh engine answers instead
        of attaching to a lineage frame."""

        def answer(engine):
            value = getattr(engine, mode)("reach", ["n1", "n0"], at=at).value
            if mode == "subgraph":
                return sorted(map(str, value.tuple_vertices())), sorted(map(str, value.rule_exec_vertices()))
            return value

        def seeded():
            runtime = NetTrailsRuntime(self.PROGRAM, topology.line(3))
            runtime.insert_batch("edge", [["n0", "n1"], ["n1", "n0"], ["n1", "n2"], ["n2", "n1"]], run=True)
            return runtime

        fresh = answer(DistributedQueryEngine(seeded()))
        runtime = seeded()
        engine = DistributedQueryEngine(runtime)
        runtime.insert("weight", ["n0", "n1", 0])
        with pytest.raises(ZeroDivisionError):
            engine.lineage("reach", ["n1", "n0"], at="n2")
        assert answer(engine) == fresh


class TestAQueryIsBilledForItsOwnTraffic:
    def test_churn_in_flight_is_delivered_before_the_query_is_billed(self):
        """A link inserted without a run leaves protocol messages queued; the
        next query delivers them before it takes its stats snapshot, so a
        home query whose derivation is local still bills nothing."""
        runtime = mincost.setup(topology.ring(8))
        engine = DistributedQueryEngine(runtime)
        quiescent = engine.lineage("minCost", ["n0", "n1", 1.0])
        assert (quiescent.stats.messages, quiescent.stats.bytes, quiescent.stats.rounds) == (0, 0, 0)
        runtime.insert("link", ["n3", "n6", 1])
        assert runtime.simulator.pending_events > 0
        pending = engine.lineage("minCost", ["n0", "n1", 1.0])
        assert runtime.simulator.pending_events == 0
        assert pending.value == quiescent.value
        # Billing the churn read 5 messages, 1,966 B and 3 rounds here.
        assert pending.stats == quiescent.stats
        assert ("n3", "n6", 1.0) in {tuple(row) for row in runtime.state("minCost")}


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
        assert queries.cache_totals()["entries"] == 0

    def test_cache_counters_structure(self, mincost_engine):
        runtime, queries = mincost_engine
        queries.lineage("minCost", ["n0", "n1", 1.0], options=QueryOptions(use_cache=True))
        stats = {node: queries.agent(node).cache.counters() for node in runtime.nodes}
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
    query payloads are wire bytes.  The literals are the dataclass-format
    bytes the payloads rendered before they became named tuples."""

    REF = "TupleRef(relation='link', values=('n0', 'n1', 1.0), location='n0')"
    OPTIONS = "QueryOptions(use_cache=True, traversal='sequential', threshold=3, max_depth=None)"
    REQUEST = (
        "QueryRequest(query_id='query1', request_id='n0/r1', kind='exec', target='rid_1', "
        f"mode='lineage', options={OPTIONS}, depth=2, reply_to='n0')"
    )
    REPLY = (
        f"QueryReply(query_id='query1', request_id='n0/r1', value=frozenset({{{REF}}}), "
        "truncated=False, visited=frozenset({'n0'}), cache_hits=1)"
    )

    def test_reprs_match_the_generated_ones(self):
        ref = TupleRef("link", ("n0", "n1", 1.0), "n0")
        options = QueryOptions(use_cache=True, traversal="sequential", threshold=3)
        # the trace is set but never rendered: observability ships no bytes
        request = QueryRequest(
            "query1", "n0/r1", "exec", "rid_1", "lineage", options, 2, "n0", ("query7", "span3")
        )
        reply = QueryReply("query1", "n0/r1", frozenset({ref}), False, frozenset({"n0"}), 1)
        assert repr(ref) == self.REF
        assert repr(options) == self.OPTIONS
        assert repr(request) == self.REQUEST
        assert repr(request._replace(trace=None)) == self.REQUEST
        assert repr(reply) == self.REPLY
        assert repr(QueryRequestBatch((request, request))) == (
            f"QueryRequestBatch(requests=({self.REQUEST}, {self.REQUEST}))"
        )
        assert repr(QueryReplyBatch((reply, reply))) == f"QueryReplyBatch(replies=({self.REPLY}, {self.REPLY}))"
        assert QueryRequest._fields == (
            "query_id", "request_id", "kind", "target", "mode", "options", "depth", "reply_to", "trace"
        )
        assert QueryRequestBatch._fields == ("requests",)
        assert QueryReply._fields == ("query_id", "request_id", "value", "truncated", "visited", "cache_hits")
        assert QueryReplyBatch._fields == ("replies",)

    def test_tuple_ref_vid_memo_is_invisible(self):
        plain = TupleRef("link", ("n0", "n1", 1.0), "n0")
        memo = TupleRef("link", ("n0", "n1", 1.0), "n0")
        object.__setattr__(memo, "_vid", "vid_x")
        assert memo == plain and hash(memo) == hash(plain) and repr(memo) == repr(plain)
        for clone in (pickle.loads(pickle.dumps(memo)), copy.deepcopy(memo)):
            assert clone == plain and not hasattr(clone, "_vid")
