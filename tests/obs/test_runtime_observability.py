"""Observability wired through the engine: views, traces, failure dumps.

The two load-bearing contracts pinned here:

* **Propagation** — trace context survives every hop: query envelopes
  between nodes, and node drains, whose spans parent to the window span
  with node attribution intact.
* **Invisibility** — enabling observability changes no deterministic
  surface: store snapshots, provenance fingerprints, query answers and
  message counts are bit-identical with the subsystem on and off.
"""

from __future__ import annotations

import pytest

from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost

def build_runtime(observability=True, **kwargs):
    return NetTrailsRuntime(
        mincost.SOURCE, topology.ring(5), observability=observability, **kwargs
    )


def query_tree(runtime, engine, relation="minCost"):
    """Issue one lineage query and return its assembled span tree."""
    target = sorted(runtime.state(relation), key=repr)[0]
    result = engine.query(relation, list(target), mode="lineage")
    spans = runtime.obs.tracer.finished_spans(name="query")
    assert spans, "the engine must record a query root span"
    tree = runtime.obs.tracer.span_tree(spans[-1].trace_id)
    return result, tree


class TestMetricsViews:
    def test_engine_layers_populate_the_registry(self):
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            engine = DistributedQueryEngine(runtime)
            engine.query("minCost", list(sorted(runtime.state("minCost"), key=repr)[0]))
            collected = runtime.obs.registry.collect()
            assert collected["simulator.rounds"] > 0
            assert collected["traffic.messages"] > 0
            assert collected["node.updates_processed"] > 0
            assert collected["node.rule_firings"] > 0
            assert "cache.hits" in collected
            assert "vid_versions.entries" in collected
            assert collected['query.latency_seconds{mode="lineage"}.count'] == 1

    def test_latency_histogram_is_labeled_by_mode(self):
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            engine = DistributedQueryEngine(runtime)
            target = list(sorted(runtime.state("minCost"), key=repr)[0])
            engine.query("minCost", target, mode="lineage")
            engine.query("minCost", target, mode="participants")
            histogram = runtime.obs.registry.get("query.latency_seconds")
            by_mode = {
                child.label_values: child.count for child in histogram.children()
            }
            assert by_mode == {(("mode", "lineage"),): 1, (("mode", "participants"),): 1}

    def test_wal_view_counts_appends(self, tmp_path):
        with build_runtime(durable_dir=tmp_path / "d", wal_fsync=False) as runtime:
            runtime.seed_links(run=True)
            collected = runtime.obs.registry.collect()
            assert collected["wal.records_appended"] >= 1
            assert collected["wal.bytes_appended"] > 0

    def test_disabled_runtime_carries_no_observability(self):
        with build_runtime(observability=False) as runtime:
            assert runtime.obs is None
            assert runtime.observability is False


class TestWindowTraces:
    def test_window_trace_collects_drain_spans(self):
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            tracer = runtime.obs.tracer
            windows = tracer.finished_spans(name="window")
            assert len(windows) == 1
            tree = tracer.span_tree(windows[0].trace_id)
            drains = tree["children"]
            assert drains and all(child["name"] == "drain" for child in drains)
            # Drain spans keep their node attribution; the tree assembling
            # at all proves every parent id resolved.
            assert all(child["node"] is not None for child in drains)
            assert {child["node"] for child in drains} == {
                repr(node_id) for node_id in runtime.node_ids()
            }

    def test_drain_spans_and_events_track_batches(self):
        """Every node's drains record spans on that node (a drain applies one
        or more batches), and every applied batch one flight-recorder event."""
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            counts = {}
            for span in runtime.obs.tracer.finished_spans(name="drain"):
                counts[span.node] = counts.get(span.node, 0) + 1
            batches = {
                repr(node_id): node.stats.batches_processed
                for node_id, node in runtime.nodes.items()
            }
            assert set(counts) == set(batches)
            assert all(1 <= counts[node] <= batches[node] for node in counts)
            assert len(runtime.obs.recorder.events("drain")) == sum(batches.values())

    def test_failed_window_still_closes_its_span(self):
        """A drain that raises mid-window must not leave the window span
        open or the ambient trace context set."""
        with NetTrailsRuntime(
            "r1 out(@D, S, C) :- link(@S, D, X), C := 10 / X.",
            topology.star(4),
            observability=True,
        ) as runtime:
            with pytest.raises(ZeroDivisionError):
                runtime.insert_batch("link", [["n0", "n1", 0], ["n0", "n2", 0]])
                runtime.run_to_quiescence()
            tracer = runtime.obs.tracer
            assert tracer.current() is None
            assert all(span.end is not None for span in tracer.finished_spans(name="window"))

    def test_drain_events_reach_the_flight_recorder(self):
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            drains = runtime.obs.recorder.events("drain")
            assert drains and all(event["updates"] >= 1 for event in drains)


class TestQueryTraces:
    def test_query_span_tree_assembles(self):
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            engine = DistributedQueryEngine(runtime)
            result, tree = query_tree(runtime, engine)
            assert tree["name"] == "query"
            assert tree["attrs"]["mode"] == "lineage"
            assert tree["attrs"]["messages"] == result.stats.messages
            assert tree["attrs"]["rounds"] == result.stats.rounds
            frames = tree["children"]
            assert frames and all(
                child["name"].startswith("frame.") for child in frames
            )
            assert all(child["node"] is not None for child in frames)

    def test_trees_have_identical_shape_run_after_run(self):
        def shape(tree):
            return (
                tree["name"],
                tree["node"],
                sorted(shape(child) for child in tree["children"]),
            )

        shapes = []
        for _ in range(2):
            with build_runtime() as runtime:
                runtime.seed_links(run=True)
                _, tree = query_tree(runtime, DistributedQueryEngine(runtime))
                shapes.append(shape(tree))
        assert shapes[0] == shapes[1]

    def test_each_remote_query_is_one_single_rooted_trace(self):
        """A query issued away from its tuple's home ships the root's trace
        context in its request, so the home node's frames parent to that
        query's root span; each ``query()`` call is its own trace."""
        with build_runtime() as runtime:
            runtime.seed_links(run=True)
            engine = DistributedQueryEngine(runtime)
            rows = [row for row in sorted(runtime.state("minCost"), key=repr) if row[0] != "n3"][:2]
            results = [engine.query("minCost", list(row), mode="lineage", at="n3") for row in rows]
            roots = runtime.obs.tracer.finished_spans(name="query")[-2:]
            assert [root.attrs["n_roots"] for root in roots] == [1, 1]
            assert len({root.trace_id for root in roots}) == 2
            for row, root, result in zip(rows, roots, results):
                assert root.attrs["messages"] == result.stats.messages > 0
                tree = runtime.obs.tracer.span_tree(root.trace_id)
                assert [child["node"] for child in tree["children"]] == [repr(row[0])]


class TestServiceFlightDump:
    def test_crash_dumps_the_flight_recorder(self, tmp_path):
        from repro.durability.service import ServiceRuntime

        service = ServiceRuntime(
            "mincost",
            topology.line(3),
            durable_dir=tmp_path / "svc",
            wal_fsync=False,
            observability=True,
        )
        service.seed_links()
        service.query("minCost", sorted(service.state("minCost"), key=repr)[0])
        service.crash()
        dump = service.last_flight_record
        assert dump is not None
        kinds = [event["kind"] for event in dump["flight_recorder"]["events"]]
        assert kinds[-1] == "crash"
        assert "drain" in kinds
        assert dump["metrics"]["service.queries"] == 1.0
        assert dump["traces"] >= 1

    def test_clean_close_leaves_no_flight_record(self):
        from repro.durability.service import ServiceRuntime

        with ServiceRuntime("mincost", topology.line(3), observability=True) as service:
            service.seed_links()
        assert service.last_flight_record is None


class TestInvisibility:
    """Enabling observability must not perturb any deterministic surface."""

    def test_state_provenance_and_answers_are_bit_identical(
        self, provenance_fingerprint, store_snapshots
    ):
        outcomes = {}
        for enabled in (False, True):
            with build_runtime(observability=enabled) as runtime:
                runtime.seed_links(run=True)
                runtime.insert("link", ["n0", "n2", 9])
                runtime.run_to_quiescence()
                engine = DistributedQueryEngine(runtime)
                target = sorted(runtime.state("minCost"), key=repr)[0]
                result = engine.query("minCost", list(target), mode="lineage")
                outcomes[enabled] = {
                    "state": sorted(runtime.state("minCost"), key=repr),
                    "snapshots": store_snapshots(runtime),
                    "provenance": provenance_fingerprint(runtime),
                    "answer": sorted(result.value, key=repr),
                    "messages": result.stats.messages,
                    "rounds": result.stats.rounds,
                    "bytes": result.stats.bytes,
                }
        assert outcomes[False] == outcomes[True]
