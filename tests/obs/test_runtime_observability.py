"""Observability wired through the engine: views, traces, failure dumps.

The two load-bearing contracts pinned here:

* **Propagation** — trace context survives every hop: query envelopes
  between nodes, and (under the thread backend) drains run on pool threads,
  whose spans parent to the coordinator's window span with node
  attribution intact.
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

BACKENDS = ["serial", "thread"]


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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_trace_collects_drain_spans(self, backend):
        with build_runtime(backend=backend, backend_workers=2) as runtime:
            runtime.seed_links(run=True)
            tracer = runtime.obs.tracer
            windows = tracer.finished_spans(name="window")
            assert len(windows) == 1
            tree = tracer.span_tree(windows[0].trace_id)
            drains = tree["children"]
            assert drains and all(child["name"] == "drain" for child in drains)
            # Pool-thread spans keep their node attribution; the tree
            # assembling at all proves every parent id resolved.
            assert all(child["node"] is not None for child in drains)
            assert {child["node"] for child in drains} == {
                repr(node_id) for node_id in runtime.node_ids()
            }

    def test_thread_drain_spans_match_serial_drains(self):
        """Drains on pool threads record the same spans per node as the
        serial run, and one flight-recorder event per applied batch."""
        per_node = {}
        for backend in BACKENDS:
            with build_runtime(backend=backend, backend_workers=2) as runtime:
                runtime.seed_links(run=True)
                counts = {}
                for span in runtime.obs.tracer.finished_spans(name="drain"):
                    counts[span.node] = counts.get(span.node, 0) + 1
                assert len(runtime.obs.recorder.events("drain")) == sum(
                    node.stats.batches_processed for node in runtime.nodes.values()
                )
                per_node[backend] = counts
        assert per_node["thread"] == per_node["serial"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_window_still_closes_its_span(self, backend):
        """A drain that raises mid-window must not leave the window span
        open or the ambient trace context set."""
        with NetTrailsRuntime(
            "r1 out(@D, S, C) :- link(@S, D, X), C := 10 / X.",
            topology.star(4),
            backend=backend,
            backend_workers=2,
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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_span_tree_assembles_on_every_backend(self, backend):
        with build_runtime(backend=backend, backend_workers=2) as runtime:
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

    def test_serial_and_thread_trees_have_identical_shape(self):
        def shape(tree):
            return (
                tree["name"],
                tree["node"],
                sorted(shape(child) for child in tree["children"]),
            )

        shapes = {}
        for backend in ("serial", "thread"):
            with build_runtime(backend=backend, backend_workers=2) as runtime:
                runtime.seed_links(run=True)
                _, tree = query_tree(runtime, DistributedQueryEngine(runtime))
                shapes[backend] = shape(tree)
        assert shapes["serial"] == shapes["thread"]

    def test_interval_batch_records_partition_spans(self):
        with build_runtime(use_interval_index=True) as runtime:
            runtime.seed_links(run=True)
            engine = DistributedQueryEngine(runtime)
            rows = sorted(runtime.state("minCost"), key=repr)[:2]
            results = engine.query_batch(
                "minCost", [list(row) for row in rows], mode="lineage"
            )
            assert len(results) == 2
            tracer = runtime.obs.tracer
            roots = tracer.finished_spans(name="query")
            assert roots[-1].attrs["n_roots"] == 2
            tree = tracer.span_tree(roots[-1].trace_id)
            partitions = [
                child
                for child in tree["children"]
                if child["name"] == "interval.partition"
            ]
            assert partitions and all(
                child["attrs"]["targets"] >= 1 for child in partitions
            )


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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_provenance_and_answers_are_bit_identical(
        self, backend, provenance_fingerprint, store_snapshots
    ):
        outcomes = {}
        for enabled in (False, True):
            with build_runtime(
                observability=enabled, backend=backend, backend_workers=2
            ) as runtime:
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

    def test_scenario_deterministic_view_is_unchanged(self):
        from repro.workloads.driver import run_scenario
        from repro.workloads.profiles import smoke

        views = {}
        for enabled in (False, True):
            spec = smoke().with_knobs(observability=enabled)
            views[enabled] = run_scenario(spec).deterministic_view()
        assert views[False] == views[True]


class TestCompleteness:
    def test_query_span_totals_reconcile_with_metrics_report(self):
        from repro.workloads.driver import ScenarioDriver
        from repro.workloads.profiles import smoke

        spec = smoke().with_knobs(observability=True)
        with ScenarioDriver(spec) as driver:
            report = driver.run()
            tracer = driver.runtime.obs.tracer
            roots = tracer.finished_spans(name="query")
            totals = report.totals()
            assert totals["queries"] > 0
            assert sum(span.attrs["n_roots"] for span in roots) == totals["queries"]
            assert sum(span.attrs["messages"] for span in roots) == (
                totals["query_messages"]
            )
            assert sum(span.attrs["rounds"] for span in roots) == totals["query_rounds"]
            for span in roots:
                tracer.span_tree(span.trace_id)  # raises if any trace is torn
