"""Observability wired through the engine: views, traces, failure dumps.

The two load-bearing contracts pinned here:

* **Propagation** — trace context survives every hop: query envelopes
  between nodes, and node drains, whose spans parent to the window span
  with node attribution intact.
* **Invisibility** — enabling observability changes no deterministic
  surface: store snapshots, provenance fingerprints, query answers and
  message counts are bit-identical with the subsystem on and off, after
  every step of every churn-harness script, and a durable service writes
  the same write-ahead log and checkpoint files byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.durability.checkpoint import snapshot_dir
from repro.durability.service import ServiceRuntime
from repro.durability.wal import wal_path
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.logstore import take_snapshot
from repro.obs import tracing
from repro.obs.tracing import MAX_TRACES
from repro.protocols import mincost

# The churn scripts are shared with the property suites, whose directory is
# not a package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from churn_harness import (  # noqa: E402
    SEEDS,
    TOPOLOGIES,
    apply_op,
    build_runtime as build_churned,
    generate_churn_script,
)

CHURN_SCRIPTS = [
    pytest.param(seed, name, id=f"{name}-seed{seed}") for seed in SEEDS for name in sorted(TOPOLOGIES)
]

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


class TestTraceBound:
    def test_only_the_newest_traces_are_kept_whole(self, monkeypatch):
        """Windows and queries far past :data:`MAX_TRACES`, with nothing
        inspected on the way (so drain records pile up unabsorbed): the
        tracer holds exactly the newest traces, each with every span and
        record an unbounded tracer holds for it, and each still assembles."""

        def run():
            runtime = build_runtime()
            runtime.seed_links(run=True)
            engine = DistributedQueryEngine(runtime)
            for step in range(MAX_TRACES):
                if step % 2:
                    runtime.add_link("n0", "n1")
                else:
                    runtime.remove_link("n0", "n1")
                runtime.run_to_quiescence()
                engine.lineage("minCost", sorted(runtime.state("minCost"), key=repr)[step % 3])
            tracer = runtime.obs.tracer
            sizes = {trace_id: len(trace.spans) + len(trace.records) for trace_id, trace in tracer._traces.items()}
            return tracer, sizes

        bounded, kept = run()
        monkeypatch.setattr(tracing, "MAX_TRACES", 10 * MAX_TRACES)
        unbounded, every = run()

        assert len(every) == 2 * MAX_TRACES + 1  # the seed window, then a window and a query per step
        newest = list(every)[-MAX_TRACES:]
        assert kept == {trace_id: every[trace_id] for trace_id in newest}
        assert sum(kept.values()) < sum(every.values())
        assert bounded.trace_ids() == newest
        assert "trace1" not in newest and "query1" not in newest
        for trace_id in newest:
            tree = bounded.span_tree(trace_id)
            assert tree["name"] == unbounded.span_tree(trace_id)["name"] in ("window", "query")


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

    @staticmethod
    def surface(runtime, engine, label):
        """Every deterministic surface of *runtime* at one step, then one
        cached and one uncached lineage query (value and every stat)."""
        observed = {
            "snapshot": take_snapshot(runtime, label).to_dict(),
            "vid_versions": runtime.provenance.vid_versions(),
            "node_stats": {node_id: dataclasses.asdict(node.stats) for node_id, node in runtime.nodes.items()},
        }
        target = list(sorted(runtime.state("minCost"), key=repr)[0])
        for name, options in (("cached", QueryOptions(use_cache=True)), ("uncached", QueryOptions())):
            result = engine.lineage("minCost", target, options=options)
            observed[name] = (sorted(str(ref) for ref in result.value), result.stats.as_dict())
        return observed

    @pytest.mark.parametrize("at", [None, "n3"], ids=["home", "remote"])
    def test_cached_roots_are_bit_identical(self, at):
        """A cached root's miss, hit and stale answers — value, every stat
        and the cache counters — are the same with observability on; a hit's
        ``query`` span carries messages 0 and rounds 0, and a home hit keeps
        its root's ``frame.tuple`` span (a remote hit never had one)."""
        cached = QueryOptions(use_cache=True)
        observed = {}
        for enabled in (False, True):
            with build_runtime(observability=enabled) as runtime:
                runtime.seed_links(run=True)
                engine = DistributedQueryEngine(runtime)
                answers, hit_trees = [], []
                for mode in ("lineage", "participants", "count", "subgraph"):
                    for phase in ("miss", "hit", "stale"):
                        if phase == "stale":
                            runtime.remove_link("n0", "n1")
                            runtime.run_to_quiescence()
                            runtime.add_link("n0", "n1", 1.0)
                            runtime.run_to_quiescence()
                        result = engine.query("minCost", ["n0", "n2", 2.0], mode=mode, options=cached, at=at)
                        value = result.value
                        if mode == "subgraph":
                            value = [(v.vid, v.is_base) for v in value.tuple_vertices()]
                        elif mode != "count":
                            value = sorted(map(repr, value))
                        answers.append((value, result.stats.as_dict(), engine.cache_totals()))
                        if enabled and phase == "hit":
                            root = runtime.obs.tracer.finished_spans(name="query")[-1]
                            hit_trees.append((runtime.obs.tracer.span_tree(root.trace_id), result.root_vid))
                observed[enabled] = answers
        assert observed[False] == observed[True]
        assert [answer[1]["cache_hits"] for answer in observed[True][1::3]] == [1, 1, 1, 1]
        for tree, vid in hit_trees:
            assert (tree["name"], tree["attrs"]["messages"], tree["attrs"]["rounds"]) == ("query", 0, 0)
            frames = [(child["name"], child["node"], child["attrs"]) for child in tree["children"]]
            frame_attrs = {"target": vid, "depth": 0, "truncated": False, "cache_hits": 1, "subtasks": 0}
            home_frame = ("frame.tuple", "'n0'", frame_attrs)
            assert frames == ([home_frame] if at is None else [])

    @pytest.mark.parametrize("seed,name", CHURN_SCRIPTS)
    def test_every_churn_step_is_bit_identical(self, seed, name):
        net = TOPOLOGIES[name]()
        script = generate_churn_script(seed, net)
        off, on = (build_churned(mincost.program(), net, observability=flag) for flag in (False, True))
        engines = {off: DistributedQueryEngine(off), on: DistributedQueryEngine(on)}
        for step, batch in enumerate([None] + script):
            if batch is not None:
                apply_op(off, batch)
                apply_op(on, batch)
            label = f"step{step}"
            assert self.surface(off, engines[off], label) == self.surface(on, engines[on], label), (
                f"seed={seed} topology={name} step={step}"
            )
        tracer = on.obs.tracer
        roots = tracer.finished_spans(name="query")
        assert len(roots) == 2 * (len(script) + 1)
        for root in roots:
            assert tracer.span_tree(root.trace_id)["name"] == "query"

    @pytest.mark.parametrize("seed,name", CHURN_SCRIPTS)
    def test_durable_service_writes_identical_files(self, tmp_path, seed, name):
        net = TOPOLOGIES[name]()
        script = generate_churn_script(seed, net)
        written = {}
        for flag in (False, True):
            directory = tmp_path / f"obs-{flag}"
            with ServiceRuntime(
                "mincost",
                copy.deepcopy(net),
                durable_dir=directory,
                wal_fsync=False,
                checkpoint_every=2,
                observability=flag,
            ) as service:
                service.seed_links()
                for batch in script:
                    service.commit(batch.ops)
                    service.query("minCost", sorted(service.state("minCost"), key=repr)[0])
            files = [wal_path(directory)] + sorted(snapshot_dir(directory).glob("ckpt-*.json"))
            written[flag] = {path.name: path.read_bytes() for path in files}
        assert len(written[False]) >= 3, "the log and at least two checkpoints"
        assert written[False] == written[True]
