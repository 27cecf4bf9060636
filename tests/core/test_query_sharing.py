"""Query-scoped sharing: within one query, a node opens one frame per key.

A tuple frame is keyed by its vid, an exec frame by its rid, and both by
depth as well when ``max_depth`` is set; a later request for the key
attaches to the open frame or takes its finished result.  Sequential
traversal with a threshold is the one exception: its pruning depends on
visit order, so it keeps one frame per path.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import participating_nodes
from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost

GOLDEN = Path(__file__).parent / "data" / "traversal_golden.json"

#: sha256 (first 24 hex digits) of the ``stats`` and ``spans`` of every
#: ``sequential ... t=2`` record in the traversal golden, as the per-path
#: executor recorded them before sharing existed, with ``bytes`` alone
#: re-measured once replies stopped carrying a version (every other field
#: and every span was unchanged then).  ``latency`` is rounded to
#: 9 places: the simulator clock is a float sum, and the fewer events of the
#: shared queries before these ones move its last digits (1e-15).
PER_PATH_SEQUENTIAL_THRESHOLD_DIGEST = "f48039ca172307f3c70c06e8"


@pytest.fixture(scope="module")
def grid_runtime():
    runtime = NetTrailsRuntime(mincost.program(), topology.grid(3, 3), observability=True)
    runtime.seed_links(run=True)
    return runtime


def _frame_keys(runtime, engine, values, options, at=None):
    engine.lineage("minCost", values, options=options, at=at)
    tracer = runtime.obs.tracer
    trace_id = tracer.finished_spans(name="query")[-1].trace_id
    return [
        (span.node, span.name, span.attrs["target"], span.attrs["depth"])
        for span in tracer.finished_spans(trace_id)
        if span.name.startswith("frame.")
    ]


def _deep_rows(runtime):
    return sorted((row for row in runtime.state("minCost") if row[2] >= 3), key=repr)


@pytest.mark.parametrize(
    "options",
    [
        QueryOptions.baseline(),
        QueryOptions(use_cache=True),
        QueryOptions(traversal="sequential"),
        QueryOptions(max_depth=1),
    ],
    ids=["baseline", "cache", "sequential", "max_depth=1"],
)
@pytest.mark.parametrize("issuer", ["home", "remote"])
def test_one_frame_span_per_node_kind_target_and_depth(grid_runtime, options, issuer):
    engine = DistributedQueryEngine(grid_runtime)
    for values in _deep_rows(grid_runtime):
        at = "n1_1" if issuer == "remote" and values[0] != "n1_1" else None
        keys = _frame_keys(grid_runtime, engine, list(values), options, at)
        assert keys
        repeated = [key for key, count in Counter(keys).items() if count > 1]
        assert not repeated, (values, repeated)


def test_sequential_with_threshold_keeps_its_per_path_frames(grid_runtime):
    # A threshold that never prunes still switches sharing off.
    engine = DistributedQueryEngine(grid_runtime)
    unpruned = QueryOptions(traversal="sequential", threshold=10**6)
    repeats = 0
    for values in _deep_rows(grid_runtime):
        keys = _frame_keys(grid_runtime, engine, list(values), unpruned)
        shared = _frame_keys(grid_runtime, engine, list(values), QueryOptions(traversal="sequential"))
        assert set(keys) == set(shared) and len(shared) == len(set(shared))
        repeats += len(keys) - len(shared)
    assert repeats > 0


def test_sequential_with_threshold_golden_stats_are_the_per_path_ones():
    golden = json.loads(GOLDEN.read_text())
    pinned = [
        [record["query"], dict(record["stats"], latency=round(record["stats"]["latency"], 9)), record["spans"]]
        for leg in ("mincost", "prefix")
        for record in golden[leg]
        if " sequential " in record["query"] and " t=2 " in record["query"]
    ]
    assert len(pinned) == 80
    text = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:24] == PER_PATH_SEQUENTIAL_THRESHOLD_DIGEST


def test_shared_frames_cut_lineage_messages_on_a_6x6_grid():
    runtime = NetTrailsRuntime(mincost.program(max_cost=8), topology.grid(6, 6))
    runtime.seed_links(run=True)
    rows = sorted((row for row in runtime.state("minCost") if row[2] >= 4), key=repr)[:20]
    engine = DistributedQueryEngine(runtime)
    results = [engine.lineage("minCost", list(row)) for row in rows]
    assert len(results) == 20 and not any(result.truncated for result in results)
    per_path_messages = 2336  # the same 20 queries, expanded once per path
    assert sum(result.stats.messages for result in results) <= 0.6 * per_path_messages


@pytest.mark.parametrize("traversal", ["parallel", "sequential"])
def test_shared_results_answer_like_the_centralised_graph(grid_runtime, traversal):
    engine = DistributedQueryEngine(grid_runtime)
    options = QueryOptions(traversal=traversal)
    graph = grid_runtime.provenance.build_graph()
    for values in _deep_rows(grid_runtime):
        (vertex,) = graph.find_tuples("minCost", tuple(values))
        lineage = engine.lineage("minCost", list(values), options=options).value
        assert {(ref.relation, ref.values) for ref in lineage} == {
            (base.relation, base.values) for base in graph.base_tuples_of(vertex.vid)
        }
        participants = engine.participants("minCost", list(values), options=options).value
        assert participants == participating_nodes(graph, "minCost", list(values))
        count = engine.derivation_count("minCost", list(values), options=options).value
        assert count == graph.derivation_count(vertex.vid)
        subgraph = engine.subgraph("minCost", list(values), options=options).value
        assert {t.vid for t in subgraph.tuple_vertices()} == {
            t.vid for t in graph.subgraph_rooted_at(vertex.vid).tuple_vertices()
        }


def test_the_memo_is_dropped_when_the_query_completes(grid_runtime):
    engine = DistributedQueryEngine(grid_runtime)
    values = list(_deep_rows(grid_runtime)[-1])
    first = engine.lineage("minCost", values)
    assert engine._memo == {}
    assert engine.lineage("minCost", values).stats == first.stats


def test_two_engines_on_one_runtime_record_distinct_traces():
    runtime = NetTrailsRuntime(mincost.program(), topology.ring(5), observability=True)
    runtime.seed_links(run=True)
    values = ["n0", "n2", 2.0]
    for _ in range(2):
        DistributedQueryEngine(runtime).lineage("minCost", values)
    tracer = runtime.obs.tracer
    trace_ids = [span.trace_id for span in tracer.finished_spans(name="query")]
    assert len(trace_ids) == len(set(trace_ids)) == 2
    for trace_id in trace_ids:
        assert tracer.span_tree(trace_id)["name"] == "query"
