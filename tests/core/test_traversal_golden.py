"""The traversal executor's observable surface, pinned by a golden fixture.

MINCOST on a grid (many equal-cost derivations) and prefix routing on an
ISP hierarchy are queried over every combination of query mode (the four
built-in modes plus a :class:`CustomQuery`), traversal order, cache,
``threshold``, ``max_depth`` and issuing node (the tuple's home or a remote
node), followed by a leg whose queries race undrained churn.  For every
query the fixture holds the canonical value, ``truncated``, all six
:class:`QueryStats` fields, a digest of ``vid_versions()`` taken after the
query and a digest of the query's span-tree shape.  Any executor must
reproduce it bit for bit.

Regenerate (only when the surface is meant to change) with::

    PYTHONPATH=src python tests/core/test_traversal_golden.py --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro.core.graph import ProvenanceGraph
from repro.core.optimizations import QueryOptions
from repro.core.queries import CustomQuery
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost, prefix_routing

GOLDEN = Path(__file__).parent / "data" / "traversal_golden.json"

MODES = ("lineage", "participants", "count", "subgraph", "depth")
THRESHOLD = 2
MAX_DEPTH = 1


def _depth_query() -> CustomQuery:
    return CustomQuery(
        name="depth",
        on_base=lambda ref: 0,
        on_exec=lambda exec_ref, children: 1 + max(children, default=0),
        on_tuple=lambda ref, derivations: max(derivations, default=0),
        size_of=lambda value: value,
    )


def _canonical(value: object) -> object:
    if isinstance(value, ProvenanceGraph):
        return {
            "tuples": sorted(
                [v.vid, v.relation, repr(v.values), repr(v.location), v.is_base]
                for v in value.tuple_vertices()
            ),
            "execs": sorted(
                [r.rid, r.rule_name, repr(r.location), value.input_vids_of(r.rid)]
                for r in value.rule_exec_vertices()
            ),
        }
    if isinstance(value, frozenset):
        return sorted(repr(item) for item in value)
    return value


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def _span_shape(tree: dict) -> list:
    attrs = sorted((key, repr(value)) for key, value in tree["attrs"].items())
    children = sorted(
        (_span_shape(child) for child in tree["children"]),
        key=lambda shape: json.dumps(shape, sort_keys=True),
    )
    return [tree["name"], tree["node"], attrs, children]


def _count_spans(shape: list) -> int:
    return 1 + sum(_count_spans(child) for child in shape[3])


class _Recorder:
    def __init__(self, runtime: NetTrailsRuntime) -> None:
        self.runtime = runtime
        self.engine = DistributedQueryEngine(runtime)
        self.engine.register_query(_depth_query())
        self.records: list = []

    def query(self, label: str, relation: str, values, mode: str, options: QueryOptions, at) -> None:
        result = self.engine.query(relation, values, mode=mode, options=options, at=at)
        trace_id = self.runtime.obs.tracer.finished_spans(name="query")[-1].trace_id
        shape = _span_shape(self.runtime.obs.tracer.span_tree(trace_id))
        versions = self.runtime.provenance.vid_versions()
        self.records.append(
            {
                "query": label,
                "value": _canonical(result.value),
                "truncated": result.truncated,
                "stats": result.stats.as_dict(),
                "vid_versions": [len(versions), _digest(sorted(versions.items()))],
                "spans": [_count_spans(shape), _digest(shape)],
            }
        )


def _combinations():
    return itertools.product(
        MODES,
        ("parallel", "sequential"),
        (False, True),
        (None, THRESHOLD),
        (None, MAX_DEPTH),
        ("home", "remote"),
    )


def _sweep(recorder: _Recorder, name: str, relation: str, values, remote) -> None:
    for mode, traversal, cache, threshold, max_depth, issuer in _combinations():
        options = QueryOptions(
            use_cache=cache, traversal=traversal, threshold=threshold, max_depth=max_depth
        )
        label = f"{name} {mode} {traversal} cache={cache} t={threshold} d={max_depth} {issuer}"
        at = remote if issuer == "remote" else None
        recorder.query(label, relation, values, mode, options, at)


def _race(recorder: _Recorder, name: str, relation: str, values, remote, links) -> None:
    """Queries issued while a link flap's deltas are still queued."""
    rows = [list(link) for link in links]
    for index, (mode, traversal, cache, issuer) in enumerate(
        itertools.product(MODES, ("parallel", "sequential"), (False, True), ("home", "remote"))
    ):
        options = QueryOptions(use_cache=cache, traversal=traversal)
        flap = recorder.runtime.delete_batch if index % 2 == 0 else recorder.runtime.insert_batch
        flap("link", rows, run=False)
        label = f"{name} race {mode} {traversal} cache={cache} {issuer} {flap.__name__}"
        at = remote if issuer == "remote" else None
        recorder.query(label, relation, values, mode, options, at)
    recorder.runtime.run_to_quiescence()


def _mincost_leg() -> list:
    runtime = NetTrailsRuntime(mincost.program(), topology.grid(3, 3), observability=True)
    runtime.seed_links(run=True)
    recorder = _Recorder(runtime)
    target = ["n0_0", "n2_2", 4.0]
    _sweep(recorder, "mincost", "minCost", target, "n1_1")
    flap = [("n0_1", "n1_1", 1.0), ("n1_1", "n0_1", 1.0)]
    _race(recorder, "mincost", "minCost", target, "n1_1", flap)
    return recorder.records


def _prefix_leg() -> list:
    net = topology.isp_hierarchy(2, 2, 2, seed=3)
    runtime = NetTrailsRuntime(prefix_routing.program(), net, observability=True)
    runtime.seed_links(run=True)
    origins = [("stub_0_0_0", "p0"), ("stub_1_1_1", "p0"), ("stub_1_0_0", "p1")]
    prefix_routing.announce(runtime, origins)
    recorder = _Recorder(runtime)
    best = next(row for row in runtime.node_state("stub_0_1_1", "best") if row[1] == "p0")
    _sweep(recorder, "prefix", "best", list(best), "t1_1")
    flap = [("t1_0", "t1_1", 1.0), ("t1_1", "t1_0", 1.0)]
    _race(recorder, "prefix", "best", list(best), "t1_1", flap)
    return recorder.records


def observe() -> dict:
    """Both legs' records; each distinct canonical value is stored once, by digest."""
    observed: dict = {"values": {}}
    for leg, run in (("mincost", _mincost_leg), ("prefix", _prefix_leg)):
        records = run()
        for record in records:
            key = _digest(record["value"])
            observed["values"][key] = record["value"]
            record["value"] = key
        observed[leg] = records
    return json.loads(json.dumps(observed))


def test_traversal_matches_golden_fixture():
    golden = json.loads(GOLDEN.read_text())
    observed = observe()
    assert observed["values"] == golden["values"]
    for leg in ("mincost", "prefix"):
        assert len(observed[leg]) == len(golden[leg])
        for seen, expected in zip(observed[leg], golden[leg]):
            assert seen == expected, expected["query"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    observed = observe()
    sections = []  # one value or record per line, so a diff names the queries that moved
    for key, items in sorted(observed.items()):
        rows = sorted(items.items()) if key == "values" else enumerate(items)
        body = ",\n".join(
            (f"  {json.dumps(name)}: " if key == "values" else "  ") + json.dumps(item, sort_keys=True)
            for name, item in rows
        )
        opening, closing = ("{", "}") if key == "values" else ("[", "]")
        sections.append(f" {json.dumps(key)}: {opening}\n{body}\n {closing}")
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {GOLDEN}")
