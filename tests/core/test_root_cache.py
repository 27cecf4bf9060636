"""The root-cache contract: the issuing node's cache answers a cached root first.

MINCOST on a 3x3 grid; ``minCost(n0_0, n2_2, 4.0)`` is stored at ``n0_0``
and issued there (``home``) or at ``n2_2`` (``remote``), in every built-in
mode, with the cache on: first a miss, then a hit, then, after a flap on
its shortest paths, a stale entry.  Every answer's value digest and
``QueryStats`` fields, and every node's cache counter deltas, are pinned as
literals.  A root looked up twice would count a second miss at the issuer;
a hit that ran the traversal would count messages or a second lookup.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.graph import ProvenanceGraph
from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.durability.wal import scan, wal_path
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.protocols import mincost

CACHED = QueryOptions(use_cache=True)
TARGET = ["n0_0", "n2_2", 4.0]
ISSUERS = {"home": None, "remote": "n2_2"}
MODES = ("lineage", "participants", "count", "subgraph")
PHASES = ("miss", "hit", "stale")
COUNTERS = ("hits", "misses", "stores", "stale_dropped")

#: The answer's value digest per mode: the flap leaves the answer as it was.
VALUES = {
    "lineage": "e19e7a1c9649c9d2",
    "participants": "4d2365139cec1f04",
    "count": "e7f6c011776e8db7",
    "subgraph": "c08a3829fa22dbc4",
}

#: (issuer, mode, phase) -> QueryStats as (messages, bytes, latency, rounds,
#: nodes_visited, cache_hits).
STATS = {
    ("home", "lineage", "miss"): (40, 12072, 0.07999999999999997, 8, 8, 0),
    ("home", "lineage", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("home", "lineage", "stale"): (10, 3919, 0.060000000000000026, 6, 5, 6),
    ("home", "participants", "miss"): (40, 8824, 0.07999999999999997, 8, 8, 0),
    ("home", "participants", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("home", "participants", "stale"): (10, 2254, 0.060000000000000026, 6, 5, 6),
    ("home", "count", "miss"): (40, 8132, 0.07999999999999997, 8, 8, 0),
    ("home", "count", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("home", "count", "stale"): (10, 2009, 0.060000000000000026, 6, 5, 6),
    ("home", "subgraph", "miss"): (40, 9352, 0.07999999999999997, 8, 8, 0),
    ("home", "subgraph", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("home", "subgraph", "stale"): (10, 2314, 0.060000000000000026, 6, 5, 6),
    ("remote", "lineage", "miss"): (42, 13426, 0.09999999999999999, 10, 9, 0),
    ("remote", "lineage", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("remote", "lineage", "stale"): (12, 5249, 0.08000000000000004, 8, 6, 6),
    ("remote", "participants", "miss"): (42, 9359, 0.09999999999999999, 10, 9, 0),
    ("remote", "participants", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("remote", "participants", "stale"): (12, 2765, 0.08000000000000004, 8, 6, 6),
    ("remote", "count", "miss"): (42, 8586, 0.09999999999999999, 10, 9, 0),
    ("remote", "count", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("remote", "count", "stale"): (12, 2439, 0.08000000000000004, 8, 6, 6),
    ("remote", "subgraph", "miss"): (42, 9867, 0.09999999999999999, 10, 9, 0),
    ("remote", "subgraph", "hit"): (0, 0, 0.0, 0, 1, 1),
    ("remote", "subgraph", "stale"): (12, 2805, 0.08000000000000004, 8, 6, 6),
}

_MISS_BELOW_ROOT = {
    "n0_1": (0, 5, 5, 0), "n0_2": (0, 4, 4, 0), "n1_0": (0, 5, 5, 0), "n1_1": (0, 6, 6, 0),
    "n1_2": (0, 5, 5, 0), "n2_0": (0, 4, 4, 0), "n2_1": (0, 5, 5, 0),
}
_STALE_BELOW_ROOT = {"n0_1": (1, 3, 3, 3), "n0_2": (2, 0, 0, 0), "n1_0": (2, 0, 0, 0), "n1_1": (1, 1, 1, 1)}

#: (issuer, phase) -> the nodes whose (hits, misses, stores, stale_dropped)
#: moved, with the deltas; the same in every mode.  The issuer's own root
#: is one miss (and one store) on a miss, one hit on a hit, and one miss
#: with one stale drop on a stale entry.
CACHE_DELTAS = {
    ("home", "miss"): {"n0_0": (0, 4, 4, 0), **_MISS_BELOW_ROOT},
    ("home", "hit"): {"n0_0": (1, 0, 0, 0)},
    ("home", "stale"): {"n0_0": (0, 2, 2, 2), **_STALE_BELOW_ROOT},
    ("remote", "miss"): {"n0_0": (0, 4, 4, 0), **_MISS_BELOW_ROOT, "n2_2": (0, 1, 1, 0)},
    ("remote", "hit"): {"n2_2": (1, 0, 0, 0)},
    ("remote", "stale"): {"n0_0": (0, 2, 2, 2), **_STALE_BELOW_ROOT, "n2_2": (0, 1, 1, 1)},
}


def _canonical(value: object) -> object:
    if isinstance(value, ProvenanceGraph):
        return sorted(
            [v.vid, v.relation, repr(v.values), repr(v.location), v.is_base] for v in value.tuple_vertices()
        )
    if isinstance(value, frozenset):
        return sorted(repr(item) for item in value)
    return value


def _digest(value: object) -> str:
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _counters(engine: DistributedQueryEngine) -> dict:
    return {
        node_id: tuple(getattr(engine.agent(node_id).cache, name) for name in COUNTERS)
        for node_id in engine.runtime.nodes
    }


def _flap(runtime: NetTrailsRuntime) -> None:
    """Remove and restore a link on the target's shortest paths."""
    runtime.remove_link("n0_1", "n1_1")
    runtime.run_to_quiescence()
    runtime.add_link("n0_1", "n1_1", 1.0)
    runtime.run_to_quiescence()


def run_phases(runtime: NetTrailsRuntime, mode: str, at) -> list:
    """The miss, hit and stale queries of one issuer and mode: each phase's
    ``(value digest, truncated, stats, cache counter deltas)``."""
    engine = DistributedQueryEngine(runtime)
    observed = []
    for phase in PHASES:
        if phase == "stale":
            _flap(runtime)
        before = _counters(engine)
        result = engine.query("minCost", TARGET, mode=mode, options=CACHED, at=at)
        after = _counters(engine)
        deltas = {
            node_id: tuple(now - then for now, then in zip(after[node_id], before[node_id]))
            for node_id in after
        }
        stats = result.stats
        observed.append((
            _digest(result.value),
            result.truncated,
            (stats.messages, stats.bytes, stats.latency, stats.rounds, stats.nodes_visited, stats.cache_hits),
            {node_id: delta for node_id, delta in deltas.items() if any(delta)},
        ))
    return observed


def build_grid(**kwargs) -> NetTrailsRuntime:
    runtime = NetTrailsRuntime(mincost.SOURCE, topology.grid(3, 3), **kwargs)
    runtime.seed_links(run=True)
    return runtime


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_miss_hit_and_stale_roots_answer_and_count_as_pinned(issuer, mode):
    observed = run_phases(build_grid(), mode, ISSUERS[issuer])
    assert observed == [
        (VALUES[mode], False, STATS[(issuer, mode, phase)], CACHE_DELTAS[(issuer, phase)]) for phase in PHASES
    ]


@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_a_hit_still_commits_the_waiting_durable_window(tmp_path, issuer):
    """A durable op that queued no event still waits for its window: a query,
    answered from the cache or not, commits it."""
    runtime = build_grid(durable_dir=tmp_path, wal_fsync=False)
    engine = DistributedQueryEngine(runtime)
    at = ISSUERS[issuer]
    engine.query("minCost", TARGET, options=CACHED, at=at)
    records = len(scan(wal_path(tmp_path)).records)
    runtime.delete_batch("link", [])  # journalled, but no row moves
    assert runtime.simulator.pending_events == 0
    hit = engine.query("minCost", TARGET, options=CACHED, at=at)
    assert (hit.stats.messages, hit.stats.cache_hits) == (0, 1)
    committed = scan(wal_path(tmp_path)).records
    assert len(committed) == records + 1
    assert committed[-1].data["ops"] == [["delete_batch", "link", []]]
    runtime.close()


@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_a_hit_over_undelivered_churn_is_billed_for_the_run(issuer):
    """A traversal started over churn in flight (``query`` would deliver it
    first) is answered from the cache and still runs the window to its end."""
    runtime = build_grid()
    engine = DistributedQueryEngine(runtime)
    at = ISSUERS[issuer]
    engine.query("minCost", TARGET, options=CACHED, at=at)
    runtime.insert_batch("link", [["n2_0", "n0_2", 9.0]])  # queued, not delivered
    assert runtime.simulator.pending_events
    racing = engine._traverse(Fact.make("minCost", TARGET), "n0_0", "lineage", CACHED, at)
    assert (racing.stats.cache_hits, racing.stats.nodes_visited) == (1, 1)
    assert racing.stats.messages > 0
    assert runtime.simulator.pending_events == 0
