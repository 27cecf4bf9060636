"""Regression tests for the bound on the per-VID version map.

Before the bound existed, ``ProvenanceEngine._vid_versions`` grew without
bound: every vid the reachability walk ever stamped kept its version
forever, including vids of long-retracted tuples.  Now a walk that leaves
the map above a threshold clears it and raises a *floor* to its own number,
which every unstamped vid then reads.  Every tag a cache holds was handed
out before that walk, so it is below the floor and misses once; walk
numbers never repeat, so a later *rebirth* of a vid is stamped above every
version ever handed out as well.

These tests force a tiny threshold so the map clears constantly under link
flaps, and assert both the bookkeeping (entries bounded, clears counted)
and the soundness contract (cached answers stay bit-identical to uncached
traversals through clear/rebirth cycles, also for an entry cached before
any walk ran, at version 0).

The churn brings each link back at a *fresh* cost: the routes through it
are minted under new vids, so the map keeps outgrowing the threshold;
restoring the original costs afterwards is the rebirth.
"""

from __future__ import annotations

import copy
import random

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.core.results import TupleRef
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost

CACHED = QueryOptions(use_cache=True)
UNCACHED = QueryOptions(use_cache=False)


def build_runtime(net, threshold=8):
    runtime = NetTrailsRuntime(mincost.program(), copy.deepcopy(net))
    runtime.provenance._vid_version_sweep_threshold = threshold
    # Versions are kept from the first one handed out: hand one out before
    # the links are seeded, so every window from the seeding on is walked.
    runtime.provenance.vid_version("")
    runtime.seed_links(run=True)
    return runtime


def flap(runtime, source, target, cost=1.0):
    runtime.remove_link(source, target)
    runtime.run_to_quiescence()
    runtime.add_link(source, target, cost)
    runtime.run_to_quiescence()


def fresh_cost_schedule(net, seed, steps):
    """*steps* seeded ``(source, target, original cost, fresh cost)`` flaps;
    no fresh cost repeats, so every flap mints new route vids."""
    rng = random.Random(seed)
    edges = sorted((a, b, cost) for (a, b), cost in net.edges.items())
    schedule = []
    for step in range(steps):
        source, target, cost = edges[rng.randrange(len(edges))]
        schedule.append((source, target, cost, cost + 0.125 * (step + 1)))
    return schedule


class TestVidVersionPruning:
    def test_sweep_bounds_the_version_map_under_churn(self):
        """A walk that leaves the map above the threshold clears it, so
        after every window the map holds at most the threshold, and each
        clear dropped more than that."""
        net = topology.ring(5)
        runtime = build_runtime(net, threshold=8)
        provenance = runtime.provenance
        for source, target, _, fresh in fresh_cost_schedule(net, seed=7, steps=12):
            runtime.remove_link(source, target)
            runtime.run_to_quiescence()
            assert provenance.vid_version_stats()["entries"] <= 8
            runtime.add_link(source, target, fresh)
            runtime.run_to_quiescence()
            assert provenance.vid_version_stats()["entries"] <= 8

        stats = provenance.vid_version_stats()
        assert stats["sweeps"] >= 1, stats
        assert stats["pruned"] >= 9 * stats["sweeps"], stats
        # Every surviving version is the number of a walk that ran.
        assert max(provenance.vid_versions().values(), default=0) <= stats["flushes"]

    def test_rebirth_after_prune_cannot_revalidate_stale_cache(self):
        """A cached answer taken before a prune/rebirth cycle must never be
        served for the reborn tuple: cached == uncached at every step."""
        net = topology.ring(5)
        runtime = build_runtime(net, threshold=8)
        engine = DistributedQueryEngine(runtime)

        def answers():
            # The n0 -> n2 route, at whatever cost the current links give it.
            (target,) = [row for row in runtime.state("minCost") if row[:2] == ("n0", "n2")]
            cached = engine.lineage("minCost", list(target), options=CACHED)
            uncached = engine.lineage("minCost", list(target), options=UNCACHED)
            assert cached.value == uncached.value
            assert cached.truncated == uncached.truncated
            return target, sorted(str(ref) for ref in uncached.value)

        before = answers()
        assert before[0] == ("n0", "n2", 2.0)
        schedule = fresh_cost_schedule(net, seed=3, steps=10)
        for source, target_node, _, fresh in schedule:
            flap(runtime, source, target_node, fresh)
            answers()
        pruned_by_churn = runtime.provenance.vid_version_stats()["pruned"]
        # Rebirth: every touched link returns to its original cost, so the
        # original routes are re-derived under vids the sweep has pruned.
        for source, target_node, cost in sorted({step[:3] for step in schedule}):
            flap(runtime, source, target_node, cost)
            answers()

        stats = runtime.provenance.vid_version_stats()
        assert stats["sweeps"] >= 1, "the schedule never exercised the sweep"
        assert pruned_by_churn > 0, stats
        assert stats["pruned"] > 0, stats
        # The topology is back to the original ring, so the original answer
        # must be reproduced — through the cache — after every flap cycle.
        assert answers() == before

    def test_a_reborn_vid_never_reads_a_version_of_its_past_life(self):
        """``hop`` is derived from ``edge``, cached, retracted — the clear
        drops its version, so it reads the floor — and re-derived from
        ``alt``.  The reborn vertex must read a version no cache entry holds
        for it: a counter restarted from 0 would climb back to the cached
        entry's tag and serve the old lineage for the new derivation."""
        program = """
            r1 hop(@D, S) :- edge(@S, D).
            r2 hop(@D, S) :- alt(@S, D).
        """
        runtime = NetTrailsRuntime(program, topology.line(2))
        provenance = runtime.provenance
        engine = DistributedQueryEngine(runtime)
        hop = provenance.vid_of("hop", ["n1", "n0"])
        provenance.vid_version(hop)  # versions are kept from here on
        runtime.insert("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        first = engine.lineage("hop", ["n1", "n0"], options=CACHED)
        tag = provenance.vid_version(hop)  # the version the root's cache holds the entry under
        assert tag > 0
        provenance._vid_version_sweep_threshold = 0  # the next walk clears the map
        runtime.delete("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        assert hop not in provenance.vid_versions()  # cleared: it reads the floor
        assert provenance.vid_version_stats()["pruned"] > 0
        runtime.insert("alt", ["n0", "n1"])
        runtime.run_to_quiescence()
        assert provenance.vid_version(hop) > tag
        reborn = engine.lineage("hop", ["n1", "n0"], options=CACHED)
        uncached = engine.lineage("hop", ["n1", "n0"], options=UNCACHED)
        assert reborn.value == uncached.value != first.value
        assert reborn.stats.cache_hits == 0

    def test_an_entry_cached_at_version_zero_misses_after_a_clear(self):
        """The first version handed out is 0, so the cached lineage of
        ``hop`` is tagged 0.  Deleting ``edge`` takes a derivation out of its
        subgraph and the window's walk clears the map: ``hop`` must then
        read the floor, not 0, or the old two-tuple lineage is served."""
        runtime = NetTrailsRuntime("r1 hop(@D, S) :- edge(@S, D).", topology.line(2))
        provenance = runtime.provenance
        engine = DistributedQueryEngine(runtime)
        runtime.insert("hop", ["n1", "n0"])
        runtime.insert("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        first = engine.lineage("hop", ["n1", "n0"], options=CACHED)
        assert provenance.vid_version_stats()["flushes"] == 0  # the tag is 0
        assert len(first.value) == 2
        provenance._vid_version_sweep_threshold = 0  # the next walk clears the map
        runtime.delete("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        assert provenance.vid_version_stats()["sweeps"] == 1
        cached = engine.lineage("hop", ["n1", "n0"], options=CACHED)
        uncached = engine.lineage("hop", ["n1", "n0"], options=UNCACHED)
        assert cached.value == uncached.value == frozenset({TupleRef("hop", ("n1", "n0"), "n1")})
        assert cached.stats.cache_hits == 0

    def test_sweep_never_runs_below_threshold(self):
        runtime = build_runtime(topology.line(3), threshold=65536)
        flap(runtime, "n0", "n1")
        stats = runtime.provenance.vid_version_stats()
        assert stats["sweeps"] == 0, stats
        assert stats["pruned"] == 0, stats
