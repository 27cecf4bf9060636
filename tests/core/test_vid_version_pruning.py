"""Regression tests for the pruning of the per-VID version map.

Before the sweep existed, ``ProvenanceEngine._vid_versions`` grew without
bound: every vid the reachability walk ever stamped kept its version
forever, including vids of long-retracted tuples.  The sweep drops the
versions of dead vids (no live uses, no live rule execution deriving them)
once the map outgrows a threshold.  A version is the number of the walk
that set it and walk numbers never repeat, so a later *rebirth* of the same
vid is stamped above every version ever handed out — a pruned-then-reborn
vid can never revalidate a stale cache entry.

These tests force a tiny threshold so the sweep runs constantly under link
flaps, and assert both the bookkeeping (entries bounded, sweeps counted)
and the soundness contract (cached answers stay bit-identical to uncached
traversals through prune/rebirth cycles).

The reachability walk — and with it the sweep — runs once per quiescence
window, when everything a plain down/up flap retracted has been re-derived
and is live again.  So the churn here brings each link back at a *fresh*
cost: the routes through it are minted under new vids and the old ones are
still dead when the window ends, which is what gives the sweep something to
prune; restoring the original costs afterwards is the rebirth.
"""

from __future__ import annotations

import copy
import random

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
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
        net = topology.ring(5)
        runtime = build_runtime(net, threshold=8)
        for source, target, _, fresh in fresh_cost_schedule(net, seed=7, steps=12):
            flap(runtime, source, target, fresh)

        stats = runtime.provenance.vid_version_stats()
        assert stats["sweeps"] >= 1, stats
        assert stats["pruned"] > 0, stats
        # Every surviving version is the number of a walk that ran.
        assert max(runtime.provenance.vid_versions().values()) <= runtime.provenance.global_version()
        # Liveness bound: whatever survives the last sweep is at most the
        # live vertex population (vids used by or derived by live execs),
        # plus post-sweep churn capped by the geometric retrigger policy.
        provenance = runtime.provenance
        live = 0
        for node_id in provenance.node_ids():
            entries = provenance.store(node_id).rule_execs()
            live += len({child for entry in entries for child in entry.child_vids}) + len(entries)
        assert stats["entries"] <= 2 * live + 16, (stats, live)

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
        """``hop`` is derived from ``edge``, cached, retracted — the sweep
        prunes its version, so it reads 0 — and re-derived from ``alt``.  The
        reborn vertex must read a version no cache entry holds for it: a
        counter restarted from 0 would climb back to the cached entry's tag
        and serve the old lineage for the new derivation."""
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
        provenance._vid_version_sweep_threshold = 0  # the next walk sweeps
        runtime.delete("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        assert hop not in provenance.vid_versions()  # swept: it reads 0
        assert provenance.vid_version_stats()["pruned"] > 0
        runtime.insert("alt", ["n0", "n1"])
        runtime.run_to_quiescence()
        assert provenance.vid_version(hop) > tag
        reborn = engine.lineage("hop", ["n1", "n0"], options=CACHED)
        uncached = engine.lineage("hop", ["n1", "n0"], options=UNCACHED)
        assert reborn.value == uncached.value != first.value
        assert reborn.stats.cache_hits == 0

    def test_sweep_never_runs_below_threshold(self):
        runtime = build_runtime(topology.line(3), threshold=65536)
        flap(runtime, "n0", "n1")
        stats = runtime.provenance.vid_version_stats()
        assert stats["sweeps"] == 0, stats
        assert stats["pruned"] == 0, stats
