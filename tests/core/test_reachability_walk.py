"""Oracle and edge tests for the window-coalesced reachability walk.

``ProvenanceEngine`` no longer walks the support index after every applied
batch: mutations mark pending roots and one union walk runs per quiescence
window (or before a read of the versions).  The eager per-batch walk of PR 4
survives here, as :func:`eager_closure`, and is the oracle:

* **differential** — after every window of seeded churn the set of vids whose
  version changed equals the union of the eager walk's closures over that
  window's batches, and each of them moved by exactly one;
* **mid-window read** — a cached query issued while a window is half-run
  reads flushed versions, drops the entry it could not have validated as
  stillborn, and leaves nothing stale behind;
* **backends** — the ``thread`` backend reports the same ``vid_versions()``
  as ``serial`` over the same churn, and marks racing walks are never lost.
"""

from __future__ import annotations

import copy
import random
import sys
import threading

import pytest

from repro.core.keys import vid_for
from repro.core.maintenance import ProvenanceEngine
from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.store import BASE_DERIVATION
from repro.engine.tuples import Fact
from repro.protocols import mincost, prefix_routing
from repro.workloads.churn import ChurnBatch, apply_batch, random_link_churn

CACHED = QueryOptions(use_cache=True)
UNCACHED = QueryOptions(use_cache=False)


def eager_closure(provenance, roots):
    """PR 4's eager walk as a set: every vertex reachable upward from the
    ``(home, vid)`` *roots* over the support index as it stands right now."""
    seen = set()
    stack = list(roots)
    while stack:
        home, vid = stack.pop()
        if vid in seen:
            continue
        seen.add(vid)
        store = provenance._stores.get(home)
        if store is None:
            continue
        for rid in store.uses_of(vid):
            if store.has_rule_exec(rid):
                entry = store.rule_exec(rid)
                stack.append((entry.head_location, entry.head_vid))
    return seen


class EagerOracle:
    """Runs the eager walk beside the engine, once per applied batch.

    The roots of a batch are derived from the batch's own arguments (the
    tuple whose derivations change, the head of each added/removed rule
    execution), not from the engine's pending set, and the closure is taken
    when the batch returns — exactly when PR 4 walked.
    """

    def __init__(self, provenance):
        self.bumped = set()
        apply_support = provenance.apply_support_batch
        apply_rule_execs = provenance.apply_rule_exec_batch

        def apply_support_batch(node_id, ops):
            apply_support(node_id, ops)
            roots = [(node_id, vid_for(fact)) for _, fact, _, _ in ops]
            self.bumped |= eager_closure(provenance, roots)

        def apply_rule_exec_batch(exec_node, effects):
            tags = apply_rule_execs(exec_node, effects)
            roots = [(effect.head_location, vid_for(effect.head_fact)) for effect in effects]
            self.bumped |= eager_closure(provenance, roots)
            return tags

        provenance.apply_support_batch = apply_support_batch
        provenance.apply_rule_exec_batch = apply_rule_exec_batch


def churn_batches(net, seed, count):
    mirror = copy.deepcopy(net)
    ops = random_link_churn(mirror, random.Random(seed), count)
    return [ChurnBatch(index, "churn", batch) for index, batch in enumerate(ops)]


def mincost_runtime(net, **knobs):
    runtime = NetTrailsRuntime(mincost.program(), copy.deepcopy(net), **knobs)
    runtime.seed_links(run=True)
    return runtime


def assert_windows_match_oracle(runtime, windows):
    """Run each window (a callable) and compare the version delta with the oracle."""
    provenance = runtime.provenance
    oracle = EagerOracle(provenance)
    for window in windows:
        before = provenance.vid_versions()
        oracle.bumped.clear()
        window()
        # The window's own walk has run; the reads around it find nothing to do.
        assert not provenance._pending_roots
        after = provenance.vid_versions()
        changed = {vid for vid in after if after[vid] != before.get(vid, 0)}
        assert changed == oracle.bumped
        assert changed, "the window changed nothing; the schedule is too tame"
        # One walk per window: whatever the number of batches that touched
        # a vertex's subgraph, its version moved by exactly one.
        assert all(after[vid] == before.get(vid, 0) + 1 for vid in changed)
    stats = provenance.vid_version_stats()
    assert stats["sweeps"] == 0  # below the threshold, so no vid left the map
    assert stats["pending"] == 0
    return stats


class TestDifferentialAgainstEagerWalk:
    @pytest.mark.parametrize(
        "net, seed",
        [(topology.ring(6), 5), (topology.star(6), 9)],
        ids=["ring", "star"],
    )
    def test_mincost_link_churn(self, net, seed):
        runtime = mincost_runtime(net)
        flushes = runtime.provenance.vid_version_stats()["flushes"]
        batches = churn_batches(net, seed, 10)
        stats = assert_windows_match_oracle(
            runtime, [lambda batch=batch: apply_batch(runtime, batch) for batch in batches]
        )
        assert stats["flushes"] == flushes + len(batches)

    def test_prefix_routing_on_a_small_hierarchy(self):
        net = topology.isp_hierarchy(2, 2, 2, seed=1)
        runtime = prefix_routing.setup(copy.deepcopy(net))
        origins = [("stub_0_0_0", "10.0.0.0/8"), ("stub_1_1_1", "10.1.0.0/16")]
        windows = [lambda: prefix_routing.announce(runtime, origins)]
        for batch in churn_batches(net, 4, 6):
            windows.append(lambda batch=batch: apply_batch(runtime, batch))
        windows.append(lambda: prefix_routing.withdraw(runtime, origins[:1]))
        assert_windows_match_oracle(runtime, windows)

    def test_thread_backend_reports_the_same_versions_as_serial(self):
        net = topology.ring(6)
        batches = churn_batches(net, 5, 10)

        def versions(backend):
            with mincost_runtime(net, backend=backend, backend_workers=4) as runtime:
                history = []
                for batch in batches:
                    apply_batch(runtime, batch)
                    history.append(runtime.provenance.vid_versions())
                return history

        assert versions("thread") == versions("serial")


class TestMidWindowRead:
    def test_every_reader_walks_the_pending_roots_first(self):
        engine = ProvenanceEngine()
        fact = Fact.make("link", ["a", "b", 1])
        vid = vid_for(fact)
        engine.record_support("a", fact, BASE_DERIVATION, None)
        assert engine.vid_version(vid) == 1
        engine.remove_support("a", fact, BASE_DERIVATION)
        assert engine.vid_versions() == {vid: 2}
        engine.record_support("a", fact, BASE_DERIVATION, None)
        engine.remove_support("a", fact, BASE_DERIVATION)  # same root: one bump
        stats = engine.vid_version_stats()
        assert (stats["pending"], stats["flushes"], stats["visited"]) == (1, 3, 3)
        assert engine.vid_versions() == {vid: 3}
        assert engine.vid_version_stats()["flushes"] == 3  # nothing pending: no walk

    def test_cached_query_racing_a_half_run_window(self):
        # ring(4): n0 reaches n2 at cost 2 through n1 and through n3, so the
        # tuple survives losing the n2-n3 link while its subgraph shrinks.
        runtime = mincost_runtime(topology.ring(4))
        provenance = runtime.provenance
        engine = DistributedQueryEngine(runtime)
        target = ["n0", "n2", 2.0]

        def lineage(options):
            return engine.lineage("minCost", target, options=options)

        def check_cached_equals_uncached():
            cached, uncached = lineage(CACHED), lineage(UNCACHED)
            assert cached.value == uncached.value
            assert cached.truncated == uncached.truncated
            return uncached.value

        before = check_cached_equals_uncached()
        warm = engine.cache_totals()
        assert lineage(CACHED).value == before
        assert engine.cache_totals()["hits"] > warm["hits"]  # the entry serves

        root_vid = provenance.vid_of("minCost", target)
        version_before = provenance.vid_version(root_vid)
        root_cache = engine.agent("n0").cache

        # Half a window: the retraction has been absorbed where the link
        # ends, its consequences are still in flight towards n0, and the
        # roots it marked are waiting for the window's walk.
        runtime.remove_link("n2", "n3")
        runtime.run(duration=0.005)
        assert runtime.simulator.pending_events > 0
        assert provenance._pending_roots

        # The root's lookup must walk them first: the warm entry is already
        # wrong, so the query may not be answered from it without a message.
        # Its own run then finishes the window around the traversal, so the
        # subgraph changes again between the root's lookup and its store.
        dropped = engine.cache_totals()["stale_dropped"]
        racing = lineage(CACHED)
        assert racing.stats.messages > 0
        assert runtime.simulator.pending_events == 0
        assert engine.cache_totals()["stale_dropped"] > dropped
        # One bump for the read at half-window, one for the rest of it; and
        # the result tagged with the half-window version was stillborn — it
        # never entered the root's cache.
        assert provenance.vid_version(root_vid) == version_before + 2
        assert root_cache.lookup(root_vid, "lineage", CACHED, version_before + 1) is None

        after = check_cached_equals_uncached()
        assert after != before
        assert check_cached_equals_uncached() == after  # now served from cache


class TestConcurrentMarks:
    def test_no_mark_is_lost_to_a_concurrent_walk(self):
        """Writers (one per partition, as the backends schedule them) mark
        while every thread also reads, i.e. walks.  A mark dropped between a
        walk's snapshot of the pending roots and its clearing of them would
        leave that writer's next read of its own vid unmoved."""
        engine = ProvenanceEngine()
        workers, rounds = 8, 400  # more workers than this host has cores
        failures = []

        def writer(index):
            node = f"n{index}"
            fact = Fact.make("link", [node, "peer", index])
            vid = vid_for(fact)
            seen = 0
            for _ in range(rounds):
                engine.record_support(node, fact, BASE_DERIVATION, None)
                engine.remove_support(node, fact, BASE_DERIVATION)
                version = engine.vid_version(vid)
                if version <= seen:
                    failures.append((node, seen, version))
                    return
                seen = version

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert engine.vid_version_stats()["pending"] == 0
        assert engine.events_processed == 2 * workers * rounds
