"""Tests for query optimisation settings and the per-node cache."""

import pytest

from repro.core.optimizations import (
    DEFAULT_CACHE_CAPACITY,
    NodeQueryCache,
    QueryOptions,
    TRAVERSAL_PARALLEL,
    TRAVERSAL_SEQUENTIAL,
)


def make_cache(current=None, clock=None, capacity=None):
    """A cache over the *current* vid -> version map (every vid at version 1
    when omitted) and the *clock* cell (a fresh one when omitted)."""
    versions = current if current is not None else {}
    cell = clock if clock is not None else [0]
    cache = NodeQueryCache(lambda vid: versions.get(vid, 1), lambda: cell[0])
    if capacity is not None:
        cache.capacity = capacity
    return cache


class TestQueryOptions:
    def test_defaults(self):
        options = QueryOptions()
        assert options.traversal == TRAVERSAL_PARALLEL
        assert not options.use_cache
        assert options.threshold is None

    def test_invalid_traversal_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(traversal="zigzag")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(threshold=0)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(max_depth=-1)

    def test_cache_key_excludes_traversal_order(self):
        sequential = QueryOptions(traversal=TRAVERSAL_SEQUENTIAL, threshold=5)
        parallel = QueryOptions(traversal=TRAVERSAL_PARALLEL, threshold=5)
        assert sequential.cache_key_part() == parallel.cache_key_part()

    def test_cache_key_includes_pruning(self):
        assert QueryOptions(threshold=5).cache_key_part() != QueryOptions(threshold=9).cache_key_part()

    def test_presets(self):
        assert QueryOptions.baseline().use_cache is False
        optimized = QueryOptions.optimized(threshold=3)
        assert optimized.use_cache and optimized.traversal == TRAVERSAL_SEQUENTIAL


class TestNodeQueryCache:
    def test_miss_then_hit(self):
        cache = make_cache()
        options = QueryOptions(use_cache=True)
        assert cache.lookup("vid_x", "lineage", options, version=1) is None
        cache.store("vid_x", "lineage", options, version=1, value="answer")
        assert cache.lookup("vid_x", "lineage", options, version=1) == "answer"
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_version_change_invalidates(self):
        cache = make_cache()
        options = QueryOptions(use_cache=True)
        cache.store("vid_x", "lineage", options, version=1, value="answer")
        assert cache.lookup("vid_x", "lineage", options, version=2) is None
        # the stale entry is evicted
        assert len(cache) == 0

    def test_mode_and_options_isolate_entries(self):
        cache = make_cache()
        options_a = QueryOptions(use_cache=True, threshold=None)
        options_b = QueryOptions(use_cache=True, threshold=2)
        cache.store("vid_x", "lineage", options_a, version=1, value="full")
        assert cache.lookup("vid_x", "count", options_a, version=1) is None
        assert cache.lookup("vid_x", "lineage", options_b, version=1) is None

    def test_clear(self):
        cache = make_cache()
        cache.store("vid_x", "lineage", QueryOptions(), version=1, value="v")
        cache.clear()
        assert len(cache) == 0


class TestCacheCapacityAndSweep:
    def test_lru_eviction_order(self):
        cache = make_cache(capacity=2)
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=1, value="A")
        cache.store("vid_b", "lineage", options, version=1, value="B")
        assert cache.lookup("vid_a", "lineage", options, version=1) == "A"  # refresh A
        cache.store("vid_c", "lineage", options, version=1, value="C")  # evicts B
        assert cache.evictions == 1
        assert cache.lookup("vid_b", "lineage", options, version=1) is None
        assert cache.lookup("vid_a", "lineage", options, version=1) == "A"
        assert cache.lookup("vid_c", "lineage", options, version=1) == "C"

    def test_sweep_prefers_dead_entries_over_live_evictions(self):
        current = {"vid_a": 1, "vid_b": 1, "vid_c": 1, "vid_d": 1}
        clock = [0]
        cache = make_cache(current, clock, capacity=3)
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=1, value="A")
        cache.store("vid_b", "lineage", options, version=1, value="B")
        cache.store("vid_c", "lineage", options, version=1, value="C")
        current["vid_b"] = 2  # a walk moves vid_b's version: its entry is now dead
        clock[0] += 1
        cache.store("vid_d", "lineage", options, version=1, value="D")  # overflows
        # The dead entry was swept; no live entry was sacrificed.
        assert cache.stale_dropped == 1
        assert cache.evictions == 0
        assert len(cache) == 3
        assert cache.lookup("vid_a", "lineage", options, version=1) == "A"

    def test_store_rejects_stillborn_entries(self):
        """A tag already superseded by churn (capture-at-start race or an
        in-flight reply) never occupies a slot."""
        cache = make_cache({"vid_a": 5})
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=4, value="stale")
        assert len(cache) == 0
        assert cache.stores == 0
        assert cache.stale_dropped == 1

    def test_manual_sweep_reports_drop_count(self):
        current = {"vid_a": 4, "vid_b": 1}
        clock = [0]
        cache = make_cache(current, clock)
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=4, value="doomed")
        cache.store("vid_b", "lineage", options, version=1, value="live")
        current["vid_a"] = 5  # a walk moves vid_a's version after the store
        clock[0] += 1
        assert cache.sweep() == 1
        assert len(cache) == 1
        assert cache.stale_dropped == 1
        assert cache.lookup("vid_b", "lineage", options, version=1) == "live"

    def test_sweep_with_nothing_dead_is_noop(self):
        clock = [0]
        cache = make_cache(clock=clock)
        cache.store("vid_a", "lineage", QueryOptions(), version=1, value="v")
        clock[0] += 1
        assert cache.sweep() == 0
        assert len(cache) == 1

    def test_cache_within_capacity_never_evicts(self):
        cache = make_cache()
        options = QueryOptions(use_cache=True)
        for index in range(DEFAULT_CACHE_CAPACITY):
            cache.store(f"vid_{index}", "lineage", options, version=1, value=index)
        assert len(cache) == DEFAULT_CACHE_CAPACITY
        assert cache.evictions == 0
        cache.store("vid_over", "lineage", options, version=1, value="over")
        assert len(cache) == DEFAULT_CACHE_CAPACITY
        assert cache.evictions == 1

    def test_stale_lookup_counts_stale_dropped(self):
        cache = make_cache()
        options = QueryOptions(use_cache=True)
        cache.store("vid_x", "lineage", options, version=1, value="old")
        assert cache.lookup("vid_x", "lineage", options, version=2) is None
        assert cache.stale_dropped == 1

    def test_counters_shape(self):
        cache = make_cache()
        assert dict(cache.counters()) == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "stale_dropped": 0,
            "entries": 0,
        }

    def test_sweep_skipped_while_clock_unchanged(self):
        current = {"vid_a": 1, "vid_b": 1, "vid_c": 1}
        probes = []

        def version_fn(vid):
            probes.append(vid)
            return current[vid]

        clock = [7]
        cache = NodeQueryCache(version_fn, lambda: clock[0])
        cache.capacity = 2
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=1, value="A")  # first sweep runs
        baseline_probes = len(probes)
        # While the clock is unchanged nothing can have died: each store
        # pays exactly one O(1) validation probe, never an O(entries) sweep.
        cache.store("vid_b", "lineage", options, version=1, value="B")
        assert len(probes) == baseline_probes + 1
        cache.store("vid_c", "lineage", options, version=1, value="C")  # overflow: LRU only
        assert len(probes) == baseline_probes + 2
        assert cache.evictions == 1
        # Once the clock moves, sweeping resumes and reclaims dead entries
        # instead of evicting live ones.
        current["vid_b"] = 2  # vid_b's entry (still resident) dies
        clock[0] = 8
        cache.store("vid_a", "lineage", options, version=1, value="A2")
        assert cache.stale_dropped == 1
        assert cache.evictions == 1  # the freed slot came from the sweep
        assert cache.lookup("vid_b", "lineage", options, version=1) is None
        assert cache.lookup("vid_c", "lineage", options, version=1) == "C"
