"""Tests for query optimisation settings and the per-node cache."""

import pytest

from repro.core.optimizations import (
    DEFAULT_CACHE_CAPACITY,
    NodeQueryCache,
    QueryOptions,
    TRAVERSAL_PARALLEL,
    TRAVERSAL_SEQUENTIAL,
)


def make_cache(capacity=None):
    cache = NodeQueryCache()
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


class TestCacheCapacity:
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

    def test_dead_entries_wait_for_their_key_or_the_lru(self):
        """The cache reads no versions: an entry whose vertex moved on stays
        until its key is looked up again (a stale drop) or the LRU reaches it."""
        cache = make_cache(capacity=3)
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=1, value="A")
        cache.store("vid_b", "lineage", options, version=1, value="B")
        cache.store("vid_c", "lineage", options, version=1, value="C")
        # vid_a's version moves on; nothing notices until a lookup or a store.
        cache.store("vid_d", "lineage", options, version=1, value="D")  # the LRU takes vid_a
        assert (cache.evictions, cache.stale_dropped, len(cache)) == (1, 0, 3)
        assert cache.lookup("vid_b", "lineage", options, version=2) is None  # vid_b moved on
        assert (cache.stale_dropped, len(cache)) == (1, 2)
        assert cache.lookup("vid_c", "lineage", options, version=1) == "C"

    def test_stillborn_entry_is_never_served(self):
        """A result stored under a tag churn already superseded (a traversal
        that raced a delta, an in-flight reply) takes a slot but never
        answers: the lookup at the current version drops it."""
        cache = make_cache()
        options = QueryOptions(use_cache=True)
        cache.store("vid_a", "lineage", options, version=4, value="stale")
        assert cache.lookup("vid_a", "lineage", options, version=5) is None
        assert len(cache) == 0
        assert (cache.stores, cache.stale_dropped, cache.hits) == (1, 1, 0)

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
