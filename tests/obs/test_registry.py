"""Unit coverage for the metrics registry: histograms, labels, views."""

from __future__ import annotations

import pytest

from repro.errors import EngineError
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry


class TestHistogram:
    def test_exact_count_sum_extremes(self):
        histogram = Histogram("latency", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.05, 0.5):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.5525)
        assert histogram.min == 0.0005
        assert histogram.max == 0.5
        assert histogram.bucket_counts() == [1, 1, 1, 1]

    def test_percentile_is_nearest_rank_clamped_to_max(self):
        histogram = Histogram("latency", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        assert histogram.percentile(0.5) == 2.0
        # The rank-4 sample lives in the <=4.0 bucket but the true max is
        # 3.5, so the estimate clamps to the observed maximum.
        assert histogram.percentile(1.0) == 3.5

    def test_exact_percentiles_with_value_buckets(self):
        # Buckets at the observed values make nearest-rank answers exact —
        # the property E17's client percentiles rely on.
        values = [float(v) for v in range(1, 101)]
        histogram = Histogram("latency", buckets=tuple(values))
        for value in values:
            histogram.observe(value)
        assert histogram.percentile(0.50) == 50.0
        assert histogram.percentile(0.95) == 95.0
        assert histogram.percentile(0.99) == 99.0

    def test_summary_key_shape(self):
        histogram = Histogram("latency")
        histogram.observe(0.25)
        summary = histogram.summary()
        assert sorted(summary) == ["count", "max", "mean", "p50", "p95", "p99"]
        assert summary["count"] == 1.0
        assert summary["max"] == 0.25

    def test_empty_histogram_is_zeroed(self):
        histogram = Histogram("latency")
        assert histogram.percentile(0.5) == 0.0
        assert histogram.mean == 0.0
        assert histogram.summary()["max"] == 0.0

    def test_unsorted_or_empty_buckets_raise(self):
        with pytest.raises(EngineError, match="sorted non-empty"):
            Histogram("latency", buckets=())
        with pytest.raises(EngineError, match="sorted non-empty"):
            Histogram("latency", buckets=(2.0, 1.0))

    def test_bad_percentile_fraction_raises(self):
        histogram = Histogram("latency")
        with pytest.raises(EngineError, match="percentile fraction"):
            histogram.percentile(0.0)
        with pytest.raises(EngineError, match="percentile fraction"):
            histogram.percentile(1.5)

    def test_labeled_child_inherits_buckets(self):
        histogram = Histogram("latency", buckets=(1.0, 2.0))
        child = histogram.labels(mode="lineage")
        assert child.buckets == (1.0, 2.0)

    def test_labeled_children_are_cached(self):
        histogram = Histogram("latency")
        a = histogram.labels(mode="lineage")
        assert histogram.labels(mode="lineage") is a
        assert histogram.labels(mode="participants") is not a
        a.observe(0.5)
        assert histogram.labels(mode="lineage").count == 1
        assert histogram.count == 0


class TestRegistry:
    def test_histograms_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")

    def test_views_rename_to_subsystem_metric(self):
        registry = MetricsRegistry()
        registry.register_view("cache", lambda: {"hits": 3, "misses": 1})
        assert registry.view_values() == {"cache.hits": 3, "cache.misses": 1}

    def test_view_registration_is_last_wins(self):
        registry = MetricsRegistry()
        registry.register_view("cache", lambda: {"hits": 1})
        registry.register_view("cache", lambda: {"hits": 99})
        assert registry.collect()["cache.hits"] == 99

    def test_collect_merges_views_and_histograms(self):
        registry = MetricsRegistry()
        registry.register_view("cache", lambda: {"hits": 2})
        histogram = registry.histogram("latency", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.labels(mode="lineage").observe(1.5)
        collected = registry.collect()
        assert collected["cache.hits"] == 2
        assert collected["latency.count"] == 1
        assert collected['latency{mode="lineage"}.count'] == 1
        assert collected['latency{mode="lineage"}.p50'] == 1.5

    def test_histogram_collect_exposes_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        collected = registry.collect()
        assert collected["latency.count"] == 1
        assert collected["latency.p50"] == 1.5

    def test_get_returns_registered_histogram_or_none(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("a")
        assert registry.get("a") is histogram
        assert registry.get("missing") is None

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
