"""Round-trip coverage for the exporters: Prometheus text, JSON, Chrome trace."""

from __future__ import annotations

import json

from repro.obs import Observability
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    json_snapshot,
    parse_prometheus_text,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.register_view("cache", lambda: {"hits": 3, "misses": 1})
    registry.register_view("store", lambda: {"live": 42})
    histogram = registry.histogram(
        "query.latency_seconds", "Query latency", buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.05, 0.5):
        histogram.observe(value)
    histogram.labels(mode="lineage").observe(0.05)
    return registry


class TestPrometheus:
    def test_round_trip_views(self):
        text = prometheus_text(populated_registry())
        values = parse_prometheus_text(text)
        assert values["nettrails_cache_hits"] == 3.0
        assert values["nettrails_cache_misses"] == 1.0
        assert values["nettrails_store_live"] == 42.0

    def test_histogram_buckets_are_cumulative(self):
        values = parse_prometheus_text(prometheus_text(populated_registry()))
        assert values['nettrails_query_latency_seconds_bucket{le="0.01"}'] == 1.0
        assert values['nettrails_query_latency_seconds_bucket{le="0.1"}'] == 2.0
        assert values['nettrails_query_latency_seconds_bucket{le="1"}'] == 3.0
        assert values['nettrails_query_latency_seconds_bucket{le="+Inf"}'] == 3.0
        assert values["nettrails_query_latency_seconds_count"] == 3.0
        assert values["nettrails_query_latency_seconds_sum"] == 0.555

    def test_labeled_histogram_series_carry_their_labels(self):
        values = parse_prometheus_text(prometheus_text(populated_registry()))
        assert values['nettrails_query_latency_seconds_bucket{mode="lineage",le="0.01"}'] == 0.0
        assert values['nettrails_query_latency_seconds_bucket{mode="lineage",le="0.1"}'] == 1.0
        assert values['nettrails_query_latency_seconds_count{mode="lineage"}'] == 1.0

    def test_type_and_help_headers_are_emitted(self):
        text = prometheus_text(populated_registry())
        assert "# HELP nettrails_query_latency_seconds Query latency" in text
        assert "# TYPE nettrails_query_latency_seconds histogram" in text
        assert "# TYPE nettrails_cache_hits untyped" in text


class TestJsonSnapshot:
    def test_snapshot_is_json_serialisable_and_complete(self):
        obs = Observability()
        obs.registry.register_view("query", lambda: {"issued": 1})
        obs.record_event("checkpoint", window=1)
        span = obs.tracer.start_span("query", trace_id="q1", node="'n0'")
        span.finish(messages=4)
        snapshot = json_snapshot(obs)
        restored = json.loads(json.dumps(snapshot, sort_keys=True))
        assert restored["metrics"]["query.issued"] == 1
        assert restored["flight_recorder"]["events"][0]["kind"] == "checkpoint"
        (rendered,) = restored["spans"]
        assert rendered["name"] == "query"
        assert rendered["attrs"] == {"messages": 4}


class TestChromeTrace:
    def traced(self) -> Tracer:
        tracer = Tracer()
        root = tracer.start_span("query", trace_id="q1")
        tracer.start_span("frame.exec", parent=root, node="'n0'").finish()
        tracer.start_span("frame.exec", parent=root, node="'n1'").finish()
        root.finish(messages=4)
        return tracer

    def test_span_events_round_trip_through_json(self):
        blob = chrome_trace_json(self.traced())
        document = json.loads(blob)
        events = document["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 3
        names = sorted(event["name"] for event in complete)
        assert names == ["frame.exec", "frame.exec", "query"]
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["args"]["trace_id"] == "q1"

    def test_nodes_get_their_own_thread_tracks(self):
        events = chrome_trace_events(self.traced())
        thread_names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert thread_names == {"coordinator", "'n0'", "'n1'"}
        spans = {event["name"]: event["tid"] for event in events if event["ph"] == "X"}
        assert spans["query"] == 0  # engine-level span on the coordinator track
        node_tids = {
            event["tid"]
            for event in events
            if event["ph"] == "X" and event["name"] == "frame.exec"
        }
        assert len(node_tids) == 2 and 0 not in node_tids

    def test_empty_tracer_still_produces_valid_envelope(self):
        document = json.loads(chrome_trace_json(Tracer()))
        assert all(event["ph"] == "M" for event in document["traceEvents"])

    def test_write_chrome_trace_persists_the_envelope(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(str(path), self.traced())
        assert returned == str(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        assert any(event["ph"] == "X" for event in document["traceEvents"])
