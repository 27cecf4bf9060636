"""Exporters: Prometheus text format, JSON snapshots, Chrome trace events.

Three renderings of the same observability state:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` headers, labeled series, cumulative histogram buckets), for
  scraping a long-running :class:`~repro.durability.service.ServiceRuntime`.
  :func:`parse_prometheus_text` is the matching reader used by the
  round-trip snapshot tests.
* :func:`json_snapshot` — a ``json.dumps``-able dict of every metric,
  finished span and flight-recorder event, for ad-hoc inspection and for
  archiving one run's telemetry next to its counters.
* :func:`chrome_trace_events` — the Chrome trace-event format
  (``chrome://tracing`` / Perfetto): every finished span becomes a complete
  ``"ph": "X"`` event on a per-node track, so a whole churn-and-query run
  can be inspected as a timeline of windows, drains, queries and
  traversal frames.

>>> from repro.obs.registry import MetricsRegistry
>>> registry = MetricsRegistry()
>>> registry.counter("query.issued").inc(3)
>>> text = prometheus_text(registry)
>>> parse_prometheus_text(text)["nettrails_query_issued"]
3.0
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Dict, List

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.obs import Observability

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")
#: Prefix on every exported Prometheus metric name.
PROMETHEUS_PREFIX = "nettrails_"


def _prom_name(name: str) -> str:
    return PROMETHEUS_PREFIX + _NAME_SANITIZER.sub("_", name)


def _prom_labels(pairs) -> str:
    if not pairs:
        return ""
    return "{" + ",".join(f'{key}="{value}"' for key, value in pairs) + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []

    for series, value in registry.view_values().items():
        name = _prom_name(series)
        lines.append(f"# TYPE {name} untyped")
        lines.append(f"{name} {float(value):g}")

    for instrument in registry.instruments():
        name = _prom_name(instrument.name)
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        for series in [instrument] + instrument.children():
            if isinstance(series, (Counter, Gauge)):
                lines.append(f"{name}{_prom_labels(series.label_values)} {series.value:g}")
            elif isinstance(series, Histogram):
                cumulative = 0
                counts = series.bucket_counts()
                for bound, bucket_count in zip(series.buckets, counts[:-1]):
                    cumulative += bucket_count
                    labels = _prom_labels(tuple(series.label_values) + (("le", f"{bound:g}"),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _prom_labels(tuple(series.label_values) + (("le", "+Inf"),))
                lines.append(f"{name}_bucket{labels} {series.count}")
                lines.append(f"{name}_sum{_prom_labels(series.label_values)} {series.sum:g}")
                lines.append(f"{name}_count{_prom_labels(series.label_values)} {series.count}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Read exposition text back into ``{series_with_labels: value}``.

    A deliberately small parser — enough for the snapshot round-trip tests
    and for scraping our own output; not a general Prometheus client.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        values[series] = float(raw)
    return values


def json_snapshot(obs: "Observability") -> Dict[str, object]:
    """Every metric, span and recorder event as one JSON-serialisable dict."""
    return {
        "metrics": dict(obs.registry.collect()),
        "spans": [span.to_dict() for span in obs.tracer.finished_spans()],
        "flight_recorder": obs.recorder.dump(),
    }


def chrome_trace_events(tracer: Tracer, process_name: str = "nettrails") -> List[Dict[str, object]]:
    """Finished spans as Chrome trace-event dicts (``chrome://tracing``).

    Each distinct node gets its own thread track (tid); spans without node
    attribution (engine-level query roots, windows) land on tid 0.
    Timestamps are microseconds relative to the earliest span start.
    """
    spans = tracer.finished_spans()
    events: List[Dict[str, object]] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": process_name}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "coordinator"}},
    ]
    if not spans:
        return events
    base = min(span.start for span in spans)
    tids: Dict[str, int] = {}
    for span in spans:
        if span.node is not None and span.node not in tids:
            tid = len(tids) + 1
            tids[span.node] = tid
            events.append(
                {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": {"name": str(span.node)}}
            )
    for span in spans:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids.get(span.node or "", 0) if span.node is not None else 0,
                "name": span.name,
                "cat": span.name.split(".")[0].split(":")[0],
                "ts": (span.start - base) * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **{key: value for key, value in span.attrs.items()},
                },
            }
        )
    return events


def chrome_trace_json(tracer: Tracer, process_name: str = "nettrails") -> str:
    """The Chrome trace as a JSON string (the ``traceEvents`` envelope form)."""
    return json.dumps(
        {"traceEvents": chrome_trace_events(tracer, process_name), "displayTimeUnit": "ms"},
        sort_keys=True,
    )


def write_chrome_trace(path: str, tracer: Tracer, process_name: str = "nettrails") -> str:
    """Write the Chrome trace JSON to *path*; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(tracer, process_name))
    return path
