"""Unified observability: metrics registry, distributed tracing, flight recorder.

One :class:`Observability` object bundles the three concerns and is what
``NetTrailsRuntime(observability=True)`` threads through every layer —
nodes, the query engine, the WAL and the durable service.  When the switch
is off the runtime carries ``None`` and every instrumentation site is a
single ``obs is None`` branch, so the subsystem costs nothing while
disabled (benchmark E20 gates this) and is invisible to every determinism
contract while enabled.

Exporters live in :mod:`repro.obs.export`:
Prometheus text, JSON snapshots, and Chrome trace-event timelines.

>>> obs = Observability()
>>> obs.registry.register_view("cache", lambda: {"hits": 3})
>>> obs.recorder.record("checkpoint", window=1)
>>> span = obs.tracer.start_span("query", trace_id="query1")
>>> span.finish(messages=4)
>>> sorted(obs.dump())
['flight_recorder', 'metrics', 'traces']
"""

from __future__ import annotations

from typing import Dict

from repro.obs.recorder import FlightRecorder
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracing import Span, SpanRecord, TraceContext, Tracer

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Histogram",
    "FlightRecorder",
    "Tracer",
    "Span",
    "SpanRecord",
    "TraceContext",
]


class Observability:
    """The bundle a runtime carries when observability is enabled: a
    metrics registry, a tracer that keeps every finished span, and a
    flight recorder of the last ``DEFAULT_CAPACITY`` events."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.recorder = FlightRecorder()

    def record_event(self, kind: str, **fields: object) -> None:
        """Shortcut to the flight recorder."""
        self.recorder.record(kind, **fields)

    def dump(self) -> Dict[str, object]:
        """Post-mortem payload: metrics, trace count, recent events."""
        return {
            "metrics": dict(self.registry.collect()),
            "traces": len(self.tracer.trace_ids()),
            "flight_recorder": self.recorder.dump(),
        }
