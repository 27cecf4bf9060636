"""Unified observability: metrics registry, distributed tracing, flight recorder.

One :class:`Observability` object bundles the three concerns and is what
``NetTrailsRuntime(observability=True)`` (or ``NETTRAILS_OBSERVABILITY=1``)
threads through every layer — nodes, the query engine, the WAL
and the durable service.  When the knob is off the runtime carries ``None``
and every instrumentation site is a single ``obs is None`` branch, so the
subsystem costs nothing while disabled (benchmark E20 gates this) and is
invisible to every determinism contract while enabled.

Exporters live in :mod:`repro.obs.export`:
Prometheus text, JSON snapshots, and Chrome trace-event timelines.

>>> obs = Observability()
>>> obs.registry.counter("query.issued").inc()
>>> obs.recorder.record("checkpoint", window=1)
>>> span = obs.tracer.start_span("query", trace_id="query1")
>>> span.finish(messages=4)
>>> sorted(obs.dump())
['flight_recorder', 'metrics', 'traces']
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.errors import EngineError
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Span, SpanRecord, TraceContext, Tracer

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "FlightRecorder",
    "Tracer",
    "Span",
    "SpanRecord",
    "TraceContext",
    "resolve_observability",
]


class Observability:
    """The bundle a runtime carries when observability is enabled.

    ``tracing`` can be switched off independently (metrics and the flight
    recorder stay on) for long-running services where retaining every span
    would be unbounded; the runtime default keeps it on.
    """

    def __init__(
        self,
        tracing: bool = True,
        recorder_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.recorder = FlightRecorder(capacity=recorder_capacity)
        self.tracing = bool(tracing)

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


def resolve_observability(
    observability: Union[None, bool, Observability],
    default: bool,
) -> Optional[Observability]:
    """Normalise the runtime knob: ``None`` defers to *default* (the env
    hook), ``False`` disables, ``True`` builds a fresh bundle, and an
    existing :class:`Observability` is adopted as-is (letting several
    runtimes share one registry)."""
    if observability is None:
        observability = default
    if observability is False:
        return None
    if observability is True:
        return Observability()
    if isinstance(observability, Observability):
        return observability
    raise EngineError(
        f"observability must be None, a bool, or an Observability instance, "
        f"got {observability!r}"
    )
