"""The scenario driver: specs in, metrics out.

:class:`ScenarioDriver` assembles a :class:`~repro.engine.runtime.NetTrailsRuntime`
from a :class:`~repro.workloads.spec.ScenarioSpec`, replays the spec's
materialised churn trace batch by batch (re-chunked to ``spec.batch_size``
ops per quiescence window when set), interleaves Zipf-skewed query waves per
the spec's query mix, and emits a structured :class:`MetricsReport` — per
phase and in total: base-tuple deltas applied, network messages, simulator
events and rounds, wall-clock seconds, query traffic and the query-cache
counters.

Reports split *churn* traffic from *query* traffic (each activity is
book-ended by counter snapshots), so a batch-size sweep compares churn
absorption costs without query noise.  Every counter except wall-clock is
deterministic: :meth:`MetricsReport.deterministic_view` is the exact payload
the determinism tests compare across runs and across execution backends.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineError
from repro.engine.runtime import NetTrailsRuntime
from repro.workloads.churn import (
    ChurnBatch,
    ChurnOp,
    apply_churn_op,
    phase_rng,
    scenario_trace,
    trace_digest,
)
from repro.workloads.queries import query_wave
from repro.workloads.spec import ScenarioSpec

#: Phase name used for the initial topology/link seeding.
SEED_PHASE = "seed"


@dataclass
class PhaseMetrics:
    """Counters for one phase (seeding, or one churn phase's batches)."""

    name: str
    batches: int = 0
    ops: int = 0
    deltas: int = 0
    messages: int = 0
    events: int = 0
    rounds: int = 0
    seconds: float = 0.0
    queries: int = 0
    query_messages: int = 0
    query_rounds: int = 0

    def deterministic_view(self) -> Dict[str, object]:
        view = {
            "name": self.name,
            "batches": self.batches,
            "ops": self.ops,
            "deltas": self.deltas,
            "messages": self.messages,
            "events": self.events,
            "rounds": self.rounds,
            "queries": self.queries,
            "query_messages": self.query_messages,
            "query_rounds": self.query_rounds,
        }
        return view


@dataclass
class MetricsReport:
    """What one scenario run cost, structured for artifacts and assertions."""

    scenario: str
    seed: int
    backend: str
    batch_size: Optional[int]
    nodes: int
    edges: int
    trace_digest: str
    #: Worker count of the execution backend (1 for serial).  Like
    #: ``backend``, an identity field: excluded from
    #: :meth:`deterministic_view` because every worker count must produce
    #: identical observable state.
    backend_workers: int = 1
    phases: List[PhaseMetrics] = field(default_factory=list)
    cache: Dict[str, int] = field(default_factory=dict)
    #: Interval-index counters summed over all partitions (empty unless the
    #: run's query engine used the interval path).
    interval: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    #: Wall-clock latency percentiles (``query_p50`` / ``query_p95`` /
    #: ``query_p99`` etc.) from a concurrent-client run
    #: (:func:`repro.workloads.clients.run_concurrent_clients` /
    #: :meth:`repro.durability.service.ServiceRuntime.latency_metrics`).
    #: Wall-clock, so *not* part of :meth:`deterministic_view`.
    latency: Dict[str, float] = field(default_factory=dict)
    #: Per-query-mode latency breakdown: one ``latency_summary`` payload per
    #: mode (``lineage`` / ``participants`` / ``subgraph``), filled either by
    #: the driver from its per-wave-group timings or from a client fleet's
    #: :meth:`repro.workloads.clients.ClientReport.mode_summaries`.
    #: Wall-clock, so *not* part of :meth:`deterministic_view`.
    latency_by_mode: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Recovery-time metrics (``genesis_seconds`` / ``checkpoint_seconds``,
    #: batches/ops replayed, truncated bytes) from
    #: :meth:`repro.durability.recovery.RecoveryResult.recovery_metrics`.
    #: Wall-clock, so *not* part of :meth:`deterministic_view`.
    recovery: Dict[str, float] = field(default_factory=dict)

    def totals(self) -> Dict[str, int]:
        keys = (
            "batches",
            "ops",
            "deltas",
            "messages",
            "events",
            "rounds",
            "queries",
            "query_messages",
            "query_rounds",
        )
        return {key: sum(getattr(phase, key) for phase in self.phases) for key in keys}

    def phase(self, name: str) -> PhaseMetrics:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"no phase named {name!r} in report for {self.scenario!r}")

    def deterministic_view(self) -> Dict[str, object]:
        """Everything a run observes except wall-clock and backend identity.

        Two runs of equal specs — on any execution backend — must produce
        equal views; this is the payload the determinism suite compares.
        """
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "nodes": self.nodes,
            "edges": self.edges,
            "trace_digest": self.trace_digest,
            "phases": [phase.deterministic_view() for phase in self.phases],
            "cache": dict(self.cache),
            "interval": dict(self.interval),
            "totals": self.totals(),
        }

    def to_dict(self) -> Dict[str, object]:
        document = self.deterministic_view()
        document["backend"] = self.backend
        document["backend_workers"] = self.backend_workers
        document["seconds"] = round(self.seconds, 3)
        if self.latency:
            document["latency"] = dict(self.latency)
        if self.latency_by_mode:
            document["latency_by_mode"] = {
                mode: dict(summary) for mode, summary in self.latency_by_mode.items()
            }
        if self.recovery:
            document["recovery"] = dict(self.recovery)
        for phase, rendered in zip(self.phases, document["phases"]):
            rendered["seconds"] = round(phase.seconds, 3)
        return document


class ScenarioDriver:
    """Build the runtime for a spec, replay its trace, measure everything.

    The driver is a context manager (it owns the runtime's worker threads
    under the thread backend)::

        with ScenarioDriver(profiles.smoke()) as driver:
            report = driver.run()

    The materialised churn trace is available as ``driver.trace`` before
    :meth:`run` is called, and the live runtime as ``driver.runtime`` — the
    equivalence harnesses use both to replay one trace onto many runtimes.
    Runtime configuration comes entirely from ``spec.knobs``
    (:class:`~repro.workloads.spec.RuntimeKnobs`), whose fields map onto
    :class:`~repro.engine.runtime.NetTrailsRuntime` constructor knobs — that
    class docstring holds the canonical knob and ``NETTRAILS_*``
    environment-hook table.  The emitted
    :class:`MetricsReport` records backend identity (``backend``,
    ``backend_workers``) for the artifact trail but excludes it from
    :meth:`MetricsReport.deterministic_view`, because every backend must
    reproduce the same counters bit for bit.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.topology = spec.topology.build()
        self._initial_nodes = self.topology.node_count()
        self._initial_edges = self.topology.edge_count()
        self.trace: List[ChurnBatch] = scenario_trace(spec, mirror=self.topology)
        self.runtime = NetTrailsRuntime(
            self._protocol_module().program(),
            copy.deepcopy(self.topology),
            **self.spec.knobs.runtime_kwargs(),
        )
        self._engine = None
        self._symmetric_links = True
        self._mode_latencies: Dict[str, List[float]] = {}
        self.report: Optional[MetricsReport] = None

    def _protocol_module(self):
        from repro.protocols import PROTOCOLS

        if self.spec.protocol not in PROTOCOLS:
            raise EngineError(
                f"unknown protocol {self.spec.protocol!r}; "
                f"known protocols: {sorted(PROTOCOLS)}"
            )
        return PROTOCOLS[self.spec.protocol]

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        self.runtime.close()

    def __enter__(self) -> "ScenarioDriver":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- execution --------------------------------------------------------------

    def _windows(self) -> List[Tuple[str, Tuple[ChurnOp, ...]]]:
        """The trace re-chunked into quiescence windows.

        ``batch_size=None`` keeps the generators' native batches; an integer
        packs exactly that many ops per window (the last window of the run
        may be short).  A window is attributed to the phase of its first op.
        """
        if self.spec.batch_size is None:
            return [(batch.phase, batch.ops) for batch in self.trace if batch.ops]
        flat: List[Tuple[str, ChurnOp]] = [
            (batch.phase, op) for batch in self.trace for op in batch.ops
        ]
        size = self.spec.batch_size
        windows = []
        for start in range(0, len(flat), size):
            chunk = flat[start : start + size]
            windows.append((chunk[0][0], tuple(op for _phase, op in chunk)))
        return windows

    def _phase_metrics(self, phases: Dict[str, PhaseMetrics], name: str) -> PhaseMetrics:
        if name not in phases:
            phases[name] = PhaseMetrics(name=name)
        return phases[name]

    def _snapshot(self) -> Tuple[int, int, int]:
        return (
            self.runtime.message_stats().messages,
            self.runtime.simulator.processed_events,
            self.runtime.simulator.rounds,
        )

    def _issue_wave(self, rng, metrics: PhaseMetrics) -> None:
        mix = self.spec.queries
        rows = self.runtime.state(mix.relation)
        calls = query_wave(rng, mix, rows)
        if not calls:
            return
        if self._engine is None:
            from repro.core.query import DistributedQueryEngine

            self._engine = DistributedQueryEngine(self.runtime)
        # The wave goes out in (mode, options) groups so the interval path
        # can share its per-partition wave messages across a whole group
        # (query_batch); with the interval index off each group degrades to
        # the same one-query-at-a-time issuing as before.  Message/round
        # deltas are measured around each group, which on the batched path
        # is the only non-overcounting attribution.
        groups: Dict[Tuple[str, object], List] = {}
        order: List[Tuple[str, object]] = []
        for call in calls:
            key = (call.mode, call.options)
            if key not in groups:
                order.append(key)
            groups.setdefault(key, []).append(call)
        for key in order:
            group = groups[key]
            mode, options = key
            messages_before = self.runtime.message_stats().messages
            rounds_before = self.runtime.simulator.rounds
            group_started = time.perf_counter()
            results = self._engine.query_batch(
                mix.relation,
                [list(call.values) for call in group],
                mode=mode,
                options=options,
            )
            self._mode_latencies.setdefault(mode, []).append(
                time.perf_counter() - group_started
            )
            metrics.queries += len(results)
            metrics.query_messages += (
                self.runtime.message_stats().messages - messages_before
            )
            metrics.query_rounds += self.runtime.simulator.rounds - rounds_before

    def run(self) -> MetricsReport:
        """Seed, churn, query; returns (and stores) the metrics report."""
        if self.report is not None:
            raise EngineError("ScenarioDriver.run() may only be called once per driver")
        started = time.perf_counter()
        phases: Dict[str, PhaseMetrics] = {}

        seed_metrics = self._phase_metrics(phases, SEED_PHASE)
        before = self._snapshot()
        phase_started = time.perf_counter()
        seeded = self.runtime.seed_links(run=True)
        seed_metrics.seconds += time.perf_counter() - phase_started
        after = self._snapshot()
        seed_metrics.batches += 1
        seed_metrics.ops += seeded
        seed_metrics.deltas += seeded
        seed_metrics.messages += after[0] - before[0]
        seed_metrics.events += after[1] - before[1]
        seed_metrics.rounds += after[2] - before[2]

        query_rng = (
            phase_rng(self.spec.seed, _QUERY_PHASE_KEY) if self.spec.queries else None
        )
        for window_index, (phase_name, ops) in enumerate(self._windows()):
            metrics = self._phase_metrics(phases, phase_name)
            before = self._snapshot()
            phase_started = time.perf_counter()
            for op in ops:
                apply_churn_op(self.runtime, op)
            self.runtime.run_to_quiescence()
            metrics.seconds += time.perf_counter() - phase_started
            after = self._snapshot()
            metrics.batches += 1
            metrics.ops += len(ops)
            metrics.deltas += sum(op.base_deltas(self._symmetric_links) for op in ops)
            metrics.messages += after[0] - before[0]
            metrics.events += after[1] - before[1]
            metrics.rounds += after[2] - before[2]
            if query_rng is not None and (window_index + 1) % self.spec.queries.wave_every == 0:
                phase_started = time.perf_counter()
                self._issue_wave(query_rng, metrics)
                metrics.seconds += time.perf_counter() - phase_started

        self.report = MetricsReport(
            scenario=self.spec.name,
            seed=self.spec.seed,
            backend=self.runtime.backend.name,
            backend_workers=getattr(self.runtime.backend, "workers", 1),
            batch_size=self.spec.batch_size,
            nodes=self._initial_nodes,
            edges=self._initial_edges,
            trace_digest=trace_digest(self.trace),
            phases=list(phases.values()),
            cache=dict(self._engine.cache_totals()) if self._engine is not None else {},
            interval=dict(self._engine.interval_totals()) if self._engine is not None else {},
            latency_by_mode=self._mode_latency_summaries(),
            seconds=time.perf_counter() - started,
        )
        return self.report

    def _mode_latency_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-mode ``latency_summary`` of wave-group wall times (one sample
        per issued ``query_batch`` group, labeled by its query mode)."""
        from repro.durability.service import latency_summary

        return {
            mode: {key: round(value, 6) for key, value in latency_summary(samples).items()}
            for mode, samples in sorted(self._mode_latencies.items())
        }


class _QueryPhaseKey:
    """Stands in for a ChurnPhase in :func:`phase_rng` for the query stream."""

    generator = "queries"
    seed_offset = -1


_QUERY_PHASE_KEY = _QueryPhaseKey()


def run_scenario(spec: ScenarioSpec) -> MetricsReport:
    """One-shot convenience: build a driver, run it, close it, return the report."""
    with ScenarioDriver(spec) as driver:
        return driver.run()
