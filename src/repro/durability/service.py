"""A long-lived, durable, query-serving wrapper around one runtime.

:class:`ServiceRuntime` is the production shape the ROADMAP's "durable
provenance service mode" calls for: one writer committing churn batches
through the write-ahead log, many concurrent clients issuing provenance
queries, periodic checkpoints compacting the log — and, after a crash,
:meth:`ServiceRuntime.recover` bringing the service back over the same
durable directory.

Threading: a :class:`~repro.engine.runtime.NetTrailsRuntime` and
everything it holds is single-threaded, and this class is the one object
that client threads may share.  Its reentrant lock serialises every entry
point that touches the runtime (commits, queries, state reads, checkpoints,
``close`` and ``crash``), exactly the arbitration a network server front-end
would perform; client-observed latency therefore includes queueing, which
is what the E17 concurrent-client benchmark measures by timing its own
calls.  The service itself keeps counts (commits, queries, checkpoints),
not per-call latencies.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.errors import DurabilityError, EngineError
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.topology import Topology
from repro.durability.recovery import RecoveryManager, RecoveryResult


def _resolve_source(program: str) -> str:
    """Accept NDlog source text or a registered protocol name."""
    if "\n" in program or ":-" in program or "(" in program:
        return program
    from repro.protocols.library import PROTOCOLS

    if program in PROTOCOLS:
        return PROTOCOLS[program].SOURCE
    raise EngineError(
        f"{program!r} is neither NDlog source nor a registered protocol name "
        f"(known protocols: {sorted(PROTOCOLS)})"
    )


def _check_checkpoint_every(checkpoint_every: int) -> None:
    if checkpoint_every < 0:
        raise EngineError(f"checkpoint_every must be >= 0, got {checkpoint_every}")


class ServiceRuntime:
    """Serve queries and commit churn over one (optionally durable) runtime.

    ``program`` is NDlog source text or a registered protocol name (durable
    mode journals the source, so a parsed ``Program`` is deliberately not
    accepted here).  ``checkpoint_every=N`` compacts the WAL after every Nth
    committed batch; ``0`` disables automatic checkpoints.  Every other
    keyword argument is forwarded verbatim to
    :class:`~repro.engine.runtime.NetTrailsRuntime` — its class docstring
    holds the canonical knob table, and ``observability=True`` is the one
    telemetry switch.  The WAL records logical inputs only, so a recovered
    service replays to the same state, and writes the same bytes, whatever
    telemetry it runs with.

    >>> from repro.engine import topology
    >>> with ServiceRuntime("mincost", topology.line(3)) as service:
    ...     _ = service.seed_links()
    ...     bool(service.runtime.state("minCost"))
    True
    """

    def __init__(
        self,
        program: str,
        topology: Topology,
        durable_dir: Optional[Union[str, Path]] = None,
        wal_fsync: bool = True,
        checkpoint_every: int = 0,
        **runtime_kwargs: object,
    ):
        _check_checkpoint_every(checkpoint_every)
        runtime = NetTrailsRuntime(
            _resolve_source(program),
            topology,
            durable_dir=durable_dir,
            wal_fsync=wal_fsync,
            **runtime_kwargs,
        )
        self._start(runtime, checkpoint_every)

    @classmethod
    def recover(
        cls,
        durable_dir: Union[str, Path],
        mode: str = "checkpoint",
        wal_fsync: bool = True,
        checkpoint_every: int = 0,
        **overrides: object,
    ) -> "ServiceRuntime":
        """Bring a crashed service back over its durable directory.

        The recovery result (mode, batches replayed, truncated bytes,
        seconds) is exposed as ``service.last_recovery``.
        """
        _check_checkpoint_every(checkpoint_every)
        result = RecoveryManager(durable_dir).recover(
            mode=mode, attach=True, wal_fsync=wal_fsync, **overrides
        )
        service = cls.__new__(cls)
        service._start(result.runtime, checkpoint_every, last_recovery=result)
        return service

    def _start(
        self,
        runtime: NetTrailsRuntime,
        checkpoint_every: int,
        last_recovery: Optional[RecoveryResult] = None,
    ) -> None:
        """The one initialiser behind both a fresh and a recovered service."""
        self.checkpoint_every = checkpoint_every
        self._lock = threading.RLock()
        self._engine = None
        self._closed = False
        self.commits = 0
        self.queries = 0
        self.checkpoints_taken = 0
        self.last_recovery = last_recovery
        #: Flight-recorder dump captured by :meth:`crash` (post-mortem aid);
        #: ``None`` until a crash happens or while observability is off.
        self.last_flight_record: Optional[Dict[str, object]] = None
        self.runtime = runtime
        self._register_service_view()

    def _register_service_view(self) -> None:
        """Expose the service-level counters on the runtime's metrics registry."""
        obs = self.runtime.obs
        if obs is None:
            return

        def view() -> Dict[str, float]:
            return {
                "commits": float(self.commits),
                "queries": float(self.queries),
                "checkpoints": float(self.checkpoints_taken),
            }

        obs.registry.register_view("service", view)

    # -- lifecycle ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.runtime.durable_dir is not None

    @property
    def committed_batches(self) -> int:
        return self.runtime._committed_batches

    def _require_open(self) -> None:
        if self._closed:
            raise DurabilityError("this ServiceRuntime is closed (or crashed)")

    def close(self) -> None:
        """Clean shutdown: release the WAL handle; idempotent."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self.runtime.close()

    def crash(self) -> None:
        """Crash injection: abandon the runtime *without* any final commit.

        Pending (uncommitted) mutations are lost, exactly as in a process
        kill; everything already appended to the WAL survives.  The WAL
        handle is still released so tests do not leak it.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                obs = self.runtime.obs
                if obs is not None:
                    obs.record_event("crash", batches=self.committed_batches)
                    self.last_flight_record = obs.dump()
                self.runtime._pending_ops = []
                self.runtime.close()

    def __enter__(self) -> "ServiceRuntime":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- write path -----------------------------------------------------------------

    def seed_links(self, **kwargs: object) -> int:
        with self._lock:
            self._require_open()
            kwargs.setdefault("run", True)
            seeded = self.runtime.seed_links(**kwargs)
            self.commits += 1
            self._maybe_checkpoint()
            return seeded

    def commit(self, ops: Sequence[object]) -> Dict[str, object]:
        """Apply one batch of :class:`~repro.workloads.churn.ChurnOp` mutations
        and run the window to quiescence (one WAL ``batch`` record)."""
        from repro.workloads.churn import apply_churn_op

        with self._lock:
            self._require_open()
            started = time.perf_counter()
            obs = self.runtime.obs
            span = previous = None
            if obs is not None:
                span = obs.tracer.start_span("service.commit")
                previous = obs.tracer.set_current(span.context())
            try:
                for op in ops:
                    apply_churn_op(self.runtime, op)
                events = self.runtime.run_to_quiescence()
            finally:
                if span is not None:
                    obs.tracer.set_current(previous)
            if span is not None:
                span.finish(ops=len(ops), events=events)
            elapsed = time.perf_counter() - started
            self.commits += 1
            self._maybe_checkpoint()
            return {
                "ops": len(ops),
                "events": events,
                "batch": self.committed_batches,
                "seconds": elapsed,
            }

    def _maybe_checkpoint(self) -> None:
        if (
            self.durable
            and self.checkpoint_every
            and self.committed_batches > 0
            and self.committed_batches % self.checkpoint_every == 0
        ):
            self.checkpoint()

    def checkpoint(self, label: str = "", keep: int = 3):
        with self._lock:
            self._require_open()
            path = self.runtime.checkpoint(label=label, keep=keep)
            self.checkpoints_taken += 1
            return path

    # -- read path ------------------------------------------------------------------

    def _query_engine(self):
        if self._engine is None:
            from repro.core.query import DistributedQueryEngine

            self._engine = DistributedQueryEngine(self.runtime)
        return self._engine

    def state(self, relation: str):
        with self._lock:
            self._require_open()
            return self.runtime.state(relation)

    def query(self, relation: str, values: Sequence[object], mode: str = "lineage", **kwargs):
        """One provenance query, serialised against commits; counted once answered."""
        with self._lock:
            self._require_open()
            result = self._query_engine().query(relation, list(values), mode=mode, **kwargs)
            self.queries += 1
            return result
