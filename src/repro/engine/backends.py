"""Pluggable execution backends for the discrete-event simulator.

The deterministic :class:`~repro.engine.simulator.Simulator` owns the clock
and the event queue; *how* the events of one virtual instant are executed is
delegated to an :class:`ExecutionBackend`:

* :class:`SerialBackend` — the reference mode (and the default): events run
  one at a time in ``(time, sequence)`` order, exactly as the seed simulator
  always has.
* :class:`ThreadPoolBackend` — same-instant events whose serialization keys
  differ (in practice: drains and deliveries of *distinct* nodes) run
  concurrently on a thread pool.

Scheduling contract
-------------------

1. The simulator pops one **wave** — every queued event sharing the earliest
   virtual time — in sequence order.
2. Each event carries an optional **serialization key** (see the ``key=``
   parameter of :meth:`Simulator.schedule`).  Events with the same key are
   executed in sequence order by a single worker; events with *different*
   keys may execute concurrently.  Node drains are keyed by the draining
   node and message deliveries by the receiving node, so each node's store,
   evaluator and provenance partition stay single-writer.
3. An event **without** a key is a barrier: everything scheduled before it
   finishes first, then the event runs alone, then the rest of the wave
   proceeds.  (Log-store snapshot captures, which read every node, use
   this.)
4. While a keyed event executes concurrently, its outward side effects —
   ``Simulator.schedule`` calls and ``Network.send`` dispatches — are not
   applied immediately: they are appended to a per-event effect buffer (a
   thread-confined queue, so no locks are needed on the hot path) and
   **merged after the wave in event-sequence order** on the coordinating
   thread.

Because in serial execution an event's side effects all land before the next
event's (and same-instant events never observe one another's queue pushes),
the deferred merge reproduces the serial heap contents, sequence numbering,
message ordering and traffic statistics *bit for bit*.  The thread backend
is therefore indistinguishable from :class:`SerialBackend` on store
snapshots, provenance tables, message/event counts and query answers — the
equivalence suite (``tests/property/test_property_backends.py``) pins this.

Failure contract
----------------

An event that raises under :class:`SerialBackend` stops the run with every
later event still queued, so resuming is well defined.  A thread wave cannot
offer that: the wave was popped whole and the other nodes' events have run.
The thread backend therefore waits for every group of the failing wave,
raises the exception of the lowest-sequence failing event (the one serial
execution raises) and marks the simulator
:attr:`~repro.engine.simulator.Simulator.broken`; every later
:meth:`Simulator.run` on that simulator raises
:class:`~repro.errors.EngineError`.  The flag lives on the simulator, not the
backend, because the undefined state is the simulator's and its nodes': the
same backend instance serves a rebuilt runtime normally.

Backend selection is uniform across the API surface: pass ``backend=`` /
``backend_workers=`` to :class:`~repro.engine.runtime.NetTrailsRuntime`, or
set the ``NETTRAILS_BACKEND`` environment variable (``serial`` | ``thread``)
to change the default process-wide — the CI property matrix runs the whole
suite under each value.  The companion ``NETTRAILS_BACKEND_WORKERS``
variable supplies the default worker count the same way
(:func:`default_backend_workers`); an explicit ``backend_workers=`` argument
always wins.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator imports us)
    from repro.engine.simulator import Simulator, _ScheduledEvent


#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "NETTRAILS_BACKEND"

#: Environment variable supplying the default worker count (parity with
#: ``backend_workers=``); unset/empty means each backend's built-in default.
BACKEND_WORKERS_ENV_VAR = "NETTRAILS_BACKEND_WORKERS"


def default_worker_count() -> int:
    """The thread backend's built-in worker-pool size."""
    return min(8, os.cpu_count() or 2)


def default_backend_workers() -> Optional[int]:
    """``NETTRAILS_BACKEND_WORKERS`` as an int, or ``None`` when unset.

    Same contract as every other ``NETTRAILS_*`` hook: unset or empty means
    the default (here: ``None``, i.e. the backend's own default worker
    count), a well-formed value applies, and a malformed one — not an
    integer, or < 1 — raises :class:`~repro.errors.EngineError` loudly at
    construction time rather than being silently ignored.
    """
    raw = os.environ.get(BACKEND_WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise EngineError(
            f"{BACKEND_WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
        )
    if workers < 1:
        raise EngineError(f"{BACKEND_WORKERS_ENV_VAR} must be >= 1, got {workers}")
    return workers


class ExecutionBackend:
    """Strategy for executing the events of one virtual-time wave."""

    #: Short name used by :func:`resolve_backend` and ``NETTRAILS_BACKEND``.
    name = "abstract"

    #: The runtime's observability bundle (``None`` while the knob is off);
    #: bound by :meth:`attach`.  Purely observational — nothing here may
    #: influence event ordering or the deferred side-effect merge.
    _obs = None

    def execute_wave(self, simulator: "Simulator", limit: Optional[int] = None) -> int:
        """Execute (up to *limit* of) the events at the earliest queued time.

        Returns the number of events executed.  Implementations must preserve
        the serial observable semantics described in the module docstring.
        """
        raise NotImplementedError

    def attach(self, obs) -> None:
        """Adopt the runtime's observability bundle and pre-resolve the wave
        instruments (``obs`` is ``None`` while observability is off)."""
        self._obs = obs
        if obs is not None:
            self._m_waves = obs.registry.counter(
                "wave.waves", "Same-instant event waves executed"
            )
            self._m_wave_events = obs.registry.counter(
                "wave.events", "Events executed across all waves"
            )
            self._m_wave_groups = obs.registry.histogram(
                "wave.occupancy",
                "Concurrent serialization-key groups per multi-group wave segment",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            )

    def close(self) -> None:
        """Release worker threads; idempotent."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """The deterministic reference mode: one event at a time, in order."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None):
        # ``workers`` is accepted (and ignored) so every backend shares one
        # constructor signature; serial execution has nothing to fan out.
        self.workers = 1

    def execute_wave(self, simulator: "Simulator", limit: Optional[int] = None) -> int:
        return 1 if simulator.step() else 0


#: One key group's outcome: ``(sequence, effect buffer)`` per finished
#: event, then ``(sequence, exception)`` of the event that raised, if any.
_GroupResult = Tuple[
    List[Tuple[int, List[Callable[[], None]]]], Optional[Tuple[int, Exception]]
]


class ThreadPoolBackend(ExecutionBackend):
    """Drain independent nodes' same-instant events on a thread pool.

    The pool is created lazily (a run that never produces a multi-key wave
    never spawns a thread) and released by :meth:`close` — reached through
    ``NetTrailsRuntime.close()`` or the runtime's context manager.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise EngineError(f"{type(self).__name__} needs >= 1 worker, got {workers}")
        self.workers = workers or default_worker_count()
        self._pool = None

    def execute_wave(self, simulator: "Simulator", limit: Optional[int] = None) -> int:
        wave = simulator._take_wave(limit)
        if self._obs is not None and wave:
            self._m_waves.inc()
            self._m_wave_events.inc(len(wave))
        try:
            index = 0
            while index < len(wave):
                if wave[index].key is None:
                    # Barrier event: may touch global state (e.g. snapshot
                    # every node), so it runs alone between concurrent
                    # segments.
                    wave[index].run()
                    index += 1
                    continue
                end = index
                while end < len(wave) and wave[end].key is not None:
                    end += 1
                self._execute_segment(simulator, wave[index:end])
                index = end
        except BaseException as exc:
            # The wave was popped whole, so the events after the failing one
            # are gone from the queue (and, in a concurrent segment, other
            # nodes' events already ran): no later run can reproduce serial.
            simulator.broken = (
                f"a {self.name}-backend wave at t={simulator.now} raised "
                f"{type(exc).__name__}: {exc}; node state is undefined; rebuild "
                "the runtime, durable mode replays the WAL"
            )
            raise
        return len(wave)

    def _execute_segment(self, simulator: "Simulator", events: Sequence["_ScheduledEvent"]) -> None:
        groups: Dict[object, List["_ScheduledEvent"]] = {}
        for event in events:
            groups.setdefault(event.key, []).append(event)
        if self._obs is not None and len(groups) > 1:
            self._m_wave_groups.observe(len(groups))
        if len(groups) == 1:
            # One serialization domain (e.g. a single-node topology): running
            # inline *is* the serial order, no deferral machinery needed.
            for event in events:
                event.run()
            return

        def run_group(group: List["_ScheduledEvent"]) -> _GroupResult:
            finished = []
            for event in group:
                buffer: List[Callable[[], None]] = []
                try:
                    simulator._execute_event_deferred(event, buffer)
                except Exception as exc:
                    return finished, (event.sequence, exc)
                finished.append((event.sequence, buffer))
            return finished, None

        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="nettrails-wave"
            )
        # run_group returns what its events raise, so map() returns only once
        # every group has finished: no worker thread is still mutating a node
        # when we return.
        results = list(self._pool.map(run_group, list(groups.values())))
        failures = [failure for _, failure in results if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        # The deterministic merge: flush every deferred side effect (schedule
        # calls, network sends) in the order the events were *popped*, which
        # is the order serial execution would have applied them in.
        pending = [pair for finished, _ in results for pair in finished]
        pending.sort(key=lambda pair: pair[0])
        for _, buffer in pending:
            for thunk in buffer:
                thunk()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


#: Registry used by :func:`resolve_backend` and the ``NETTRAILS_BACKEND`` hook.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
}

BackendSpec = Union[None, str, ExecutionBackend]


def default_backend_name() -> str:
    """The backend name used when none is requested: ``NETTRAILS_BACKEND`` or serial."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or SerialBackend.name


def resolve_backend(spec: BackendSpec = None, workers: Optional[int] = None) -> ExecutionBackend:
    """Turn a backend specification into an :class:`ExecutionBackend` instance.

    *spec* may be an instance (returned as-is; *workers* must then be unset),
    a registered name (``"serial"``, ``"thread"``), or ``None`` — which
    consults the ``NETTRAILS_BACKEND`` environment variable and falls back
    to serial; any other name raises :class:`~repro.errors.EngineError`.
    ``workers`` bounds the thread backend's pool; when ``None`` the
    ``NETTRAILS_BACKEND_WORKERS`` variable is consulted and the built-in
    default (``min(8, cpu_count)``) applies last.  The serial backend
    ignores it, and an already-constructed instance is returned untouched
    (its own configuration wins over the environment).
    """
    if isinstance(spec, ExecutionBackend):
        if workers is not None:
            raise EngineError(
                "backend_workers cannot be combined with an already-constructed "
                f"backend instance ({spec!r}); configure the instance instead"
            )
        return spec
    if workers is None:
        workers = default_backend_workers()
    name = spec if spec is not None else default_backend_name()
    if name not in BACKENDS:
        raise EngineError(
            f"unknown execution backend {name!r}; known backends: {sorted(BACKENDS)}"
        )
    return BACKENDS[name](workers=workers)
