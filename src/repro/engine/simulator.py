"""Deterministic discrete-event simulator with pluggable execution backends.

The simulator keeps virtual time as a float (seconds) and an event queue of
``(time, sequence, callback)`` entries.  Events scheduled at the same time are
executed in scheduling order, which together with seeded random generators
makes every run of the system fully reproducible.

*How* the events of one virtual instant are executed is delegated to an
:class:`~repro.engine.backends.ExecutionBackend`.  The default
:class:`~repro.engine.backends.SerialBackend` runs them strictly one at a
time (the historical reference behaviour); the concurrent backends run
same-instant events of distinct serialization keys in parallel while
deferring their side effects so the observable outcome stays bit-identical
(see :mod:`repro.engine.backends` for the full scheduling contract).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.engine.backends import ExecutionBackend, SerialBackend


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    #: Serialization key: events sharing a key are executed in sequence order
    #: by one worker; events with distinct keys may run concurrently under a
    #: concurrent backend.  ``None`` marks a barrier event (runs alone).
    key: Optional[object] = field(compare=False, default=None)


class Simulator:
    """A minimal, deterministic discrete-event loop.

    Events scheduled at the same virtual time share a *round* (see
    :attr:`rounds`); the round count is how the benchmarks measure the
    latency of parallel versus sequential provenance-query traversal.

    >>> sim = Simulator()
    >>> sim.schedule(1.0, lambda: None)
    >>> sim.schedule(1.0, lambda: None)   # same instant: same round
    >>> sim.schedule(2.0, lambda: None)
    >>> sim.run()
    3
    >>> (sim.processed_events, sim.rounds, sim.now)
    (3, 2, 2.0)
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None) -> None:
        self._now = 0.0
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._rounds = 0
        self._last_round_time: Optional[float] = None
        self._running = False
        #: Execution strategy for same-instant event waves.
        self.backend: ExecutionBackend = backend if backend is not None else SerialBackend()
        # Per-thread deferred side-effect buffer, active only while a
        # concurrent backend executes an event (see :meth:`defer`).
        self._effects = threading.local()

    # -- inspection -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def rounds(self) -> int:
        """Number of distinct virtual-time instants at which events executed.

        With a uniform link latency every message hop lands on a new instant,
        so this counts the *communication rounds* of the simulated system:
        events that run at the same virtual time (e.g. a parallel query
        fan-out delivering all its requests at once) share a round, whereas
        work serialized behind earlier replies (sequential traversal) pays
        one round per wave.  The paper's "latency versus network traffic"
        trade-off is exactly rounds versus messages.
        """
        return self._rounds

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
        key: Optional[object] = None,
    ) -> None:
        """Schedule *callback* to run ``delay`` seconds from now.

        *key* is the serialization domain of the event (typically the node it
        executes on): a concurrent backend may run same-instant events with
        distinct keys in parallel, while keyless events act as barriers.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        time = self._now + delay
        buffer = self.deferred_buffer()
        if buffer is not None:
            buffer.append(lambda: self._push(time, callback, label, key))
            return
        self._push(time, callback, label, key)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: str = "",
        key: Optional[object] = None,
    ) -> None:
        """Schedule *callback* at absolute virtual time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time}, which is before current time {self._now}"
            )
        buffer = self.deferred_buffer()
        if buffer is not None:
            buffer.append(lambda: self._push(time, callback, label, key))
            return
        self._push(time, callback, label, key)

    def _push(self, time: float, callback: Callable[[], None], label: str, key: Optional[object]) -> None:
        heapq.heappush(self._queue, _ScheduledEvent(time, next(self._sequence), callback, label, key))

    # -- deferred side effects (concurrent backends) ---------------------------

    def deferred_buffer(self) -> Optional[List[Callable[[], None]]]:
        """The calling thread's active side-effect buffer, or ``None``.

        Concurrent backends execute same-instant events of distinct nodes in
        parallel; any side effect that touches shared simulator or network
        state (queue pushes, traffic accounting) must be
        appended to this buffer instead of applied directly, so it can be
        replayed in event-sequence order after the wave — the deterministic
        merge that keeps every backend bit-identical to serial execution.
        ``None`` outside deferred execution (the common, serial case), in
        which case the caller applies the effect directly; callers check
        before building a thunk so the hot path allocates nothing.
        """
        return getattr(self._effects, "buffer", None)

    def _execute_event_deferred(
        self, event: _ScheduledEvent, buffer: List[Callable[[], None]]
    ) -> None:
        """Run one event with side-effect deferral active (backend internal)."""
        self._effects.buffer = buffer
        try:
            event.callback()
        finally:
            self._effects.buffer = None

    def _take_wave(self, limit: Optional[int] = None) -> List[_ScheduledEvent]:
        """Pop every event queued at the earliest time (up to *limit*), in order.

        Advances the clock and the processed/round counters exactly as serial
        single-stepping would; used by concurrent backends.
        """
        wave: List[_ScheduledEvent] = []
        if not self._queue:
            return wave
        wave_time = self._queue[0].time
        while self._queue and self._queue[0].time == wave_time:
            if limit is not None and len(wave) >= limit:
                break
            event = heapq.heappop(self._queue)
            self._now = event.time
            self._processed += 1
            if self._last_round_time is None or event.time != self._last_round_time:
                self._rounds += 1
                self._last_round_time = event.time
            wave.append(event)
        return wave

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event serially; return False when the queue is empty.

        This is the single-event primitive of the serial reference mode (and
        of :class:`~repro.engine.backends.SerialBackend`); it never runs
        anything concurrently, whatever backend is installed.
        """
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self._now = event.time
        self._processed += 1
        if self._last_round_time is None or event.time != self._last_round_time:
            self._rounds += 1
            self._last_round_time = event.time
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* is reached, or *max_events* fire.

        Returns the number of events executed by this call.  Execution is
        delegated wave-by-wave to the installed :attr:`backend`.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self._queue[0].time
                if until is not None and next_time > until:
                    self._now = until
                    break
                budget = None if max_events is None else max_events - executed
                executed += self.backend.execute_wave(self, budget)
        finally:
            self._running = False
        return executed

    def run_to_quiescence(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain; raise if *max_events* is exceeded.

        The cap guards against non-terminating NDlog programs (e.g. a
        cost-accumulating recursion over a cyclic topology written without an
        aggregate or a loop check).
        """
        executed = self.run(max_events=max_events)
        if self._queue:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events; "
                "the installed program may not terminate on this topology"
            )
        return executed
