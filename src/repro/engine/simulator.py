"""Deterministic discrete-event simulator.

The simulator keeps virtual time as a float (seconds) and a heap of
``(time, sequence, event)`` tuples.  Events scheduled at the same time are
executed in scheduling order, one at a time, which together with seeded
random generators makes every run of the system fully reproducible.  The
heap compares the leading ``(time, sequence)`` pair in C — sequence numbers
are unique, so an event object is never compared — and an event is one
slotted object holding its callback and, for a message delivery, the
callback's one argument, so the hot path allocates no closure per event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: ``_ScheduledEvent.arg`` of an event whose callback takes no argument.
_NO_ARG = object()


class _ScheduledEvent:
    """One queued event: the third member of a ``(time, sequence, event)`` heap entry."""

    __slots__ = ("callback", "arg", "label")

    def __init__(self, callback: Callable, arg: object, label: str) -> None:
        self.callback = callback
        #: The callback's one argument, or ``_NO_ARG`` for a zero-argument call.
        self.arg = arg
        self.label = label

    def run(self) -> None:
        if self.arg is _NO_ARG:
            self.callback()
        else:
            self.callback(self.arg)


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

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, _ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._rounds = 0
        self._last_round_time: Optional[float] = None
        self._running = False

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

        *key* is accepted and ignored: wrappers written against the older
        four-argument signature still pass it positionally.
        """
        self.schedule_call(delay, callback, _NO_ARG, label)

    def schedule_call(
        self, delay: float, callback: Callable[[object], None], arg: object, label: str = ""
    ) -> None:
        """Schedule ``callback(arg)`` to run ``delay`` seconds from now.

        The argument rides on the event, so a caller that would otherwise
        wrap a bound method and its argument in a closure allocates nothing
        but the event — :class:`~repro.engine.network.Network` delivers every
        message this way.  Ordering and rounds are those of :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        self._push(self._now + delay, callback, arg, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> None:
        """Schedule *callback* at absolute virtual time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time}, which is before current time {self._now}"
            )
        self._push(time, callback, _NO_ARG, label)

    def _push(self, time: float, callback: Callable, arg: object, label: str) -> None:
        heapq.heappush(self._queue, (time, next(self._sequence), _ScheduledEvent(callback, arg, label)))

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty.

        The event is popped before it runs, so one that raises leaves every
        later event queued and the next :meth:`run` resumes from there.
        """
        if not self._queue:
            return False
        time, _, event = heapq.heappop(self._queue)
        self._now = time
        self._processed += 1
        if self._last_round_time is None or time != self._last_round_time:
            self._rounds += 1
            self._last_round_time = time
        event.run()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* is reached, or *max_events* fire.

        Returns the number of events executed by this call.  An event that
        raises propagates out of this call with every later event still
        queued.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self._queue[0][0]
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
                executed += 1
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
