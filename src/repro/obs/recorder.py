"""Bounded ring-buffer flight recorder for post-mortem event history.

The recorder keeps the last ``capacity`` noteworthy engine events — drains,
checkpoints, cache evictions — so that when
something goes wrong (an engine error, :meth:`ServiceRuntime.crash`), the
recent history is available without having had logging enabled.  Recording
is one bounded-deque append: cheap enough to leave on for every event class
while observability is enabled, and entirely absent when it is not.

Events are ``(seq, monotonic_ts, kind, fields)``; the sequence number is
process-global and survives ring overwrites, so a dump reports exactly how
many events were dropped (the newest retained seq *is* the total recorded).

>>> recorder = FlightRecorder(capacity=2)
>>> recorder.record("drain", node="n1", updates=3)
>>> recorder.record("checkpoint", window=7)
>>> recorder.record("crash", reason="test")
>>> dump = recorder.dump()
>>> (dump["recorded"], dump["dropped"], [e["kind"] for e in dump["events"]])
(3, 1, ['checkpoint', 'crash'])
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

_Event = Tuple[int, float, str, Dict[str, object]]

#: Default ring capacity; large enough to cover several quiescence windows
#: of drain events, small enough that a dump stays readable.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """The last ``capacity`` events, with global sequence numbers."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"flight recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[_Event] = deque(maxlen=capacity)
        self._seq = itertools.count(1)

    def record(self, kind: str, **fields: object) -> None:
        """Append one event; constant-time, overwrites the oldest when full.

        This runs once per node drain on the engine's hot path.
        """
        self._events.append((next(self._seq), time.perf_counter(), kind, fields))

    def _retained(self) -> List[_Event]:
        return list(self._events)

    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """The retained events oldest-first, optionally filtered by kind."""
        retained = self._retained()
        out = []
        for seq, timestamp, event_kind, fields in retained:
            if kind is not None and event_kind != kind:
                continue
            out.append({"seq": seq, "ts": timestamp, "kind": event_kind, **fields})
        return out

    def dump(self) -> Dict[str, object]:
        """The post-mortem payload: retained events plus drop accounting."""
        retained = self._retained()
        recorded = retained[-1][0] if retained else 0
        return {
            "capacity": self.capacity,
            "recorded": recorded,
            "dropped": recorded - len(retained),
            "events": [
                {"seq": seq, "ts": timestamp, "kind": event_kind, **fields}
                for seq, timestamp, event_kind, fields in retained
            ],
        }

    def __len__(self) -> int:
        return len(self._events)
