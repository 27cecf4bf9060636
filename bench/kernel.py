"""The reference kernel: a fixed pure-Python unit of work used as a speed probe.

This host runs faster and slower in multi-second stretches (see README.md,
"Why raw wall-clock is not the headline").  One *unit* below does about a
millisecond of the engine's own instruction mix — dict and set inserts keyed
by ``(int, str)`` tuples, membership probes and a keyed sort — and the
harness interleaves units with the measured operations.  The ratio of a
unit's time to :data:`REF_UNIT_S` is the host's speed factor at that moment;
every reported timing is divided by the factor of the stretch it was taken in.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

#: Best-of-1000 unit time on the authoring machine (seconds).  A constant of
#: the benchmark, never re-measured at run time: re-measuring it would turn
#: the normalised timings back into relative ones.  The contract fixes
#: BENCHMARK.json's keys, so the constant lives here rather than there.
REF_UNIT_S = 0.0010

#: Share of a stretch's measured time the harness spends in the kernel.
KERNEL_SHARE = 0.05

_KEYS: List[Tuple[int, str]] = [
    ((index * 7919) % 100_003, f"n{index % 97}_{index % 13}") for index in range(3000)
]


def unit() -> float:
    """Run one kernel unit with the collector off; return its wall seconds."""
    keys = _KEYS
    was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    table = {}
    members = set()
    for key in keys:
        table[key] = key[0]
        members.add((key[1], key[0]))
    hits = 0
    for number, name in keys:
        if (name, number) in members:
            hits += 1
    ordered = sorted(table, key=table.__getitem__)
    elapsed = time.perf_counter() - started
    if was_enabled:
        gc.enable()
    if hits != len(keys) or len(ordered) != len(table):
        raise AssertionError("reference kernel computed a wrong result")
    return elapsed


class Pacer:
    """Interleave kernel units with measured work, by deficit.

    After each measured operation the caller reports its duration through
    :meth:`account`; the pacer then runs kernel units until kernel time is
    again :data:`KERNEL_SHARE` of the measured time so far.  One pacer covers
    one stretch (a set-up, or one cycle) and yields that stretch's speed
    factor.
    """

    MIN_UNITS = 3

    def __init__(self) -> None:
        self.measured_s = 0.0
        self.kernel_s = 0.0
        self.units = 0

    def _run_unit(self) -> None:
        self.kernel_s += unit()
        self.units += 1

    def account(self, seconds: float) -> None:
        self.measured_s += seconds
        target = KERNEL_SHARE * self.measured_s
        while self.kernel_s < target:
            self._run_unit()

    @property
    def speed(self) -> float:
        """Mean unit time of this stretch over the reference unit time (>1 = slow host).

        A stretch too short to have earned :attr:`MIN_UNITS` is topped up first.
        """
        while self.units < self.MIN_UNITS:
            self._run_unit()
        return (self.kernel_s / self.units) / REF_UNIT_S

    @property
    def share(self) -> float:
        """Kernel time as a share of the measured time of this stretch."""
        return self.kernel_s / self.measured_s if self.measured_s else 0.0
