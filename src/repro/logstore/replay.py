"""Replay of a run's committed history.

During the demonstration the generated logs are "replayed using the RapidNet
visualizer ... and a provenance visualizer".  :class:`ReplaySession` provides
the programmatic equivalent over a durable directory's write-ahead log: a
position is a committed batch, its state is rebuilt by the recovery code,
and the session reports what changed between consecutive positions (tuples
appearing / disappearing per relation) and the provenance graph at any
position so the visualizer can render it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.errors import DurabilityError
from repro.core.graph import ProvenanceGraph
from repro.durability.recovery import RecoveryManager, RecoveryResult, replay
from repro.durability.wal import RECORD_BATCH
from repro.logstore.snapshot import Snapshot, take_snapshot


@dataclass
class SnapshotDiff:
    """The state change between two consecutive snapshots."""

    from_time: float
    to_time: float
    added: Dict[str, List[Tuple[object, ...]]] = field(default_factory=dict)
    removed: Dict[str, List[Tuple[object, ...]]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def added_count(self) -> int:
        return sum(len(rows) for rows in self.added.values())

    def removed_count(self) -> int:
        return sum(len(rows) for rows in self.removed.values())

    def summary(self) -> str:
        parts = [f"{self.from_time:.2f}s -> {self.to_time:.2f}s:"]
        for relation in sorted(set(self.added) | set(self.removed)):
            plus = len(self.added.get(relation, []))
            minus = len(self.removed.get(relation, []))
            parts.append(f"  {relation}: +{plus} / -{minus}")
        if self.is_empty:
            parts.append("  (no change)")
        return "\n".join(parts)


def diff_snapshots(before: Snapshot, after: Snapshot) -> SnapshotDiff:
    """Compute which tuples appeared and disappeared between two snapshots."""
    diff = SnapshotDiff(from_time=before.time, to_time=after.time)
    relations = set(before.relations()) | set(after.relations())
    for relation in sorted(relations):
        old_rows: Set[Tuple[object, ...]] = set(before.relation(relation))
        new_rows: Set[Tuple[object, ...]] = set(after.relation(relation))
        added = sorted(new_rows - old_rows, key=repr)
        removed = sorted(old_rows - new_rows, key=repr)
        if added:
            diff.added[relation] = added
        if removed:
            diff.removed[relation] = removed
    return diff


class ReplaySession:
    """Step through the committed batches of a durable directory, as the demo's replay does.

    Position *k* (0 … N) is the state after committed batch *k*; position 0
    is genesis.  A position's state is the newest checkpoint at or before it,
    digest-verified, plus the batches after that checkpoint
    (:meth:`~repro.durability.recovery.RecoveryManager.rebuild`).  The
    first seek and every backward seek rebuild; a step, or a forward seek,
    replays the batches in between on the runtime the session holds.  A
    position rebuilt from a checkpoint whose snapshot file was pruned or is
    damaged has the bootstrap's traffic counters.  The WAL is only read: a
    torn tail is read up to its valid prefix, and mid-log damage raises
    :class:`~repro.errors.DurabilityError`.
    """

    def __init__(self, durable_dir: Union[str, Path]):
        self._manager = RecoveryManager(durable_dir)
        self._records = self._manager.read().records
        #: Position k's state is what ``_records[:_stops[k]]`` describes:
        #: every record before batch k + 1's.
        self._stops = [
            index for index, record in enumerate(self._records) if record.type == RECORD_BATCH
        ] + [len(self._records)]
        #: The runtime in the state of ``_position``, built by the first seek.
        self._result: Optional[RecoveryResult] = None
        self._position = 0
        self._snapshot: Optional[Snapshot] = None

    # -- navigation ------------------------------------------------------------------

    @property
    def position(self) -> int:
        return self._position

    def current(self) -> Snapshot:
        if self._snapshot is None:
            return self.seek(self._position)
        return self._snapshot

    def at_end(self) -> bool:
        return self._position == len(self._stops) - 1

    def seek(self, position: int) -> Snapshot:
        """Jump to the state after committed batch *position* and return its snapshot."""
        if not 0 <= position < len(self._stops):
            raise DurabilityError(
                f"no replay position {position}: the WAL holds positions 0 to {len(self._stops) - 1}"
            )
        stop = self._stops[position]
        if self._result is None or position < self._position:
            self._result = self._manager.rebuild(self._records, stop, "checkpoint")
        else:
            replay(self._result, self._records[self._stops[self._position] : stop])
        self._position = position
        self._snapshot = take_snapshot(self._result.runtime)
        return self._snapshot

    def step(self) -> Optional[SnapshotDiff]:
        """Advance one committed batch; return the diff, or None at the end."""
        if self.at_end():
            return None
        before = self.current()
        return diff_snapshots(before, self.seek(self._position + 1))

    # -- inspection --------------------------------------------------------------------

    def provenance_graph(self) -> ProvenanceGraph:
        """The provenance graph at the current replay position."""
        return self.current().provenance_graph()
