"""Replay of collected snapshots.

During the demonstration the generated logs are "replayed using the RapidNet
visualizer ... and a provenance visualizer".  :class:`ReplaySession` provides
the programmatic equivalent: it steps through the snapshots of a
:class:`~repro.logstore.store.LogStore` in time order, reports what changed
between consecutive snapshots (tuples appearing / disappearing per relation)
and reconstructs the provenance graph at any step so the visualizer can
render it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LogStoreError
from repro.core.graph import ProvenanceGraph
from repro.logstore.snapshot import Snapshot
from repro.logstore.store import LogStore


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
    """Step through a log store's snapshots, as the demo's replay does."""

    def __init__(self, store: LogStore):
        if len(store) == 0:
            raise LogStoreError("cannot replay an empty log store")
        self._snapshots = store.snapshots()
        self._position = 0

    # -- navigation ------------------------------------------------------------------

    @property
    def position(self) -> int:
        return self._position

    def current(self) -> Snapshot:
        return self._snapshots[self._position]

    def at_end(self) -> bool:
        return self._position >= len(self._snapshots) - 1

    def step(self) -> Optional[SnapshotDiff]:
        """Advance to the next snapshot; return the diff, or None at the end."""
        if self.at_end():
            return None
        before = self.current()
        self._position += 1
        return diff_snapshots(before, self.current())

    def seek_time(self, time: float) -> Snapshot:
        """Jump ("pause the network at a given time") to the snapshot at/before *time*."""
        best = None
        for index, snapshot in enumerate(self._snapshots):
            if snapshot.time <= time:
                best = index
        if best is None:
            raise LogStoreError(f"no snapshot exists at or before time {time}")
        self._position = best
        return self.current()

    def rewind(self) -> Snapshot:
        self._position = 0
        return self.current()

    # -- inspection --------------------------------------------------------------------

    def provenance_graph(self) -> ProvenanceGraph:
        """The provenance graph at the current replay position."""
        return self.current().provenance_graph()

    def all_diffs(self) -> List[SnapshotDiff]:
        """Diffs between every pair of consecutive snapshots."""
        return [
            diff_snapshots(before, after)
            for before, after in zip(self._snapshots, self._snapshots[1:])
        ]
