"""Log store: per-node snapshots and replay over the write-ahead log.

The paper (§2.3): *"per-node provenance information and other system state
(such as the network topology and bandwidth utilization) can be periodically
captured as system snapshots at each node, and then propagated to a central
Log Store that resides at the visualization node.  These logs are
subsequently used for interactive visualization, query, and replay."*

This package reproduces that pipeline without the GUI, over one history: a
durable runtime's write-ahead log (:mod:`repro.durability`).  Snapshots
capture per-node relation contents plus the provenance tables; periodic
capture is ``ServiceRuntime(checkpoint_every=N)``, whose checkpoint files
hold one snapshot each; and a :class:`ReplaySession` steps through the
committed batches, rebuilding each position's state from the log and
exposing state diffs and provenance graphs for the visualizer.
"""

from repro.logstore.snapshot import Snapshot, take_snapshot
from repro.logstore.replay import ReplaySession, SnapshotDiff

__all__ = [
    "Snapshot",
    "take_snapshot",
    "ReplaySession",
    "SnapshotDiff",
]
