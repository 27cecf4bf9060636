"""Durability subsystem: write-ahead log, crash recovery, service mode.

The paper's provenance engine is meant to run as long-lived infrastructure;
this package gives the reproduction that production shape:

* :mod:`repro.durability.wal` — the append-only, length-prefixed,
  content-hashed write-ahead log journalling every committed quiescence
  window (with the torn-tail scan/truncate rule);
* :mod:`repro.durability.checkpoint` — compaction of the WAL prefix into one
  :class:`~repro.logstore.snapshot.Snapshot` file, plus the state digests
  recovery verifies;
* :mod:`repro.durability.recovery` — :class:`RecoveryManager`: repair the
  tail, rebuild a runtime by genesis replay (bit-identical, node counters
  included) or checkpoint bootstrap + tail replay (state-identical, O(tail)).
  Its rebuild path is also :class:`repro.logstore.ReplaySession`'s, which
  reads the WAL without repairing it and seeks to any committed batch;
* :mod:`repro.durability.service` — :class:`ServiceRuntime`: the durable,
  query-serving wrapper, and the one object client threads may share (its
  lock serialises every call into the single-threaded runtime).

Durable mode is switched on per-runtime via
``NetTrailsRuntime(durable_dir=...)``;
``tests/property/test_property_recovery.py`` is the crash-injection
differential oracle pinning the recovery guarantees.
"""

from repro.durability.checkpoint import (
    base_facts,
    build_topology,
    snapshot_digest,
    state_digest,
    topology_doc,
)
from repro.durability.recovery import (
    RECOVERY_MODES,
    RecoveryManager,
    RecoveryResult,
    replay_op,
)
from repro.durability.service import ServiceRuntime
from repro.durability.wal import (
    MAGIC,
    RECORD_BATCH,
    RECORD_CHECKPOINT,
    RECORD_INIT,
    ScanResult,
    WalRecord,
    WriteAheadLog,
    repair,
    scan,
    wal_path,
)

__all__ = [
    "MAGIC",
    "RECORD_BATCH",
    "RECORD_CHECKPOINT",
    "RECORD_INIT",
    "RECOVERY_MODES",
    "RecoveryManager",
    "RecoveryResult",
    "ScanResult",
    "ServiceRuntime",
    "WalRecord",
    "WriteAheadLog",
    "base_facts",
    "build_topology",
    "repair",
    "replay_op",
    "scan",
    "snapshot_digest",
    "state_digest",
    "topology_doc",
    "wal_path",
]
