"""Crash recovery: torn-tail repair, then snapshot-load + WAL-tail replay.

:class:`RecoveryManager` restores a :class:`~repro.engine.runtime.NetTrailsRuntime`
from a durable directory written by a crashed (or cleanly closed) durable
runtime.  Two modes, two guarantees:

* ``genesis`` — rebuild a fresh runtime from the ``init`` record and replay
  *every* committed batch record through the deterministic engine.  Because
  evaluator firing identifiers and per-VID version counters are functions of
  the logical input history, this reproduces the crashed runtime **bit for
  bit**: store snapshots, provenance tables, per-partition versions, per-VID
  reachability versions and query answers.
* ``checkpoint`` — bootstrap from the newest ``checkpoint`` record's
  embedded base facts + topology (valid by confluence: protocol state and
  provenance tables are a pure function of current base facts), verify the
  recorded state digest, then replay only the WAL tail past the checkpoint.
  State, provenance and answers are bit-identical; version *counters* are
  not (the bootstrap compresses history into one batch), which is the
  documented trade for O(tail) instead of O(history) recovery time.  With no
  checkpoint on record the mode falls back to genesis.

Recovery always repairs the torn tail first (hash-verified scan, truncate at
the first unverifiable byte) and, with ``attach=True``, leaves the recovered
runtime appending to the repaired WAL — crash, recover, keep serving.  Damage
followed by an intact record is not a torn tail, and recovery raises rather
than drop the committed records after it.

:meth:`RecoveryManager.rebuild` and :func:`replay` are the one path from
WAL records to state: recovery runs them to the last record, and
:class:`~repro.logstore.replay.ReplaySession` runs them, read-only, to any
committed batch.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import DurabilityError
from repro.engine.runtime import NetTrailsRuntime
from repro.durability import checkpoint as checkpoint_mod
from repro.durability.wal import (
    RECORD_BATCH,
    RECORD_CHECKPOINT,
    RECORD_INIT,
    ScanResult,
    WalRecord,
    WriteAheadLog,
    scan,
    truncate,
    wal_path,
)

RECOVERY_MODES = ("genesis", "checkpoint")

#: Construction knobs that WALs written by older versions recorded and that
#: no longer exist.  None of them could change replayed state (the
#: determinism contract made every value bit-identical, the emulated commit
#: stall only slept in real time, the per-delta runtime and the
#: retract-first aggregate ordering converge to the batched runtime's state
#: and provenance, and the interval index only answered queries), so
#: recovery drops them whatever their value.
RETIRED_KNOBS = (
    "num_shards",
    "shard_workers",
    "columnar",
    "batch_commit_stall_s",
    "batch_deltas",
    "aggregate_retract_first",
    "use_interval_index",
)


@dataclass
class RecoveryResult:
    """What one recovery did, with the timings E17 reports."""

    runtime: NetTrailsRuntime
    mode: str
    batches_replayed: int = 0
    ops_replayed: int = 0
    records: int = 0
    truncated_bytes: int = 0
    torn: bool = False
    torn_reason: str = ""
    checkpoint_batch: Optional[int] = None
    checkpoints_verified: int = 0
    seconds: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)

    def recovery_metrics(self) -> Dict[str, float]:
        """Seconds and replay counts of this recovery, keyed by mode (``genesis_seconds`` …)."""
        payload: Dict[str, float] = {
            f"{self.mode}_seconds": round(self.seconds, 6),
            f"{self.mode}_batches_replayed": float(self.batches_replayed),
            f"{self.mode}_ops_replayed": float(self.ops_replayed),
            f"{self.mode}_truncated_bytes": float(self.truncated_bytes),
        }
        payload.update(self.metrics)
        return payload


def replay_op(runtime: NetTrailsRuntime, op: List[object]) -> None:
    """Apply one journalled logical op to *runtime* (no simulator run)."""
    kind = op[0]
    if kind == "insert":
        runtime.insert(op[1], op[2])
    elif kind == "delete":
        runtime.delete(op[1], op[2])
    elif kind == "insert_batch":
        runtime.insert_batch(op[1], op[2])
    elif kind == "delete_batch":
        runtime.delete_batch(op[1], op[2])
    elif kind == "add_link":
        runtime.add_link(op[1], op[2], op[3])
    elif kind == "remove_link":
        runtime.remove_link(op[1], op[2])
    elif kind == "seed_links":
        runtime.seed_links(relation=op[1], include_cost=op[2], symmetric=op[3])
    else:
        raise DurabilityError(f"unknown journalled op kind {kind!r}")


class RecoveryManager:
    """Restore a runtime from a durable directory's WAL (repairing its tail)."""

    def __init__(self, durable_dir: Union[str, Path]):
        self.durable_dir = Path(durable_dir)
        if not self.durable_dir.is_dir():
            raise DurabilityError(f"durable_dir {durable_dir!r} is not a directory")
        self.path = wal_path(self.durable_dir)
        if not self.path.exists():
            raise DurabilityError(f"no WAL at {self.path}; nothing to recover")

    # -- entry point ----------------------------------------------------------------

    def recover(
        self,
        mode: str = "genesis",
        verify: bool = True,
        attach: bool = True,
        wal_fsync: bool = True,
        **overrides: object,
    ) -> RecoveryResult:
        """Repair the WAL tail, rebuild a runtime, replay, optionally re-attach.

        ``verify=True`` checks the recorded state digest at every checkpoint
        crossed; ``attach=True`` leaves the runtime journalling to the
        repaired WAL (``wal_fsync`` sets its barrier mode).  Keyword
        *overrides* replace recorded construction knobs (e.g.
        ``query_cache_capacity=``, or ``observability=``, which is never
        recorded); state equality across such overrides is exactly the
        engine's determinism contract.  A WAL damaged mid-log (an intact
        record after the first bad byte) raises
        :class:`~repro.errors.DurabilityError` and is left untouched.
        """
        if mode not in RECOVERY_MODES:
            raise DurabilityError(
                f"unknown recovery mode {mode!r}; choose one of {RECOVERY_MODES}"
            )
        started = time.perf_counter()
        scan_result = self.read()
        truncate(self.path, scan_result)
        records = scan_result.records
        result = self.rebuild(records, len(records), mode, verify, **overrides)
        result.records = len(records)
        result.torn = scan_result.torn
        result.torn_reason = scan_result.reason
        result.truncated_bytes = scan_result.total_bytes - scan_result.valid_bytes
        if attach:
            last_batch = max(
                (r.data["batch"] for r in records if r.type == RECORD_BATCH), default=0
            )
            wal = WriteAheadLog(self.durable_dir, fsync=wal_fsync)
            result.runtime._attach_wal(wal, str(self.durable_dir), last_batch)
        result.seconds = time.perf_counter() - started
        return result

    # -- the one rebuild path ---------------------------------------------------------

    def read(self) -> ScanResult:
        """Scan the WAL without writing to it.

        A torn tail is read up to its valid prefix.  Mid-log damage, a WAL
        with no intact record and one not opening with an ``init`` record
        raise :class:`~repro.errors.DurabilityError`.
        """
        scan_result = scan(self.path)
        if scan_result.stranded_seq is not None:
            raise DurabilityError(
                f"WAL {self.path} is damaged mid-log ({scan_result.reason} at byte "
                f"{scan_result.valid_bytes}) and intact record seq "
                f"{scan_result.stranded_seq} follows; truncating would drop "
                "committed batches — repair() salvages the prefix explicitly"
            )
        records = scan_result.records
        if not records:
            raise DurabilityError(
                f"WAL {self.path} holds no intact records; nothing to recover"
            )
        if records[0].type != RECORD_INIT:
            raise DurabilityError(
                f"WAL {self.path} does not start with an init record "
                f"(found {records[0].type!r})"
            )
        return scan_result

    def rebuild(
        self,
        records: List[WalRecord],
        stop: int,
        mode: str,
        verify: bool,
        **overrides: object,
    ) -> RecoveryResult:
        """A fresh runtime in the state ``records[:stop]`` describes.

        In ``checkpoint`` mode the runtime is bootstrapped from the newest
        checkpoint record before *stop* (digest-verified with *verify*) and
        replays the records after it; otherwise, or with no such checkpoint,
        it starts at genesis and replays every record before *stop*.
        """
        init = records[0].data
        start = 0
        if mode == "checkpoint":
            start = max(
                (i for i in range(stop) if records[i].type == RECORD_CHECKPOINT), default=0
            )
        if start == 0:
            runtime = self._build_runtime(init, init["topology"], **overrides)
            result = RecoveryResult(runtime=runtime, mode="genesis")
        else:
            data = records[start].data
            runtime = self._build_runtime(init, data["topology"], **overrides)
            result = RecoveryResult(
                runtime=runtime, mode="checkpoint", checkpoint_batch=int(data["batch"])
            )
            link = data.get("link")
            if link:
                runtime._link_relation = str(link["relation"])
                runtime._link_include_cost = bool(link["include_cost"])
                runtime._link_symmetric = bool(link["symmetric"])
            for relation, rows in sorted(dict(data["base"]).items()):
                runtime.insert_batch(relation, rows)
            runtime.run_to_quiescence()
            if verify:
                _verify_checkpoint(runtime, data, result)
        replay(result, records[start + 1 : stop], verify)
        return result

    def _build_runtime(
        self, init: Dict[str, object], topology_doc, **overrides: object
    ) -> NetTrailsRuntime:
        kwargs: Dict[str, object] = {
            name: value
            for name, value in dict(init["knobs"]).items()
            if name not in RETIRED_KNOBS
        }
        accepted = inspect.signature(NetTrailsRuntime).parameters
        unknown = sorted(name for name in kwargs if name not in accepted)
        if unknown:
            raise DurabilityError(
                f"WAL {self.path} records construction knobs this runtime does "
                f"not accept: {unknown}"
            )
        kwargs.update(overrides)
        return NetTrailsRuntime(
            str(init["source"]),
            checkpoint_mod.build_topology(topology_doc),
            program_name=str(init.get("program_name", "program")),
            **kwargs,
        )


def replay(result: RecoveryResult, records: List[WalRecord], verify: bool) -> None:
    """Replay *records* on ``result.runtime``: apply each batch, verify each checkpoint."""
    runtime = result.runtime
    for record in records:
        if record.type == RECORD_BATCH:
            for op in record.data["ops"]:
                replay_op(runtime, op)
            runtime.run_to_quiescence()
            result.batches_replayed += 1
            result.ops_replayed += len(record.data["ops"])
        elif record.type == RECORD_CHECKPOINT and verify:
            _verify_checkpoint(runtime, record.data, result)


def _verify_checkpoint(
    runtime: NetTrailsRuntime, data: Dict[str, object], result: RecoveryResult
) -> None:
    """Raise unless *runtime*'s state digest is the one checkpoint *data* records."""
    from repro.logstore.snapshot import take_snapshot

    digest = checkpoint_mod.state_digest(take_snapshot(runtime, label=str(data["label"])))
    if digest != data["state_digest"]:
        raise DurabilityError(
            f"replay diverged at checkpoint batch {data['batch']}: state digest "
            f"{digest} != recorded {data['state_digest']}"
        )
    result.checkpoints_verified += 1
