"""The durable write-ahead log: append-only, length-prefixed, content-hashed.

One WAL file (``wal.log``) per durable directory records the *logical input
history* of a :class:`~repro.engine.runtime.NetTrailsRuntime`: an ``init``
record pinning the program source, topology and runtime knobs, one ``batch``
record per committed quiescence window (the runtime-API-level mutations the
window absorbed), and ``checkpoint`` records marking compactions into the
:mod:`repro.logstore` snapshot format.  Replaying the history through the
deterministic engine reproduces the system — state, provenance tables and
node counters — bit for bit, which is what
:class:`repro.durability.recovery.RecoveryManager` does.

File layout::

    NTWAL1\\n                                  7-byte magic header
    [uint32 len][payload][sha256(payload)]     record 0
    [uint32 len][payload][sha256(payload)]     record 1
    ...

The payload is canonical JSON (``sort_keys``, compact separators) of
``{"seq": n, "type": t, "data": {...}}`` with ``seq`` strictly increasing
from 1.  The length prefix is big-endian; the 32-byte digest makes every
record self-verifying.

Torn-tail rule: :func:`scan` walks records until the first one that cannot
be verified (truncated prefix, truncated body, hash mismatch, non-JSON
payload, out-of-sequence ``seq``) and reports everything before it as the
valid prefix; :func:`repair` truncates the file to that prefix.  Because
:meth:`WriteAheadLog.append` flushes (and, with ``fsync=True``, fsyncs)
before returning, the commit point of a batch is its ``append`` — a crash
mid-append loses at most the record being written, never a committed one.

A crash tears only the tail, so damage with an intact record *after* it is
not a torn tail: it is mid-log damage, and truncating would drop committed
records.  :func:`scan` reports the first such record
(:attr:`ScanResult.stranded_seq`); recovery refuses to truncate over it,
and :func:`repair` stays the explicit salvage path.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import DurabilityError

#: First bytes of every WAL file; a file without it is not ours.
MAGIC = b"NTWAL1\n"

#: The WAL's filename inside a durable directory.
WAL_FILENAME = "wal.log"

#: Record types, in the only order they may first appear.
RECORD_INIT = "init"
RECORD_BATCH = "batch"
RECORD_CHECKPOINT = "checkpoint"
RECORD_TYPES = (RECORD_INIT, RECORD_BATCH, RECORD_CHECKPOINT)

#: Sanity bound on a single record; a length prefix beyond it is treated as
#: tail corruption rather than an instruction to allocate gigabytes.
MAX_RECORD_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_DIGEST_BYTES = 32  # sha256


def wal_path(directory: Union[str, Path]) -> Path:
    """The WAL file inside *directory* (which need not exist yet)."""
    return Path(directory) / WAL_FILENAME


@dataclass(frozen=True)
class WalRecord:
    """One verified record: its sequence number, type, payload and offset."""

    seq: int
    type: str
    data: Dict[str, object]
    offset: int = 0


@dataclass
class ScanResult:
    """What :func:`scan` found: the verified prefix and how the tail looked."""

    records: List[WalRecord]
    valid_bytes: int
    total_bytes: int
    torn: bool
    reason: str = ""
    #: ``seq`` of the first intact record past the damage, when there is
    #: one: the damage is mid-log, not a torn tail.
    stranded_seq: Optional[int] = None


def _encode(seq: int, record_type: str, data: Dict[str, object]) -> bytes:
    try:
        payload = json.dumps(
            {"seq": seq, "type": record_type, "data": data},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise DurabilityError(f"WAL record data is not JSON-serialisable: {exc}") from exc
    return _LENGTH.pack(len(payload)) + payload + hashlib.sha256(payload).digest()


def scan(path: Union[str, Path]) -> ScanResult:
    """Verify *path* record by record; stop at the first unverifiable byte.

    Returns every intact record plus whether (and why) the tail is torn.
    Raises :class:`~repro.errors.DurabilityError` only for files that are
    not WALs at all (missing, or magic header absent) — corruption *within*
    a WAL is a :class:`ScanResult`, not an exception, because the torn-tail
    rule makes it recoverable.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DurabilityError(f"cannot read WAL {path}: {exc}") from exc
    if len(raw) == 0:
        return ScanResult(records=[], valid_bytes=0, total_bytes=0, torn=False)
    if not raw.startswith(MAGIC):
        raise DurabilityError(
            f"{path} is not a NetTrails WAL (magic header {MAGIC!r} missing)"
        )

    records: List[WalRecord] = []
    offset = len(MAGIC)
    expected_seq = 1
    torn, reason = False, ""
    while offset < len(raw):
        if offset + _LENGTH.size > len(raw):
            torn, reason = True, "truncated length prefix"
            break
        (length,) = _LENGTH.unpack_from(raw, offset)
        if length > MAX_RECORD_BYTES:
            torn, reason = True, f"implausible record length {length}"
            break
        end = offset + _LENGTH.size + length + _DIGEST_BYTES
        if end > len(raw):
            torn, reason = True, "truncated record body"
            break
        payload = raw[offset + _LENGTH.size : offset + _LENGTH.size + length]
        digest = raw[end - _DIGEST_BYTES : end]
        if hashlib.sha256(payload).digest() != digest:
            torn, reason = True, "content hash mismatch"
            break
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            torn, reason = True, "payload is not JSON"
            break
        if (
            not isinstance(doc, dict)
            or doc.get("seq") != expected_seq
            or doc.get("type") not in RECORD_TYPES
            or not isinstance(doc.get("data"), dict)
        ):
            torn, reason = True, f"malformed record document at seq {expected_seq}"
            break
        records.append(
            WalRecord(seq=expected_seq, type=doc["type"], data=doc["data"], offset=offset)
        )
        expected_seq += 1
        offset = end
    return ScanResult(
        records=records,
        valid_bytes=offset,
        total_bytes=len(raw),
        torn=torn,
        reason=reason,
        stranded_seq=_first_intact_after(raw, offset, expected_seq - 1) if torn else None,
    )


#: Every payload starts with this: canonical JSON sorts ``data`` first.
_PAYLOAD_PREFIX = b'{"data":'


def _first_intact_after(raw: bytes, offset: int, last_seq: int) -> Optional[int]:
    """The ``seq`` of the first intact record past byte *offset*, if any.

    An intact record is a length prefix, a payload whose sha256 matches the
    digest after it, and a JSON document whose ``seq`` exceeds *last_seq*.
    Candidates are located by their payload prefix, so the search reads the
    damaged region once plus one hash per candidate.
    """
    start = raw.find(_PAYLOAD_PREFIX, offset + _LENGTH.size)
    while start != -1:
        (length,) = _LENGTH.unpack_from(raw, start - _LENGTH.size)
        end = start + length + _DIGEST_BYTES
        if length <= MAX_RECORD_BYTES and end <= len(raw):
            payload = raw[start : start + length]
            if hashlib.sha256(payload).digest() == raw[start + length : end]:
                try:
                    doc = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    doc = None
                seq = doc.get("seq") if isinstance(doc, dict) else None
                if isinstance(seq, int) and seq > last_seq:
                    return seq
        start = raw.find(_PAYLOAD_PREFIX, start + 1)
    return None


def repair(path: Union[str, Path]) -> ScanResult:
    """Apply the torn-tail rule: truncate *path* to its verified prefix.

    Returns the pre-truncation :func:`scan` result, so callers can report
    how many bytes were discarded (``total_bytes - valid_bytes``).  A clean
    file is left untouched.  This is also the salvage path for mid-log
    damage: it truncates even when intact records follow the damage
    (:attr:`ScanResult.stranded_seq`), which recovery refuses to do.
    """
    result = scan(path)
    truncate(path, result)
    return result


def truncate(path: Union[str, Path], result: ScanResult) -> None:
    """Cut *path* back to the verified prefix *result* (a :func:`scan` of it) found."""
    if result.torn:
        with open(path, "r+b") as handle:
            handle.truncate(result.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())


class WriteAheadLog:
    """Appender over one durable directory's WAL file.

    Opening an existing file verifies it end to end and refuses a torn tail
    (run :func:`repair` — or the :class:`~repro.durability.recovery.RecoveryManager`,
    which repairs as its first step — before appending, so corruption is
    never silently built upon).  ``fsync=True`` (the default) fsyncs after
    every append — the real durability barrier; ``fsync=False`` still
    flushes to the OS, trading power-loss safety for speed (the E17 overhead
    benchmark measures exactly this knob).
    """

    def __init__(self, directory: Union[str, Path], fsync: bool = True):
        self.directory = Path(directory)
        self.path = wal_path(directory)
        self.fsync = bool(fsync)
        self.records_appended = 0
        self.fsyncs = 0
        self.bytes_appended = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            result = scan(self.path)
            if result.torn:
                raise DurabilityError(
                    f"WAL {self.path} has a torn tail ({result.reason}); "
                    "repair() or RecoveryManager must run before appending"
                )
            self._next_seq = result.records[-1].seq + 1 if result.records else 1
            self._handle = open(self.path, "ab")
        else:
            self._next_seq = 1
            self._handle = open(self.path, "ab")
            self._handle.write(MAGIC)
            self._sync()

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def _sync(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1

    def append(self, record_type: str, data: Dict[str, object]) -> WalRecord:
        """Append one record and flush it; returns the verified record."""
        if self._handle is None:
            raise DurabilityError(f"WAL {self.path} is closed")
        if record_type not in RECORD_TYPES:
            raise DurabilityError(
                f"unknown WAL record type {record_type!r}; known: {RECORD_TYPES}"
            )
        offset = self._handle.tell()
        blob = _encode(self._next_seq, record_type, data)
        self._handle.write(blob)
        self._sync()
        record = WalRecord(
            seq=self._next_seq, type=record_type, data=dict(data), offset=offset
        )
        self._next_seq += 1
        self.records_appended += 1
        self.bytes_appended += len(blob)
        return record

    def counters(self) -> Dict[str, int]:
        """Plain append/fsync/byte counters (the registry's ``wal.*`` view)."""
        return {
            "records_appended": self.records_appended,
            "fsyncs": self.fsyncs,
            "bytes_appended": self.bytes_appended,
        }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
