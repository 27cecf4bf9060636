"""Unit tests for the write-ahead log: format, verification, torn-tail rule."""

from __future__ import annotations

import pytest

from repro.durability.wal import (
    MAGIC,
    RECORD_BATCH,
    RECORD_INIT,
    WriteAheadLog,
    repair,
    scan,
    wal_path,
)
from repro.errors import DurabilityError


def make_wal(tmp_path, records=3, fsync=False):
    wal = WriteAheadLog(tmp_path, fsync=fsync)
    wal.append(RECORD_INIT, {"source": "r1 a(@X) :- b(@X).", "knobs": {}})
    for index in range(records):
        wal.append(RECORD_BATCH, {"batch": index + 1, "ops": [["insert", "b", [f"n{index}"]]]})
    wal.close()
    return wal_path(tmp_path)


class TestAppendScanRoundTrip:
    def test_records_round_trip(self, tmp_path):
        path = make_wal(tmp_path, records=3)
        result = scan(path)
        assert not result.torn
        assert result.valid_bytes == result.total_bytes
        assert [r.type for r in result.records] == [RECORD_INIT] + [RECORD_BATCH] * 3
        assert [r.seq for r in result.records] == [1, 2, 3, 4]
        assert result.records[2].data == {"batch": 2, "ops": [["insert", "b", ["n1"]]]}

    def test_reopen_continues_sequence(self, tmp_path):
        make_wal(tmp_path, records=2)
        wal = WriteAheadLog(tmp_path, fsync=False)
        assert wal.next_seq == 4
        record = wal.append(RECORD_BATCH, {"batch": 3, "ops": []})
        wal.close()
        assert record.seq == 4
        assert len(scan(wal_path(tmp_path)).records) == 4

    def test_empty_file_scans_clean(self, tmp_path):
        path = wal_path(tmp_path)
        path.write_bytes(b"")
        result = scan(path)
        assert result.records == [] and not result.torn

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DurabilityError, match="cannot read WAL"):
            scan(wal_path(tmp_path))

    def test_foreign_file_raises(self, tmp_path):
        path = wal_path(tmp_path)
        path.write_bytes(b"definitely not a WAL")
        with pytest.raises(DurabilityError, match="magic header"):
            scan(path)

    def test_closed_append_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.close()
        with pytest.raises(DurabilityError, match="closed"):
            wal.append(RECORD_BATCH, {"batch": 1, "ops": []})

    def test_unknown_record_type_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            with pytest.raises(DurabilityError, match="unknown WAL record type"):
                wal.append("bogus", {})

    def test_unserialisable_data_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            with pytest.raises(DurabilityError, match="JSON-serialisable"):
                wal.append(RECORD_BATCH, {"bad": object()})


class TestTornTailRule:
    @pytest.mark.parametrize("cut", [1, 2, 20, 35], ids=lambda c: f"cut{c}")
    def test_truncated_tail_detected_and_repaired(self, tmp_path, cut):
        """Cutting anywhere inside the final record (length prefix, payload
        or digest) loses exactly that record and nothing before it."""
        path = make_wal(tmp_path, records=3)
        clean = scan(path)
        last = clean.records[-1]
        raw = path.read_bytes()
        path.write_bytes(raw[: last.offset + cut])

        result = scan(path)
        assert result.torn and result.reason
        assert [r.seq for r in result.records] == [1, 2, 3]

        repair(path)
        repaired = scan(path)
        assert not repaired.torn
        assert len(repaired.records) == 3
        assert repaired.valid_bytes == repaired.total_bytes == last.offset

    def test_flipped_payload_byte_is_a_hash_mismatch(self, tmp_path):
        path = make_wal(tmp_path, records=2)
        clean = scan(path)
        last = clean.records[-1]
        raw = bytearray(path.read_bytes())
        raw[last.offset + 10] ^= 0xFF
        path.write_bytes(bytes(raw))
        result = scan(path)
        assert result.torn and result.reason == "content hash mismatch"
        assert len(result.records) == len(clean.records) - 1

    def test_garbage_appended_after_clean_records(self, tmp_path):
        path = make_wal(tmp_path, records=2)
        clean_bytes = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 10)
        result = repair(path)
        assert result.torn
        assert result.valid_bytes == clean_bytes
        assert path.stat().st_size == clean_bytes
        assert not scan(path).torn

    def test_append_over_torn_tail_refused(self, tmp_path):
        path = make_wal(tmp_path, records=2)
        with open(path, "ab") as handle:
            handle.write(b"torn")
        with pytest.raises(DurabilityError, match="torn tail"):
            WriteAheadLog(tmp_path, fsync=False)
        repair(path)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.next_seq == 4

    def test_repair_is_noop_on_clean_file(self, tmp_path):
        path = make_wal(tmp_path, records=1)
        before = path.read_bytes()
        result = repair(path)
        assert not result.torn
        assert path.read_bytes() == before


class TestMidLogDamage:
    """Damage with an intact record after it is not a torn tail."""

    @pytest.mark.parametrize("where", [0, 2, 10], ids=lambda w: f"byte{w}")
    def test_intact_record_after_damage_is_reported(self, tmp_path, where):
        path = make_wal(tmp_path, records=5)
        clean = scan(path)
        damaged = clean.records[2]
        raw = bytearray(path.read_bytes())
        raw[damaged.offset + where] ^= 0xFF
        path.write_bytes(bytes(raw))
        result = scan(path)
        assert result.torn and result.valid_bytes == damaged.offset
        assert result.stranded_seq == damaged.seq + 1

    def test_torn_tail_strands_nothing(self, tmp_path):
        path = make_wal(tmp_path, records=3)
        last = scan(path).records[-1]
        raw = bytearray(path.read_bytes())
        raw[last.offset + 10] ^= 0xFF
        path.write_bytes(bytes(raw) + MAGIC)
        result = scan(path)
        assert result.torn and result.stranded_seq is None

    def test_repair_salvages_the_prefix_anyway(self, tmp_path):
        path = make_wal(tmp_path, records=5)
        damaged = scan(path).records[2]
        raw = bytearray(path.read_bytes())
        raw[damaged.offset + 10] ^= 0xFF
        path.write_bytes(bytes(raw))
        result = repair(path)
        assert result.stranded_seq == damaged.seq + 1
        assert path.stat().st_size == damaged.offset
        assert not scan(path).torn


class TestFsyncBarrier:
    def test_fsync_mode_records_survive_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=True)
        wal.append(RECORD_INIT, {"source": "x", "knobs": {}})
        wal.append(RECORD_BATCH, {"batch": 1, "ops": []})
        # No close: the barrier means the bytes are already on disk.
        result = scan(wal_path(tmp_path))
        assert len(result.records) == 2 and not result.torn
        wal.close()

    def test_magic_header_written_first(self, tmp_path):
        WriteAheadLog(tmp_path, fsync=False).close()
        assert wal_path(tmp_path).read_bytes() == MAGIC
