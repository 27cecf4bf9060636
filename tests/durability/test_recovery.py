"""Unit tests for durable runtimes and the RecoveryManager.

The exhaustive crash-injection matrix lives in
``tests/property/test_property_recovery.py``; this module pins the API
contracts — durable-mode guards, checkpoint compaction, tail-resume after
recovery, and the failure modes that must raise instead of corrupting.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.durability import (
    RecoveryManager,
    base_facts,
    build_topology,
    scan,
    topology_doc,
    wal_path,
)
from repro.durability.wal import RECORD_BATCH, RECORD_CHECKPOINT, RECORD_INIT
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import DurabilityError, EngineError
from repro.logstore import take_snapshot
from repro.protocols import mincost


def durable_runtime(tmp_path, net=None, **kwargs):
    kwargs.setdefault("wal_fsync", False)
    runtime = NetTrailsRuntime(
        mincost.SOURCE, net if net is not None else topology.ring(5),
        durable_dir=tmp_path, **kwargs,
    )
    runtime.seed_links(run=True)
    return runtime


class TestDurableMode:
    def test_init_record_written_on_construction(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        records = scan(wal_path(tmp_path)).records
        assert records[0].type == RECORD_INIT
        assert records[0].data["source"] == mincost.SOURCE
        assert records[0].data["knobs"] == {
            "default_latency": 0.01,
            "link_latency": 0.01,
            "query_cache_capacity": runtime.query_cache_capacity,
        }
        assert records[1].type == RECORD_BATCH
        assert records[1].data["ops"] == [["seed_links", "link", True, True]]
        runtime.close()

    def test_one_batch_record_per_quiescence_window(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        runtime.insert("link", ["n0", "n2", 7.0])
        runtime.insert("link", ["n2", "n0", 7.0])
        runtime.run_to_quiescence()
        runtime.run_to_quiescence()  # no pending ops -> no empty record
        records = scan(wal_path(tmp_path)).records
        batches = [r for r in records if r.type == RECORD_BATCH]
        assert len(batches) == 2
        assert batches[-1].data["ops"] == [
            ["insert", "link", ["n0", "n2", 7.0]],
            ["insert", "link", ["n2", "n0", 7.0]],
        ]
        runtime.close()

    def test_run_with_pending_ops_rejected(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        runtime.remove_link("n0", "n1")
        with pytest.raises(EngineError, match="quiescence windows"):
            runtime.run(0.5)
        runtime.run_to_quiescence()
        runtime.run(0.5)  # fine once committed
        runtime.close()

    def test_durable_dir_with_history_rejected(self, tmp_path):
        durable_runtime(tmp_path).close()
        with pytest.raises(EngineError, match="already holds a WAL"):
            NetTrailsRuntime(mincost.SOURCE, topology.ring(5), durable_dir=tmp_path)

    def test_parsed_program_rejected_in_durable_mode(self, tmp_path):
        with pytest.raises(EngineError, match="source text"):
            NetTrailsRuntime(mincost.program(), topology.ring(5), durable_dir=tmp_path)

    def test_non_durable_runtime_has_no_wal_side_effects(self, tmp_path):
        runtime = NetTrailsRuntime(mincost.SOURCE, topology.ring(5))
        runtime.seed_links(run=True)
        assert runtime.durable_dir is None
        assert not wal_path(tmp_path).exists()
        with pytest.raises(EngineError, match="durable runtime"):
            runtime.checkpoint()
        runtime.close()


class TestCheckpointCompaction:
    def test_checkpoint_writes_snapshot_file_and_record(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        path = runtime.checkpoint(label="after-seed")
        assert path.exists() and path.parent == tmp_path / "snapshots"
        record = scan(wal_path(tmp_path)).records[-1]
        assert record.type == RECORD_CHECKPOINT
        assert record.data["label"] == "after-seed"
        assert record.data["base"]["link"] == sorted(
            base_facts(runtime)["link"], key=repr
        )
        assert record.data["link"] == {
            "relation": "link", "include_cost": True, "symmetric": True,
        }
        runtime.close()

    def test_checkpoint_requires_quiescence(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        runtime.remove_link("n0", "n1")
        with pytest.raises(EngineError, match="uncommitted"):
            runtime.checkpoint()
        runtime.close()

    def test_fact_replaced_by_an_equal_one_of_another_type_is_rewritten(self, tmp_path):
        # 1 == 1.0, but they serialise differently; without provenance no
        # vid tells the two facts apart, so the store's content key must.
        runtime = durable_runtime(tmp_path, provenance=False)
        assert b'["n0", "n1", 1.0]' in runtime.checkpoint().read_bytes()
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        runtime.add_link("n0", "n1", 1)
        runtime.run_to_quiescence()
        path = runtime.checkpoint()
        label = scan(wal_path(tmp_path)).records[-1].data["label"]
        reference = json.dumps([take_snapshot(runtime, label).to_dict()], sort_keys=True)
        assert b'["n0", "n1", 1]' in path.read_bytes()
        assert path.read_bytes() == reference.encode("utf-8")
        runtime.close()

    def test_checkpoint_files_pruned(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        for step in range(5):
            runtime.insert("link", ["n0", "n2", 9.0 + step])
            runtime.run_to_quiescence()
            runtime.checkpoint(keep=2)
        files = sorted((tmp_path / "snapshots").glob("ckpt-*.json"))
        assert len(files) == 2
        runtime.close()


class TestRecoveryManager:
    def test_recovered_runtime_resumes_appending(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        expected_next = runtime._committed_batches + 1
        runtime.close()

        result = RecoveryManager(tmp_path).recover(mode="genesis", wal_fsync=False)
        recovered = result.runtime
        assert recovered.durable_dir == str(tmp_path)
        recovered.add_link("n0", "n1", 1.0)
        recovered.run_to_quiescence()
        tail = scan(wal_path(tmp_path)).records[-1]
        assert tail.type == RECORD_BATCH
        assert tail.data["batch"] == expected_next
        assert tail.data["ops"] == [["add_link", "n0", "n1", 1.0]]
        recovered.close()

        # And the twice-recovered history still replays cleanly.
        second = RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        assert second.batches_replayed == expected_next
        second.runtime.close()

    def test_checkpoint_mode_replays_only_the_tail(
        self, tmp_path, store_snapshots, provenance_fingerprint
    ):
        runtime = durable_runtime(tmp_path)
        runtime.checkpoint()
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        expected = store_snapshots(runtime)
        fingerprint = provenance_fingerprint(runtime)
        runtime.close()

        result = RecoveryManager(tmp_path).recover(mode="checkpoint", attach=False)
        assert result.mode == "checkpoint"
        assert result.checkpoint_batch == 1
        assert result.batches_replayed == 1  # only the post-checkpoint window
        assert result.checkpoints_verified == 1
        assert store_snapshots(result.runtime) == expected
        assert provenance_fingerprint(result.runtime) == fingerprint
        result.runtime.close()

    def test_checkpoint_mode_without_checkpoint_falls_back_to_genesis(self, tmp_path):
        durable_runtime(tmp_path).close()
        result = RecoveryManager(tmp_path).recover(mode="checkpoint", attach=False)
        assert result.mode == "genesis"
        result.runtime.close()

    def test_recovery_metrics_payload(self, tmp_path):
        durable_runtime(tmp_path).close()
        result = RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        metrics = result.recovery_metrics()
        assert metrics["genesis_batches_replayed"] == 1.0
        assert metrics["genesis_truncated_bytes"] == 0.0
        assert metrics["genesis_seconds"] >= 0.0
        assert result.seconds > 0.0
        result.runtime.close()

    def test_unknown_mode_rejected(self, tmp_path):
        durable_runtime(tmp_path).close()
        with pytest.raises(DurabilityError, match="unknown recovery mode"):
            RecoveryManager(tmp_path).recover(mode="bogus")

    def test_missing_wal_rejected(self, tmp_path):
        with pytest.raises(DurabilityError, match="nothing to recover"):
            RecoveryManager(tmp_path)

    def test_wal_with_no_records_rejected(self, tmp_path):
        from repro.durability.wal import WriteAheadLog

        WriteAheadLog(tmp_path, fsync=False).close()
        with pytest.raises(DurabilityError, match="no intact records"):
            RecoveryManager(tmp_path).recover()

    def test_mid_log_damage_raises_instead_of_dropping_batches(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        for step in range(5):
            runtime.insert("link", ["n0", "n2", 9.0 + step])
            runtime.run_to_quiescence()
        runtime.close()
        path = wal_path(tmp_path)
        records = scan(path).records
        assert len(records) == 7
        raw = bytearray(path.read_bytes())
        raw[records[2].offset + 10] ^= 0xFF
        path.write_bytes(bytes(raw))

        with pytest.raises(DurabilityError, match="mid-log"):
            RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        assert path.read_bytes() == bytes(raw)  # nothing truncated

    def test_tampered_checkpoint_digest_fails_verification(self, tmp_path):
        runtime = durable_runtime(tmp_path)
        runtime.checkpoint()
        runtime.close()
        # Rewrite the WAL with a forged state digest (re-hashed, so the
        # record itself verifies — only the *semantic* check can catch it).
        from repro.durability.wal import WriteAheadLog, repair

        records = scan(wal_path(tmp_path)).records
        wal_path(tmp_path).unlink()
        wal = WriteAheadLog(tmp_path, fsync=False)
        for record in records:
            data = dict(record.data)
            if record.type == RECORD_CHECKPOINT:
                data["state_digest"] = "0" * 64
            wal.append(record.type, data)
        wal.close()
        repair(wal_path(tmp_path))
        with pytest.raises(DurabilityError, match="state digest"):
            RecoveryManager(tmp_path).recover(mode="checkpoint", attach=False)
        with pytest.raises(DurabilityError, match="state digest"):
            RecoveryManager(tmp_path).recover(mode="genesis", attach=False)


def rewrite_init_knobs(durable_dir, **extra):
    """Re-write the WAL with *extra* keys added to the init record's knobs."""
    from repro.durability.wal import WriteAheadLog

    records = scan(wal_path(durable_dir)).records
    wal_path(durable_dir).unlink()
    with WriteAheadLog(durable_dir, fsync=False) as wal:
        for record in records:
            data = dict(record.data)
            if record.type == RECORD_INIT:
                data["knobs"] = dict(data["knobs"], **extra)
            wal.append(record.type, data)


#: WALs written with a retired knob at its non-default value, and the
#: sha256 of the store snapshots and provenance fingerprint each run reached.
RETIRED_KNOB_WALS = Path(__file__).parent / "retired_knob_wals"


class TestRecordedKnobs:
    def test_retired_knobs_of_older_wals_are_dropped(
        self, tmp_path, store_snapshots, provenance_fingerprint
    ):
        """WALs written before the store was made single-path and the event
        loop single-threaded record four knobs that no longer exist; genesis
        recovery ignores them, whatever their value, and still reproduces the
        run bit for bit."""
        runtime = durable_runtime(tmp_path)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        expected = (
            store_snapshots(runtime),
            provenance_fingerprint(runtime),
            runtime.provenance.versions(),
            runtime.provenance.vid_versions(),
        )
        runtime.close()
        rewrite_init_knobs(
            tmp_path, num_shards=4, shard_workers=2, columnar=True, batch_commit_stall_s=0.001
        )

        result = RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        recovered = result.runtime
        assert result.batches_replayed == 2
        assert (
            store_snapshots(recovered),
            provenance_fingerprint(recovered),
            recovered.provenance.versions(),
            recovered.provenance.vid_versions(),
        ) == expected
        recovered.close()

    def test_override_replaces_a_recorded_knob(
        self, tmp_path, store_snapshots, provenance_fingerprint
    ):
        """A keyword override wins over the knob the init record holds, and
        one that cannot touch replayed state leaves it bit-identical."""
        runtime = durable_runtime(tmp_path)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        expected = (store_snapshots(runtime), provenance_fingerprint(runtime))
        recorded = runtime.query_cache_capacity
        runtime.close()
        assert scan(wal_path(tmp_path)).records[0].data["knobs"]["query_cache_capacity"] == recorded

        result = RecoveryManager(tmp_path).recover(
            mode="genesis", attach=False, query_cache_capacity=7
        )
        assert result.runtime.query_cache_capacity == 7 != recorded
        assert (store_snapshots(result.runtime), provenance_fingerprint(result.runtime)) == expected
        result.runtime.close()

    def test_unknown_recorded_knob_raises_durability_error(self, tmp_path):
        durable_runtime(tmp_path).close()
        rewrite_init_knobs(tmp_path, warp_factor=9)
        with pytest.raises(DurabilityError, match="warp_factor"):
            RecoveryManager(tmp_path).recover(mode="genesis", attach=False)

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("num_shards", None),
            ("shard_workers", 0),
            ("columnar", False),
            ("batch_commit_stall_s", 0.0),
            ("batch_commit_stall_s", 0.001),
            ("batch_deltas", True),
            ("batch_deltas", False),
            ("aggregate_retract_first", False),
            ("aggregate_retract_first", True),
            ("use_interval_index", False),
            ("use_interval_index", True),
        ],
        ids=[
            "num_shards",
            "shard_workers",
            "columnar",
            "batch_commit_stall_s-0.0",
            "batch_commit_stall_s-0.001",
            "batch_deltas-True",
            "batch_deltas-False",
            "aggregate_retract_first-False",
            "aggregate_retract_first-True",
            "use_interval_index-False",
            "use_interval_index-True",
        ],
    )
    def test_each_retired_knob_is_dropped_alone(
        self, tmp_path, knob, value, store_snapshots, provenance_fingerprint
    ):
        """Older WALs recorded each retired knob at its default too; any one
        of them on its own must be dropped, not reported as unknown."""
        runtime = durable_runtime(tmp_path)
        runtime.insert("link", ["n0", "n2", 7.0])
        runtime.run_to_quiescence()
        expected = (store_snapshots(runtime), provenance_fingerprint(runtime))
        runtime.close()
        rewrite_init_knobs(tmp_path, **{knob: value})

        result = RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        assert (store_snapshots(result.runtime), provenance_fingerprint(result.runtime)) == expected
        result.runtime.close()

    @pytest.mark.parametrize("knob", ["aggregate_retract_first", "batch_deltas", "use_interval_index"])
    def test_wal_written_with_a_retired_knob_recovers_its_run(
        self, tmp_path, knob, store_snapshots, provenance_fingerprint
    ):
        """Each fixture WAL was written by the last version that had *knob*,
        with the knob at its non-default value: MINCOST on a ring with link
        flaps for ``batch_deltas=False``, E10's disconnecting cascade for
        ``aggregate_retract_first=True``, and MINCOST on a ring with one link
        flap and lineage queries between the windows for
        ``use_interval_index=True``.  Genesis recovery drops the knob and
        reaches the state and provenance that run reached."""
        expected = json.loads((RETIRED_KNOB_WALS / "expected.json").read_text())[knob]
        shutil.copy(RETIRED_KNOB_WALS / knob / "wal.log", wal_path(tmp_path))
        assert scan(wal_path(tmp_path)).records[0].data["knobs"][knob] == expected["knobs"][knob]

        result = RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        rendered = repr((store_snapshots(result.runtime), sorted(map(repr, provenance_fingerprint(result.runtime)))))
        assert hashlib.sha256(rendered.encode()).hexdigest() == expected["digest"]
        result.runtime.close()

    def test_checkpoint_recovery_drops_retired_knobs(
        self, tmp_path, store_snapshots, provenance_fingerprint
    ):
        runtime = durable_runtime(tmp_path)
        runtime.checkpoint()
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        expected = (store_snapshots(runtime), provenance_fingerprint(runtime))
        runtime.close()
        rewrite_init_knobs(tmp_path, num_shards=2, shard_workers=0, columnar=False)

        result = RecoveryManager(tmp_path).recover(mode="checkpoint", attach=False)
        assert result.mode == "checkpoint"
        assert result.batches_replayed == 1
        assert (store_snapshots(result.runtime), provenance_fingerprint(result.runtime)) == expected
        result.runtime.close()

    def test_error_names_only_the_unknown_knobs(self, tmp_path):
        durable_runtime(tmp_path).close()
        rewrite_init_knobs(tmp_path, columnar=True, num_shards=4, warp_factor=9, zeta=1)
        with pytest.raises(DurabilityError) as raised:
            RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
        message = str(raised.value)
        assert "['warp_factor', 'zeta']" in message
        assert "columnar" not in message and "num_shards" not in message

    def test_recorded_knobs_are_all_accepted_by_the_runtime(self, tmp_path):
        """What a WAL records today must rebuild a runtime tomorrow: every
        init-record knob names a constructor parameter, none a retired one."""
        import inspect

        from repro.durability.recovery import RETIRED_KNOBS

        durable_runtime(tmp_path).close()
        knobs = scan(wal_path(tmp_path)).records[0].data["knobs"]
        accepted = inspect.signature(NetTrailsRuntime).parameters
        assert knobs and all(name in accepted for name in knobs)
        assert not set(knobs) & set(RETIRED_KNOBS)


class TestTopologyDoc:
    def test_topology_round_trips(self):
        net = topology.isp_hierarchy(2, 2, 1, seed=5)
        rebuilt = build_topology(topology_doc(net))
        assert sorted(rebuilt.nodes) == sorted(net.nodes)
        assert rebuilt.edges == net.edges
        assert rebuilt.name == net.name
