"""Replay seeks reproduce the live run at every committed batch.

A :class:`~repro.logstore.ReplaySession` rebuilds position *k* from the
write-ahead log: the newest checkpoint at or before *k*, or genesis, plus
the batches after it.  This harness runs a churn-harness script on a
durable runtime, snapshots the live runtime after every committed batch,
and asserts that seeking to each position gives the live relations,
``state_digest``, virtual time and traffic counters:

* from a fresh session per position,
* from one session seeking backward (each seek a rebuild) and then stepping
  forward (each step one replayed batch),
* with and without a checkpoint taken mid-script, so positions before it
  come from genesis and positions after it from the checkpoint bootstrap.

The session only reads: the WAL's bytes are unchanged afterwards, and
mid-log damage raises :class:`~repro.errors.DurabilityError` and leaves the
file untouched.

Seeding follows the repo convention: fixed seeds plus an optional
``NETTRAILS_CHURN_SEED`` drawn and exported by the CI random-seed leg.
"""

from __future__ import annotations

import copy

import pytest

from churn_harness import SEEDS, TOPOLOGIES, generate_churn_script
from repro.durability import RecoveryManager, scan, state_digest, wal_path
from repro.durability.checkpoint import snapshot_dir
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import DurabilityError
from repro.logstore import ReplaySession, take_snapshot
from repro.logstore.replay import diff_snapshots
from repro.protocols import mincost
from repro.workloads.churn import apply_batch


def record_history(durable_dir, net, script, checkpoint_at=()):
    """Run the seeding and *script* durably; the live snapshot at each position.

    Index *k* of the result is the state after committed batch *k* (index 0
    is genesis, batch 1 the link seeding).  A checkpoint is taken right after
    each batch in *checkpoint_at*.
    """
    with NetTrailsRuntime(
        mincost.SOURCE, copy.deepcopy(net), durable_dir=durable_dir, wal_fsync=False
    ) as runtime:
        live = [take_snapshot(runtime)]

        def committed():
            live.append(take_snapshot(runtime))
            assert runtime._committed_batches == len(live) - 1
            if len(live) - 1 in checkpoint_at:
                runtime.checkpoint()

        runtime.seed_links(run=True)
        committed()
        for batch in script:
            apply_batch(runtime, batch, run=True)
            committed()
    return live


def assert_same_state(seen, expected, where, traffic=True):
    # The run's clock and traffic, also where a checkpoint bootstrap rebuilt
    # the state in fewer messages and less virtual time than the run took.
    assert seen.time == expected.time, where
    if traffic:
        assert seen.traffic == expected.traffic, where
    assert seen.relations() == expected.relations(), where
    for relation in expected.relations():
        assert seen.relation(relation) == expected.relation(relation), f"{where} {relation}"
    assert state_digest(seen) == state_digest(expected), where


@pytest.fixture(params=[None, "mid"], ids=["genesis", "checkpoint-mid"])
def history(request, tmp_path):
    """``(durable_dir, live snapshots, checkpoint batch or None, context)`` for one seeded script."""

    def build(topology_name, seed):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        checkpoint_at = None if request.param is None else 1 + len(script) // 2
        live = record_history(tmp_path, net, script, () if checkpoint_at is None else (checkpoint_at,))
        if checkpoint_at is not None:
            checkpoints = [r for r in scan(wal_path(tmp_path)).records if r.type == "checkpoint"]
            assert [r.data["batch"] for r in checkpoints] == [checkpoint_at]
        context = (
            f"topology={topology_name} seed={seed} checkpoint_at={checkpoint_at} "
            f"(NETTRAILS_CHURN_SEED={seed})"
        )
        return tmp_path, live, checkpoint_at, context

    return build


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
class TestSeekEqualsLive:
    def test_fresh_session_at_every_position(self, history, topology_name, seed):
        durable_dir, live, checkpoint_at, context = history(topology_name, seed)
        wal_bytes = wal_path(durable_dir).read_bytes()
        for position, expected in enumerate(live):
            session = ReplaySession(durable_dir)
            assert_same_state(session.seek(position), expected, f"{context} fresh seek({position})")
            assert session.at_end() == (position == len(live) - 1), context
            bootstrapped = checkpoint_at is not None and position >= checkpoint_at
            assert session._result.mode == ("checkpoint" if bootstrapped else "genesis"), context
        assert wal_path(durable_dir).read_bytes() == wal_bytes, context

    def test_backward_seeks_then_forward_steps(self, history, topology_name, seed):
        durable_dir, live, _, context = history(topology_name, seed)
        wal_bytes = wal_path(durable_dir).read_bytes()
        session = ReplaySession(durable_dir)
        for position in reversed(range(len(live))):
            assert_same_state(session.seek(position), live[position], f"{context} back seek({position})")
        for position in range(1, len(live)):
            diff = session.step()
            assert session.position == position, context
            assert_same_state(session.current(), live[position], f"{context} step to {position}")
            expected = diff_snapshots(live[position - 1], live[position])
            assert (diff.added, diff.removed) == (expected.added, expected.removed), context
        assert session.step() is None, context
        assert wal_path(durable_dir).read_bytes() == wal_bytes, context


@pytest.mark.parametrize("damage", ["torn", "empty", "altered"])
def test_a_damaged_snapshot_file_counts_as_pruned(tmp_path, damage):
    # The file is written unsynced before its record, so a crash can leave
    # it torn; recovery and seeks then keep the bootstrap's traffic, as they
    # do when the file is pruned.
    net = TOPOLOGIES["ring"]()
    script = generate_churn_script(SEEDS[0], net)
    checkpoint_at = 1 + len(script) // 2
    live = record_history(tmp_path, net, script, (checkpoint_at,))
    positions = range(checkpoint_at, len(live))
    path = next(snapshot_dir(tmp_path).glob("ckpt-*.json"))
    raw = path.read_bytes()
    path.write_bytes({
        "torn": raw[: len(raw) // 2],
        "empty": b"",
        "altered": raw.replace(b'"messages": ', b'"messages": 1'),
    }[damage])
    damaged = [ReplaySession(tmp_path).seek(position) for position in positions]
    recovered = RecoveryManager(tmp_path).recover(mode="checkpoint", attach=False)
    assert recovered.mode == "checkpoint"
    assert_same_state(take_snapshot(recovered.runtime), live[-1], f"{damage} recover", traffic=False)
    recovered.runtime.close()
    path.unlink()
    for position, seen in zip(positions, damaged):
        assert_same_state(seen, live[position], f"{damage} seek({position})", traffic=False)
        pruned = ReplaySession(tmp_path).seek(position)
        assert seen.traffic == pruned.traffic, f"{damage} seek({position})"


def test_positions_past_a_pruned_snapshot_file_keep_the_runs_time_and_state(tmp_path):
    net = TOPOLOGIES["ring"]()
    script = generate_churn_script(SEEDS[0], net)
    batches = range(1, len(script) + 2)  # the link seeding, then the script
    live = record_history(tmp_path, net, script, batches)
    kept = {int(path.stem.split("-")[1]) for path in snapshot_dir(tmp_path).glob("ckpt-*.json")}
    assert len(kept) == 3 < len(batches)  # checkpoint() keeps the newest three files
    for position in batches:
        seen = ReplaySession(tmp_path).seek(position)
        assert_same_state(seen, live[position], f"seek({position})", traffic=position in kept)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_mid_log_damage_raises_and_leaves_the_wal_untouched(tmp_path, seed):
    net = TOPOLOGIES["ring"]()
    record_history(tmp_path, net, generate_churn_script(seed, net))
    path = wal_path(tmp_path)
    records = scan(path).records
    raw = bytearray(path.read_bytes())
    raw[records[2].offset + 10] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DurabilityError, match="mid-log"):
        ReplaySession(tmp_path)
    assert path.read_bytes() == bytes(raw), f"seed={seed} (NETTRAILS_CHURN_SEED={seed})"
