"""Replay seeks reproduce the live run at every committed batch.

A :class:`~repro.logstore.ReplaySession` rebuilds position *k* from the
write-ahead log: the newest checkpoint at or before *k*, or genesis, plus
the batches after it.  This harness runs a churn-harness script on a
durable runtime, snapshots the live runtime after every committed batch,
and asserts that seeking to each position gives the live relations and
``state_digest``:

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
from repro.durability import scan, state_digest, wal_path
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import DurabilityError
from repro.logstore import ReplaySession, take_snapshot
from repro.logstore.replay import diff_snapshots
from repro.protocols import mincost
from repro.workloads.churn import apply_batch


def record_history(durable_dir, net, script, checkpoint_at=None):
    """Run the seeding and *script* durably; the live snapshot at each position.

    Index *k* of the result is the state after committed batch *k* (index 0
    is genesis, batch 1 the link seeding).  ``checkpoint_at=k`` checkpoints
    right after batch *k*.
    """
    with NetTrailsRuntime(
        mincost.SOURCE, copy.deepcopy(net), durable_dir=durable_dir, wal_fsync=False
    ) as runtime:
        live = [take_snapshot(runtime)]

        def committed():
            live.append(take_snapshot(runtime))
            assert runtime._committed_batches == len(live) - 1
            if checkpoint_at == len(live) - 1:
                runtime.checkpoint()

        runtime.seed_links(run=True)
        committed()
        for batch in script:
            apply_batch(runtime, batch, run=True)
            committed()
    return live


def assert_same_state(seen, expected, where):
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
        live = record_history(tmp_path, net, script, checkpoint_at)
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
