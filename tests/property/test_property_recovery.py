"""Crash-injection recovery oracle: every kill point, bit-identical recovery.

The durability layer (:mod:`repro.durability`) promises that a runtime
killed at *any* moment — between committed quiescence windows or mid-WAL
append — recovers to exactly the state its surviving WAL prefix describes.
This harness turns that promise into a differential oracle:

1. Run a durable runtime through a seeded churn script once, recording after
   every committed batch the WAL's byte length plus the full expected state
   of an uncrashed twin: per-node store snapshots, provenance fingerprints,
   per-node statistics and distributed lineage/participants answers.
2. For every kill point ``k``, materialise the crash by copying the durable
   directory with the WAL truncated to the recorded length — byte-identical
   to a process kill right after batch ``k``'s commit barrier (the WAL is
   flushed at append time, *before* the simulator drains the window, so a
   record boundary is exactly a commit point).
3. Torn-tail variants cut mid-record or flip payload bytes inside the next
   record, modelling a kill mid-``write(2)``; recovery must repair the tail
   and come back as the longest intact prefix — batch ``k`` again.
4. Recover (genesis replay and, where checkpoints exist, checkpoint
   bootstrap + tail replay) and assert every recorded expectation matches.
5. With a checkpoint after every window (so every checkpoint but the first
   reuses cached partition fragments), also kill *inside* each checkpoint:
   after its snapshot file is written, before its ``checkpoint`` record is
   appended.  Recovery must ignore the orphaned file and bootstrap from the
   previous checkpoint, or from genesis when there is none.

Genesis recovery replays the full logical history, so it must reproduce
even history-dependent counters (each node's ``NodeStats``) bit-identically.
Checkpoint recovery bootstraps from base facts, which by the engine's
confluence contract reproduces state, provenance and answers but *not*
those counters — the documented weaker guarantee (see
docs/architecture.md, "Durability & recovery").  A recovered runtime, like
a fresh one, keeps no per-VID reachability versions until one is handed
out, so every recovery is checked for cached answers equal to uncached ones.

Seeding matches the other property harnesses: fixed ``SEEDS`` plus an
optional ``NETTRAILS_CHURN_SEED`` from the environment (the CI
property-recovery job's random leg draws one, prints it, and exports it);
the seed appears in every parametrize id and assertion message.
"""

from __future__ import annotations

import copy
import os
import random
import shutil

import pytest

from churn_harness import assert_cached_equals_uncached, lineage_answers
from repro.durability import RecoveryManager, wal_path
from repro.durability.wal import RECORD_CHECKPOINT
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost
from repro.workloads.churn import ChurnBatch, apply_batch, random_link_churn


def _seeds():
    seeds = [3, 11]
    override = os.environ.get("NETTRAILS_CHURN_SEED")
    if override is not None:
        seeds.append(int(override))
    return sorted(set(seeds))


SEEDS = _seeds()

TOPOLOGIES = {
    "star": lambda: topology.star(6),
    "ring": lambda: topology.ring(6),
}


def generate_churn_script(seed, net, steps=5):
    mirror = copy.deepcopy(net)
    rng = random.Random(seed)
    return [
        ChurnBatch(index=index, phase="random_link_churn", ops=ops)
        for index, ops in enumerate(random_link_churn(mirror, rng, steps))
    ]


def expected_state(runtime, canon):
    """Everything a genesis recovery must reproduce bit-identically.

    *canon* carries the suite-wide canonicalisers (the ``store_snapshots``,
    ``provenance_fingerprint`` and ``derivation_record`` conftest fixtures)
    and the ``prov_rids_live`` and ``prov_vids_present`` invariants, so this
    harness shares one definition of "indistinguishable" with every other
    equivalence suite.
    """
    snapshots, fingerprint, derivations, rids_live, vids_present, node_stats = canon
    rids_live(runtime)
    vids_present(runtime)
    return {
        "snapshots": snapshots(runtime),
        "fingerprint": fingerprint(runtime),
        "derivations": derivations(runtime),
        "node_stats": node_stats(runtime),
        "answers": lineage_answers(runtime, "minCost", limit=2),
    }


@pytest.fixture
def canon(store_snapshots, provenance_fingerprint, derivation_record, prov_rids_live, prov_vids_present, node_stats):
    return (store_snapshots, provenance_fingerprint, derivation_record, prov_rids_live, prov_vids_present, node_stats)


#: ``checkpoint_after`` value that checkpoints after every window.
EVERY_WINDOW = "every"


def run_durable_history(
    durable_dir, net, script, canon, checkpoint_after=None, images_dir=None
):
    """Run the whole history once; returns per-kill-point (wal_bytes, expected).

    Kill point ``k`` is "right after the *k*-th committed window" (window 0
    is the link seeding).  ``checkpoint_after=k`` compacts after window k,
    so later kill points cover recovery *across* a checkpoint record;
    :data:`EVERY_WINDOW` compacts after every window.  With *images_dir*,
    each checkpoint after window k also leaves ``images_dir / f"ckpt-{k}"``:
    the durable dir as a kill between the checkpoint's snapshot-file write
    and its WAL record leaves it.
    """
    wal_file = wal_path(durable_dir)
    kill_points = []

    def after_window(runtime, window):
        if checkpoint_after in (window, EVERY_WINDOW):
            if images_dir is None:
                runtime.checkpoint()
            else:
                checkpoint_with_crash_image(runtime, images_dir / f"ckpt-{window}")
        kill_points.append((wal_file.stat().st_size, expected_state(runtime, canon)))

    with NetTrailsRuntime(
        mincost.SOURCE, copy.deepcopy(net),
        durable_dir=durable_dir, wal_fsync=False,
    ) as runtime:
        runtime.seed_links(run=True)
        after_window(runtime, 0)
        for index, batch in enumerate(script):
            apply_batch(runtime, batch, run=True)
            after_window(runtime, index + 1)
    return kill_points


def checkpoint_with_crash_image(runtime, image_dir):
    """``runtime.checkpoint()``, copying the durable dir just before its WAL record."""
    wal = runtime._wal
    append = wal.append

    def append_after_image(record_type, data):
        assert record_type == RECORD_CHECKPOINT
        shutil.copytree(runtime.durable_dir, image_dir)
        return append(record_type, data)

    wal.append = append_after_image
    try:
        runtime.checkpoint()
    finally:
        del wal.append


def crash_copy(durable_dir, target_dir, wal_bytes, mutate=None):
    """A byte-exact image of the durable dir as a kill at *wal_bytes* left it."""
    shutil.copytree(durable_dir, target_dir)
    wal_file = wal_path(target_dir)
    raw = bytearray(wal_file.read_bytes()[:wal_bytes])
    if mutate is not None:
        raw = mutate(raw)
    wal_file.write_bytes(bytes(raw))
    return target_dir


def assert_recovered_matches(result, expected, canon, where, exact_counters=True):
    snapshots, fingerprint, derivations, rids_live, vids_present, node_stats = canon
    runtime = result.runtime
    try:
        rids_live(runtime)
        vids_present(runtime)
        assert snapshots(runtime) == expected["snapshots"], where
        assert fingerprint(runtime) == expected["fingerprint"], where
        assert derivations(runtime) == expected["derivations"], where
        answers = assert_cached_equals_uncached(runtime, "minCost", limit=2, where=where)
        assert answers == expected["answers"], where
        if exact_counters:
            assert node_stats(runtime) == expected["node_stats"], where
    finally:
        runtime.close()


class TestRecoverySmoke:
    """Tier-1 guard: a handful of kill points on one seed/topology."""

    def test_kill_points_recover_bit_identically(self, tmp_path, canon):
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(SEEDS[0], net, steps=3)
        history = tmp_path / "history"
        kill_points = run_durable_history(history, net, script, canon)
        for k in (0, len(kill_points) - 1):
            wal_bytes, expected = kill_points[k]
            crash_dir = crash_copy(history, tmp_path / f"crash-{k}", wal_bytes)
            result = RecoveryManager(crash_dir).recover(mode="genesis", attach=False)
            where = f"smoke kill_point={k}"
            assert result.batches_replayed == k + 1, where
            assert not result.torn, where
            assert_recovered_matches(result, expected, canon, where)

    def test_torn_tail_recovers_to_prefix(self, tmp_path, canon):
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(SEEDS[0], net, steps=3)
        history = tmp_path / "history"
        kill_points = run_durable_history(history, net, script, canon)
        wal_bytes, expected = kill_points[-2]
        # Kill mid-append of the final batch record: 7 bytes of it survive.
        crash_dir = crash_copy(history, tmp_path / "torn", wal_bytes + 7)
        result = RecoveryManager(crash_dir).recover(mode="genesis", attach=False)
        assert result.torn and result.truncated_bytes == 7
        assert result.batches_replayed == len(kill_points) - 1
        assert_recovered_matches(result, expected, canon, "smoke torn tail")

    def test_kill_inside_cached_checkpoint_uses_previous(self, tmp_path, canon):
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(SEEDS[0], net, steps=3)
        kill_points = run_durable_history(
            tmp_path / "history", net, script, canon,
            checkpoint_after=EVERY_WINDOW, images_dir=tmp_path,
        )
        assert_kill_inside_checkpoint_recovers(
            tmp_path, kill_points, len(script), canon, "smoke"
        )


def assert_kill_inside_checkpoint_recovers(images_dir, kill_points, k, canon, context):
    """Kill inside the checkpoint after window *k*: file on disk, record not."""
    where = f"{context} kill inside checkpoint after window {k}"
    image = images_dir / f"ckpt-{k}"
    assert (image / "snapshots" / f"ckpt-{k + 1:06d}.json").exists(), where
    result = RecoveryManager(image).recover(mode="checkpoint", attach=False)
    if k == 0:
        assert result.mode == "genesis", where
    else:
        assert result.mode == "checkpoint", where
        assert result.checkpoint_batch == k, where  # the previous checkpoint
    assert result.batches_replayed == 1, where
    assert not result.torn, where
    assert_recovered_matches(
        result, kill_points[k][1], canon, where, exact_counters=(result.mode == "genesis")
    )


@pytest.mark.slow
@pytest.mark.recovery
class TestCrashInjectionOracle:
    """The exhaustive matrix: seeds × topologies × every kill point."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_every_kill_point_recovers_bit_identically(
        self, tmp_path, canon, topology_name, seed
    ):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        history = tmp_path / "history"
        kill_points = run_durable_history(history, net, script, canon)

        for k, (wal_bytes, expected) in enumerate(kill_points):
            where = f"{context} kill_point={k}"
            crash_dir = crash_copy(history, tmp_path / f"crash-{k}", wal_bytes)
            result = RecoveryManager(crash_dir).recover(mode="genesis", attach=False)
            assert result.batches_replayed == k + 1, where
            assert not result.torn, where
            assert_recovered_matches(result, expected, canon, where)
            shutil.rmtree(crash_dir)

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("cut", [1, 3, 24], ids=lambda c: f"cut{c}")
    def test_torn_tails_recover_to_longest_intact_prefix(
        self, tmp_path, canon, seed, cut
    ):
        """Mid-append kills: partial next record ⇒ state of the previous batch."""
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(seed, net)
        context = f"torn seed={seed} cut={cut} (NETTRAILS_CHURN_SEED={seed})"
        history = tmp_path / "history"
        kill_points = run_durable_history(history, net, script, canon)

        for k in range(len(kill_points) - 1):
            wal_bytes, expected = kill_points[k]
            next_bytes = kill_points[k + 1][0]
            torn_len = min(cut, next_bytes - wal_bytes - 1)
            where = f"{context} kill_point={k}+{torn_len}B"
            crash_dir = crash_copy(
                history, tmp_path / f"torn-{k}", wal_bytes + torn_len
            )
            result = RecoveryManager(crash_dir).recover(mode="genesis", attach=False)
            assert result.torn, where
            assert result.truncated_bytes == torn_len, where
            assert result.batches_replayed == k + 1, where
            assert_recovered_matches(result, expected, canon, where)
            shutil.rmtree(crash_dir)

    @pytest.mark.parametrize("seed", SEEDS[:1], ids=lambda s: f"seed{s}")
    def test_flipped_byte_in_tail_record_is_discarded(self, tmp_path, canon, seed):
        """Bit rot in the final record fails its content hash ⇒ prefix state."""
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(seed, net)
        history = tmp_path / "history"
        kill_points = run_durable_history(history, net, script, canon)
        wal_bytes, expected = kill_points[-2]
        final_bytes = kill_points[-1][0]

        def flip(raw):
            raw[wal_bytes + 10] ^= 0xFF
            return raw

        crash_dir = crash_copy(history, tmp_path / "flip", final_bytes, mutate=flip)
        result = RecoveryManager(crash_dir).recover(mode="genesis", attach=False)
        where = f"flip seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        assert result.torn and result.torn_reason == "content hash mismatch", where
        assert result.batches_replayed == len(kill_points) - 1, where
        assert_recovered_matches(result, expected, canon, where)

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("checkpoint_after", [0, 2], ids=lambda c: f"ckpt{c}")
    def test_checkpoint_bootstrap_matches_state_at_every_kill_point(
        self, tmp_path, canon, seed, checkpoint_after
    ):
        """Checkpoint recovery: state/prov/answer-identical, fewer batches replayed.

        Version counters are exempt — checkpoint bootstrap compresses the
        history, which is exactly the weaker guarantee the docs pin.
        """
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(seed, net)
        context = f"ckpt seed={seed} after={checkpoint_after} (NETTRAILS_CHURN_SEED={seed})"
        history = tmp_path / "history"
        kill_points = run_durable_history(
            history, net, script, canon, checkpoint_after=checkpoint_after
        )

        for k, (wal_bytes, expected) in enumerate(kill_points):
            where = f"{context} kill_point={k}"
            crash_dir = crash_copy(history, tmp_path / f"crash-{k}", wal_bytes)
            result = RecoveryManager(crash_dir).recover(mode="checkpoint", attach=False)
            if k >= checkpoint_after:
                assert result.mode == "checkpoint", where
                assert result.checkpoint_batch == checkpoint_after + 1, where
                assert result.checkpoints_verified >= 1, where
                assert result.batches_replayed == k - checkpoint_after, where
            else:
                assert result.mode == "genesis", where  # checkpoint not yet durable
            assert_recovered_matches(
                result, expected, canon, where, exact_counters=(result.mode == "genesis")
            )
            shutil.rmtree(crash_dir)

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_checkpoint_after_every_window_recovers_at_every_kill_point(
        self, tmp_path, canon, topology_name, seed
    ):
        """Cached checkpoints: every commit point and every in-checkpoint kill.

        Each window ends in a checkpoint, so all but the first reuse the
        writer's cached fragments; each recorded ``state_digest`` must still
        verify against recovery's from-scratch digest.
        """
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"ckpt-every topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        images = tmp_path / "images"
        images.mkdir()
        history = tmp_path / "history"
        kill_points = run_durable_history(
            history, net, script, canon,
            checkpoint_after=EVERY_WINDOW, images_dir=images,
        )

        for k, (wal_bytes, expected) in enumerate(kill_points):
            where = f"{context} kill_point={k}"
            crash_dir = crash_copy(history, tmp_path / f"crash-{k}", wal_bytes)
            result = RecoveryManager(crash_dir).recover(mode="checkpoint", attach=False)
            assert result.mode == "checkpoint", where
            assert result.checkpoint_batch == k + 1, where
            assert result.batches_replayed == 0, where
            assert_recovered_matches(result, expected, canon, where, exact_counters=False)
            shutil.rmtree(crash_dir)
            assert_kill_inside_checkpoint_recovers(images, kill_points, k, canon, context)

        genesis = RecoveryManager(history).recover(mode="genesis", attach=False)
        assert genesis.checkpoints_verified == len(kill_points), context
        assert_recovered_matches(genesis, kill_points[-1][1], canon, context)
