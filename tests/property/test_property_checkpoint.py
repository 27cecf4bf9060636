"""Checkpoint byte-identity oracle: cached checkpoints equal the reference.

A durable runtime's checkpoint writer re-serialises only the partitions
whose content changed since its previous checkpoint and streams the cached
fragments into the snapshot file and both digests.  This harness
checkpoints after *every* churn window and asserts, at each checkpoint:

* the snapshot file equals the one-element list of ``take_snapshot``,
  ``json.dumps([snapshot.to_dict()], sort_keys=True)``, byte for byte;
* the record's ``snapshot_digest`` and ``state_digest`` equal the reference
  functions over that snapshot;
* the writer rebuilt exactly the partitions whose serialised form differs
  from the previous checkpoint's (all of them at a writer's first).

Legs: random link churn on the shared churn-harness scripts, whole-node
leave/rejoin (every link of a node drops, later comes back), a runtime
without provenance, and a runtime recovered from its WAL and attached to
it, whose writer starts cold and then caches.

Seeding follows the repo convention: fixed seeds plus an optional
``NETTRAILS_CHURN_SEED`` drawn and exported by the CI random-seed leg.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.durability import RecoveryManager, scan, snapshot_digest, state_digest, wal_path
from repro.engine.runtime import NetTrailsRuntime
from repro.logstore import take_snapshot
from repro.protocols import mincost
from repro.workloads.churn import ChurnBatch, apply_batch, node_fail_recover

from churn_harness import SEEDS, TOPOLOGIES, generate_churn_script


def node_leave_rejoin_script(seed, net, steps=6):
    """Whole nodes leave (every incident link drops at once) and rejoin."""
    mirror = copy.deepcopy(net)
    rng = random.Random(seed)
    return [
        ChurnBatch(index=index, phase="node_fail_recover", ops=ops)
        for index, ops in enumerate(node_fail_recover(mirror, rng, steps))
    ]


class CheckpointOracle:
    """Checks each checkpoint of one runtime against the reference functions."""

    def __init__(self, context, prov_rids_live, prov_vids_present):
        self.context = context
        self.prov_rids_live = prov_rids_live
        self.prov_vids_present = prov_vids_present
        self.previous = {}
        self.checkpoints = 0

    def checkpoint(self, runtime):
        writer = runtime._checkpoint_writer
        rebuilt_before = writer.partitions_rebuilt
        where = f"{self.context} checkpoint={self.checkpoints}"
        self.prov_rids_live(runtime)
        self.prov_vids_present(runtime)
        path = runtime.checkpoint()
        record = scan(wal_path(runtime.durable_dir)).records[-1].data
        reference = take_snapshot(runtime, label=record["label"])
        assert path.read_bytes() == json.dumps(
            [reference.to_dict()], sort_keys=True
        ).encode("utf-8"), where
        assert record["snapshot_digest"] == snapshot_digest(reference), where
        assert record["state_digest"] == state_digest(reference), where

        fragments = {
            node_id: json.dumps(node.to_dict(), sort_keys=True)
            for node_id, node in reference.nodes.items()
        }
        changed = sum(
            1 for node_id, text in fragments.items() if self.previous.get(node_id) != text
        )
        assert writer.partitions_rebuilt - rebuilt_before == changed, where
        self.previous = fragments
        self.checkpoints += 1
        return changed


def run_checkpointed(runtime, script, oracle):
    """Apply *script* window by window, checkpointing after every window."""
    rebuilt = [oracle.checkpoint(runtime)]
    for batch in script:
        apply_batch(runtime, batch, run=True)
        rebuilt.append(oracle.checkpoint(runtime))
    return rebuilt


def durable_runtime(tmp_path, net, **kwargs):
    runtime = NetTrailsRuntime(
        mincost.SOURCE, copy.deepcopy(net), durable_dir=tmp_path, wal_fsync=False, **kwargs
    )
    runtime.seed_links(run=True)
    return runtime


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_link_churn_checkpoints_match_reference(
    tmp_path, topology_name, seed, prov_rids_live, prov_vids_present
):
    net = TOPOLOGIES[topology_name]()
    context = f"link churn topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"
    with durable_runtime(tmp_path, net) as runtime:
        rebuilt = run_checkpointed(
            runtime,
            generate_churn_script(seed, net),
            CheckpointOracle(context, prov_rids_live, prov_vids_present),
        )
        assert rebuilt[0] == len(runtime.nodes), context
        assert min(rebuilt[1:]) < len(runtime.nodes), context  # the cache was used


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("provenance", [True, False], ids=["prov", "noprov"])
def test_node_leave_rejoin_checkpoints_match_reference(
    tmp_path, seed, provenance, prov_rids_live, prov_vids_present
):
    net = TOPOLOGIES["as-level"]()
    context = f"node leave/rejoin provenance={provenance} seed={seed} (NETTRAILS_CHURN_SEED={seed})"
    with durable_runtime(tmp_path, net, provenance=provenance) as runtime:
        rebuilt = run_checkpointed(
            runtime,
            node_leave_rejoin_script(seed, net),
            CheckpointOracle(context, prov_rids_live, prov_vids_present),
        )
        # A checkpoint with nothing committed since the last one is all hits.
        runtime.checkpoint()
        assert runtime._checkpoint_writer.partitions_rebuilt == sum(rebuilt), context


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_recovered_attached_runtime_checkpoints_match_reference(
    tmp_path, seed, prov_rids_live, prov_vids_present
):
    net = TOPOLOGIES["ring"]()
    script = generate_churn_script(seed, net)
    half = len(script) // 2
    context = f"recovered seed={seed} (NETTRAILS_CHURN_SEED={seed})"
    with durable_runtime(tmp_path, net) as runtime:
        run_checkpointed(
            runtime,
            script[:half],
            CheckpointOracle(context + " before crash", prov_rids_live, prov_vids_present),
        )

    result = RecoveryManager(tmp_path).recover(mode="checkpoint", wal_fsync=False)
    assert result.mode == "checkpoint", context
    with result.runtime as recovered:
        rebuilt = run_checkpointed(
            recovered,
            script[half:],
            CheckpointOracle(context + " after recovery", prov_rids_live, prov_vids_present),
        )
        assert rebuilt[0] == len(recovered.nodes), context
    again = RecoveryManager(tmp_path).recover(mode="genesis", attach=False)
    assert again.checkpoints_verified == len(script) + 2, context
    again.runtime.close()
