"""Snapshot serialisation property: to_json/from_json is bit-identical.

The durability layer's checkpoint files, the central log store's persistence
and the replay tooling all funnel through ``Snapshot.to_json`` /
``Snapshot.from_json``; recovery verification hashes the serialised form.
So the round trip must be *bit*-identical — not merely equal-ish — on any
state the system can reach, including the reconstructed provenance graph.

This harness drives a runtime through every churn generator in the workload
catalogue (link flaps, node fail/recover, prefix announce/withdraw, hot-hub
skew, random link churn), snapshotting after every churn window, and asserts for each snapshot:

* ``from_json(to_json(s)).to_json() == to_json(s)`` byte for byte,
* the restored provenance graph reconstructs the same tuple/ruleExec
  counts and the same base-tuple lineage for sampled derived tuples.

Seeding follows the repo convention: fixed seeds plus an optional
``NETTRAILS_CHURN_SEED`` drawn and exported by the CI random-seed leg.
"""

from __future__ import annotations

import copy
import os
import random

import pytest

from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.logstore import Snapshot, take_snapshot
from repro.protocols import mincost, prefix_routing
from repro.workloads.churn import GENERATORS, ChurnBatch, apply_batch


def _seeds():
    seeds = [5]
    override = os.environ.get("NETTRAILS_CHURN_SEED")
    if override is not None:
        seeds.append(int(override))
    return sorted(set(seeds))


SEEDS = _seeds()

#: prefix_announce_withdraw mutates a ``prefix`` base relation, so it runs
#: over the prefix-routing protocol; every link-level generator runs MINCOST.
PROGRAM_FOR = {"prefix_announce_withdraw": prefix_routing.SOURCE}


def churn_script(name, seed, net, batches=4):
    mirror = copy.deepcopy(net)
    generator = GENERATORS[name]
    return [
        ChurnBatch(index=index, phase=name, ops=ops)
        for index, ops in enumerate(generator(mirror, random.Random(seed), batches))
    ]


def assert_bit_identical_round_trip(snapshot, where):
    encoded = snapshot.to_json()
    restored = Snapshot.from_json(encoded)
    assert restored.to_json() == encoded, where

    graph = snapshot.provenance_graph()
    regraph = restored.provenance_graph()
    assert regraph.tuple_count == graph.tuple_count, where
    assert regraph.rule_exec_count == graph.rule_exec_count, where
    sampled = 0
    for relation in snapshot.relations():
        for values in sorted(snapshot.relation(relation), key=repr)[:2]:
            for vertex in graph.find_tuples(relation, tuple(values)):
                expected = {v.values for v in graph.base_tuples_of(vertex.vid)}
                rebuilt = {v.values for v in regraph.base_tuples_of(vertex.vid)}
                assert rebuilt == expected, f"{where} vid={vertex.vid}"
                sampled += 1
    assert sampled > 0, where


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("generator_name", sorted(GENERATORS))
    def test_every_generator_state_round_trips(self, generator_name, seed):
        net = topology.ring(6)
        source = PROGRAM_FOR.get(generator_name, mincost.SOURCE)
        script = churn_script(generator_name, seed, net)
        context = f"generator={generator_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        with NetTrailsRuntime(source, copy.deepcopy(net)) as runtime:
            runtime.seed_links(run=True)
            assert_bit_identical_round_trip(
                take_snapshot(runtime, label="seeded"), f"{context} step=seed"
            )
            for step, batch in enumerate(script):
                apply_batch(runtime, batch, run=True)
                snapshot = take_snapshot(runtime, label=f"step-{step}")
                assert_bit_identical_round_trip(snapshot, f"{context} step={step}")

    def test_round_trip_survives_a_save_load_cycle(self, tmp_path, mincost_ring):
        """The file-level path (LogStore.save/load) preserves bit-identity too."""
        from repro.logstore import LogStore

        store = LogStore()
        snapshot = store.collect(mincost_ring, label="persisted")
        path = tmp_path / "log.json"
        store.save(path)
        loaded = LogStore.load(path)
        assert loaded.latest().to_json() == snapshot.to_json()
