"""Snapshot provenance property: a snapshot rebuilds the live provenance graph.

Replay hands the visualizer ``Snapshot.provenance_graph()`` at every
position, so a snapshot must carry the whole provenance graph — not merely
something close — on any state the system can reach.

This harness drives a runtime through every churn generator in the workload
catalogue (link flaps, node fail/recover, prefix announce/withdraw, hot-hub
skew, random link churn), snapshotting after every churn window, and asserts
for each snapshot that its provenance graph has the live graph's tuple and
ruleExec counts and the same base-tuple lineage for sampled derived tuples.

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
from repro.logstore import take_snapshot
from repro.protocols import mincost, prefix_routing
from repro.workloads.churn import (
    ChurnBatch,
    apply_batch,
    hot_hub_skew,
    link_flap,
    node_fail_recover,
    prefix_announce_withdraw,
    random_link_churn,
)

GENERATORS = {
    generator.__name__: generator
    for generator in (hot_hub_skew, link_flap, node_fail_recover, prefix_announce_withdraw, random_link_churn)
}


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


def assert_rebuilds_live_graph(snapshot, runtime, where):
    live = runtime.provenance.build_graph()
    graph = snapshot.provenance_graph()
    assert graph.tuple_count == live.tuple_count, where
    assert graph.rule_exec_count == live.rule_exec_count, where
    sampled = 0
    for relation in snapshot.relations():
        for values in sorted(snapshot.relation(relation), key=repr)[:2]:
            for vertex in graph.find_tuples(relation, tuple(values)):
                expected = {v.values for v in live.base_tuples_of(vertex.vid)}
                rebuilt = {v.values for v in graph.base_tuples_of(vertex.vid)}
                assert rebuilt == expected, f"{where} vid={vertex.vid}"
                sampled += 1
    assert sampled > 0, where


class TestSnapshotProvenance:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("generator_name", sorted(GENERATORS))
    def test_every_generator_state_rebuilds_the_live_graph(self, generator_name, seed):
        net = topology.ring(6)
        source = PROGRAM_FOR.get(generator_name, mincost.SOURCE)
        script = churn_script(generator_name, seed, net)
        context = f"generator={generator_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        with NetTrailsRuntime(source, copy.deepcopy(net)) as runtime:
            runtime.seed_links(run=True)
            assert_rebuilds_live_graph(take_snapshot(runtime), runtime, f"{context} step=seed")
            for step, batch in enumerate(script):
                apply_batch(runtime, batch, run=True)
                assert_rebuilds_live_graph(take_snapshot(runtime), runtime, f"{context} step={step}")
