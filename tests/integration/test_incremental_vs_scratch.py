"""Incremental maintenance must equal from-scratch recomputation.

This is the central correctness claim behind NetTrails: "NetTrails correctly
captures and maintains provenance, as network state is incrementally
recomputed as the underlying network topology changes."  For a sequence of
topology changes we compare, after every change, both the protocol state and
the provenance tables of the incrementally-maintained runtime against a fresh
runtime built from scratch on the changed topology.
"""

import copy
import random
import re
import sys

import pytest

import repro.core.keys as keys
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import distance_vector, mincost, path_vector


# The equivalence canonicalisers (provenance_fingerprint, global_state,
# store_snapshots) live in tests/conftest.py and are requested as fixtures;
# the property equivalence suites (tests/property/) share the same
# definitions.


def fresh_runtime(module, net):
    return module.setup(copy.deepcopy(net))


CHANGE_SCRIPTS = {
    "remove-one": [("remove", 0)],
    "remove-two-add-one": [("remove", 0), ("remove", 1), ("add", 0)],
    "add-shortcut": [("add_new", ("n0", "n5", 0.5))],
}


def apply_script(runtime, net, script):
    """Apply a change script; mirror the changes into `net` as the reference."""
    removable = sorted(net.edges)
    removed = []
    for action, argument in script:
        if action == "remove":
            a, b = removable[argument]
            cost = net.cost(a, b)
            runtime.remove_link(a, b)
            removed.append((a, b, cost))
        elif action == "add":
            a, b, cost = removed[argument]
            runtime.add_link(a, b, cost)
        elif action == "add_new":
            a, b, cost = argument
            runtime.add_link(a, b, cost)
        runtime.run_to_quiescence()


class TestIncrementalEqualsScratch:
    @pytest.mark.parametrize("script_name", sorted(CHANGE_SCRIPTS))
    @pytest.mark.parametrize(
        "module,relations",
        [
            (mincost, ["path", "minCost"]),
            (path_vector, ["path", "bestPathCost", "bestPath"]),
            (distance_vector, ["hop", "bestHop"]),
        ],
        ids=["mincost", "path_vector", "distance_vector"],
    )
    def test_state_and_provenance_match_fresh_run(
        self, module, relations, script_name, global_state, provenance_fingerprint, derivation_record
    ):
        net = topology.random_connected(8, edge_probability=0.35, seed=13)
        incremental = module.setup(net)
        apply_script(incremental, net, CHANGE_SCRIPTS[script_name])

        scratch = fresh_runtime(module, net)

        assert global_state(incremental, relations) == global_state(scratch, relations)
        assert provenance_fingerprint(incremental) == provenance_fingerprint(scratch)
        assert derivation_record(incremental) == derivation_record(scratch)


class TestUnequalLatencies:
    """Links slower than the default latency: a link that goes down mid-flight
    must not let a later delta overtake an earlier one on the same pair."""

    def test_a_link_flap_in_flight_matches_a_fresh_run(self, global_state, derivation_record):
        net = topology.random_connected(6, edge_probability=0.4, seed=4)
        assert not net.has_edge("n1", "n2")
        runtime = NetTrailsRuntime(
            mincost.program(), copy.deepcopy(net), link_latency=0.05, default_latency=0.01
        )
        runtime.seed_links(run=True)
        runtime.add_link("n1", "n2", 1.0)
        # the new link's deltas are in flight when it goes down again; the
        # retractions then travel at the shorter default latency
        runtime.run(0.03)
        runtime.remove_link("n1", "n2")
        runtime.run_to_quiescence()
        fresh = NetTrailsRuntime(
            mincost.program(), copy.deepcopy(runtime.topology), link_latency=0.05, default_latency=0.01
        )
        fresh.seed_links(run=True)
        relations = ["link", "path", "minCost"]
        assert global_state(runtime, relations) == global_state(fresh, relations)
        assert derivation_record(runtime) == derivation_record(fresh)


def _raise_if_hashed(*args, **kwargs):
    raise AssertionError("a RID or VID was hashed in a runtime without provenance")


class TestProvenanceOff:
    """Without provenance nobody reads a RID, so nothing may hash one."""

    @pytest.mark.parametrize("script_name", sorted(CHANGE_SCRIPTS))
    def test_churn_hashes_nothing(self, monkeypatch, global_state, script_name):
        reference_net = topology.random_connected(8, edge_probability=0.35, seed=13)
        reference = mincost.setup(copy.deepcopy(reference_net))
        apply_script(reference, reference_net, CHANGE_SCRIPTS[script_name])

        for name in ("rid_for", "vid_for", "_digest"):
            original = getattr(keys, name)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, _raise_if_hashed)
        net = topology.random_connected(8, edge_probability=0.35, seed=13)
        runtime = mincost.setup(net, provenance=False)
        apply_script(runtime, net, CHANGE_SCRIPTS[script_name])

        assert runtime.provenance is None
        relations = ["link", "path", "minCost"]
        assert global_state(runtime, relations) == global_state(reference, relations)
        # derived facts carry fixed-width counter ids of their exec node
        counter_id = re.compile(r"n\d+#[0-9a-f]{8}")
        for node in runtime.nodes.values():
            for fact in node.store.all_facts():
                for derivation in node.store.derivations(fact):
                    assert derivation == "__base__" or counter_id.fullmatch(derivation), derivation


class TestBatchEqualsSingleton:
    """Batched delta evaluation must reach the same state as one-row mutations.

    These tests pin down the correctness contract of the batch-first
    execution path (:meth:`LocalEvaluator.on_batch`, per-destination
    :class:`TupleDeltaBatch` messages, per-batch provenance updates): it may
    reorder and consolidate work arbitrarily, but the final protocol state
    *and* the distributed provenance tables must be indistinguishable from
    feeding the same base rows in one ``insert``/``delete`` at a time.
    """

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_bulk_batches_equal_singleton_replay(
        self, seed, provenance_fingerprint, derivation_record
    ):
        """Property-style: random insert/delete batches vs one-at-a-time."""
        rng = random.Random(seed)
        net = topology.ring(6)
        batched = NetTrailsRuntime(mincost.program(), copy.deepcopy(net))
        singleton = NetTrailsRuntime(mincost.program(), copy.deepcopy(net))
        for runtime in (batched, singleton):
            runtime.seed_links(run=True)

        nodes = sorted(net.nodes)
        extra = [
            [a, b, float(rng.randint(1, 4))]
            for a in nodes
            for b in rng.sample(nodes, 3)
            if a != b
        ]
        live = []
        for _ in range(6):
            inserts = [extra[rng.randrange(len(extra))] for _ in range(rng.randint(1, 5))]
            deletes = [live.pop(rng.randrange(len(live))) for _ in range(min(len(live), rng.randint(0, 3)))]
            deletes = [row for row in deletes if row not in inserts]
            live.extend(inserts)

            batched.delete_batch("link", deletes)
            batched.insert_batch("link", inserts)
            batched.run_to_quiescence()

            for row in deletes:
                singleton.delete("link", row)
            for row in inserts:
                singleton.insert("link", row)
            singleton.run_to_quiescence()

            for relation in ("link", "path", "minCost"):
                assert batched.state(relation) == singleton.state(relation)
            assert provenance_fingerprint(batched) == provenance_fingerprint(singleton)
            assert derivation_record(batched) == derivation_record(singleton)


class TestInsertDeleteRoundTrip:
    def test_insert_then_delete_returns_to_original(self, global_state, provenance_fingerprint):
        net = topology.ring(6)
        runtime = mincost.setup(net)
        original_state = global_state(runtime, ["path", "minCost"])
        original_provenance = provenance_fingerprint(runtime)
        runtime.add_link("n0", "n3", 1.0)
        runtime.run_to_quiescence()
        assert global_state(runtime, ["minCost"]) != {"minCost": original_state["minCost"]}
        runtime.remove_link("n0", "n3")
        runtime.run_to_quiescence()
        assert global_state(runtime, ["path", "minCost"]) == original_state
        assert provenance_fingerprint(runtime) == original_provenance
