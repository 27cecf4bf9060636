"""Random churn, maintained incrementally, equals a from-scratch run.

Every node holds one dict store driven by one join path, and one event loop
runs every node, so there is no alternative execution strategy left to diff
that path against; the oracle is the paper's own claim instead.  After
*every* step of a seeded churn script, the incrementally maintained runtime
must hold exactly the protocol state and provenance tables of a fresh
runtime built from the base state as it stands after that step, and every
``prov`` row's RID must name a live ``ruleExec`` row holding its tuple.

MINCOST replays the link-churn scripts of :mod:`churn_harness` (removals,
re-adds, brand-new links and in-batch flaps).  Three more program shapes
ride the same join path and get the same oracle: negation probing the local
store while a join is enumerated, tuple-valued attributes (path-vector AS
paths), and a ``min`` aggregate re-electing best routes on many nodes at
once (prefix announcements and withdrawals).  Like its siblings the suite
honours ``NETTRAILS_CHURN_SEED``.
"""

from __future__ import annotations

import copy
import random

import pytest

from churn_harness import (
    SEEDS,
    TOPOLOGIES,
    apply_op,
    build_runtime,
    generate_churn_script,
    lineage_answers,
)
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost, path_vector, prefix_routing

RELATIONS = ["link", "path", "minCost"]


class TestChurnEqualsFreshRun:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_every_step_matches_a_fresh_run(
        self, topology_name, seed, global_state, provenance_fingerprint, derivation_record, prov_rids_live,
        prov_vids_present,
    ):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        incremental = build_runtime(mincost.program(), net)
        for step, op in enumerate(script):
            apply_op(incremental, op)
            fresh = build_runtime(mincost.program(), incremental.topology)
            where = f"{context} step={step} op={op}"
            assert global_state(incremental, RELATIONS) == global_state(fresh, RELATIONS), where
            assert provenance_fingerprint(incremental) == provenance_fingerprint(fresh), where
            assert derivation_record(incremental) == derivation_record(fresh), where
            prov_rids_live(incremental)
            prov_vids_present(incremental)
            fresh.close()
        incremental.close()


#: Negated literals probe the local store while a join is enumerated.
NEGATION_PROGRAM = """
materialize(offer, infinity, infinity, keys(1, 2)).
materialize(blocked, infinity, infinity, keys(1, 2)).
r1 candidate(@S, D) :- offer(@S, D), !blocked(@S, D).
r2 mirror(@D, S) :- candidate(@S, D).
"""


class TestProgramShapesEqualFreshRun:
    """Negation, tuple-valued attributes and a ``min`` aggregate under
    churn, each checked against a fresh run after every step."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_negation_matches_a_fresh_run(
        self, seed, global_state, provenance_fingerprint, derivation_record, prov_rids_live,
        prov_vids_present,
    ):
        net = TOPOLOGIES["star"]()
        nodes = sorted(net.nodes)
        rng = random.Random(seed)
        context = f"negation seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        relations = ["offer", "blocked", "candidate", "mirror"]

        incremental = NetTrailsRuntime(NEGATION_PROGRAM, copy.deepcopy(net))
        for step in range(6):
            rows = [[a, b] for a in rng.sample(nodes, 3) for b in rng.sample(nodes, 2) if a != b]
            relation = rng.choice(["offer", "blocked"])
            if rng.random() < 0.4:
                incremental.delete_batch(relation, rows, run=True)
            else:
                incremental.insert_batch(relation, rows, run=True)
            fresh = NetTrailsRuntime(NEGATION_PROGRAM, copy.deepcopy(net))
            for base in ("offer", "blocked"):
                fresh.insert_batch(base, [list(row) for row in incremental.state(base)])
            fresh.run_to_quiescence()
            where = f"{context} step={step}"
            assert global_state(incremental, relations) == global_state(fresh, relations), where
            assert provenance_fingerprint(incremental) == provenance_fingerprint(fresh), where
            assert derivation_record(incremental) == derivation_record(fresh), where
            prov_rids_live(incremental)
            prov_vids_present(incremental)

    @pytest.mark.parametrize("seed", SEEDS[:1], ids=lambda s: f"seed{s}")
    def test_path_vector_matches_a_fresh_run(
        self, seed, global_state, provenance_fingerprint, derivation_record, prov_rids_live,
        prov_vids_present,
    ):
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(seed, net, steps=4)
        context = f"path_vector seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        relations = ["path", "bestPathCost", "bestPath"]

        incremental = build_runtime(path_vector.program(), net)
        for step, op in enumerate(script):
            apply_op(incremental, op)
            fresh = build_runtime(path_vector.program(), incremental.topology)
            where = f"{context} step={step} op={op}"
            assert global_state(incremental, relations) == global_state(fresh, relations), where
            assert provenance_fingerprint(incremental) == provenance_fingerprint(fresh), where
            assert derivation_record(incremental) == derivation_record(fresh), where
            prov_rids_live(incremental)
            prov_vids_present(incremental)
        assert lineage_answers(incremental, "bestPath") == lineage_answers(fresh, "bestPath"), context

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_prefix_routing_matches_a_fresh_run(
        self, seed, global_state, provenance_fingerprint, derivation_record, prov_rids_live,
        prov_vids_present,
    ):
        net = TOPOLOGIES["as-level"]()
        nodes = sorted(net.nodes)
        rng = random.Random(seed)
        context = f"prefix_routing seed={seed} (NETTRAILS_CHURN_SEED={seed})"
        relations = ["prefix", "route", "best"]

        incremental = build_runtime(prefix_routing.program(), net)
        announced = []
        for step in range(5):
            if announced and rng.random() < 0.4:
                origins = rng.sample(announced, min(2, len(announced)))
                announced = [origin for origin in announced if origin not in origins]
                prefix_routing.withdraw(incremental, origins)
            else:
                origins = [(rng.choice(nodes), f"p{rng.randrange(4)}") for _ in range(3)]
                origins = [origin for origin in dict.fromkeys(origins) if origin not in announced]
                announced.extend(origins)
                prefix_routing.announce(incremental, origins)
            fresh = build_runtime(prefix_routing.program(), net)
            prefix_routing.announce(fresh, announced)
            where = f"{context} step={step}"
            assert global_state(incremental, relations) == global_state(fresh, relations), where
            assert provenance_fingerprint(incremental) == provenance_fingerprint(fresh), where
            assert derivation_record(incremental) == derivation_record(fresh), where
            prov_rids_live(incremental)
            prov_vids_present(incremental)
        assert lineage_answers(incremental, "best") == lineage_answers(fresh, "best"), context
