"""Randomized-churn equivalence harness for concurrent execution backends.

The execution backends (:mod:`repro.engine.backends`) promise that the
thread-pool backend is *bit-identical* to the deterministic serial
reference on everything a run can observe: per-node store snapshots,
the distributed provenance tables, per-node provenance versions, network
message counts, simulator event/round counts and distributed query answers.

This harness replays the seeded churn scripts of :mod:`churn_harness` on a
serial-backend baseline and on the thread backend, asserting equality after
*every* churn step; a slow-marked sweep repeats it at worker counts
{1, 2, 4}.  Like its siblings it honours
``NETTRAILS_CHURN_SEED`` for reproducible randomized CI runs; additionally,
the whole property suite runs under each backend in CI via the
``NETTRAILS_BACKEND`` matrix, which exercises every *other* equivalence
harness under concurrent execution too.
"""

from __future__ import annotations

import copy
import random
from contextlib import ExitStack

import pytest

from repro.engine.backends import ThreadPoolBackend
from repro.engine.runtime import NetTrailsRuntime
from churn_harness import (
    SEEDS,
    TOPOLOGIES,
    apply_op,
    build_runtime,
    generate_churn_script,
    lineage_answers,
)
from repro.protocols import mincost, path_vector, prefix_routing

#: The acceptance matrix: the thread backend compared per-step against the
#: serial baseline, with two workers so waves genuinely overlap.
BACKEND_VARIANTS = ["thread"]

BACKEND_TYPES = {"thread": ThreadPoolBackend}


def build_variant(net, backend, workers=2):
    return build_runtime(mincost.program(), net, backend=backend, backend_workers=workers)


def observable_counts(runtime):
    """The wire/engine counters that must not depend on the backend."""
    return {
        "messages": runtime.message_stats().messages,
        "by_category": runtime.message_stats().by_category,
        "events": runtime.simulator.processed_events,
        "rounds": runtime.simulator.rounds,
    }


class TestBackendChurnEquivalence:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_backends_match_serial_reference(
        self, topology_name, seed, global_state, provenance_fingerprint, store_snapshots
    ):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with ExitStack() as stack:
            baseline = stack.enter_context(build_runtime(mincost.program(), net, backend="serial"))
            variants = {
                backend: stack.enter_context(build_variant(net, backend))
                for backend in BACKEND_VARIANTS
            }
            for backend, runtime in variants.items():
                assert isinstance(runtime.backend, BACKEND_TYPES[backend]), context

            for step, op in enumerate(script):
                apply_op(baseline, op)
                expected_snapshots = store_snapshots(baseline)
                expected_fingerprint = provenance_fingerprint(baseline)
                expected_versions = baseline.provenance.versions()
                expected_counts = observable_counts(baseline)
                for key, runtime in variants.items():
                    where = f"{context} backend={key} step={step} op={op}"
                    apply_op(runtime, op)
                    assert store_snapshots(runtime) == expected_snapshots, where
                    assert provenance_fingerprint(runtime) == expected_fingerprint, where
                    assert runtime.provenance.versions() == expected_versions, where
                    assert observable_counts(runtime) == expected_counts, where

            expected_state = global_state(baseline, ["link", "path", "minCost"])
            expected_answers = lineage_answers(baseline, "minCost")
            for key, runtime in variants.items():
                where = f"{context} backend={key}"
                assert global_state(runtime, ["link", "path", "minCost"]) == expected_state, where
                assert lineage_answers(runtime, "minCost") == expected_answers, where

    @pytest.mark.parametrize("seed", SEEDS[:1], ids=lambda s: f"seed{s}")
    def test_query_traffic_identical_across_backends(self, seed):
        """Provenance-query traversal costs (messages, rounds, nodes visited)
        are part of the paper's claims, so they must be backend-invariant
        too, not just the answers."""
        net = TOPOLOGIES["as-level"]()

        def query_stats(runtime):
            from repro.core.query import DistributedQueryEngine

            engine = DistributedQueryEngine(runtime)
            rows = sorted(runtime.state("minCost"), key=repr)[:3]
            stats = []
            for values in rows:
                result = engine.lineage("minCost", list(values))
                stats.append(
                    (
                        values,
                        sorted(str(ref) for ref in result.value),
                        result.stats.messages,
                        result.stats.rounds,
                        result.stats.nodes_visited,
                    )
                )
            return stats

        with ExitStack() as stack:
            serial = stack.enter_context(build_runtime(mincost.program(), net, backend="serial"))
            expected = query_stats(serial)
            for backend in BACKEND_VARIANTS:
                runtime = stack.enter_context(
                    build_runtime(mincost.program(), net, backend=backend, backend_workers=4)
                )
                assert query_stats(runtime) == expected, f"backend={backend} seed={seed}"


#: Negated literals probe the local store while a join is enumerated.
NEGATION_PROGRAM = """
materialize(offer, infinity, infinity, keys(1, 2)).
materialize(blocked, infinity, infinity, keys(1, 2)).
r1 candidate(@S, D) :- offer(@S, D), !blocked(@S, D).
r2 mirror(@D, S) :- candidate(@S, D).
"""


class TestProgramShapesAcrossBackends:
    """MINCOST is not the only shape a backend must drain identically:
    negation and tuple-valued attributes (AS paths) ride the same join path."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("backend", BACKEND_VARIANTS)
    def test_negation_matches_serial(
        self, backend, seed, global_state, provenance_fingerprint, store_snapshots
    ):
        net = TOPOLOGIES["star"]()
        nodes = sorted(net.nodes)
        rng = random.Random(seed)
        context = f"negation backend={backend} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with ExitStack() as stack:
            baseline = stack.enter_context(
                NetTrailsRuntime(NEGATION_PROGRAM, copy.deepcopy(net), backend="serial")
            )
            variant = stack.enter_context(
                NetTrailsRuntime(
                    NEGATION_PROGRAM, copy.deepcopy(net), backend=backend, backend_workers=2
                )
            )
            for step in range(6):
                rows = [
                    [a, b]
                    for a in rng.sample(nodes, 3)
                    for b in rng.sample(nodes, 2)
                    if a != b
                ]
                relation = rng.choice(["offer", "blocked"])
                delete = rng.random() < 0.4
                for runtime in (baseline, variant):
                    if delete:
                        runtime.delete_batch(relation, rows, run=True)
                    else:
                        runtime.insert_batch(relation, rows, run=True)
                where = f"{context} step={step}"
                assert store_snapshots(variant) == store_snapshots(baseline), where
                assert provenance_fingerprint(variant) == provenance_fingerprint(baseline), where
                assert observable_counts(variant) == observable_counts(baseline), where
            relations = ["offer", "blocked", "candidate", "mirror"]
            assert global_state(variant, relations) == global_state(baseline, relations), context

    @pytest.mark.parametrize("seed", SEEDS[:1], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("backend", BACKEND_VARIANTS)
    def test_path_vector_matches_serial(
        self, backend, seed, global_state, provenance_fingerprint, store_snapshots
    ):
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(seed, net, steps=4)
        context = f"path_vector backend={backend} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with ExitStack() as stack:
            baseline = stack.enter_context(
                build_runtime(path_vector.program(), net, backend="serial")
            )
            variant = stack.enter_context(
                build_runtime(path_vector.program(), net, backend=backend, backend_workers=2)
            )
            for step, op in enumerate(script):
                apply_op(baseline, op)
                apply_op(variant, op)
                where = f"{context} step={step} op={op}"
                assert store_snapshots(variant) == store_snapshots(baseline), where
                assert provenance_fingerprint(variant) == provenance_fingerprint(baseline), where
                assert variant.provenance.versions() == baseline.provenance.versions(), where
            relations = ["path", "bestPathCost", "bestPath"]
            assert global_state(variant, relations) == global_state(baseline, relations), context
            assert lineage_answers(variant, "bestPath") == lineage_answers(
                baseline, "bestPath"
            ), context


    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("backend", BACKEND_VARIANTS)
    def test_prefix_routing_matches_serial(
        self, backend, seed, global_state, provenance_fingerprint, store_snapshots
    ):
        """A ``min`` aggregate over announced prefixes: announcements and
        withdrawals re-elect best routes on many nodes in one wave."""
        net = TOPOLOGIES["as-level"]()
        nodes = sorted(net.nodes)
        rng = random.Random(seed)
        context = f"prefix_routing backend={backend} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with ExitStack() as stack:
            baseline = stack.enter_context(
                build_runtime(prefix_routing.program(), net, backend="serial")
            )
            variant = stack.enter_context(
                build_runtime(prefix_routing.program(), net, backend=backend, backend_workers=2)
            )
            announced = []
            for step in range(5):
                if announced and rng.random() < 0.4:
                    origins = rng.sample(announced, min(2, len(announced)))
                    announced = [origin for origin in announced if origin not in origins]
                    for runtime in (baseline, variant):
                        prefix_routing.withdraw(runtime, origins)
                else:
                    origins = [(rng.choice(nodes), f"p{rng.randrange(4)}") for _ in range(3)]
                    origins = [origin for origin in dict.fromkeys(origins) if origin not in announced]
                    announced.extend(origins)
                    for runtime in (baseline, variant):
                        prefix_routing.announce(runtime, origins)
                where = f"{context} step={step}"
                assert store_snapshots(variant) == store_snapshots(baseline), where
                assert provenance_fingerprint(variant) == provenance_fingerprint(baseline), where
                assert observable_counts(variant) == observable_counts(baseline), where
            relations = ["prefix", "route", "best"]
            assert global_state(variant, relations) == global_state(baseline, relations), context
            assert lineage_answers(variant, "best") == lineage_answers(baseline, "best"), context


@pytest.mark.slow
class TestThreadWorkerSweep:
    """Exhaustive thread-backend leg: every worker count must be identical.

    The fast matrix above pins the thread backend at two workers; this
    slow-marked sweep (run by the CI property matrix, excluded from tier-1
    by the ``-m "not slow"`` addopts) replays the full churn scripts at
    worker counts {1, 2, 4}, so key groups queue behind one thread, share
    two, or each get their own before the deferred merge.
    """

    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"workers{w}")
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_worker_counts_identical(
        self, workers, seed, global_state, provenance_fingerprint, store_snapshots
    ):
        net = TOPOLOGIES["as-level"]()
        script = generate_churn_script(seed, net)
        context = f"workers={workers} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with ExitStack() as stack:
            baseline = stack.enter_context(build_runtime(mincost.program(), net, backend="serial"))
            variant = stack.enter_context(build_variant(net, "thread", workers=workers))
            for step, op in enumerate(script):
                apply_op(baseline, op)
                apply_op(variant, op)
                where = f"{context} step={step} op={op}"
                assert store_snapshots(variant) == store_snapshots(baseline), where
                assert provenance_fingerprint(variant) == provenance_fingerprint(baseline), where
                assert variant.provenance.versions() == baseline.provenance.versions(), where
                assert observable_counts(variant) == observable_counts(baseline), where
            expected_state = global_state(baseline, ["link", "path", "minCost"])
            assert global_state(variant, ["link", "path", "minCost"]) == expected_state, context
            assert lineage_answers(variant, "minCost") == lineage_answers(baseline, "minCost"), context
