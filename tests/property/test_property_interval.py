"""Differential-oracle harness for the interval-indexed query path.

The interval index (:class:`repro.core.interval_index.PartitionIntervalIndex`)
answers "all supporting descendants" locally with label-table range scans and
ships one interval request per partition per wave — a completely different
execution strategy from the reference traversal, maintained incrementally by
piggybacking on the provenance engine's per-VID dirty propagation.  The
promise under test is **equivalence**: at every point of an arbitrary churn
schedule, the interval path returns lineage and participant answers *bit-identical* to what the
reference traversal computes — both for single queries and for batched
query waves.

The harness replays the seeded churn scripts of :mod:`churn_harness`
(honouring ``NETTRAILS_CHURN_SEED`` like its siblings).  After every
churn step it computes the traversal oracle first and
the interval answers second: a runtime's per-node query handlers are
rebound by whichever :class:`DistributedQueryEngine` was constructed last,
so the two engines must run strictly in sequence, never interleaved.

Non-vacuity is asserted through the maintenance counters: the schedule must
actually build indexes, run range scans and drain incrementally queued
update ops — otherwise the equivalence would be vacuously true of a path
that never executed.
"""

from __future__ import annotations

import pytest

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from churn_harness import SEEDS, TOPOLOGIES, apply_op, build_variant, generate_churn_script

#: The interval path only serves cache-free, unbounded queries; the same
#: options drive both engines so the diff isolates the execution strategy.
BASELINE = QueryOptions(use_cache=False)


def traversal_oracle(runtime, relation="minCost", limit=4):
    """Reference answers via a fresh traversal-only engine.

    Returns ``(targets, answers)`` where each answer row is the
    canonicalized ``(values, lineage refs, participants, truncated)``
    tuple the interval path must reproduce exactly.
    """
    engine = DistributedQueryEngine(runtime, use_interval_index=False)
    targets = [list(values) for values in sorted(runtime.state(relation), key=repr)[:limit]]
    answers = []
    for values in targets:
        lineage = engine.lineage(relation, values, options=BASELINE)
        participants = engine.participants(relation, values, options=BASELINE)
        answers.append(
            (
                tuple(values),
                sorted(str(ref) for ref in lineage.value),
                set(participants.value),
                lineage.truncated,
            )
        )
    return targets, answers


def interval_answers(runtime, targets, relation="minCost"):
    """The same answers through the interval engine, single-query form."""
    engine = DistributedQueryEngine(runtime, use_interval_index=True)
    answers = []
    for values in targets:
        lineage = engine.lineage(relation, values, options=BASELINE)
        participants = engine.participants(relation, values, options=BASELINE)
        answers.append(
            (
                tuple(values),
                sorted(str(ref) for ref in lineage.value),
                set(participants.value),
                lineage.truncated,
            )
        )
    return answers


def interval_batch_answers(runtime, targets, relation="minCost"):
    """The same answers through one batched interval wave per query mode."""
    engine = DistributedQueryEngine(runtime, use_interval_index=True)
    if not targets:
        return []
    lineage = engine.query_batch(relation, targets, mode="lineage", options=BASELINE)
    participants = engine.query_batch(
        relation, targets, mode="participants", options=BASELINE
    )
    return [
        (
            tuple(values),
            sorted(str(ref) for ref in lineage[index].value),
            set(participants[index].value),
            lineage[index].truncated,
        )
        for index, values in enumerate(targets)
    ]


class TestIntervalTraversalEquivalence:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", ["star", "as-level"])
    def test_interval_answers_match_traversal_across_matrix(self, topology_name, seed):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        runtime = build_variant(net)
        for step, op in enumerate(script):
            apply_op(runtime, op)
            targets, expected = traversal_oracle(runtime)
            assert interval_answers(runtime, targets) == expected, (
                f"{context} step={step} op={op} (single queries)"
            )
            assert interval_batch_answers(runtime, targets) == expected, (
                f"{context} step={step} op={op} (batched wave)"
            )

        # Non-vacuity: the interval path must have really executed —
        # indexes built, label tables scanned, and (after the first step's
        # build) churn drained through the incremental pending queues rather
        # than falling back to rebuilds every time.
        totals = runtime.provenance.interval_totals()
        assert totals.get("builds", 0) > 0, f"{context}: no index was ever built"
        assert totals.get("range_scans", 0) > 0, f"{context}: no range scan ran"
        assert totals.get("pending_applied", 0) > 0, (
            f"{context}: churn never exercised incremental maintenance"
        )
