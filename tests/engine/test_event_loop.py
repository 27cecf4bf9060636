"""The runtime over its one event loop: ordering, failure and lifecycle.

Every node of a :class:`~repro.engine.runtime.NetTrailsRuntime` runs on the
runtime's own :class:`~repro.engine.simulator.Simulator`, one event at a
time.  The simulator suite pins the loop itself; this module pins what the
runtime makes of it:

* a provenance query issued while churn is still in flight reads the same
  answers as one issued after quiescence;
* deliveries, zero-delay drains and periodic log-store captures happen in the same order, at the same virtual times, run after
  run;
* a drain that raises does so at the same event, with the same state left
  behind, every time the same input is fed;
* two runtimes driven in turn share nothing;
* ``close()`` is idempotent, and a durable run recovers bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.node import Node
from repro.engine.runtime import NetTrailsRuntime
from repro.logstore.store import LogStore
from repro.protocols import mincost


def lineage_of(runtime, values):
    queries = DistributedQueryEngine(runtime)
    lineage = queries.lineage("minCost", list(values))
    participants = queries.participants("minCost", list(values))
    return sorted(str(ref) for ref in lineage.value), set(participants.value)


class TestQueriesDuringChurn:
    def churned_runtime(self):
        runtime = NetTrailsRuntime(mincost.program(), topology.star(8))
        runtime.seed_links(run=True)
        target = sorted(runtime.state("minCost"), key=repr)[0]
        # Churn is issued but NOT run: the query's own run interleaves
        # traversal with the churn's deltas.
        runtime.remove_link("n0", "n3")
        runtime.add_link("n0", "n3", 2.0)
        return runtime, target

    def test_query_during_churn_matches_a_query_after_quiescence(self, store_snapshots):
        runtime, target = self.churned_runtime()
        during = lineage_of(runtime, target)
        settled, _ = self.churned_runtime()
        settled.run_to_quiescence()
        assert during == lineage_of(settled, target)
        assert store_snapshots(runtime) == store_snapshots(settled)

    def test_query_during_churn_is_identical_run_after_run(self, store_snapshots):
        outcomes = []
        for _ in range(2):
            runtime, target = self.churned_runtime()
            outcomes.append(
                (
                    lineage_of(runtime, target),
                    store_snapshots(runtime),
                    runtime.message_stats().messages,
                    runtime.simulator.processed_events,
                    runtime.simulator.rounds,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestOrdering:
    def test_delivery_order_identical_run_after_run(self, monkeypatch):
        def deliveries():
            log = []
            with monkeypatch.context() as patch:
                runtime = NetTrailsRuntime(mincost.program(), topology.star(8))
                receive = Node.receive

                def logged_receive(node, message):
                    log.append((runtime.simulator.now, message))
                    receive(node, message)

                patch.setattr(Node, "receive", logged_receive)
                runtime.seed_links(run=True)
            return [
                (round(when, 6), message.sender, message.receiver, str(message.payload))
                for when, message in log
            ]

        expected = deliveries()
        assert expected, "workload produced no deliveries"
        assert [when for when, *_ in expected] == sorted(when for when, *_ in expected)
        assert deliveries() == expected

    def test_hub_coalesces_every_spoke_wave(self, store_snapshots):
        """Spokes' deltas reach the hub at shared instants; the hub drains
        each instant's arrivals as one batch, with the same counts every run."""

        def run():
            runtime = NetTrailsRuntime(mincost.program(), topology.star(8))
            runtime.seed_links(run=True)
            hub = runtime.nodes["n0"]
            return (
                store_snapshots(runtime),
                hub.stats.batches_processed,
                hub.stats.deltas_received,
                runtime.message_stats().messages,
                runtime.simulator.processed_events,
            )

        first = run()
        _, batches, deltas, _, _ = first
        assert 0 < batches < deltas
        assert run() == first

    def test_periodic_captures_identical_run_after_run(self):
        """Log-store captures are events like any other; each lands at its
        own virtual time mid-convergence and sees the same state every run."""

        def captures():
            store = LogStore()
            runtime = NetTrailsRuntime(mincost.program(), topology.ring(6))
            store.schedule_periodic(runtime, interval=0.01, count=6)
            runtime.seed_links(run=True)
            return [
                (snap.time, snap.label, snap.relation("path"), snap.relation("minCost"), snap.traffic)
                for snap in store.snapshots()
            ]

        first = captures()
        assert len(first) == 6 and first[0][2] != first[-1][2]
        assert [capture[0] for capture in first] == sorted(capture[0] for capture in first)
        assert captures() == first

    def test_runtimes_driven_in_turn_share_nothing(self, store_snapshots):
        """Each runtime owns its simulator, so interleaving two runtimes'
        calls changes neither from what it reaches alone."""

        def build():
            return NetTrailsRuntime(mincost.program(), topology.ring(5))

        def observe(runtime):
            return (
                store_snapshots(runtime),
                runtime.message_stats().messages,
                runtime.simulator.processed_events,
                runtime.simulator.now,
            )

        alone = build()
        alone.seed_links(run=True)
        alone.remove_link("n0", "n1")
        alone.run_to_quiescence()

        first, second = build(), build()
        first.seed_links(run=False)
        second.seed_links(run=False)
        first.run_to_quiescence()
        second.run_to_quiescence()
        second.remove_link("n0", "n1")
        first.remove_link("n0", "n1")
        first.run_to_quiescence()
        second.run_to_quiescence()
        assert observe(first) == observe(alone)
        assert observe(second) == observe(alone)


#: ``r2`` divides by the link cost, so a zero-cost link makes a drain raise.
DIVIDE_PROGRAM = """
r1 hop(@D, S, X) :- link(@S, D, X).
r2 out(@D, S, C) :- hop(@D, S, X), C := 10 / X.
"""


def link_rows_with_zero_costs(net, seed):
    """Both directions of every edge, seeded costs, at least one cost 0."""
    rng = random.Random(seed)
    rows = [[source, target, rng.choice([0, 1, 2, 5])] for source, target, _ in net.directed_edges()]
    rows[rng.randrange(len(rows))][2] = 0
    return rows


class TestFailurePoint:
    @pytest.mark.parametrize("seed", [3, 11, 29], ids=lambda s: f"seed{s}")
    def test_failure_point_is_identical_run_after_run(self, seed, store_snapshots):
        """The raising drain is the same event, at the same virtual time,
        with the same state and queue left behind, on every run."""

        def fail():
            runtime = NetTrailsRuntime(DIVIDE_PROGRAM, topology.star(4))
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                runtime.insert_batch("link", link_rows_with_zero_costs(runtime.topology, seed), run=True)
            return (
                runtime.simulator.processed_events,
                runtime.simulator.now,
                runtime.simulator.pending_events,
                store_snapshots(runtime),
                runtime.message_stats().messages,
            )

        first = fail()
        assert first[0] > 0 and first[4] > 0, "the drain raised before any delivery"
        assert fail() == first


class TestLifecycle:
    def test_close_is_idempotent_and_leaves_state_readable(self, tmp_path):
        with NetTrailsRuntime(
            mincost.SOURCE, topology.line(3), durable_dir=tmp_path, wal_fsync=False
        ) as runtime:
            runtime.seed_links(run=True)
            expected = runtime.state("minCost")
            runtime.close()
            runtime.close()
        runtime.close()
        assert runtime.state("minCost") == expected
        assert (tmp_path / "wal.log").stat().st_size > 0

    def test_durable_run_recovers_bit_for_bit(self, tmp_path, store_snapshots, provenance_fingerprint):
        from repro.durability.recovery import RecoveryManager

        with NetTrailsRuntime(
            mincost.SOURCE, topology.ring(5), durable_dir=tmp_path, wal_fsync=False
        ) as runtime:
            runtime.seed_links(run=True)
            runtime.remove_link("n0", "n1")
            runtime.run_to_quiescence()
            runtime.insert("link", ["n0", "n2", 9])
            runtime.run_to_quiescence()
            expected = (store_snapshots(runtime), provenance_fingerprint(runtime))
        result = RecoveryManager(tmp_path).recover(wal_fsync=False, attach=False)
        try:
            recovered = result.runtime
            assert (store_snapshots(recovered), provenance_fingerprint(recovered)) == expected
        finally:
            result.runtime.close()
