"""E9 — snapshot, log store and replay pipeline (§2.3).

Per-node snapshots are captured from a durable run and persisted as a
checkpoint beside its write-ahead log, and the run is replayed batch by
batch from that log — the machinery behind the demonstration's
interactive visualization and replay.
"""

from tempfile import TemporaryDirectory

from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.logstore import ReplaySession, take_snapshot
from repro.protocols import mincost
from repro.viz import provenance_to_dot


def durable_mincost(durable_dir):
    """MINCOST on the E9 topology, journalled to *durable_dir*; batch 1 seeds the links."""
    net = topology.random_connected(8, edge_probability=0.3, seed=29)
    runtime = NetTrailsRuntime(
        mincost.SOURCE, net, program_name="mincost", durable_dir=durable_dir, wal_fsync=False
    )
    runtime.seed_links(run=True)
    return net, runtime


def test_snapshot_collection_and_persistence(benchmark, record):
    with TemporaryDirectory() as durable_dir:
        _, runtime = durable_mincost(durable_dir)
        snapshot = benchmark(take_snapshot, runtime)
        path = runtime.checkpoint()
        runtime.close()
        record(
            "E9 snapshot capture and persistence (MINCOST, 8 nodes)",
            "one system-wide snapshot",
            facts=snapshot.total_facts(),
            nodes=len(snapshot.node_ids()),
            json_bytes=path.stat().st_size,
        )
        # position 1 bootstraps from the checkpoint and verifies its digest
        assert ReplaySession(durable_dir).seek(1).relation("minCost") == snapshot.relation("minCost")


def test_replay_of_a_churn_episode(benchmark, record):
    with TemporaryDirectory() as durable_dir:
        net, runtime = durable_mincost(durable_dir)
        for a, b in sorted(net.edges)[:3]:
            cost = net.cost(a, b)
            runtime.remove_link(a, b)
            runtime.run_to_quiescence()
            runtime.add_link(a, b, cost)
            runtime.run_to_quiescence()
        runtime.close()

        def replay():
            session = ReplaySession(durable_dir)
            start = session.seek(1)
            diffs = []
            while not session.at_end():
                diffs.append(session.step())
            return start, session, diffs

        start, session, diffs = benchmark(replay)
        graph = session.provenance_graph()
        dot = provenance_to_dot(graph)
        record(
            "E9 replay of a churn episode (3 link failures + recoveries)",
            f"{session.position} committed batches",
            replay_steps=len(diffs),
            tuples_removed=sum(diff.removed_count() for diff in diffs),
            tuples_added=sum(diff.added_count() for diff in diffs),
            final_graph_vertices=graph.tuple_count + graph.rule_exec_count,
            dot_bytes=len(dot),
        )
        # churn is symmetric, so the replay ends where it started
        assert start.relation("minCost") == session.current().relation("minCost")
