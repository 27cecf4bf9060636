"""E13 — concurrent execution backends: multi-hub drain overlap.

A hierarchical AS topology (three tier-1 hubs in a full mesh, each serving
tier-2 customers and stubs) spreads every churn wave across *many* nodes:
after a tier-1 link flap, the delta batches fan out through the hierarchy and
most simulator waves contain drains of several distinct nodes.

The run models the per-batch commit latency a durable deployment pays
(``batch_commit_stall_s`` — an fsync-like blocking stall that releases the
GIL exactly like real I/O).  The serial reference backend pays the stalls one
after another; :class:`~repro.engine.backends.ThreadPoolBackend` overlaps
the stalls of distinct nodes within each wave, so wall-clock time drops while — this is the
headline assertion — the message counts, simulator event/round counts,
converged protocol state and provenance versions stay *identical* to serial.
"""

import time

from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost

#: Emulated per-batch commit latency (seconds).  Large enough that drain
#: overlap dominates scheduling noise, small enough to keep the benchmark
#: fast; the speedup assertion holds with wide margin (observed ~1.9x).
COMMIT_STALL_S = 0.001
BACKEND_WORKERS = 4


def run_multi_hub_churn(backend, workers=BACKEND_WORKERS):
    """Seed MINCOST on a 3-hub AS hierarchy, flap one link per hub; return metrics."""
    net = topology.isp_hierarchy(3, 2, 1, seed=7)
    start = time.perf_counter()
    with NetTrailsRuntime(
        mincost.program(),
        net,
        backend=backend,
        backend_workers=workers,
        batch_commit_stall_s=COMMIT_STALL_S,
    ) as runtime:
        runtime.seed_links(run=True)
        hubs = [node for node in runtime.node_ids() if str(node).startswith("t1_")]
        links = [(hub, runtime.topology.neighbors(hub)[0]) for hub in hubs]
        for source, target in links:
            runtime.remove_link(source, target)
        runtime.run_to_quiescence()
        for source, target in links:
            runtime.add_link(source, target, 1.0)
        runtime.run_to_quiescence()
        return {
            "seconds": time.perf_counter() - start,
            "messages": runtime.message_stats().messages,
            "events": runtime.simulator.processed_events,
            "rounds": runtime.simulator.rounds,
            "state": {
                relation: runtime.state(relation)
                for relation in ("link", "path", "minCost")
            },
            "versions": runtime.provenance.versions(),
            "batches": sum(
                node.stats.batches_processed for node in runtime.nodes.values()
            ),
        }


def test_thread_backend_speedup_with_identical_counts(benchmark, record):
    serial = run_multi_hub_churn("serial")

    threaded = benchmark.pedantic(
        lambda: run_multi_hub_churn("thread"), rounds=2, iterations=1
    )

    # Concurrency must be invisible to everything but the clock: same wire
    # traffic, same simulator events and rounds, same converged state, same
    # provenance versioning.
    for key in ("messages", "events", "rounds", "state", "versions", "batches"):
        assert threaded[key] == serial[key], key

    # The headline speedup claim.  Observed ~1.9x locally; 0.8 leaves room
    # for noisy CI runners while still requiring genuine overlap.
    assert threaded["seconds"] < serial["seconds"] * 0.8, (
        f"ThreadPoolBackend did not overlap commit stalls: "
        f"serial={serial['seconds']:.2f}s threaded={threaded['seconds']:.2f}s"
    )

    record(
        "E13 concurrent node-drain backends (MINCOST 3-hub AS hierarchy)",
        "serial reference",
        messages=serial["messages"],
        events=serial["events"],
        rounds=serial["rounds"],
        batches=serial["batches"],
        seconds=round(serial["seconds"], 3),
    )
    record(
        "E13 concurrent node-drain backends (MINCOST 3-hub AS hierarchy)",
        "thread backend, 4 workers",
        messages=threaded["messages"],
        events=threaded["events"],
        rounds=threaded["rounds"],
        batches=threaded["batches"],
        seconds=round(threaded["seconds"], 3),
        speedup=round(serial["seconds"] / threaded["seconds"], 2),
    )
