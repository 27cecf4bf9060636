"""E17 — durability: WAL overhead, recovery time, concurrent-client serving.

Three measurements pin the durability subsystem (``repro.durability``):

* **WAL overhead** — the same seeded churn history runs on a plain runtime
  and on a durable one (``wal_fsync=False``; the fsync barrier is a
  deployment knob, not a message-path cost).  Journalling must be invisible
  on the wire (bit-identical message/event counts) and cost **< 2.5x**
  wall-clock on the message path.
* **Recovery time** — crash after the full history, then recover by genesis
  replay and by checkpoint bootstrap + tail replay; both must reproduce the
  uncrashed store and provenance bit-identically (the property oracle in
  ``tests/property/test_property_recovery.py`` proves this at *every* kill
  point; here it feeds the perf artifact), and the per-mode timings /
  replay counts land in ``MetricsReport.recovery``.
* **Concurrent-client serving** — N client threads × Zipf query mixes
  against a :class:`~repro.durability.ServiceRuntime` while churn commits
  interleave; client-observed latency percentiles (p50/p95/p99, queueing on
  the service lock included) land in ``MetricsReport.latency``.

The compact variants feed the CI perf gate via ``emit_bench_json.py``
(``e17.*`` metrics): WAL record/op counts and replay counts are
deterministic and gated; every wall-clock figure (overhead ratio, recovery
seconds, latency percentiles) is recorded ungated.
"""

from __future__ import annotations

import copy
import random
import time

from repro.durability import RecoveryManager, ServiceRuntime, scan, wal_path
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost
from repro.workloads.churn import ChurnBatch, apply_batch, random_link_churn
from repro.workloads.clients import ClientMix, run_concurrent_clients
from repro.workloads.driver import MetricsReport

SEED = 3
STEPS = 8


def churn_script(net, seed=SEED, steps=STEPS):
    mirror = copy.deepcopy(net)
    return [
        ChurnBatch(index=index, phase="random_link_churn", ops=ops)
        for index, ops in enumerate(random_link_churn(mirror, random.Random(seed), steps))
    ]


def run_history(net, script, **knobs):
    """Seed + replay the script; returns (runtime closed, flat counters)."""
    started = time.perf_counter()
    with NetTrailsRuntime(mincost.SOURCE, copy.deepcopy(net), **knobs) as runtime:
        runtime.seed_links(run=True)
        for batch in script:
            apply_batch(runtime, batch, run=True)
        counters = {
            "messages": runtime.message_stats().messages,
            "events": runtime.simulator.processed_events,
            "rounds": runtime.simulator.rounds,
            "fingerprint_size": sum(
                len(runtime.provenance.store(node).prov_table())
                for node in runtime.node_ids()
            ),
        }
    counters["seconds"] = time.perf_counter() - started
    return counters


def run_wal_overhead(dims=(8,), seed=SEED, steps=STEPS, durable_dir=None):
    """Plain vs durable (no-fsync) replay of one churn history.

    ``durable_dir`` must be a fresh directory (the caller owns tmp cleanup).
    Returns the plain/durable counter dicts plus WAL shape and the
    wall-clock overhead ratio.
    """
    net = topology.ring(*dims)
    script = churn_script(net, seed=seed, steps=steps)
    plain = run_history(net, script)
    durable = run_history(
        net, script, durable_dir=durable_dir, wal_fsync=False
    )
    result = scan(wal_path(durable_dir))
    return {
        "plain": plain,
        "durable": durable,
        "overhead_ratio": durable["seconds"] / max(plain["seconds"], 1e-9),
        "wal_records": len(result.records),
        "wal_bytes": result.total_bytes,
        "wal_ops": sum(
            len(record.data["ops"]) for record in result.records
            if record.type == "batch"
        ),
    }


def run_recovery_benchmark(durable_dir, dims=(8,), seed=SEED, steps=STEPS,
                           checkpoint_after=STEPS // 2):
    """One durable history with a mid-run checkpoint; recover both ways.

    Returns per-mode recovery metrics plus an ``identical`` flag comparing
    each recovered runtime's store snapshots against the uncrashed twin.
    """
    net = topology.ring(*dims)
    script = churn_script(net, seed=seed, steps=steps)
    with NetTrailsRuntime(
        mincost.SOURCE, copy.deepcopy(net),
        durable_dir=durable_dir, wal_fsync=False,
    ) as runtime:
        runtime.seed_links(run=True)
        for index, batch in enumerate(script):
            apply_batch(runtime, batch, run=True)
            if index + 1 == checkpoint_after:
                runtime.checkpoint()
        expected = {
            repr(node): runtime.nodes[node].store.snapshot()
            for node in runtime.node_ids()
        }
    # close() == crash here: the WAL is flushed at every commit point.

    metrics = {}
    identical = True
    batches = {}
    for mode in ("genesis", "checkpoint"):
        result = RecoveryManager(durable_dir).recover(mode=mode, attach=False)
        try:
            recovered = {
                repr(node): result.runtime.nodes[node].store.snapshot()
                for node in result.runtime.node_ids()
            }
            identical = identical and recovered == expected and result.mode == mode
            batches[mode] = result.batches_replayed
            metrics.update(result.recovery_metrics())
        finally:
            result.runtime.close()
    return {"metrics": metrics, "identical": identical, "batches": batches}


def run_concurrent_serving(dims=(8,), seed=SEED, clients=4, queries_per_client=12):
    """Client fleet × interleaved churn against a (non-durable) service.

    Durable mode is measured by the overhead benchmark; serving latency is
    about lock arbitration, which is identical either way.  Returns the
    client report plus the assembled ``MetricsReport`` latency payload.
    """
    net = topology.ring(*dims)
    script = churn_script(net, seed=seed, steps=4)
    with ServiceRuntime("mincost", net) as service:
        service.seed_links()
        mix = ClientMix(clients=clients, queries_per_client=queries_per_client)
        report = run_concurrent_clients(
            service, mix, seed=seed, churn_batches=script
        )
        latency = service.latency_metrics()
    return {"report": report, "latency": latency}


def test_e17_wal_overhead_stays_under_bound(tmp_path, record):
    outcome = run_wal_overhead(durable_dir=tmp_path / "durable")
    assert outcome["durable"]["messages"] == outcome["plain"]["messages"], (
        "journalling changed the wire traffic"
    )
    assert outcome["durable"]["events"] == outcome["plain"]["events"]
    assert outcome["durable"]["fingerprint_size"] == outcome["plain"]["fingerprint_size"]
    assert outcome["overhead_ratio"] < 2.5, (
        f"durable message path is {outcome['overhead_ratio']:.2f}x the plain "
        "runtime (bound: 2.5x with wal_fsync=False)"
    )
    assert outcome["wal_records"] == 1 + 1 + STEPS  # init + seed + churn windows
    record(
        "E17 durability: WAL overhead (8-node ring, 8 churn windows)",
        f"{outcome['wal_records']} WAL records, {outcome['wal_bytes']} bytes",
        plain_seconds=round(outcome["plain"]["seconds"], 3),
        durable_seconds=round(outcome["durable"]["seconds"], 3),
        overhead_ratio=round(outcome["overhead_ratio"], 2),
        wal_ops=outcome["wal_ops"],
    )


def test_e17_recovery_is_identical_and_measured(tmp_path, record):
    outcome = run_recovery_benchmark(tmp_path / "durable")
    assert outcome["identical"], "a recovered runtime diverged from the uncrashed twin"
    assert outcome["batches"]["genesis"] == 1 + STEPS
    assert outcome["batches"]["checkpoint"] == STEPS - STEPS // 2
    metrics = outcome["metrics"]
    report = MetricsReport(
        scenario="e17-recovery", seed=SEED,
        batch_size=None, nodes=8, edges=8, trace_digest="",
        recovery=metrics,
    )
    document = report.to_dict()
    assert document["recovery"]["genesis_seconds"] >= 0.0
    assert document["recovery"]["checkpoint_batches_replayed"] < (
        document["recovery"]["genesis_batches_replayed"]
    )
    assert "recovery" not in report.deterministic_view()
    record(
        "E17 durability: crash recovery (8-node ring, checkpoint mid-run)",
        f"genesis {outcome['batches']['genesis']} vs "
        f"checkpoint {outcome['batches']['checkpoint']} batches replayed",
        genesis_seconds=round(metrics["genesis_seconds"], 3),
        checkpoint_seconds=round(metrics["checkpoint_seconds"], 3),
    )


def test_e17_concurrent_clients_report_latency_percentiles(record):
    outcome = run_concurrent_serving()
    client_report = outcome["report"]
    assert client_report.issued == 4 * 12
    assert client_report.commits == 4
    report = MetricsReport(
        scenario="e17-serving", seed=SEED,
        batch_size=None, nodes=8, edges=8, trace_digest="",
        latency=outcome["latency"],
    )
    document = report.to_dict()
    for key in ("query_p50", "query_p95", "query_p99", "commit_mean"):
        assert key in document["latency"], document["latency"]
    assert 0.0 < document["latency"]["query_p50"] <= document["latency"]["query_p99"]
    assert "latency" not in report.deterministic_view()
    record(
        "E17 durability: concurrent-client serving (4 clients x 12 queries)",
        f"{client_report.issued} queries over {client_report.commits} interleaved commits",
        p50=outcome["latency"]["query_p50"],
        p95=outcome["latency"]["query_p95"],
        p99=outcome["latency"]["query_p99"],
        errors=client_report.errors,
    )
