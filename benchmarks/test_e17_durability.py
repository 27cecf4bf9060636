"""E17 — durability: WAL overhead, recovery time, concurrent-client serving.

Three measurements pin the durability subsystem (``repro.durability``):

* **WAL overhead** — the same seeded churn history runs on a plain runtime
  and on a durable one (``wal_fsync=False``; the fsync barrier is a
  deployment knob, not a message-path cost).  Journalling must be invisible
  on the wire (bit-identical message/event counts) and cost **< 2.5x**
  on the message path: the median, over interleaved plain/durable repeats
  that each start from a collected heap, of the durable run's CPU time over
  the plain run's.  A single wall-clock pair of ~40-ms runs can read 5x when
  one full garbage collection lands in the durable window.  The ratio
  cannot see the journal itself: its ten small records are well under 1 %
  of a run's CPU, so a WAL that serialised every record three times would
  still read about 1.05x.  A second check counts the serialisations per
  record instead, which is exact.
* **Recovery time** — crash after the full history, then recover by genesis
  replay and by checkpoint bootstrap + tail replay; both must reproduce the
  uncrashed store and provenance bit-identically (the property oracle in
  ``tests/property/test_property_recovery.py`` proves this at *every* kill
  point; here it feeds the perf artifact), and the per-mode timings /
  replay counts come from ``RecoveryResult.recovery_metrics()``.
* **Concurrent-client serving** — N client threads issuing Zipf-ranked
  lineage queries against a :class:`~repro.durability.ServiceRuntime` while
  churn commits interleave; each client times its own calls, and the
  nearest-rank latency percentiles (p50/p95/p99, queueing on the service
  lock included) are computed here from those samples.

The compact variants feed the CI perf gate via ``emit_bench_json.py``
(``e17.*`` metrics): WAL record/op counts and replay counts are
deterministic and gated; every wall-clock figure (overhead ratio, recovery
seconds, latency percentiles) is recorded ungated.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import random
import statistics
import threading
import time
from types import SimpleNamespace

from repro.durability import RecoveryManager, ServiceRuntime, scan, wal, wal_path
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import NetTrailsError
from repro.obs.registry import Histogram
from repro.protocols import mincost
from repro.workloads import ZipfSampler
from repro.workloads.churn import ChurnBatch, apply_batch, random_link_churn

SEED = 3
STEPS = 8
#: Interleaved plain/durable pairs behind the median overhead ratio.
REPEATS = 5


def churn_script(net, seed=SEED, steps=STEPS):
    mirror = copy.deepcopy(net)
    return [
        ChurnBatch(index=index, phase="random_link_churn", ops=ops)
        for index, ops in enumerate(random_link_churn(mirror, random.Random(seed), steps))
    ]


def run_history(net, script, **knobs):
    """Seed + replay the script; returns (runtime closed, flat counters).

    ``seconds`` is the process CPU time of the run, after a full collection.
    """
    gc.collect()
    started = time.process_time()
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
    counters["seconds"] = time.process_time() - started
    return counters


def run_wal_overhead(dims=(8,), seed=SEED, steps=STEPS, durable_dir=None):
    """Plain vs durable (no-fsync) replay of one churn history, ``REPEATS`` times.

    The plain and durable runs alternate, each durable one journalling into
    its own subdirectory of ``durable_dir``, which must be a fresh directory
    (the caller owns tmp cleanup).  Returns the first plain/durable counter
    dicts with ``seconds`` replaced by the median CPU seconds of their side,
    the WAL shape, and the overhead ratio: the median of the per-repeat
    durable/plain CPU-time ratios.
    """
    net = topology.ring(*dims)
    script = churn_script(net, seed=seed, steps=steps)
    plains, durables = [], []
    for repeat in range(REPEATS):
        plains.append(run_history(net, script))
        durables.append(run_history(
            net, script, durable_dir=os.path.join(durable_dir, f"repeat{repeat}"), wal_fsync=False
        ))
    ratios = [durable["seconds"] / max(plain["seconds"], 1e-9) for plain, durable in zip(plains, durables)]
    plain = dict(plains[0], seconds=statistics.median(run["seconds"] for run in plains))
    durable = dict(durables[0], seconds=statistics.median(run["seconds"] for run in durables))
    result = scan(wal_path(os.path.join(durable_dir, "repeat0")))
    return {
        "plain": plain,
        "durable": durable,
        "overhead_ratio": statistics.median(ratios),
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


def run_clients(service, script, seed, clients, queries_per_client):
    """*clients* threads query Zipf-ranked ``minCost`` rows through
    ``service.query`` while this thread commits *script*: one writer, many
    readers.  A row churned away mid-run fails its query, which counts as an
    error, as a real client would see it.  Returns the issued, error and
    commit counts, and the wall-clock seconds of every query call."""
    rows = service.state("minCost")
    sampler = ZipfSampler(len(rows), 1.2)
    counts = {"issued": 0, "errors": 0, "commits": 0}
    seconds = []
    lock = threading.Lock()

    def client(index):
        rng = random.Random(f"clients:{seed}:{index}")
        for _ in range(queries_per_client):
            started = time.perf_counter()
            try:
                service.query("minCost", list(rows[sampler.sample(rng)]))
                failed = False
            except NetTrailsError:
                failed = True
            elapsed = time.perf_counter() - started
            with lock:
                counts["issued"] += 1
                counts["errors"] += failed
                seconds.append(elapsed)

    threads = [threading.Thread(target=client, args=(index,)) for index in range(clients)]
    for thread in threads:
        thread.start()
    for batch in script:
        service.commit(batch.ops)
        counts["commits"] += 1
    for thread in threads:
        thread.join()
    return counts, seconds


def query_percentiles(seconds):
    """Nearest-rank count/p50/p95/p99 of the query *seconds*, keyed ``query_p50`` ….

    Histogram buckets at the observed values make its nearest-rank
    percentiles exact.
    """
    histogram = Histogram("e17.query_seconds", buckets=tuple(sorted(set(seconds))))
    for value in seconds:
        histogram.observe(value)
    summary = histogram.summary()
    return {f"query_{key}": round(summary[key], 6) for key in ("count", "p50", "p95", "p99")}


def run_concurrent_serving(dims=(8,), seed=SEED, clients=4, queries_per_client=12):
    """Client fleet × interleaved churn against a (non-durable) service.

    Durable mode is measured by the overhead benchmark; serving latency is
    about lock arbitration, which is identical either way.  Returns the
    client counts plus the clients' query latency percentiles.
    """
    net = topology.ring(*dims)
    script = churn_script(net, seed=seed, steps=4)
    with ServiceRuntime("mincost", net) as service:
        service.seed_links()
        counts, seconds = run_clients(service, script, seed, clients, queries_per_client)
    return {"clients": counts, "latency": query_percentiles(seconds)}


def test_e17_wal_overhead_stays_under_bound(tmp_path, record):
    outcome = run_wal_overhead(durable_dir=tmp_path / "durable")
    assert outcome["durable"]["messages"] == outcome["plain"]["messages"], (
        "journalling changed the wire traffic"
    )
    assert outcome["durable"]["events"] == outcome["plain"]["events"]
    assert outcome["durable"]["fingerprint_size"] == outcome["plain"]["fingerprint_size"]
    assert outcome["overhead_ratio"] < 2.5, (
        f"durable message path is {outcome['overhead_ratio']:.2f}x the plain "
        "runtime in median CPU time (bound: 2.5x with wal_fsync=False)"
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


def test_e17_wal_serialises_each_record_once(tmp_path, monkeypatch):
    """One ``json.dumps`` per WAL record over a durable history."""
    calls = []

    def dumps(*args, **kwargs):
        calls.append(1)
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(wal, "json", SimpleNamespace(
        dumps=dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError
    ))
    net = topology.ring(8)
    run_history(net, churn_script(net), durable_dir=tmp_path, wal_fsync=False)
    assert len(calls) == 1 + 1 + STEPS  # init + seed + churn windows


def test_e17_recovery_is_identical_and_measured(tmp_path, record):
    outcome = run_recovery_benchmark(tmp_path / "durable")
    assert outcome["identical"], "a recovered runtime diverged from the uncrashed twin"
    assert outcome["batches"]["genesis"] == 1 + STEPS
    assert outcome["batches"]["checkpoint"] == STEPS - STEPS // 2
    metrics = outcome["metrics"]
    assert metrics["genesis_seconds"] >= 0.0
    assert metrics["checkpoint_seconds"] >= 0.0
    assert metrics["genesis_batches_replayed"] == 1 + STEPS
    assert metrics["checkpoint_batches_replayed"] < metrics["genesis_batches_replayed"]
    record(
        "E17 durability: crash recovery (8-node ring, checkpoint mid-run)",
        f"genesis {outcome['batches']['genesis']} vs "
        f"checkpoint {outcome['batches']['checkpoint']} batches replayed",
        genesis_seconds=round(metrics["genesis_seconds"], 3),
        checkpoint_seconds=round(metrics["checkpoint_seconds"], 3),
    )


def test_e17_concurrent_clients_report_latency_percentiles(record):
    outcome = run_concurrent_serving()
    clients, latency = outcome["clients"], outcome["latency"]
    assert clients["issued"] == 4 * 12
    assert clients["commits"] == 4
    for key in ("query_p50", "query_p95", "query_p99"):
        assert key in latency, latency
    assert latency["query_count"] == clients["issued"]
    assert 0.0 < latency["query_p50"] <= latency["query_p99"]
    record(
        "E17 durability: concurrent-client serving (4 clients x 12 queries)",
        f"{clients['issued']} queries over {clients['commits']} interleaved commits",
        p50=latency["query_p50"],
        p95=latency["query_p95"],
        p99=latency["query_p99"],
        errors=clients["errors"],
    )
