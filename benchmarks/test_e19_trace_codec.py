"""E19 — compact drain traces: pipe bytes of the process-pool backend.

The process-pool backend's delta-encoded drain traces (``trace_delta=True``,
the default) must cut the pipe bytes per remote drain versus shipping raw
pickled traces (``trace_delta=False``).  The per-pipe
:class:`~repro.engine.procpool.TraceCodec` interns facts and hot strings
across drains, so repeated churn over the same link set pays for a fact's
bytes once per worker, not once per wave.  The encoding must be invisible to
the coordinator's replayed state.

The asserted floor (``MIN_BYTES_REDUCTION``) is a margin-safe bound; the
measured reduction (~40 %+ locally) is recorded in the metrics report and
the bench-trajectory JSON.
"""

from __future__ import annotations

from repro.engine import topology
from repro.engine.backends import ProcessPoolBackend
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost

#: Asserted floor for the bytes-per-drain reduction (measured ~40-43%
#: locally, and the reduction *grows* with churn length as the codec's
#: interning tables fill).
MIN_BYTES_REDUCTION = 0.30


def run_trace_bytes(trace_delta, windows=12, dims=(3, 3, 3)):
    """Flap links on a compact hierarchy through the process backend; return
    the channel transport stats and the converged snapshot."""
    backend = ProcessPoolBackend(workers=2, trace_delta=trace_delta)
    with NetTrailsRuntime(
        mincost.program(), topology.isp_hierarchy(*dims, seed=7), backend=backend
    ) as runtime:
        runtime.seed_links(run=True)
        edges = sorted(runtime.topology.edges)
        for i in range(windows):
            a, b = edges[i % len(edges)]
            cost = runtime.topology.cost(a, b)
            runtime.delete("link", [a, b, cost])
            runtime.run_to_quiescence()
            runtime.insert("link", [a, b, cost])
            runtime.run_to_quiescence()
        stats = backend.transport_stats()
        snapshot = runtime.snapshot()
    return stats, snapshot


def bytes_per_drain(stats):
    return (stats["request_bytes"] + stats["reply_bytes"]) / max(1, stats["drains"])


def test_trace_delta_compresses_drain_traffic(record):
    delta_stats, delta_snapshot = run_trace_bytes(trace_delta=True)
    raw_stats, raw_snapshot = run_trace_bytes(trace_delta=False)

    # The acceptance invariant: the wire encoding is invisible to the
    # coordinator's replayed state.
    assert delta_snapshot == raw_snapshot, (
        "trace_delta changed the converged snapshot"
    )
    # One reply per request envelope, one trace per drain, whatever the
    # encoding: the codec only compresses, it never drops or reorders.
    assert delta_stats["drains"] == raw_stats["drains"]

    reduction = 1.0 - bytes_per_drain(delta_stats) / bytes_per_drain(raw_stats)
    assert reduction >= MIN_BYTES_REDUCTION, (
        f"delta-encoded traces stopped compressing: "
        f"{bytes_per_drain(delta_stats):.0f} vs {bytes_per_drain(raw_stats):.0f} "
        f"bytes/drain ({reduction:.1%} saved, floor {MIN_BYTES_REDUCTION:.0%})"
    )

    experiment = "E19 delta-encoded drain traces (MINCOST link flaps, process backend)"
    for label, stats in (("raw pickled traces", raw_stats), ("delta-encoded", delta_stats)):
        record(
            experiment,
            label,
            drains=stats["drains"],
            envelopes=stats["envelopes"],
            request_bytes=stats["request_bytes"],
            reply_bytes=stats["reply_bytes"],
            bytes_per_drain=round(bytes_per_drain(stats), 1),
        )
    record(
        experiment,
        "reduction",
        bytes_per_drain_saved=f"{reduction:.1%}",
    )
