"""E15 — scale saturation: batch size on 1000+-node AS graphs.

The ROADMAP's "larger-scale workloads" item asks where batch sizes saturate
once churn runs on generated AS-level topologies with thousands of nodes.
The workload subsystem makes that a sweep: the ``scale`` profile (1010-node
hierarchical ISP graph, BGP-style prefix announce/withdraw churn plus
hub-concentrated link flaps) is re-run with the churn op stream re-chunked
to different ``batch_size`` values — ops per quiescence window.

What the curve shows: message and event counts per applied delta fall
steeply as the window grows (zero-delay coalescing turns a window into one
batch-first evaluation wave per node) and flatten once windows are large
enough that every wave already touches all affected nodes — the saturation
point.  The same spec produces bit-identical deterministic metrics run
after run.

The default run keeps CI-friendly sizes (one topology, three batch sizes).
Setting ``NETTRAILS_SCALE_BENCH=1`` — the CI ``workflow_dispatch`` opt-in —
extends the sweep to the power-law topology variant and more batch sizes.
"""

import json
import os

import pytest

from repro.workloads import ScenarioDriver, profiles

#: Default (always-run) sweep: ops per quiescence window.
BATCH_SIZES = (1, 4, 16)

EXTENDED = os.environ.get("NETTRAILS_SCALE_BENCH", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)


def run_profile(spec):
    """Drive one spec to completion; returns its MetricsReport."""
    with ScenarioDriver(spec) as driver:
        return driver.run()


def run_smoke_profile(seed=profiles.DEFAULT_SEED):
    """The CI-gated smoke scenario (also used by emit_bench_json.py)."""
    return run_profile(profiles.smoke(seed=seed))


def churn_cost(report):
    """Churn-side counters: everything after (and excluding) link seeding."""
    totals = report.totals()
    seed_phase = report.phase("seed")
    return {
        "ops": totals["ops"] - seed_phase.ops,
        "deltas": totals["deltas"] - seed_phase.deltas,
        "windows": totals["batches"] - seed_phase.batches,
        "messages": totals["messages"] - seed_phase.messages,
        "events": totals["events"] - seed_phase.events,
        "rounds": totals["rounds"] - seed_phase.rounds,
    }


def test_scale_profile_runs_end_to_end_at_1000_nodes(benchmark, record):
    """The acceptance scenario: >=1000-node AS hierarchy, churned and queried."""
    spec = profiles.scale()
    report = benchmark.pedantic(lambda: run_profile(spec), rounds=1, iterations=1)
    assert report.nodes >= 1000, report.nodes
    assert report.scenario == "scale-isp_hierarchy"
    totals = report.totals()
    assert totals["queries"] > 0, "query waves must interleave with churn"
    assert totals["deltas"] > report.phase("seed").deltas, "churn must apply deltas"
    # Every named churn phase of the profile actually contributed batches.
    for phase_name in ("prefix_announce_withdraw", "hot_hub_skew"):
        assert report.phase(phase_name).batches > 0, phase_name
    record(
        "E15 scale profile (prefix routing, 1010-node ISP hierarchy)",
        "native batches",
        nodes=report.nodes,
        deltas=totals["deltas"],
        messages=totals["messages"],
        events=totals["events"],
        rounds=totals["rounds"],
        queries=totals["queries"],
        seconds=round(report.seconds, 2),
    )


def test_batch_size_saturation_curve(record):
    """Sweeping ops-per-window must trace a falling, flattening cost curve."""
    spec = profiles.scale()
    curve = {}
    for batch_size in BATCH_SIZES:
        report = run_profile(spec.with_batch_size(batch_size))
        cost = churn_cost(report)
        curve[batch_size] = cost
        record(
            "E15 batch-size saturation (scale profile churn)",
            f"batch_size={batch_size} ({cost['windows']} windows)",
            messages=cost["messages"],
            events=cost["events"],
            rounds=cost["rounds"],
            msgs_per_delta=round(cost["messages"] / cost["deltas"], 2),
        )
    sizes = list(BATCH_SIZES)
    for smaller, larger in zip(sizes, sizes[1:]):
        assert curve[larger]["messages"] < curve[smaller]["messages"], (
            f"batching stopped paying off between batch_size={smaller} "
            f"({curve[smaller]['messages']} msgs) and {larger} "
            f"({curve[larger]['messages']} msgs)"
        )
        assert curve[larger]["events"] < curve[smaller]["events"], (smaller, larger)
    # Saturation: the per-delta message cost flattens — the last doubling of
    # the window saves proportionally less than the first one did.
    first_gain = curve[sizes[0]]["messages"] / curve[sizes[1]]["messages"]
    last_gain = curve[sizes[1]]["messages"] / curve[sizes[2]]["messages"]
    record(
        "E15 batch-size saturation (scale profile churn)",
        "window-doubling gain ratio",
        first_step=round(first_gain, 2),
        last_step=round(last_gain, 2),
    )


def test_scale_metrics_identical_across_runs(record):
    """Determinism at scale: same seed => same counters, run after run."""
    spec = profiles.scale().with_batch_size(16)
    first = run_profile(spec)
    again = run_profile(spec)
    assert first.deterministic_view() == again.deterministic_view()
    record(
        "E15 determinism (scale profile, batch_size=16)",
        "two runs: identical counters",
        messages=first.totals()["messages"],
        first_seconds=round(first.seconds, 2),
        again_seconds=round(again.seconds, 2),
    )


def test_smoke_profile_report_is_json_serialisable():
    """The smoke report is the CI artifact payload; it must render to JSON."""
    report = run_smoke_profile()
    document = json.dumps(report.to_dict(), sort_keys=True)
    assert '"scenario": "smoke"' in document


@pytest.mark.skipif(not EXTENDED, reason="opt-in: set NETTRAILS_SCALE_BENCH=1")
def test_extended_scale_sweep(record):
    """The workflow_dispatch big run: both AS topologies, wider sweep."""
    for topology_kind in ("isp_hierarchy", "power_law"):
        spec = profiles.scale(topology_kind=topology_kind)
        assert spec.topology.build().node_count() >= 1000
        for batch_size in (1, 4, 16, 64, None):
            report = run_profile(spec.with_batch_size(batch_size))
            cost = churn_cost(report)
            record(
                f"E15 extended sweep ({report.scenario}, {report.nodes} nodes)",
                f"batch_size={batch_size}",
                messages=cost["messages"],
                events=cost["events"],
                rounds=cost["rounds"],
                seconds=round(report.seconds, 2),
            )
