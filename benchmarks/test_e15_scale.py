"""E15 — scale saturation: batch size on 1000+-node AS graphs.

The ROADMAP's "larger-scale workloads" item asks where batch sizes saturate
once churn runs on generated AS-level topologies with thousands of nodes.
The scale scenario (1010-node hierarchical ISP graph, BGP-style prefix
announce/withdraw churn plus hub-concentrated link flaps) is re-run with the
churn op stream re-chunked to different ``batch_size`` values — ops per
quiescence window.

What the curve shows: message and event counts per applied delta fall
steeply as the window grows (zero-delay coalescing turns a window into one
batch-first evaluation wave per node) and flatten once windows are large
enough that every wave already touches all affected nodes — the saturation
point.  The same seed produces bit-identical counters run after run.

The default run keeps CI-friendly sizes (one topology, three batch sizes).
Setting ``NETTRAILS_SCALE_BENCH=1`` — the CI ``workflow_dispatch`` opt-in —
extends the sweep to the power-law topology variant and more batch sizes.
"""

import os

import pytest

from repro.engine import topology
from repro.protocols import prefix_routing
from repro.workloads.churn import hot_hub_skew, prefix_announce_withdraw
from scenario import DEFAULT_SEED, run_scenario

#: Default (always-run) sweep: ops per quiescence window.
BATCH_SIZES = (1, 4, 16)

EXTENDED = os.environ.get("NETTRAILS_SCALE_BENCH", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)

#: The two AS-level graphs of the scale scenario: a 1010-node provider
#: hierarchy, and a 1024-node preferential-attachment graph with hub skew.
SCALE_TOPOLOGIES = {
    "isp_hierarchy": lambda seed: topology.isp_hierarchy(
        tier1_count=10, tier2_per_tier1=10, stubs_per_tier2=9, seed=seed
    ),
    "power_law": lambda seed: topology.power_law(count=1024, attach=2, seed=seed),
}


def run_scale(batch_size=None, topology_kind="isp_hierarchy"):
    """The scale scenario: announce/withdraw toggles plus hub-concentrated
    flaps, with light queries so that the measured cost is churn absorption."""
    _runtime, report = run_scenario(
        SCALE_TOPOLOGIES[topology_kind](DEFAULT_SEED),
        prefix_routing.program(),
        [
            (prefix_announce_withdraw, 5, {"prefixes": 4, "origins_per_prefix": 2, "toggles_per_batch": 2}),
            (hot_hub_skew, 3, {"ops_per_batch": 4}),
        ],
        DEFAULT_SEED,
        batch_size=batch_size,
        queries=("best", 2, 4),
    )
    return report


def churn_cost(report):
    """Churn-side counters: everything after (and excluding) link seeding."""
    totals = report["totals"]
    seed_phase = report["phases"]["seed"]
    return {
        "ops": totals["ops"] - seed_phase["ops"],
        "deltas": totals["deltas"] - seed_phase["deltas"],
        "windows": totals["batches"] - seed_phase["batches"],
        "messages": totals["messages"] - seed_phase["messages"],
        "events": totals["events"] - seed_phase["events"],
        "rounds": totals["rounds"] - seed_phase["rounds"],
    }


def test_scale_profile_runs_end_to_end_at_1000_nodes(benchmark, record):
    """The acceptance scenario: >=1000-node AS hierarchy, churned and queried."""
    report = benchmark.pedantic(run_scale, rounds=1, iterations=1)
    assert report["nodes"] >= 1000, report["nodes"]
    totals = report["totals"]
    assert totals["queries"] > 0, "query waves must interleave with churn"
    assert totals["deltas"] > report["phases"]["seed"]["deltas"], "churn must apply deltas"
    # Every churn phase of the scenario actually contributed batches.
    for phase_name in ("prefix_announce_withdraw", "hot_hub_skew"):
        assert report["phases"][phase_name]["batches"] > 0, phase_name
    record(
        "E15 scale scenario (prefix routing, 1010-node ISP hierarchy)",
        "native batches",
        nodes=report["nodes"],
        deltas=totals["deltas"],
        messages=totals["messages"],
        events=totals["events"],
        rounds=totals["rounds"],
        queries=totals["queries"],
        seconds=round(report["seconds"], 2),
    )


def test_batch_size_saturation_curve(record):
    """Sweeping ops-per-window must trace a falling, flattening cost curve."""
    curve = {}
    for batch_size in BATCH_SIZES:
        report = run_scale(batch_size)
        cost = churn_cost(report)
        curve[batch_size] = cost
        record(
            "E15 batch-size saturation (scale scenario churn)",
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
        "E15 batch-size saturation (scale scenario churn)",
        "window-doubling gain ratio",
        first_step=round(first_gain, 2),
        last_step=round(last_gain, 2),
    )


def test_scale_metrics_identical_across_runs(record):
    """Determinism at scale: same seed => same counters, run after run."""
    first = run_scale(16)
    again = run_scale(16)
    first_seconds, again_seconds = first.pop("seconds"), again.pop("seconds")
    assert first == again
    record(
        "E15 determinism (scale scenario, batch_size=16)",
        "two runs: identical counters",
        messages=first["totals"]["messages"],
        first_seconds=round(first_seconds, 2),
        again_seconds=round(again_seconds, 2),
    )


@pytest.mark.skipif(not EXTENDED, reason="opt-in: set NETTRAILS_SCALE_BENCH=1")
def test_extended_scale_sweep(record):
    """The workflow_dispatch big run: both AS topologies, wider sweep."""
    for topology_kind in ("isp_hierarchy", "power_law"):
        for batch_size in (1, 4, 16, 64, None):
            report = run_scale(batch_size, topology_kind)
            assert report["nodes"] >= 1000
            cost = churn_cost(report)
            record(
                f"E15 extended sweep (scale-{topology_kind}, {report['nodes']} nodes)",
                f"batch_size={batch_size}",
                messages=cost["messages"],
                events=cost["events"],
                rounds=cost["rounds"],
                seconds=round(report["seconds"], 2),
            )
