"""The pure parts of ``pair_bench.py``, driven by a fake runner (no git, no subprocess)."""

from __future__ import annotations

import pytest

from pair_bench import (
    change_wins,
    claim_entry,
    claim_met,
    pair_order,
    printed_metrics,
    quartiles,
    run_series,
    summarise,
)

METRICS = [
    {"name": "msgs_per_op", "unit": "messages", "better": "lower"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
]


class FakeRunner:
    """Answers from fixed per-side sequences and records the running order."""

    def __init__(self, readings):
        self.readings = {side: list(values) for side, values in readings.items()}
        self.calls = []

    def __call__(self, side, workload, seed):
        self.calls.append((side, workload, seed))
        msgs, ops = self.readings[side].pop(0)
        return {
            "correct": True, "attempted": 10, "failed": 1 if side == "parent" else 0,
            "metrics": {"msgs_per_op": {"value": msgs, "unit": "messages"}, "ops_per_s": {"value": ops}},
        }


def test_pairs_alternate_which_side_goes_first():
    assert [pair_order(pair) for pair in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]
    runner = FakeRunner({"parent": [(9, 1)] * 3, "change": [(3, 2)] * 3})
    records = run_series(runner, "query-deep", 11, 3)
    assert [side for side, _, _ in runner.calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {(workload, seed) for _, workload, seed in runner.calls} == {("query-deep", 11)}
    assert [(r["pair"], r["side"]) for r in records] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change"),
    ]


def test_median_and_quartiles():
    assert quartiles([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}
    assert quartiles([1, 2, 3, 4, 5]) == {"median": 3, "q1": 1.5, "q3": 4.5, "n": 5}
    assert quartiles([4, 1, 3, 2]) == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}


def test_ties_count_for_neither_side():
    assert change_wins([10, 10, 10, 10], [9, 10, 11, 8], "lower") == (2, 1)
    assert change_wins([10, 10, 10, 10], [9, 10, 11, 8], "higher") == (1, 1)
    assert change_wins([7, 7], [7, 7], "lower") == (0, 2)


def test_summary_and_claim():
    runner = FakeRunner({
        "parent": [(100, 50), (101, 51), (99, 49), (100, 50)],
        "change": [(40, 60), (41, 61), (100, 62), (39, 48)],
    })
    summary = summarise(run_series(runner, "query-deep", 11, 4), METRICS)
    assert summary["pairs"] == 4
    assert summary["fail_share"] == {"parent": 0.1, "change": 0.0}
    assert summary["all_checks_passed"]
    msgs = summary["metrics"]["msgs_per_op"]
    # pairs in order: parent 100, 101, 99, 100 against change 40, 41, 100, 39
    assert (msgs["change_wins"], msgs["ties"], msgs["pairs"]) == (3, 0, 4)
    assert msgs["parent"]["median"] == 100 and msgs["change"]["median"] == 40.5
    assert summary["metrics"]["ops_per_s"]["change_wins"] == 3
    entry = claim_entry(summary, "msgs_per_op")
    assert entry["change_pct"] == pytest.approx(-59.5)
    assert entry["median_gap"] == 59.5
    assert not claim_met(entry, "lower", 40)  # 3 wins in 4 pairs is below 9 in 10
    assert claim_met(dict(entry, change_wins=4), "lower", 40)
    assert not claim_met(dict(entry, change_wins=4), "lower", 60)


def test_raw_latencies_and_the_speed_factor_are_read_from_the_printed_lines():
    stdout = "\n".join([
        "  query_p90_ms                   1.0944 ms",
        "  commit_p50: 1.471 ms (raw 2.413 ms) over 120 samples, 87% of them within +-20% of it",
        "  query_p90: 1.094 ms (raw 1.918 ms) over 1260 samples, 15% of them within +-20% of it",
        "  bench.host_speed               1.6685 ratio  (reference unit 1.0000 ms; set-up ran at 2.0518)",
        '{"correct": true}',
    ])
    assert printed_metrics(stdout) == {
        "commit_p50_raw_ms": 2.413, "query_p90_raw_ms": 1.918, "bench.host_speed": 1.6685,
    }
