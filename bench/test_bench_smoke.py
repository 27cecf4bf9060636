"""Smoke test of the benchmark itself (tier-1; a few seconds).

Each workload at ``--size smoke`` emits every end-to-end metric named in
BENCHMARK.json; the counts that must repeat exactly do so between two runs;
and a corrupted expected answer or base state is reported as failed
operations and a non-zero exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("churn-scale", "churn-flap", "query-deep", "serve-mixed")
EXACT = ("msgs_per_op", "virt_ms_per_commit", "virt_ms_per_query")


def run_benchmark(*arguments: str):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--size", "smoke", "--seconds", "0.1", *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    lines = completed.stdout.splitlines()
    return completed.returncode, json.loads(lines[-1]), completed.stdout


@pytest.fixture(scope="module")
def runs():
    """Every benchmark process this module needs, two at a time (the box has two cores)."""
    wanted = {(workload, repeat): ("--workload", workload, "--seed", "11")
              for workload in WORKLOADS for repeat in (1, 2)}
    wanted["traced"] = ("--workload", "serve-mixed", "--seed", "11", "--trace", "1")
    for fault in ("answer", "state"):
        wanted[fault] = ("--workload", "churn-flap", "--seed", "11", "--inject", fault)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {key: pool.submit(run_benchmark, *arguments) for key, arguments in wanted.items()}
        return {key: future.result() for key, future in futures.items()}


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_end_to_end_metric_and_repeats_its_counts(contract, runs, workload):
    code, first, output = runs[(workload, 1)]
    assert code == 0, output
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    assert set(first["metrics"]) == {metric["name"] for metric in contract["end_to_end"]}
    for metric in contract["end_to_end"]:
        reported = first["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    _code, second, _output = runs[(workload, 2)]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_run_emits_every_per_layer_metric(contract, runs):
    code, result, output = runs["traced"]
    assert code == 0, output
    assert set(result["metrics"]) == {metric["name"] for metric in contract["per_layer"]}
    assert result["metrics"]["durability.wal.appends_per_commit"]["value"] > 0
    assert result["metrics"]["bench.layer_sum_error"]["value"] < 0.02


def test_contract_lists_the_workloads(contract):
    assert tuple(workload["name"] for workload in contract["workloads"]) == WORKLOADS


@pytest.mark.parametrize("fault", ("answer", "state"))
def test_corruption_is_reported_as_failure(runs, fault):
    code, result, _output = runs[fault]
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
