"""Emit the benchmark-trajectory JSON consumed by the CI perf gate.

Runs compact, deterministic versions of the headline experiments —

* **E11** batch-first delta evaluation (a churn workload's counts),
* **E14** per-VID query-cache invalidation (cache hit/miss/eviction counters
  under unrelated churn),
* **E15** the ``smoke`` scenario of :mod:`scenario` (seeded churn generators
  + Zipf query waves; the 1000+-node scale scenario stays in
  ``test_e15_scale.py``),
* **E17** durability (WAL overhead vs a plain runtime, genesis and
  checkpoint recovery of a crashed history, concurrent-client serving
  latency percentiles; the every-kill-point oracle stays in
  ``tests/property/test_property_recovery.py``),
* **E20** the observability layer (paired off/on churn timing on a compact
  hierarchy with the surface-identity invariant, plus the span-tree
  completeness reconciliation against the smoke scenario's counters;
  the <3% overhead gate on the 1010-node scale profile stays in
  ``test_e20_observability.py``) —

and writes one flat JSON document of named metrics (message counts,
simulator events, rounds, wall-clock seconds).  The CI ``bench-trajectory``
job uploads the document as a build artifact, which makes the performance
trajectory of the repository inspectable per commit, and gates merges by
comparing against the committed baseline:

    python benchmarks/emit_bench_json.py --out BENCH_${GITHUB_RUN_ID}.json \
        --check benchmarks/bench_baseline.json

A *gated* metric fails the check when it regresses by more than the
tolerance (default 20%).  Count metrics (messages / events / rounds) are
gated: the engine is deterministic, so any drift is a real behavioural
change.  Wall-clock metrics are recorded for the artifact trail but not
gated — shared CI runners are too noisy for absolute-time gates; the
relative speedup assertions live in the pytest benchmarks (e.g. E11's
parallel-vs-sequential fan-out bound), which the same CI job runs first.

Refresh the baseline after an intentional perf-trajectory change with:

    python benchmarks/emit_bench_json.py --out benchmarks/bench_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_e11_batching import run_churn  # noqa: E402
from test_e14_cache import run_cache_workload, run_capped_workload  # noqa: E402
from test_e17_durability import (  # noqa: E402
    run_concurrent_serving,
    run_recovery_benchmark,
    run_wal_overhead,
)
from test_e20_observability import (  # noqa: E402
    completeness_violations,
    run_completeness,
    run_overhead_ab,
)
from scenario import smoke  # noqa: E402

#: Metrics whose names end with one of these suffixes are wall-clock and
#: therefore recorded but never gated.
UNGATED_SUFFIXES = (".seconds",)


def _metric(value, gate=True, higher_is_better=False):
    """One named metric.  ``gate=True`` enforces the regression check;
    ``higher_is_better=True`` flips its direction (e.g. cache hits, where a
    *drop* is the regression and an increase is the improvement)."""
    entry = {"value": value, "gate": gate}
    if higher_is_better:
        entry["higher_is_better"] = True
    return entry


def collect_metrics() -> dict:
    """Run the trajectory workloads; return {metric_name: {value, gate}}."""
    metrics = {}

    # E11 — batch-first churn absorption.
    start = time.perf_counter()
    batched, deltas = run_churn()
    batched_seconds = time.perf_counter() - start
    metrics["e11.deltas"] = _metric(deltas)
    metrics["e11.batched.messages"] = _metric(batched.message_stats().messages)
    metrics["e11.batched.events"] = _metric(batched.simulator.processed_events)
    metrics["e11.batched.rounds"] = _metric(batched.simulator.rounds)
    metrics["e11.batched.seconds"] = _metric(round(batched_seconds, 3), gate=False)

    # E14 — per-VID cache invalidation under unrelated churn.  Counters are
    # deterministic and gated; the hit rate is derived (recorded for the
    # artifact trail only).
    start = time.perf_counter()
    per_vid = run_cache_workload()
    per_vid_seconds = time.perf_counter() - start
    capped = run_capped_workload().cache_totals()
    metrics["e14.pervid.hits"] = _metric(per_vid["totals"]["hits"], higher_is_better=True)
    metrics["e14.pervid.misses"] = _metric(per_vid["totals"]["misses"])
    metrics["e14.pervid.churn_step_hits"] = _metric(
        sum(per_vid["per_step_hits"]), higher_is_better=True
    )
    metrics["e14.pervid.churn_step_messages"] = _metric(sum(per_vid["per_step_messages"]))
    metrics["e14.pervid.hit_rate"] = _metric(per_vid["hit_rate"], gate=False)
    metrics["e14.pervid.seconds"] = _metric(round(per_vid_seconds, 3), gate=False)
    metrics["e14.capped.evictions"] = _metric(capped["evictions"])
    metrics["e14.capped.entries"] = _metric(capped["entries"])
    if not all(hits > per_vid["cold_hits"] for hits in per_vid["per_step_hits"]):
        raise SystemExit(
            "E14 invariant violated: a churn step's hits no longer exceed the "
            f"cold sweep's intra-sweep reuse ({per_vid['per_step_hits']} vs "
            f"{per_vid['cold_hits']})"
        )

    # E15 — the smoke scenario (seeded churn generators interleaved with
    # Zipf-skewed query waves).  The engine is deterministic, so every
    # counter is gated; wall-clock is recorded only.
    _runtime, report = smoke()
    totals = report["totals"]
    metrics["e15.smoke.deltas"] = _metric(totals["deltas"])
    metrics["e15.smoke.messages"] = _metric(totals["messages"])
    metrics["e15.smoke.events"] = _metric(totals["events"])
    metrics["e15.smoke.rounds"] = _metric(totals["rounds"])
    metrics["e15.smoke.queries"] = _metric(totals["queries"])
    metrics["e15.smoke.query_messages"] = _metric(totals["query_messages"])
    metrics["e15.smoke.cache_hits"] = _metric(
        report["cache"].get("hits", 0), higher_is_better=True
    )
    metrics["e15.smoke.seconds"] = _metric(round(report["seconds"], 3), gate=False)

    # E17 — durability.  WAL shape and replay counts are deterministic and
    # gated; every timing figure (the median CPU-time overhead ratio and
    # run seconds, recovery seconds, latency percentiles) is recorded
    # ungated.  Three hard invariants: the journal is invisible on the wire,
    # the no-fsync message-path overhead stays under 2.5x, and both recovery
    # modes reproduce the uncrashed state bit-identically.
    scratch = tempfile.mkdtemp(prefix="nettrails-e17-")
    try:
        overhead = run_wal_overhead(durable_dir=os.path.join(scratch, "overhead"))
        recovery = run_recovery_benchmark(os.path.join(scratch, "recovery"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    serving = run_concurrent_serving()
    metrics["e17.wal.records"] = _metric(overhead["wal_records"])
    metrics["e17.wal.ops"] = _metric(overhead["wal_ops"])
    metrics["e17.wal.bytes"] = _metric(overhead["wal_bytes"])
    metrics["e17.overhead_ratio"] = _metric(
        round(overhead["overhead_ratio"], 2), gate=False
    )
    metrics["e17.plain.seconds"] = _metric(
        round(overhead["plain"]["seconds"], 3), gate=False
    )
    metrics["e17.durable.seconds"] = _metric(
        round(overhead["durable"]["seconds"], 3), gate=False
    )
    metrics["e17.recovery.genesis_batches"] = _metric(recovery["batches"]["genesis"])
    metrics["e17.recovery.checkpoint_batches"] = _metric(
        recovery["batches"]["checkpoint"]
    )
    metrics["e17.recovery.genesis.seconds"] = _metric(
        round(recovery["metrics"]["genesis_seconds"], 3), gate=False
    )
    metrics["e17.recovery.checkpoint.seconds"] = _metric(
        round(recovery["metrics"]["checkpoint_seconds"], 3), gate=False
    )
    metrics["e17.clients.queries"] = _metric(serving["clients"]["issued"])
    metrics["e17.clients.commits"] = _metric(serving["clients"]["commits"])
    for percentile in ("p50", "p95", "p99"):
        metrics[f"e17.clients.query_{percentile}"] = _metric(
            serving["latency"][f"query_{percentile}"], gate=False
        )
    if overhead["durable"]["messages"] != overhead["plain"]["messages"]:
        raise SystemExit(
            "E17 invariant violated: journalling changed the wire traffic "
            f"({overhead['durable']['messages']} durable vs "
            f"{overhead['plain']['messages']} plain messages)"
        )
    if overhead["overhead_ratio"] >= 2.5:
        raise SystemExit(
            "E17 invariant violated: no-fsync durable overhead reached "
            f"{overhead['overhead_ratio']:.2f}x (bound: 2.5x)"
        )
    if not recovery["identical"]:
        raise SystemExit(
            "E17 invariant violated: a recovered runtime diverged from the "
            "uncrashed twin"
        )

    # E20 — observability.  Part A pairs off/on churn runs on a compact
    # hierarchy (the 1010-node <3% gate stays in the pytest benchmark): the
    # hard invariant is surface identity — telemetry must not perturb one
    # message, event or round — and the CPU seconds / overhead ratio are
    # recorded ungated.  Part B re-runs the smoke scenario with the
    # subsystem on and hard-fails unless the engine-level query spans
    # reconcile exactly with the scenario's totals (and every query trace
    # assembles into a single-rooted tree).
    e20 = run_overhead_ab(reps=2, dims=(4, 4, 4), prefixes=16)
    if e20["enabled_surface"] != e20["disabled_surface"]:
        raise SystemExit(
            "E20 invariant violated: observability changed the observable "
            f"surface ({e20['enabled_surface']} vs {e20['disabled_surface']})"
        )
    metrics["e20.messages"] = _metric(e20["disabled_surface"]["messages"])
    metrics["e20.events"] = _metric(e20["disabled_surface"]["events"])
    metrics["e20.rounds"] = _metric(e20["disabled_surface"]["rounds"])
    metrics["e20.disabled.cpu_seconds"] = _metric(
        round(e20["disabled_median"], 3), gate=False
    )
    metrics["e20.enabled.cpu_seconds"] = _metric(
        round(e20["enabled_median"], 3), gate=False
    )
    metrics["e20.overhead"] = _metric(round(e20["overhead"], 4), gate=False)
    completeness = run_completeness()
    violations = completeness_violations(completeness)
    if violations:
        raise SystemExit(
            "E20 invariant violated: query spans do not reconcile with the "
            "scenario's counters (" + "; ".join(violations) + ")"
        )
    metrics["e20.query_roots"] = _metric(completeness["query_roots"])
    metrics["e20.span_messages"] = _metric(completeness["span_messages"])
    metrics["e20.span_rounds"] = _metric(completeness["span_rounds"])
    metrics["e20.total_spans"] = _metric(completeness["total_spans"], gate=False)
    return metrics


def check_against_baseline(metrics: dict, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = []
    for name, entry in sorted(baseline["metrics"].items()):
        if not entry.get("gate", True) or name.endswith(UNGATED_SUFFIXES):
            continue
        if name not in metrics:
            failures.append(f"{name}: present in baseline but not measured any more")
            continue
        old = entry["value"]
        new = metrics[name]["value"]
        if entry.get("higher_is_better"):
            # Counters where bigger means healthier (cache hits): regression
            # is a drop below tolerance, improvement is a rise above it.
            regressed = new < old * (1.0 - tolerance)
            improved = new > old * (1.0 + tolerance)
        else:
            # A zero baseline means "this cost was eliminated": ANY non-zero
            # value is a regression (0 * (1 + tol) is still 0, so the plain
            # comparison covers it — no truthiness guard, or the metric
            # would silently stop being checked).
            regressed = new > old * (1.0 + tolerance)
            improved = old > 0 and new < old * (1.0 - tolerance)
        if regressed:
            failures.append(
                f"{name}: {new} regressed >{tolerance:.0%} vs baseline {old}"
            )
        elif improved:
            print(
                f"note: {name} improved to {new} (baseline {old}); "
                "consider refreshing benchmarks/bench_baseline.json"
            )
    if failures:
        print("benchmark-trajectory regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    gated = sum(
        1
        for name, entry in baseline["metrics"].items()
        if entry.get("gate", True) and not name.endswith(UNGATED_SUFFIXES)
    )
    print(f"benchmark-trajectory gate OK ({gated} gated metrics within {tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH json to write")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="fail (exit 1) on >tolerance regression vs this committed baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative regression for gated metrics (default 0.20)",
    )
    parser.add_argument(
        "--run-label",
        default=os.environ.get("GITHUB_RUN_ID", "local"),
        help="identifier recorded in the document (default: $GITHUB_RUN_ID or 'local')",
    )
    args = parser.parse_args(argv)

    metrics = collect_metrics()
    document = {
        "run": args.run_label,
        "generated_by": "benchmarks/emit_bench_json.py",
        "tolerance": args.tolerance,
        "metrics": metrics,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(metrics)} metrics)")

    if args.check:
        return check_against_baseline(metrics, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
