"""A/A check: two interleaved sets of runs of the same code must agree.

    python3 bench/aa_check.py [--runs 3] [--seed 11] [--seconds S] [--workload NAME] [--out FILE]

Runs the benchmark as A B A B ... (``--runs`` each), prints each side's
median and quartiles for every workload/metric pair, and fails when two
medians differ by more than the metric's bound in BENCHMARK.json or when a
count that must repeat exactly differs at all between any two runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: Identical for one commit and seed, to the last bit.
EXACT = ("msgs_per_op", "bytes_per_op", "virt_ms_per_commit", "virt_ms_per_query")


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(completed.stdout.splitlines()[-1])
    if completed.returncode != 0 or not result["correct"]:
        raise SystemExit(f"aa_check: {workload} failed its checks:\n{completed.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    low, middle, high = statistics.quantiles(values, n=4)
    return f"{middle:.4f} [{low:.4f}, {high:.4f}]"


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(prog="bench/aa_check.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=3, help="runs per side (at least 3)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--workload", action="append",
                        choices=[workload["name"] for workload in contract["workloads"]])
    parser.add_argument("--out", type=Path, default=None, help="also write the report to this file")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    workloads = args.workload or [workload["name"] for workload in contract["workloads"]]
    bounds = {metric["name"]: metric for metric in contract["end_to_end"]}

    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        side: {workload: {} for workload in workloads} for side in "AB"
    }
    for index in range(args.runs):
        for side in "AB":
            for workload in workloads:
                print(f"run {index + 1}/{args.runs} side {side} {workload}", file=sys.stderr, flush=True)
                for name, value in one_run(workload, args.seed, args.seconds).items():
                    samples[side][workload].setdefault(name, []).append(value)

    lines = [f"A/A check: {args.runs} runs a side, interleaved, seed {args.seed}, {args.seconds:g} s",
             f"{'workload':12s} {'metric':20s} {'A median [q1, q3]':34s} {'B median [q1, q3]':34s} "
             f"{'diff':>8s} {'bound':>6s}"]
    failures = []
    for workload in workloads:
        for name, metric in bounds.items():
            a, b = samples["A"][workload][name], samples["B"][workload][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = abs(median_a - median_b) / min(median_a, median_b)
            verdict = ""
            if name in EXACT and len(set(a + b)) != 1:
                verdict = "  NOT EXACT"
                failures.append(f"{workload}/{name}: values differ between runs: {sorted(set(a + b))}")
            elif difference > metric["bound"]:
                verdict = "  OVER BOUND"
                failures.append(f"{workload}/{name}: medians {median_a:.4f} vs {median_b:.4f} "
                                f"differ by {difference:.1%}, bound {metric['bound']:.0%}")
            lines.append(f"{workload:12s} {name:20s} {quartiles(a):34s} {quartiles(b):34s} "
                         f"{difference:8.2%} {metric['bound']:6.0%}{verdict}")
    lines.append("exact counts identical in every run: "
                 + ("yes" if not any("differ between runs" in f for f in failures) else "NO"))
    lines.extend(f"FAILED: {failure}" for failure in failures)
    lines.append("A/A check " + ("FAILED" if failures else "passed"))
    report = "\n".join(lines)
    print(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
