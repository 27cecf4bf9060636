"""Paired, interleaved benchmark runs of a parent commit against a change.

Exports the parent commit (``git archive``) and the change (the working
tree's tracked and unignored files) into two fresh directories, then runs
``python3 bench/run.py --workload W --seed S`` in each as interleaved
pairs, alternating which side goes first, and writes
``BENCH_<pr>.json``: the method, the host, the claim, per seed and workload
the medians and quartiles of every end-to-end metric with the pairs the
change won (ties count for neither), and every run.

    python benchmarks/pair_bench.py --parent HEAD~1 --pr 43 \\
        --series query-deep:11:10 --series query-deep:53:10 \\
        --series churn-scale:11:3 --series churn-flap:11:3 --series serve-mixed:11:3 \\
        --claim msgs_per_op@query-deep --claim-pct 40 --scratch /tmp/pairs

The pure parts (pair order, quartiles, ``change_wins``, the summaries) take a
runner callable, so they are tested without git or a subprocess.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")

#: ``runner(side, workload, seed)`` -> the last JSON line of ``bench/run.py``
#: (keys ``correct``, ``attempted``, ``failed``, ``metrics``), plus ``exit``.
Runner = Callable[[str, str, int], dict]

#: Figures ``bench/run.py`` prints but leaves out of its JSON line: the raw
#: (not speed-normalised) latencies and the speed factor itself, which moves
#: with the work around it, so a latency claim is read both ways.
PRINTED_METRICS = [
    {"name": f"{kind}_p{q}_raw_ms", "unit": "ms", "better": "lower"}
    for kind in ("commit", "query") for q in (50, 90)
] + [{"name": "bench.host_speed", "unit": "ratio", "better": "lower"}]
_RAW_LINE = re.compile(r"^\s*(commit|query)_p(50|90): [\d.]+ ms \(raw ([\d.]+) ms\)")
_HOST_SPEED_LINE = re.compile(r"^\s*bench\.host_speed\s+([\d.]+) ratio")


def printed_metrics(stdout: str) -> Dict[str, float]:
    """The :data:`PRINTED_METRICS` read from one run's printed lines."""
    found: Dict[str, float] = {}
    for line in stdout.splitlines():
        raw = _RAW_LINE.match(line)
        if raw:
            found[f"{raw.group(1)}_p{raw.group(2)}_raw_ms"] = float(raw.group(3))
        speed = _HOST_SPEED_LINE.match(line)
        if speed:
            found["bench.host_speed"] = float(speed.group(1))
    return found


def pair_order(pair: int) -> Tuple[str, str]:
    """The sides of pair *pair* in running order: the parent first on even pairs."""
    return SIDES if pair % 2 == 0 else (SIDES[1], SIDES[0])


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4, exclusive method)."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def change_wins(parent: Sequence[float], change: Sequence[float], better: str) -> Tuple[int, int]:
    """(pairs the change read better in, ties); a tie counts for neither side."""
    wins = ties = 0
    for old, new in zip(parent, change):
        if new == old:
            ties += 1
        elif (new < old) == (better == "lower"):
            wins += 1
    return wins, ties


def run_series(runner: Runner, workload: str, seed: int, pairs: int) -> List[dict]:
    """*pairs* interleaved pairs of one workload and seed, as run records."""
    records = []
    for pair in range(pairs):
        for side in pair_order(pair):
            result = runner(side, workload, seed)
            records.append({
                "workload": workload, "seed": seed, "pair": pair, "side": side,
                "exit": result.get("exit", 0),
                "attempted": result.get("attempted"), "failed": result.get("failed"),
                "correct": result.get("correct"),
                "metrics": {
                    name: round(entry["value"], 4) if isinstance(entry, dict) else entry
                    for name, entry in result.get("metrics", {}).items()
                },
            })
    return records


def _side_values(records: Iterable[dict], side: str, metric: str) -> List[float]:
    ordered = sorted((r for r in records if r["side"] == side), key=lambda r: r["pair"])
    return [r["metrics"][metric] for r in ordered if metric in r["metrics"]]


def summarise(records: Sequence[dict], metrics: Sequence[dict]) -> dict:
    """One workload-and-seed series: fail shares, and per metric both sides' quartiles and the wins."""
    out: Dict[str, object] = {
        "pairs": len(records) // 2,
        "fail_share": {
            side: round(
                sum(r["failed"] or 0 for r in records if r["side"] == side)
                / max(1, sum(r["attempted"] or 0 for r in records if r["side"] == side)),
                6,
            )
            for side in SIDES
        },
        "all_checks_passed": all(r["exit"] == 0 and r["correct"] is not False for r in records),
        "metrics": {},
    }
    for spec in metrics:
        name, better = spec["name"], spec["better"]
        parent, change = _side_values(records, "parent", name), _side_values(records, "change", name)
        if not parent or len(parent) != len(change):
            continue
        wins, ties = change_wins(parent, change, better)
        p, c = quartiles(parent), quartiles(change)
        out["metrics"][name] = {
            "unit": spec.get("unit"), "better": better, "parent": p, "change": c,
            "change_wins": wins, "ties": ties, "pairs": len(parent),
            "median_change_pct": round(100.0 * (c["median"] - p["median"]) / p["median"], 1) if p["median"] else None,
        }
    return out


def claim_entry(summary: dict, metric: str) -> dict:
    """The claim's figures for one series: medians, the parent's IQR, the gap and the wins."""
    entry = summary["metrics"][metric]
    parent, change = entry["parent"], entry["change"]
    return {
        "parent_median": parent["median"],
        "change_median": change["median"],
        "change_pct": entry["median_change_pct"],
        "change_wins": entry["change_wins"],
        "pairs": entry["pairs"],
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
        "median_gap": round(abs(change["median"] - parent["median"]), 4),
    }


def claim_met(entry: dict, better: str, pct: float) -> bool:
    """Won at least 9 pairs in 10, the median gap above the parent's IQR, moved by *pct* % the right way."""
    moved = -entry["change_pct"] if better == "lower" else entry["change_pct"]
    return (
        entry["change_wins"] * 10 >= 9 * entry["pairs"]
        and entry["median_gap"] > entry["parent_iqr"]
        and moved >= pct
    )


# -- the impure parts: exporting the two sides, running bench/run.py -------------------


def export_commit(repo: str, rev: str, dest: str) -> None:
    """``git archive`` *rev* of *repo* into the empty directory *dest*."""
    data = subprocess.run(["git", "-C", repo, "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def export_worktree(repo: str, dest: str) -> None:
    """Copy the working tree's tracked and unignored files of *repo* into *dest*."""
    listed = subprocess.run(
        ["git", "-C", repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = os.path.join(repo, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def bench_runner(directories: Dict[str, str]) -> Runner:
    """A runner that starts ``bench/run.py`` in each side's directory."""

    def run(side: str, workload: str, seed: int) -> dict:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
            cwd=directories[side], capture_output=True, text=True,
        )
        lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        result["metrics"].update(printed_metrics(proc.stdout))
        result["exit"] = proc.returncode
        print(f"{workload} seed {seed} {side}: exit {proc.returncode}", file=sys.stderr, flush=True)
        return result

    return run


def _host() -> dict:
    return {
        "platform": platform.platform(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=".", help="the git checkout (default: .)")
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--series", action="append", required=True, metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD", help="the claimed metric")
    parser.add_argument("--claim-pct", type=float, default=0.0, help="the claimed move, in percent")
    parser.add_argument("--scratch", required=True, help="an empty directory for both exports")
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json in --repo)")
    args = parser.parse_args(argv)

    repo = os.path.abspath(args.repo)
    directories = {side: os.path.join(os.path.abspath(args.scratch), side) for side in SIDES}
    for path in directories.values():
        os.makedirs(path)
    export_commit(repo, args.parent, directories["parent"])
    export_worktree(repo, directories["change"])
    parent_commit = subprocess.run(
        ["git", "-C", repo, "rev-parse", args.parent], check=True, capture_output=True, text=True
    ).stdout.strip()
    with open(os.path.join(directories["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"] + PRINTED_METRICS

    runner = bench_runner(directories)
    runs: List[dict] = []
    seeds: Dict[str, dict] = {}
    for series in args.series:
        workload, seed, pairs = series.split(":")
        records = run_series(runner, workload, int(seed), int(pairs))
        runs.extend(records)
        seeds.setdefault(seed, {"workloads": {}})["workloads"][workload] = summarise(records, metrics)

    document: Dict[str, object] = {
        "pr": args.pr,
        "parent_commit": parent_commit,
        "method": (
            "python3 bench/run.py --workload W --seed S, parent and change each in its own directory "
            f"(parent: git archive of {parent_commit}; change: the working tree), run as "
            "interleaved pairs alternating which side goes first; medians and quartiles "
            "(statistics.quantiles, n=4) over the pairs; change_wins counts pairs in which the change "
            "read better, ties count for neither. Series: " + ", ".join(args.series)
        ),
        "host": _host(),
    }
    if args.claim:
        metric, workload = args.claim.split("@")
        better = next(spec["better"] for spec in metrics if spec["name"] == metric)
        claim: Dict[str, object] = {"metric": metric, "workload": workload, "asked_pct": args.claim_pct}
        for seed, entry in seeds.items():
            if workload in entry["workloads"]:
                claim[f"seed{seed}"] = claim_entry(entry["workloads"][workload], metric)
        per_seed = [value for key, value in claim.items() if key.startswith("seed")]
        claim["met"] = bool(per_seed) and all(claim_met(e, better, args.claim_pct) for e in per_seed)
        document["claim"] = claim
    document["seeds"] = seeds
    document["runs"] = runs
    out = args.out or os.path.join(repo, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
