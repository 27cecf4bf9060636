"""The benchmark's one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--size full|smoke]

(also ``python3 -m bench.run``).  Every workload runs in fresh child
processes (``bench.worker``) whose environment has ``PYTHONHASHSEED=0`` and no
``NETTRAILS_*`` variable, so nothing from the caller's shell pins a knob or
reorders a set.  The set-up is repeated in separate processes and its median
reported; everything else comes from one full run.  Every metric is printed by
name with its unit, outputs are verified, and the exit code is non-zero when a
check fails.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT) not in sys.path:  # run as a script, sys.path starts at bench/
    sys.path.insert(0, str(ROOT))

from bench.sizes import SIZES  # noqa: E402

WORKLOAD_NAMES = ("churn-scale", "churn-flap", "query-deep", "serve-mixed")
DEFAULT_SEED = 11
CHILD_TIMEOUT_S = 170


def default_seconds() -> float:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return float(json.load(handle)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 15.0


def child_environment() -> Dict[str, str]:
    """The caller's environment minus every knob, plus the pinned hash seed."""
    environment = {
        name: value for name, value in os.environ.items() if not name.startswith("NETTRAILS_")
    }
    dropped = sorted(name for name in os.environ if name.startswith("NETTRAILS_"))
    if dropped:
        print(f"bench.run: not passing {', '.join(dropped)} on to the workloads", file=sys.stderr)
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    # Import cost is part of setup_s, so it must not depend on whether an earlier
    # run left compiled files behind: never write them, never find old ones.
    environment["PYTHONDONTWRITEBYTECODE"] = "1"
    environment["PYTHONPYCACHEPREFIX"] = str(BENCH_DIR / "out" / "no-bytecode")
    return environment


def run_child(arguments: List[str], environment: Dict[str, str]) -> Tuple[int, List[str]]:
    """Run one ``bench.worker``; returns its exit code and its output lines."""
    completed = subprocess.run(
        [sys.executable, "-m", "bench.worker"] + arguments,
        cwd=ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    return completed.returncode, completed.stdout.splitlines()


def run_workload(name: str, args, environment: Dict[str, str]) -> Optional[Tuple[Dict[str, object], int]]:
    """All processes of one workload; returns its result object and the worker's
    exit code, or None if a child broke."""
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--size", args.size]
    setups: List[float] = []
    if not args.trace:
        for _ in range(SIZES[args.size][name]["setup_repeats"] - 1):
            code, lines = run_child(common + ["--phase", "setup"], environment)
            if code != 0 or not lines:
                print("\n".join(lines))
                return None
            setups.append(json.loads(lines[-1])["setup_s"])
    code, lines = run_child(
        common + ["--trace", str(args.trace), "--inject", args.inject], environment
    )
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        print("\n".join(lines))
        return None
    print("\n".join(lines[:-1]))
    if "setup_s" in result["metrics"]:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"  setup_s over {len(setups)} processes: "
              + ", ".join(f"{value:.4f}" for value in setups)
              + f" -> median {result['metrics']['setup_s']['value']:.4f} s")
    return result, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="derives topology, origins, cycle contents and query targets")
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="how long the measured cycles run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="report the per-layer metrics of a traced cycle instead of the end-to-end ones")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject", choices=("none", "answer", "state"), default="none",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    environment = child_environment()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results: Dict[str, Dict[str, object]] = {}
    exit_code = 0
    for name in names:
        outcome = run_workload(name, args, environment)
        if outcome is None:
            print(f"bench.run: workload {name} did not produce a result", file=sys.stderr)
            return 2
        results[name], code = outcome
        exit_code = max(exit_code, code)
    if args.workload:
        combined = results[args.workload]
    else:
        combined = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(combined))
    return exit_code if exit_code else (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
