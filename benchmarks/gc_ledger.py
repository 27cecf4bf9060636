"""What the cyclic garbage collector costs, per workload and cycle.

Builds each workload of the benchmark exactly as ``bench/run.py`` does —
through ``bench.workloads``, ``bench.harness`` and ``bench.sizes``, nothing
under ``bench/`` is changed — runs its warm-up and then N measured cycles with
``gc.callbacks`` timers, and prints for every cycle:

* collections and pause seconds per generation;
* the pause share of the cycle (pause seconds over the summed operation time);
* the tracked heap after ``gc.collect()`` and its most frequent types.

The per-layer tracer (``bench/run.py --trace 1``) cannot show any of this: a
collection runs inside whichever span happened to allocate the object that
crossed the threshold, so its pause is booked as that layer's self time.

    python benchmarks/gc_ledger.py [--size full|smoke] [--json]

All four workloads are measured, with seed 11 and two cycles after the
warm-up.  Every workload runs in its own child process with
``PYTHONHASHSEED=0`` and no ``NETTRAILS_*`` variable, like the benchmark's
workers, so one workload's heap never inflates the next one's collections.
``--json`` prints one JSON document instead of the table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("churn-scale", "churn-flap", "query-deep", "serve-mixed")
SEED = 11
#: Measured cycles after the warm-up.
CYCLES = 2
TOP_TYPES = 8
CHILD_TIMEOUT_S = 900


class CollectorClock:
    """``gc.callbacks`` hook: collections and pause seconds per generation.

    Only collections that start while :attr:`active` is set are booked, so
    the ledger's own ``gc.collect()`` calls and untimed bookkeeping between
    operations stay out of the figures.
    """

    def __init__(self) -> None:
        self.active = False
        self.collections = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self._started: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter() if self.active else None
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.pause_s[generation] += time.perf_counter() - self._started
            self._started = None

    def reset(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]


def tracked_heap() -> Dict[str, object]:
    """Tracked objects left after a full collection, with the top types."""
    gc.collect()
    objects = gc.get_objects()
    counts = Counter(type(obj).__qualname__ for obj in objects)
    total = len(objects)
    del objects
    return {"tracked": total, "top_types": [[name, count] for name, count in counts.most_common(TOP_TYPES)]}


def measured_cycle(system, plan, clock: CollectorClock) -> Dict[str, object]:
    """Run *plan* once; only the operations themselves are timed and booked."""
    from bench.workloads import Commit

    clock.reset()
    wall = 0.0
    for step in plan:
        if isinstance(step, Commit):
            clock.active = True
            started = time.perf_counter()
            system.commit(step.ops)
        else:
            row = system.resolve(step)
            clock.active = True
            started = time.perf_counter()
            system.query(step.relation, row, step.mode)
        wall += time.perf_counter() - started
        clock.active = False
    pause = sum(clock.pause_s)
    cycle = {
        "wall_s": round(wall, 4),
        "collections": list(clock.collections),
        "pause_s": [round(seconds, 4) for seconds in clock.pause_s],
        "pause_total_s": round(pause, 4),
        "pause_share": round(pause / wall, 4) if wall else 0.0,
    }
    cycle.update(tracked_heap())
    return cycle


def run_workload(name: str, size_name: str) -> Dict[str, object]:
    """Build, warm up and measure one workload in this process."""
    from bench import harness
    from bench.kernel import Pacer
    from bench.sizes import SIZES
    from bench.workloads import WORKLOADS, Step

    workload = WORKLOADS[name]
    size = SIZES[size_name][name]
    scratch = Path(tempfile.mkdtemp(prefix=f"gc-ledger-{name}-")) if workload.needs_scratch else None
    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        step = Step(Pacer())
        system = workload.build(size, SEED, step, *((scratch,) if scratch is not None else ()))
        try:
            warmup = workload.plan(system, size, SEED, size["warmup_fraction"])
            plan = workload.plan(system, size, SEED, 1.0)
            harness.run_cycle(system, warmup)
            after_setup = tracked_heap()
            measured = [measured_cycle(system, plan, clock) for _ in range(CYCLES)]
        finally:
            system.close()
    finally:
        gc.callbacks.remove(clock)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return {
        "operations_per_cycle": len(plan),
        "tracked_after_setup": after_setup["tracked"],
        "cycles": measured,
        "median_pause_share": statistics.median(c["pause_share"] for c in measured),
        "median_full_collections": statistics.median(c["collections"][2] for c in measured),
        "median_tracked": statistics.median(c["tracked"] for c in measured),
    }


def child_environment() -> Dict[str, str]:
    environment = {name: value for name, value in os.environ.items() if not name.startswith("NETTRAILS_")}
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    environment["PYTHONDONTWRITEBYTECODE"] = "1"
    return environment


def run_child(name: str, size_name: str) -> Dict[str, object]:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", name, "--size", size_name],
        cwd=ROOT,
        env=child_environment(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def print_table(document: Dict[str, object]) -> None:
    print(f"gc_ledger  seed={document['seed']}  size={document['size']}  python={document['python']}"
          f"  thresholds={document['thresholds']}")
    for name, result in document["workloads"].items():
        print(f"== {name}: {result['operations_per_cycle']} operations a cycle, "
              f"{result['tracked_after_setup']} tracked objects after set-up")
        print("   cycle   wall_s   gen0 n / s       gen1 n / s       gen2 n / s     pause_s  share   tracked")
        for index, cycle in enumerate(result["cycles"], 1):
            generations = "  ".join(
                f"{count:5d} / {seconds:6.3f}" for count, seconds in zip(cycle["collections"], cycle["pause_s"])
            )
            print(f"   {index:5d} {cycle['wall_s']:8.3f}   {generations}  {cycle['pause_total_s']:7.3f} "
                  f"{cycle['pause_share'] * 100:5.1f}%  {cycle['tracked']:8d}")
        top = ", ".join(f"{type_name} {count}" for type_name, count in result["cycles"][-1]["top_types"])
        print(f"   top tracked types after the last cycle: {top}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", action="store_true", help="print one JSON document instead of the table")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(run_workload(args.child, args.size)))
        return 0

    document = {
        "seed": SEED,
        "size": args.size,
        "python": platform.python_version(),
        "thresholds": list(gc.get_threshold()),
        "workloads": {name: run_child(name, args.size) for name in WORKLOAD_NAMES},
    }
    if args.json:
        print(json.dumps(document, indent=1))
    else:
        print_table(document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
