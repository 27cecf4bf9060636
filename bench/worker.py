"""One workload, one process: set-up, warm-up, measured cycles, verification.

Started by ``bench/run.py`` with a clean environment (``PYTHONHASHSEED=0``,
no ``NETTRAILS_*`` variable); refuses to run otherwise.  Prints every metric
by name with its unit, then — as the last line — one JSON object.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # before the program is imported: set-up includes it

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from bench.kernel import REF_UNIT_S, Pacer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

#: sizes.py gives each workload the number of cycles that fills this many
#: seconds at the reference host speed; --seconds scales that number.
NOMINAL_SECONDS = 15.0
#: Stop adding cycles once the measured phase has taken this many times --seconds.
SAFETY_FACTOR = 1.5


@dataclass
class Measured:
    """The cycles of one run: the untraced ones, and the traced one with its counters."""

    records: list = field(default_factory=list)
    states_equal: list = field(default_factory=list)
    traced: object = None
    traced_state_equal: bool = True
    totals: dict = field(default_factory=dict)
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)


def refuse_unclean_environment() -> None:
    """The determinism guard: a knob or a hash seed from outside would change what is measured."""
    leaked = sorted(name for name in os.environ if name.startswith("NETTRAILS_"))
    if leaked:
        sys.exit(f"bench.worker: refusing to run with {', '.join(leaked)} set; start it through bench/run.py")
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.exit("bench.worker: refusing to run without PYTHONHASHSEED=0; start it through bench/run.py")


def parse_arguments(argv):
    parser = argparse.ArgumentParser(prog="bench.worker", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--phase", choices=("run", "setup"), default="run",
                        help="'setup' stops after the warm-up and reports only the set-up time")
    parser.add_argument("--inject", choices=("none", "answer", "state"), default="none",
                        help="test hook: corrupt the expected answers or the recorded base state")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_arguments(argv)
    refuse_unclean_environment()
    pacer = Pacer()

    from bench import tracing
    from bench.sizes import SIZES
    from bench.workloads import WORKLOADS  # imports the program

    pacer.account(time.perf_counter() - PROCESS_START)  # the imports are part of the set-up

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    scratch = BENCH_DIR / "out" / "scratch" / f"{args.workload}-{os.getpid()}"
    if workload.needs_scratch:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        return _run(args, workload, size, scratch, pacer, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workload, size, scratch, pacer, tracer) -> int:
    from bench import harness
    from bench.workloads import Step

    build_arguments = (size, args.seed, Step(pacer)) + ((scratch,) if workload.needs_scratch else ())
    system = workload.build(*build_arguments)
    try:
        warmup_plan = workload.plan(system, size, args.seed, size["warmup_fraction"])
        plan = workload.plan(system, size, args.seed, 1.0)
        warmup = harness.run_cycle(system, warmup_plan, pacer=pacer)
        setup = {"setup_s": pacer.measured_s / pacer.speed, "setup_raw_s": pacer.measured_s,
                 "speed": pacer.speed}
        if args.phase == "setup":
            print(json.dumps(setup))
            return 0 if not warmup.failed_ops else 1

        checks = harness.Checks()
        checks.expect(not warmup.failed_ops, f"warm-up: operations raised:\n{warmup.first_error}")
        checks.expect(system.reference_ok(), "after set-up: state differs from the offline reference")
        base = system.base_state()
        if args.inject == "state":
            base["provenance.table_sizes"] = {"corrupted": -1}
        setup_totals = {}
        if tracer is not None:
            setup_totals = tracer.take_totals()
            tracer.uninstall()
        measured = _measure(args, size, system, plan, base, tracer)
        recovery, hit_ratio = _verify(args, size, system, plan, measured, checks)
    finally:
        system.close()

    mode = "traced" if tracer is not None else "untraced"
    records = measured.records
    print(f"== {workload.name}  seed={args.seed}  size={args.size}  {mode}")
    print(f"   {workload.why}")
    print(
        f"   {len(records)} untraced measured cycles of {len(plan)} operations "
        f"({len(records[0].commit_s)} commits, {len(records[0].query_s)} queries); "
        f"warm-up of {len(warmup_plan)} operations"
    )
    if tracer is None:
        reported = _report_end_to_end(records, setup, hit_ratio, recovery)
    else:
        reported = _report_per_layer(args, workload, tracer, setup_totals, setup, measured, recovery)
    for note in checks.notes:
        print(f"FAILED CHECK: {note}")
    print(f"  fail_share             {checks.failed / checks.attempted:14.6f} ratio"
          f"  ({checks.failed} of {checks.attempted} operations and checks)")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": reported}))
    return 0 if checks.failed == 0 else 1


def _measure(args, size, system, plan, base, tracer) -> Measured:
    """The measured cycles: identical work each time.

    Their number is fixed by --seconds, not by the clock: a count that followed
    the host's speed would let the retained-state drift this benchmark reports
    leak into every pooled percentile.  The clock is only a safety stop.  A
    traced run traces its second cycle only; the others stay untraced so that
    tracing overhead and drift are measured in the same process.
    """
    from bench import harness, layers

    planned = max(2 if tracer is None else 3, round(size["cycles"] * args.seconds / NOMINAL_SECONDS))
    measured = Measured()
    records = measured.records
    safety_stop = time.perf_counter() + SAFETY_FACTOR * args.seconds
    while len(records) + (measured.traced is not None) < planned:
        if tracer is not None and measured.traced is None and records:
            tracer.install()
            measured.counters_before = layers.read_counters(system, tracer)
            measured.traced = harness.run_cycle(system, plan, tracer=tracer)
            measured.totals = tracer.take_totals()
            tracer.uninstall()
            measured.counters_after = layers.read_counters(system, tracer)
            measured.traced_state_equal = system.base_state() == base
        else:
            records.append(harness.run_cycle(system, plan))
            measured.states_equal.append(system.base_state() == base)
        minimum_done = len(records) >= 2 and (tracer is None or measured.traced is not None)
        if minimum_done and time.perf_counter() >= safety_stop:
            break
    return measured


def _verify(args, size, system, plan, measured, checks):
    """Every check after the cycles; returns the recovery figures and the hit ratio."""
    from bench import harness

    records = measured.records
    expected_answers = list(records[0].answers)
    if args.inject == "answer":
        expected_answers[0] = ("corrupted",)
    checked, states_equal = list(records), list(measured.states_equal)
    if measured.traced is not None:
        checked.append(measured.traced)
        states_equal.append(measured.traced_state_equal)
    harness.check_cycles(checks, checked, states_equal, expected_answers)
    harness.check_against_oracle(checks, system, plan, args.seed, per_mode=20)
    checks.expect(system.reference_ok(), "at the end: state differs from the offline reference")
    hit_ratio = harness.root_hit_ratio(records)
    hit_range = size.get("hit_ratio_range")
    if hit_range is not None:
        checks.expect(
            hit_range[0] <= hit_ratio <= hit_range[1],
            f"cache hit ratio {hit_ratio:.3f} outside {hit_range}: query_p50/p90 no longer sit "
            "inside the hit and the miss mode",
        )
    recovery = harness.check_recovery(checks, system, size) if system.service is not None else {}
    return recovery, hit_ratio


def _report_end_to_end(records, setup, hit_ratio, recovery) -> dict:
    from bench import harness

    metrics = harness.end_to_end_metrics(records, setup["setup_s"], records[0].peak_rss_end_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name:22s} {value:14.4f} {unit}")
    for line in harness.describe_samples(records):
        print(line)
    first, last = records[0], records[-1]
    print(f"  bench.host_speed       {sum(r.speed for r in records) / len(records):14.4f} ratio"
          f"  (reference unit {REF_UNIT_S * 1e3:.4f} ms; set-up ran at {setup['speed']:.4f})")
    print(f"  bench.kernel_share     {sum(r.kernel_share for r in records) / len(records):14.4f} ratio")
    print(f"  bench.raw_ops_per_s    {sum(r.ops for r in records) / sum(r.measured_s for r in records):14.4f} 1/s")
    print(f"  bench.setup_raw_s      {setup['setup_raw_s']:14.4f} s")
    print(f"  bench.cycle_drift      {last.normalised_s / first.normalised_s:14.4f} ratio")
    print(f"  bench.rss_growth_mb    {last.rss_end_mb - first.rss_start_mb:14.4f} MiB"
          f"  over {len(records)} cycles that each returned to the base state")
    print(f"  bench.root_hit_ratio   {hit_ratio:14.4f} ratio")
    if recovery:
        print(f"  bench.recover_raw_s    {recovery['recover_s']:14.4f} s"
              f"  ({recovery['batches_replayed']:.0f} batches replayed)")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _report_per_layer(args, workload, tracer, setup_totals, setup, measured, recovery) -> dict:
    from bench import layers

    traced = measured.traced
    values = layers.per_layer_metrics(
        setup_totals, setup["speed"], measured.totals, traced, measured.records,
        measured.counters_before, measured.counters_after, recovery,
    )
    for name, value in values.items():
        print(f"  {name:46s} {value:16.4f} {layers.PER_LAYER_UNITS[name]}")
    print("  self time per layer in the traced cycle (normalised; share of the cycle):")
    for line in layers.layer_table(measured.totals, traced):
        print(line)
    if tracer.missing:
        print(f"  entry points not present in this program: {', '.join(tracer.missing)}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{workload.name}-seed{args.seed}.json"
    spans = tracer.write_chrome_trace(trace_path)
    print(f"  {spans} spans of the first operations written to {trace_path.relative_to(BENCH_DIR.parent)}")
    return {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
