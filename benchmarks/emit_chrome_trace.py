"""Emit a sample Chrome trace-event timeline from the smoke scenario.

Runs the ``smoke`` scenario (:mod:`scenario`) with observability enabled
and writes the resulting span timeline as a Chrome trace-event JSON file —
openable in ``chrome://tracing`` or https://ui.perfetto.dev.  The CI
``bench-trajectory`` job uploads the file as a build artifact, so every
commit ships an inspectable query/drain timeline alongside the metrics
JSON:

    python benchmarks/emit_chrome_trace.py --out BENCH_TRACE_${GITHUB_RUN_ID}.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the trace JSON to write")
    args = parser.parse_args(argv)

    from repro.obs.export import write_chrome_trace
    from scenario import smoke

    runtime, report = smoke(observability=True)
    tracer = runtime.obs.tracer
    traces = len(tracer.trace_ids())
    spans = len(tracer.finished_spans())
    write_chrome_trace(args.out, tracer, process_name="nettrails-smoke")

    with open(args.out, "r", encoding="utf-8") as handle:
        events = len(json.load(handle)["traceEvents"])
    totals = report["totals"]
    print(
        f"wrote {args.out}: {events} trace events from {spans} spans "
        f"across {traces} traces ({totals['queries']} queries, "
        f"{totals['messages']} messages)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
