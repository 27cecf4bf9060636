"""E11 — batch-first execution: batched deltas and parallel query fan-out.

The paper's optimisation story is a trade between network traffic and
latency.  This experiment quantifies both halves of the batch-first runtime:

* **Batched delta evaluation** — a churn workload of 500+ base-tuple deltas
  is absorbed by two otherwise identical runtimes, one batch-first (the
  default) and one processing a single delta per evaluator pass (the
  historical mode, kept as ``batch_deltas=False``).  Batching must converge
  to the identical state with strictly fewer network messages and strictly
  fewer simulator events, and it is what makes bulk loads and heavy churn
  cheap.
* **Parallel query fan-out** — the same lineage queries are answered with
  sequential and parallel traversal.  Parallel traversal issues every child
  request of a step in one fan-out round (requests to the same peer share a
  message, replies come back batched), so it must complete in strictly fewer
  simulated rounds than sequential traversal while returning identical
  results — trading exhaustive exploration for latency exactly as §2.2
  describes.
"""

import time

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.protocols import path_vector
from repro.workloads import ChurnPhase, ScenarioDriver, ScenarioSpec, TopologySpec

#: The churn workload, expressed as a scenario spec: heavy link flapping on a
#: 12-node random graph, sized so the trace applies well over 500 base-tuple
#: deltas (asserted below).  The two runtimes under comparison are the same
#: spec with only the ``batch_deltas`` knob toggled.
CHURN_SPEC = ScenarioSpec(
    name="e11-churn",
    topology=TopologySpec.make("random_connected", count=12, edge_probability=0.5, seed=11),
    protocol="mincost",
    seed=11,
    churn=(ChurnPhase.make("link_flap", batches=7, flaps_per_batch=18, fast_ratio=0.5),),
)


def run_churn(batch_deltas):
    """Drive the churn scenario; returns (runtime, applied churn deltas).

    The driver is closed before returning; the returned runtime stays
    readable for state and counter comparisons.
    """
    with ScenarioDriver(CHURN_SPEC.with_knobs(batch_deltas=batch_deltas)) as driver:
        report = driver.run()
    deltas = report.totals()["deltas"] - report.phase("seed").deltas
    return driver.runtime, deltas


def test_batched_deltas_beat_per_fact_evaluation(benchmark, record):
    start = time.perf_counter()
    per_fact, per_fact_deltas = run_churn(batch_deltas=False)
    per_fact_seconds = time.perf_counter() - start

    batched, deltas = benchmark.pedantic(run_churn, args=(True,), rounds=3, iterations=1)

    assert deltas == per_fact_deltas
    assert deltas >= 500, f"churn workload too small: {deltas} deltas"
    for relation in ("link", "path", "minCost"):
        assert batched.state(relation) == per_fact.state(relation)

    batched_messages = batched.message_stats().messages
    per_fact_messages = per_fact.message_stats().messages
    batched_events = batched.simulator.processed_events
    per_fact_events = per_fact.simulator.processed_events
    record(
        "E11 batched delta evaluation (MINCOST churn, 12 nodes)",
        f"per-fact evaluation ({deltas} deltas)",
        messages=per_fact_messages,
        events=per_fact_events,
        seconds=round(per_fact_seconds, 3),
    )
    record(
        "E11 batched delta evaluation (MINCOST churn, 12 nodes)",
        f"batched evaluation ({deltas} deltas)",
        messages=batched_messages,
        events=batched_events,
    )
    assert batched_messages < per_fact_messages
    assert batched_events < per_fact_events


def test_parallel_fanout_fewer_rounds_than_sequential(benchmark, record):
    net = topology.random_connected(10, edge_probability=0.5, seed=17)
    runtime = path_vector.setup(net)
    targets = [
        list(row)
        for row in sorted(runtime.state("bestPathCost"), key=lambda row: -row[2])[:5]
    ]

    def run(traversal):
        queries = DistributedQueryEngine(runtime)
        totals = {"messages": 0, "rounds": 0, "latency": 0.0}
        values = []
        for target in targets:
            result = queries.lineage(
                "bestPathCost", target, options=QueryOptions(traversal=traversal)
            )
            totals["messages"] += result.stats.messages
            totals["rounds"] += result.stats.rounds
            totals["latency"] += result.stats.latency
            values.append(result.value)
        totals["latency"] = round(totals["latency"], 3)
        return totals, values

    sequential, sequential_values = run("sequential")
    (parallel, parallel_values) = benchmark.pedantic(
        run, args=("parallel",), rounds=3, iterations=1
    )
    record(
        "E11 parallel query fan-out (lineage, path-vector, 10 nodes)",
        "sequential traversal",
        **sequential,
    )
    record(
        "E11 parallel query fan-out (lineage, path-vector, 10 nodes)",
        "parallel fan-out (batched requests/replies)",
        **parallel,
    )
    assert parallel_values == sequential_values
    assert parallel["rounds"] < sequential["rounds"]
    assert parallel["latency"] < sequential["latency"]
    assert parallel["messages"] <= sequential["messages"]
