"""E11 — batch-first execution: batched deltas and parallel query fan-out.

The paper's optimisation story is a trade between network traffic and
latency.  This experiment quantifies both halves of the batch-first runtime:

* **Batched delta evaluation** — a churn workload of 500+ base-tuple deltas
  is absorbed by the batch-first runtime: each node drains its whole queue
  in one evaluator pass and ships the deltas it derives for one destination
  in one message, so it must send strictly fewer network messages than
  tuple deltas.  (The retired per-delta runtime sent one message per delta;
  its last numbers are in ``docs/performance.md`` § Retired ablations.)
* **Parallel query fan-out** — the same lineage queries are answered with
  sequential and parallel traversal.  Parallel traversal issues every child
  request of a step in one fan-out round (requests to the same peer share a
  message, replies come back batched), so it must complete in strictly fewer
  simulated rounds than sequential traversal while returning identical
  results — trading exhaustive exploration for latency exactly as §2.2
  describes.
"""

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.protocols import path_vector
from repro.workloads import ChurnPhase, ScenarioDriver, ScenarioSpec, TopologySpec

#: The churn workload, expressed as a scenario spec: heavy link flapping on a
#: 12-node random graph, sized so the trace applies well over 500 base-tuple
#: deltas (asserted below).
CHURN_SPEC = ScenarioSpec(
    name="e11-churn",
    topology=TopologySpec.make("random_connected", count=12, edge_probability=0.5, seed=11),
    protocol="mincost",
    seed=11,
    churn=(ChurnPhase.make("link_flap", batches=7, flaps_per_batch=18, fast_ratio=0.5),),
)


def run_churn():
    """Drive the churn scenario; returns (runtime, applied churn deltas).

    The driver is closed before returning; the returned runtime stays
    readable for state and counter comparisons.
    """
    with ScenarioDriver(CHURN_SPEC) as driver:
        report = driver.run()
    deltas = report.totals()["deltas"] - report.phase("seed").deltas
    return driver.runtime, deltas


def test_batched_deltas_share_messages(benchmark, record):
    batched, deltas = benchmark.pedantic(run_churn, rounds=3, iterations=1)

    assert deltas >= 500, f"churn workload too small: {deltas} deltas"
    sent = sum(node.stats.deltas_sent for node in batched.nodes.values())
    messages = sum(node.stats.messages_sent for node in batched.nodes.values())
    record(
        "E11 batched delta evaluation (MINCOST churn, 12 nodes)",
        f"batched evaluation ({deltas} deltas)",
        messages=batched.message_stats().messages,
        events=batched.simulator.processed_events,
        tuple_deltas_sent=sent,
        tuple_messages_sent=messages,
    )
    assert messages < sent


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
