"""E10 — design choices called out in DESIGN.md §5.

* **Aggregate update ordering** — the engine propagates aggregate changes as
  "new value first, then retract the old one".  The opposite order exposed
  an intermediate group state downstream and blew deletion cascades up (the
  motivating incident: a 4-node disconnection went from ~2 000 to more than
  200 000 events).  The retract-first ablation is retired (its last numbers
  are in ``docs/performance.md`` § Retired ablations); this leg pins the
  default ordering's deletion-cascade cost.
* **Traversal order under pruning** — threshold pruning only saves messages
  when the traversal is sequential; this quantifies how much of E4's saving
  comes from the traversal-order choice rather than the threshold itself.
"""

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost

#: Events and messages of the disconnecting deletion below, measured when the
#: retract-first ablation still existed (it cost the same under batching).
CASCADE_EVENTS = 106
CASCADE_MESSAGES = 60


def build_runtime():
    """The motivating topology: removing n0-n1 disconnects n1 and forces a count-up.

    The cost bound is lowered to 32, as when the ablation had to stay
    benchmarkable.
    """
    net = topology.random_connected(4, edge_probability=0.35, seed=8)
    runtime = NetTrailsRuntime(mincost.program(max_cost=32), net)
    runtime.seed_links(run=True)
    return net, runtime


def deletion_cost(runtime, net):
    edge = ("n0", "n1")
    cost = net.cost(*edge)
    before_events = runtime.simulator.processed_events
    before_messages = runtime.network.stats.messages
    runtime.remove_link(*edge)
    runtime.run_to_quiescence(max_events=5_000_000)
    events = runtime.simulator.processed_events - before_events
    messages = runtime.network.stats.messages - before_messages
    runtime.add_link(edge[0], edge[1], cost)
    runtime.run_to_quiescence(max_events=5_000_000)
    return events, messages


def test_aggregate_ordering_deletion_cascade(benchmark, record):
    net, runtime = build_runtime()

    events, messages = benchmark.pedantic(
        deletion_cost, args=(runtime, net), rounds=2, iterations=1
    )
    assert mincost.check_against_reference(runtime, net)
    record(
        "E10 aggregate update ordering (disconnecting link failure, MINCOST, cost bound 32)",
        "insert-then-retract",
        events_per_deletion=events,
        messages_per_deletion=messages,
    )
    assert (events, messages) == (CASCADE_EVENTS, CASCADE_MESSAGES)


def test_traversal_order_ablation(benchmark, record):
    net = topology.random_connected(9, edge_probability=0.5, seed=17)
    runtime = mincost.setup(net)
    queries = DistributedQueryEngine(runtime)
    targets = [list(row) for row in sorted(runtime.state("minCost"), key=lambda r: -r[2])[:8]]

    def run(options):
        return sum(
            queries.lineage("minCost", target, options=options).stats.messages
            for target in targets
        )

    combos = {
        "parallel, no threshold": QueryOptions(traversal="parallel"),
        "sequential, no threshold": QueryOptions(traversal="sequential"),
        "parallel + threshold=1": QueryOptions(traversal="parallel", threshold=1),
        "sequential + threshold=1": QueryOptions(traversal="sequential", threshold=1),
    }
    results = {}
    for label, options in combos.items():
        results[label] = run(options)
        record("E10 ablation: traversal order x pruning (lineage workload)", label, messages=results[label])

    benchmark.pedantic(run, args=(QueryOptions(traversal="sequential", threshold=1),), rounds=3, iterations=1)
    # the threshold only pays off when combined with sequential traversal
    assert results["sequential + threshold=1"] <= results["parallel + threshold=1"]
    assert results["sequential + threshold=1"] <= results["parallel, no threshold"]
