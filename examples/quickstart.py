#!/usr/bin/env python3
"""Quickstart: run a declarative protocol and query the provenance of its state.

This is the smallest end-to-end NetTrails scenario:

1. build a small topology,
2. execute the MINCOST protocol (pair-wise minimal path costs) over it with
   provenance maintenance enabled,
3. ask the distributed query engine where a particular ``minCost`` tuple came
   from (its lineage, the participating nodes and the number of alternative
   derivations),
4. print a textual rendering of its provenance tree, and
5. re-run the protocol twice on a star and check the converged state and
   message counts are identical (one deterministic event loop runs every
   node).

Run with::

    python examples/quickstart.py
"""

from repro import DistributedQueryEngine, NetTrailsRuntime
from repro.core.keys import vid_for
from repro.engine import topology
from repro.engine.tuples import Fact
from repro.protocols import mincost
from repro.viz import render_ascii_tree


def main() -> None:
    # 1. A 5-node ring with unit link costs.
    net = topology.ring(5)
    print(f"Topology: {net.name} with {net.node_count()} nodes / {net.edge_count()} links")

    # 2. Execute MINCOST with provenance maintenance (the default).
    runtime = mincost.setup(net)
    print(f"Converged: minCost has {len(runtime.state('minCost'))} rows, "
          f"{runtime.message_stats().messages} protocol messages exchanged")
    print(f"Provenance tables: {runtime.provenance.table_sizes()}")

    # 3. Query the provenance of minCost(n0 -> n2).
    queries = DistributedQueryEngine(runtime)
    target = ["n0", "n2", 2.0]

    lineage = queries.lineage("minCost", target)
    print(f"\nLineage of minCost({', '.join(map(str, target))}):")
    for ref in sorted(lineage.value, key=str):
        print(f"  {ref}")
    print(f"  (query used {lineage.stats.messages} messages across "
          f"{lineage.stats.nodes_visited} nodes)")

    participants = queries.participants("minCost", target)
    print(f"Participating nodes: {sorted(participants.value)}")

    count = queries.derivation_count("minCost", target)
    print(f"Alternative derivations: {count.value}")

    # 4. Render the provenance tree.
    graph = runtime.provenance.build_graph()
    root = vid_for(Fact.make("minCost", target))
    print("\nProvenance tree:")
    print(render_ascii_tree(graph, root))

    # 5. Determinism: the simulator runs every node's drains and deliveries
    #    in (time, sequence) order, so two runs agree on state and traffic.
    first = NetTrailsRuntime(mincost.program(), topology.star(10))
    first.seed_links(run=True)
    again = NetTrailsRuntime(mincost.program(), topology.star(10))
    again.seed_links(run=True)
    assert again.state("minCost") == first.state("minCost")
    assert again.message_stats().messages == first.message_stats().messages
    print(f"\nStar-10 run twice: {len(again.state('minCost'))} "
          f"minCost rows, identical state and message counts")


if __name__ == "__main__":
    main()
