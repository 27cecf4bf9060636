#!/usr/bin/env python3
"""Interactive-exploration scenario (the paper's Figure 2, programmatically).

The demonstration lets users start from a system-wide provenance snapshot,
zoom into one relation, and finally inspect a single tuple instance with its
attribute values and location, while a hypertree lays the provenance out on a
hyperbolic plane.  This example reproduces those three zoom levels as text,
computes the hypertree layout (and a re-focus step), and then replays a
topology change from the run's write-ahead log — the other interactive
feature of the demo.

Run with::

    python examples/mincost_exploration.py
"""

from tempfile import TemporaryDirectory

from repro.core.keys import vid_for
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.logstore import ReplaySession
from repro.protocols import mincost
from repro.viz import HypertreeLayout, exploration_views, refocus, topology_summary


def main() -> None:
    with TemporaryDirectory() as durable_dir:
        explore(durable_dir)


def explore(durable_dir: str) -> None:
    net = topology.random_connected(8, edge_probability=0.35, seed=7)
    # A durable runtime journals every committed batch; batch 1 is the link seeding.
    runtime = NetTrailsRuntime(mincost.SOURCE, net, program_name="mincost", durable_dir=durable_dir)
    runtime.seed_links(run=True)

    print(topology_summary(net, runtime.network.stats.snapshot()))

    # Pick an interesting tuple: the most expensive shortest path.
    rows = runtime.state("minCost")
    source, destination, cost = max(rows, key=lambda row: row[2])
    target = (source, destination, cost)

    graph = runtime.provenance.build_graph()
    views = exploration_views(graph, "minCost", target)

    print("\n=== Figure 2(a): system-wide provenance snapshot ===")
    print(views["snapshot"])
    print("\n=== Figure 2(b): the minCost relation ===")
    print(views["table"])
    print("\n=== Figure 2(c): close-up of one tuple instance ===")
    print(views["tuple"])

    # Hypertree layout plus a focus change, as in the visualizer.
    root = vid_for(Fact.make("minCost", list(target)))
    layout = HypertreeLayout().compute(graph, root)
    print(f"\nHypertree layout: {len(layout)} vertices placed on the Poincaré disk")
    deepest = max(layout.values(), key=lambda placed: placed.depth)
    refocused = refocus(layout, deepest.vertex_id)
    print(f"Re-focused on {deepest.label}: it now sits at the centre "
          f"(radius {refocused[deepest.vertex_id].radius:.3f})")

    # Replay: pause the network before and after a link failure.
    victim = sorted(net.edges)[0]
    print(f"\nFailing link {victim[0]} <-> {victim[1]} and replaying from the log store...")
    runtime.remove_link(*victim)
    runtime.run_to_quiescence()
    runtime.close()

    session = ReplaySession(durable_dir)
    session.seek(1)
    diff = session.step()
    print(diff.summary())


if __name__ == "__main__":
    main()
