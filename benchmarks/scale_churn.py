"""The 1010-node backup-link churn profile shared by the CPU-time benchmarks.

PREFIX_ROUTING is seeded on ``isp_hierarchy(10, 10, 9)`` (10 tier-1 hubs,
10 tier-2 per hub, 9 stubs per tier-2 — the same shape as E15/E16's scale
runs), prefixes are announced at tier-2 nodes, and each churn window inserts
and then retracts a batch of cross-subtree backup links.  Cost 4.0 is
strictly worse than every converged shortest path, so the windows are pure
join + fire + aggregate re-evaluation work with no route cascade.

E20 times observability off against on with this profile.
"""

from __future__ import annotations

import gc
import time

from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import prefix_routing

#: Scale profile: 1010 nodes.
SCALE_DIMS = (10, 10, 9)

#: Prefixes announced at tier-2 nodes before churn begins.
PREFIX_COUNT = 64

#: Cross-subtree backup links flapped per churn window.
BACKUP_LINKS = 40
BACKUP_COST = 4.0

#: Insert+delete rounds per timed window.
CHURN_ROUNDS = 3


def build_scale_runtime(dims=SCALE_DIMS, prefixes=PREFIX_COUNT, **runtime_kwargs):
    """Seed PREFIX_ROUTING on the scale hierarchy; return (runtime, batch)
    where *batch* is the bidirectional backup-link delta list one churn
    round inserts and then retracts.  Extra keyword arguments pass through
    to :class:`NetTrailsRuntime`."""
    net = topology.isp_hierarchy(*dims, seed=11)
    runtime = NetTrailsRuntime(prefix_routing.program(), net, provenance=False, **runtime_kwargs)
    runtime.seed_links(run=True)
    tier2 = sorted(node for node in runtime.node_ids() if str(node).startswith("t2_"))
    prefix_routing.announce(
        runtime,
        [(tier2[i % len(tier2)], f"p{i}") for i in range(prefixes)],
        run=True,
    )
    links = []
    for i in range(BACKUP_LINKS):
        a, b = tier2[i % len(tier2)], tier2[(i + 17) % len(tier2)]
        if a.split("_")[1] != b.split("_")[1]:
            links.append((a, b, BACKUP_COST))
    batch = [[a, b, c] for a, b, c in links] + [[b, a, c] for a, b, c in links]
    return runtime, batch


def run_churn_window(runtime, batch, rounds=CHURN_ROUNDS):
    """Time *rounds* insert+delete windows of the backup-link batch; returns
    single-core CPU seconds (``time.process_time``)."""
    gc.collect()
    start = time.process_time()
    for _ in range(rounds):
        runtime.insert_batch("link", batch, run=True)
        runtime.delete_batch("link", batch, run=True)
    return time.process_time() - start
