"""E14 — per-VID cache invalidation keeps the hit rate alive under churn.

The query cache used to validate entries against a *global* provenance
version: any delta anywhere discarded every cached sub-result, so under
network dynamics — the very regime the paper's caching optimisation targets
— the hit rate was effectively zero.  Entries are now tagged with per-VID
reachability versions that bump only when the queried vertex's derivation
subtree changes.

This benchmark converges MINCOST on a star, primes the caches with a fixed
query working set, then repeatedly flaps the hub links of *other* leaves —
churn that rewrites large parts of the provenance tables (including losing
alternatives inside the queried tuples' own aggregation groups) without
touching any queried subtree.  Per-VID validation keeps every entry alive
through every churn step.  (The retired global-version validation recorded
no hits beyond intra-sweep reuse after the first delta; its last numbers are
in ``docs/performance.md`` § Retired ablations.)  Every cached answer is
asserted bit-identical to an uncached traversal throughout.
"""

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.protocols import mincost

HUB = "n0"

#: The query working set: pair-wise minimal costs whose derivation subtrees
#: live on n0/n1/n2 only — disjoint from every churned leaf.
TARGETS = [
    ["n1", HUB, 1.0],  # leaf -> hub, purely local derivation
    [HUB, "n1", 1.0],  # hub -> leaf
    ["n1", "n2", 2.0],  # leaf -> leaf through the hub (multi-node subtree)
]

#: Leaves whose hub links are flapped (full retraction cascade + re-derive);
#: none of them appears in any target's derivation subtree.
CHURN_LEAVES = ["n5", "n6", "n7"]


def run_cache_workload():
    """Prime the cache, churn unrelated leaves, re-query after every step.

    Returns the per-churn-step cache-hit deltas, the message cost of each
    sweep, and the engine's final cache counters.  Asserts every cached
    answer equals the uncached traversal's.
    """
    runtime = mincost.setup(topology.star(8))
    engine = DistributedQueryEngine(runtime)
    cached = QueryOptions(use_cache=True)

    def sweep():
        hits_before = engine.cache_totals()["hits"]
        messages = 0
        for target in TARGETS:
            result = engine.lineage("minCost", target, options=cached)
            reference = engine.lineage("minCost", target, options=QueryOptions())
            assert result.value == reference.value, target
            messages += result.stats.messages
        return engine.cache_totals()["hits"] - hits_before, messages

    # Cold sweep: fills the caches.  Its hit count is the intra-sweep
    # baseline — sub-results shared between targets inside one quiescent
    # window hit under *any* validation scheme; what per-VID validation adds
    # is that entries survive the churn *between* sweeps.
    cold_hits, prime_messages = sweep()
    per_step_hits = []
    per_step_messages = []
    for leaf in CHURN_LEAVES:
        runtime.remove_link(leaf, HUB)
        runtime.run_to_quiescence()
        runtime.add_link(leaf, HUB, 1.0)
        runtime.run_to_quiescence()
        hits, messages = sweep()
        per_step_hits.append(hits)
        per_step_messages.append(messages)
    totals = engine.cache_totals()
    lookups = totals["hits"] + totals["misses"]
    return {
        "cold_hits": cold_hits,
        "per_step_hits": per_step_hits,
        "per_step_messages": per_step_messages,
        "prime_messages": prime_messages,
        "totals": totals,
        "hit_rate": round(totals["hits"] / lookups, 3) if lookups else 0.0,
    }


def run_capped_workload(capacity=2):
    """A wide query working set against tiny per-node caches: LRU eviction."""
    runtime = mincost.setup(topology.star(8))
    engine = DistributedQueryEngine(runtime)
    for node_id in runtime.nodes:
        engine.agent(node_id).cache.capacity = capacity
    cached = QueryOptions(use_cache=True)
    targets = [["n1", HUB, 1.0]] + [["n1", f"n{leaf}", 2.0] for leaf in range(2, 8)]
    for target in targets:
        engine.lineage("minCost", target, options=cached)
    return engine


def test_per_vid_validation_survives_unrelated_churn(benchmark, record):
    result = benchmark.pedantic(run_cache_workload, rounds=1, iterations=1)
    record(
        "E14 cache invalidation under churn (MINCOST star-8, 3 unrelated link flaps)",
        "per-VID reachability versions",
        hit_rate=result["hit_rate"],
        cold_hits=result["cold_hits"],
        per_step_hits=result["per_step_hits"],
        sweep_messages=result["per_step_messages"],
        cold_messages=result["prime_messages"],
    )
    # The acceptance property: churn outside the queried subtrees keeps the
    # cache alive at EVERY step — strictly more hits than intra-sweep reuse
    # alone can explain (the retired global scheme never exceeded that baseline).
    assert all(hits > result["cold_hits"] for hits in result["per_step_hits"])
    # ...and the surviving entries actually save traffic.
    assert result["prime_messages"] > 0
    assert all(messages == 0 for messages in result["per_step_messages"])


def test_capped_cache_evicts_lru(record):
    engine = run_capped_workload(capacity=2)
    totals = engine.cache_totals()
    record(
        "E14 capped per-node caches (star-8, capacity 2 entries/node)",
        "LRU eviction",
        stores=totals["stores"],
        evictions=totals["evictions"],
        live_entries=totals["entries"],
    )
    assert totals["evictions"] > 0
    assert all(engine.agent(node_id).cache.counters()["entries"] <= 2 for node_id in engine.runtime.nodes)
