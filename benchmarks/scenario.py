"""One seeded churn-and-query run, counted per phase: what E11, E15 and E20 drive.

:func:`run_scenario` seeds a topology's links, replays a schedule of churn
phases through the library's generators (:mod:`repro.workloads.churn`), runs
each window to quiescence, and between windows issues Zipf-skewed lineage
queries.  It counts, per phase, the base-tuple deltas applied and the
messages, simulator events and rounds they cost, with the query traffic
counted apart.  Everything but ``seconds`` is deterministic for a fixed seed.

The random streams are fixed: phase *i* running generator *g* draws from
``random.Random(f"{seed}:{i}:0:{g}")`` and the queries from
``random.Random(f"{seed}:0:-1:queries")``.  The gated smoke counts of
``bench_baseline.json`` depend on exactly these streams.
"""

from __future__ import annotations

import copy
import random
import time

from repro import DistributedQueryEngine, NetTrailsRuntime, QueryOptions
from repro.engine import topology as topologies
from repro.protocols import prefix_routing
from repro.workloads import ZipfSampler, apply_churn_op
from repro.workloads.churn import link_flap, node_fail_recover, prefix_announce_withdraw

COUNTERS = ("batches", "ops", "deltas", "messages", "events", "rounds", "queries", "query_messages", "query_rounds")

#: The seed of the smoke and scale scenarios.
DEFAULT_SEED = 11

QUERY_OPTIONS = QueryOptions(use_cache=True, traversal="sequential")


def run_scenario(topology, program, phases, seed, batch_size=None, queries=None, **runtime_kwargs):
    """Run *phases*, a list of ``(generator, batches, params)``, on a copy of *topology*.

    ``batch_size=None`` makes each non-empty generator batch one quiescence
    window; an integer packs that many ops into each window, and a window
    counts toward the phase of its first op.  *queries* is ``(relation,
    per_wave, every)``: after every *every*-th window, *per_wave* lineage
    queries on rows of *relation*.  Returns the runtime (closed, still
    readable) and ``{"nodes", "phases": {name: counters}, "totals", "cache",
    "seconds"}``, whose first phase, ``seed``, is the link seeding.
    """
    started = time.perf_counter()
    mirror = copy.deepcopy(topology)
    trace = []
    for index, (generator, batches, params) in enumerate(phases):
        name = generator.__name__
        rng = random.Random(f"{seed}:{index}:0:{name}")
        trace.extend((name, ops) for ops in generator(mirror, rng, batches, **params))
    if batch_size is None:
        windows = [(name, ops) for name, ops in trace if ops]
    else:
        flat = [(name, op) for name, ops in trace for op in ops]
        windows = [
            (flat[start][0], [op for _name, op in flat[start : start + batch_size]])
            for start in range(0, len(flat), batch_size)
        ]

    runtime = NetTrailsRuntime(program, copy.deepcopy(topology), **runtime_kwargs)
    query_rng = random.Random(f"{seed}:0:-1:queries")
    engine = None
    phases_seen = {}

    def snapshot():
        return runtime.message_stats().messages, runtime.simulator.processed_events, runtime.simulator.rounds

    def count(name, ops, deltas, before):
        phase = phases_seen.setdefault(name, dict.fromkeys(COUNTERS, 0))
        phase["batches"] += 1
        phase["ops"] += ops
        phase["deltas"] += deltas
        for key, old, new in zip(("messages", "events", "rounds"), before, snapshot()):
            phase[key] += new - old
        return phase

    with runtime:
        before = snapshot()
        seeded = runtime.seed_links(run=True)
        count("seed", seeded, seeded, before)
        for index, (name, ops) in enumerate(windows):
            before = snapshot()
            for op in ops:
                apply_churn_op(runtime, op)
            runtime.run_to_quiescence()
            phase = count(name, len(ops), sum(op.base_deltas() for op in ops), before)
            if queries is None or (index + 1) % queries[2]:
                continue
            relation, per_wave, _every = queries
            ranked = sorted(runtime.state(relation), key=repr)
            if not ranked:
                continue
            sampler = ZipfSampler(len(ranked), 1.2)
            targets = []
            for _ in range(per_wave):
                targets.append(list(ranked[sampler.sample(query_rng)]))
                # A mode draw and a traversal draw, from one-entry mixes: kept
                # so that every later target is the one the baseline counted.
                query_rng.random()
                query_rng.random()
            if engine is None:
                engine = DistributedQueryEngine(runtime)
            messages, rounds = runtime.message_stats().messages, runtime.simulator.rounds
            for values in targets:
                engine.query(relation, values, mode="lineage", options=QUERY_OPTIONS)
            phase["queries"] += len(targets)
            phase["query_messages"] += runtime.message_stats().messages - messages
            phase["query_rounds"] += runtime.simulator.rounds - rounds
    return runtime, {
        "nodes": topology.node_count(),
        "phases": phases_seen,
        "totals": {key: sum(phase[key] for phase in phases_seen.values()) for key in COUNTERS},
        "cache": dict(engine.cache_totals()) if engine is not None else {},
        "seconds": time.perf_counter() - started,
    }


def smoke(seed=DEFAULT_SEED, **runtime_kwargs):
    """The CI-gated smoke scenario: a 10-node AS hierarchy running prefix routing."""
    return run_scenario(
        topologies.isp_hierarchy(tier1_count=2, tier2_per_tier1=2, stubs_per_tier2=1, seed=seed),
        prefix_routing.program(),
        [
            (prefix_announce_withdraw, 3, {"prefixes": 2, "origins_per_prefix": 2}),
            (link_flap, 2, {"flaps_per_batch": 1}),
            (node_fail_recover, 2, {}),
        ],
        seed,
        queries=("best", 2, 2),
        **runtime_kwargs,
    )
