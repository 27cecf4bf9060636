"""Seeded random-churn scripts shared by the property equivalence suites.

The fresh-run and query-cache suites all replay the same
deterministic churn traces (link removals, re-adds, brand-new links and link
flaps) over star, ring and small AS-level topologies, and compare runtimes
after every step.  This module binds seeds to those traces.

Seeding: scripts are generated from the fixed ``SEEDS`` list by default, so
CI runs are deterministic.  Setting ``NETTRAILS_CHURN_SEED`` (an integer)
adds that seed to the matrix — the nightly-style CI job draws a random seed,
prints it, and exports it through this variable; the suites embed the seed in
their parametrize ids and assertion messages so failures reproduce with
``NETTRAILS_CHURN_SEED=<seed> pytest ...``.

Churn generation lives in :mod:`repro.workloads.churn` (``random_link_churn``,
which the E17 durability benchmark replays too), so the whole repo shares one
definition of "random link churn".
"""

from __future__ import annotations

import copy
import os
import random

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import mincost
from repro.workloads.churn import ChurnBatch, apply_batch, random_link_churn


def _seeds():
    seeds = [3, 11]
    override = os.environ.get("NETTRAILS_CHURN_SEED")
    if override is not None:
        seeds.append(int(override))
    return sorted(set(seeds))


SEEDS = _seeds()

TOPOLOGIES = {
    "star": lambda: topology.star(6),
    "ring": lambda: topology.ring(6),
    "as-level": lambda: topology.isp_hierarchy(2, 2, 1, seed=5),
}


def generate_churn_script(seed, net, steps=6):
    """A deterministic churn trace (one :class:`ChurnBatch` per step) for *net*.

    :func:`~repro.workloads.churn.random_link_churn` tracks a topology mirror,
    so every op is valid at the point it executes (no removing absent links,
    no duplicate adds); the same explicit trace is then replayed on every
    runtime under test.  A "flap" step removes and re-adds a link within one
    batch, so the deletion and re-insertion waves overlap in flight.
    """
    mirror = copy.deepcopy(net)
    rng = random.Random(seed)
    return [
        ChurnBatch(index=index, phase="random_link_churn", ops=ops)
        for index, ops in enumerate(random_link_churn(mirror, rng, steps))
    ]


def apply_op(runtime, batch):
    """Replay one churn batch and run to quiescence."""
    apply_batch(runtime, batch, run=True)


def build_runtime(program, net, **kwargs):
    runtime = NetTrailsRuntime(program, copy.deepcopy(net), **kwargs)
    runtime.seed_links(run=True)
    return runtime


def build_variant(net):
    """The MINCOST runtime the query-path suites churn: default knobs, links seeded."""
    return build_runtime(mincost.program(), net)


def lineage_answers(runtime, relation, limit=3, options=None, queries=None):
    """Sorted lineage/participants answers for up to *limit* derived tuples."""
    queries = queries or DistributedQueryEngine(runtime)
    answers = []
    for values in sorted(runtime.state(relation), key=repr)[:limit]:
        lineage = queries.lineage(relation, list(values), options=options)
        participants = queries.participants(relation, list(values), options=options)
        answers.append(
            (values, sorted(str(ref) for ref in lineage.value), set(participants.value))
        )
    return answers


def assert_cached_equals_uncached(runtime, relation, limit=3, where=""):
    """Cached answers equal uncached ones, cold and then served by the caches.

    The warm pass sends no message: every root is answered from its home's
    cache.  Returns the uncached answers.
    """
    uncached = lineage_answers(runtime, relation, limit, QueryOptions(use_cache=False))
    queries = DistributedQueryEngine(runtime)
    cached = QueryOptions(use_cache=True)
    assert lineage_answers(runtime, relation, limit, cached, queries) == uncached, where
    messages = runtime.network.stats.messages
    assert lineage_answers(runtime, relation, limit, cached, queries) == uncached, where
    assert runtime.network.stats.messages == messages, where
    return uncached
