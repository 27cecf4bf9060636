"""Randomized-churn soundness harness for the per-VID query cache.

The query cache (:class:`repro.core.optimizations.NodeQueryCache`) validates
entries against per-VID reachability versions maintained incrementally by
:class:`repro.core.maintenance.ProvenanceEngine`.  The promise under test is
**soundness**: a cached answer is *bit-identical* to the answer an uncached
traversal computes, at every point of an arbitrary churn schedule, on every
execution backend.

Note what is deliberately *not* asserted: the absolute per-VID version
values.  Validity is a per-run property — an entry is served only while its
vertex's version still equals the one it was stored under, within the same
run's version map.

This harness replays the seeded churn scripts of :mod:`churn_harness` on
every backend variant, and after every churn step issues each query
three ways — cached, uncached, cached again — plus a remotely-issued cached
query (which exercises the version-carrying reply path), asserting all four
agree and match the serial baseline.  It honours ``NETTRAILS_CHURN_SEED``
like its siblings.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.protocols import mincost
from test_property_backends import BACKEND_VARIANTS, build_variant
from churn_harness import (
    SEEDS,
    TOPOLOGIES,
    apply_op,
    build_runtime,
    generate_churn_script,
)

CACHED = QueryOptions(use_cache=True)
UNCACHED = QueryOptions(use_cache=False)


def cached_query_sweep(engine, runtime, relation="minCost", limit=3):
    """Query up to *limit* derived tuples cached/uncached/cached-again/remote.

    Asserts the four answers agree (the soundness property) and returns the
    canonicalized answers so callers can compare runtimes against each other.
    """
    issuers = runtime.node_ids()
    answers = []
    for index, values in enumerate(sorted(runtime.state(relation), key=repr)[:limit]):
        cached_first = engine.lineage(relation, list(values), options=CACHED)
        uncached = engine.lineage(relation, list(values), options=UNCACHED)
        cached_again = engine.lineage(relation, list(values), options=CACHED)
        remote = engine.lineage(
            relation, list(values), options=CACHED, at=issuers[index % len(issuers)]
        )
        assert cached_first.value == uncached.value, values
        assert cached_again.value == uncached.value, values
        assert remote.value == uncached.value, values
        answers.append((values, sorted(str(ref) for ref in uncached.value)))
    return answers


class TestCacheSoundnessUnderChurn:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", ["star", "as-level"])
    def test_cached_answers_bit_identical_across_matrix(self, topology_name, seed):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with ExitStack() as stack:
            baseline = stack.enter_context(
                build_runtime(mincost.program(), net, backend="serial")
            )
            baseline_engine = DistributedQueryEngine(baseline)
            variants = {
                backend: stack.enter_context(build_variant(net, backend))
                for backend in BACKEND_VARIANTS
            }
            engines = {
                key: DistributedQueryEngine(runtime) for key, runtime in variants.items()
            }

            for step, op in enumerate(script):
                apply_op(baseline, op)
                expected_answers = cached_query_sweep(baseline_engine, baseline)
                for key, runtime in variants.items():
                    where = f"{context} backend={key} step={step} op={op}"
                    apply_op(runtime, op)
                    assert cached_query_sweep(engines[key], runtime) == expected_answers, where

            # Non-vacuity: the schedule must actually exercise the cache on
            # every variant, not just keep missing.
            assert baseline_engine.cache_totals()["hits"] > 0, context
            for key, engine in engines.items():
                assert engine.cache_totals()["hits"] > 0, f"{context} backend={key}"
