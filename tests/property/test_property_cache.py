"""Randomized-churn soundness harness for the per-VID query cache.

The query cache (:class:`repro.core.optimizations.NodeQueryCache`) validates
entries against per-VID reachability versions maintained incrementally by
:class:`repro.core.maintenance.ProvenanceEngine`.  The promise under test is
**soundness**: a cached answer is *bit-identical* to the answer an uncached
traversal computes, at every point of an arbitrary churn schedule.

Note what is deliberately *not* asserted: the absolute per-VID version
values.  Validity is a per-run property — an entry is served only while its
vertex's version still equals the one it was stored under, within the same
run's version map.

This harness replays the seeded churn scripts of :mod:`churn_harness` and
after every churn step issues each query three ways — cached, uncached,
cached again — plus a remotely-issued cached query (cached at the issuer
under the version it read when the request left), asserting all four
agree.  It honours ``NETTRAILS_CHURN_SEED`` like its siblings.  Versions are
kept only from the first one handed out, so the same scripts queried only
uncached, at the tuples' homes or away from them, must never pay a
reachability walk.
"""

from __future__ import annotations

import pytest

from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from churn_harness import (
    SEEDS, TOPOLOGIES, apply_op, build_variant, generate_churn_script, lineage_answers,
)

CACHED = QueryOptions(use_cache=True)
UNCACHED = QueryOptions(use_cache=False)


def cached_query_sweep(engine, runtime, relation="minCost", limit=3):
    """Query up to *limit* derived tuples cached/uncached/cached-again/remote.

    Asserts the four answers agree (the soundness property) and returns the
    canonicalized answers.
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
    @pytest.mark.parametrize("threshold", [None, 0], ids=["threshold-default", "threshold0"])
    def test_cached_answers_bit_identical_across_matrix(self, topology_name, seed, threshold):
        """With ``threshold`` 0 every walk clears the per-VID version map,
        so every entry cached before a window is validated against the floor."""
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} threshold={threshold} (NETTRAILS_CHURN_SEED={seed})"

        runtime = build_variant(net)
        if threshold is not None:
            runtime.provenance._vid_version_sweep_threshold = threshold
        engine = DistributedQueryEngine(runtime)
        for step, op in enumerate(script):
            apply_op(runtime, op)
            assert cached_query_sweep(engine, runtime), f"{context} step={step} op={op}"

        # Non-vacuity: the schedule must actually exercise the cache, not
        # just keep missing, and a zero threshold must clear the map.
        assert engine.cache_totals()["hits"] > 0, context
        if threshold == 0:
            assert runtime.provenance.vid_version_stats()["sweeps"] > 0, context


class TestNoCacheNoWalk:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_uncached_home_queries_never_walk(self, seed):
        net = TOPOLOGIES["as-level"]()
        runtime = build_variant(net)
        provenance = runtime.provenance
        for step, op in enumerate(generate_churn_script(seed, net)):
            apply_op(runtime, op)
            assert lineage_answers(runtime, "minCost"), step
            stats = provenance.vid_version_stats()
            assert (stats["flushes"], stats["pending"], stats["entries"]) == (0, 0, 0), (seed, step)
            assert not provenance._pending_roots
        assert provenance.vid_versions() == {}

    def test_an_uncached_remote_root_never_walks(self):
        net = TOPOLOGIES["as-level"]()
        runtime = build_variant(net)
        provenance = runtime.provenance
        engine = DistributedQueryEngine(runtime)
        first, second = generate_churn_script(SEEDS[0], net)[:2]
        apply_op(runtime, first)
        values = sorted(runtime.state("minCost"), key=repr)[0]
        home = engine.lineage("minCost", list(values), options=UNCACHED)
        assert provenance.vid_version_stats()["flushes"] == 0
        issuer = next(node for node in runtime.node_ids() if node != values[0])
        remote = engine.lineage("minCost", list(values), options=UNCACHED, at=issuer)
        assert remote.value == home.value and remote.stats.messages > 0
        # The home reads no version for a request without the cache, and
        # the reply carries none: nothing was handed out, so nothing walks.
        apply_op(runtime, second)
        stats = provenance.vid_version_stats()
        assert (stats["flushes"], stats["pending"], stats["entries"]) == (0, 0, 0)
        assert provenance.vid_versions() == {}
