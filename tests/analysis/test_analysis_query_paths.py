"""Analysis tasks cross-checked through the distributed query engine.

``root_causes`` and ``cascading_effects`` are offline, whole-graph
computations; the distributed query engine answers the same questions
online, by traversal of the partitioned ``prov``/``ruleExec`` tables.
These tests pin the agreement: for the same tuples, the offline analysis
and the traversal must name exactly the same base tuples and exhibit
consistent forward/backward views, whichever node issues the query.
"""

from __future__ import annotations

import pytest

from repro.analysis import cascading_effects, impact_of_link_failure, root_causes
from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine

BASELINE = QueryOptions(use_cache=False)

#: Deep-ish minCost tuples of the ring5 fixture (two-hop derivations).
TARGETS = (
    ["n0", "n2", 2.0],
    ["n0", "n3", 2.0],
    ["n1", "n4", 2.0],
)


@pytest.fixture
def graph(mincost_ring):
    return mincost_ring.provenance.build_graph()


def base_tuple_set(vertices):
    return {(vertex.relation,) + tuple(vertex.values) for vertex in vertices}


def lineage_tuple_set(result):
    return {(ref.relation,) + tuple(ref.values) for ref in result.value}


def traversal_lineages(runtime, targets):
    """Lineage answers per target from the distributed traversal."""
    engine = DistributedQueryEngine(runtime)
    return [
        lineage_tuple_set(engine.lineage("minCost", values, options=BASELINE))
        for values in targets
    ]


class TestRootCauseThroughQueryPaths:
    def test_offline_root_causes_match_the_traversal(self, mincost_ring, graph):
        offline = [
            base_tuple_set(root_causes(graph, "minCost", values)) for values in TARGETS
        ]
        for values, expected, traversed in zip(
            TARGETS, offline, traversal_lineages(mincost_ring, TARGETS)
        ):
            assert traversed == expected, values

    def test_remote_issuer_matches_offline(self, mincost_ring, graph):
        """Issuing the query from a node that is not the tuple's home still
        reproduces the offline root causes (the issuer has to ship the
        root's home node a request first)."""
        values = TARGETS[0]
        offline = base_tuple_set(root_causes(graph, "minCost", values))
        engine = DistributedQueryEngine(mincost_ring)
        answer = engine.lineage("minCost", values, options=BASELINE, at="n3")
        assert lineage_tuple_set(answer) == offline
        assert answer.stats.messages > 0, "a remote issuer must pay messages"


class TestCascadeThroughQueryPaths:
    def test_forward_cascade_is_backward_lineage_inverted(self, mincost_ring, graph):
        """Every minCost tuple the link (transitively) supports must list the
        link among its base lineage."""
        link = ("link", "n0", "n1", 1.0)
        affected = [
            list(vertex.values)
            for vertex in cascading_effects(graph, "link", list(link[1:]))
            if vertex.relation == "minCost"
        ]
        assert affected, "the link must support at least one minCost tuple"
        for values, traversed in zip(affected, traversal_lineages(mincost_ring, affected)):
            assert link in traversed, values
        # And a tuple outside the forward cascade must not list the link.
        outside = [
            list(row)
            for row in sorted(mincost_ring.state("minCost"), key=repr)
            if list(row) not in affected
        ][:2]
        if outside:
            for values, traversed in zip(outside, traversal_lineages(mincost_ring, outside)):
                assert link not in traversed, values

    def test_actual_link_failure_stays_within_the_predicted_cascade(
        self, mincost_ring, graph
    ):
        """impact_of_link_failure removals are a subset of the potential
        cascade the provenance graph predicts, and the traversal keeps
        answering correctly across the failure/restore churn."""
        # Links are symmetric: failing n0 <-> n1 retracts both directed base
        # tuples, so the predicted cascade is the union over both directions.
        predicted = {
            (vertex.relation,) + tuple(vertex.values)
            for values in (["n0", "n1", 1.0], ["n1", "n0", 1.0])
            for vertex in cascading_effects(graph, "link", values)
        }
        impact = impact_of_link_failure(mincost_ring, "n0", "n1")
        assert impact.restored
        removed = {
            (relation,) + tuple(row)
            for relation, rows in impact.removed_tuples.items()
            for row in rows
        }
        assert removed, "failing a ring link must remove derived state"
        assert removed <= predicted, removed - predicted

        # Post-restore, the traversal names the offline root causes of the
        # original targets again (the churn re-derived their provenance).
        restored = mincost_ring.provenance.build_graph()
        for values, traversed in zip(TARGETS, traversal_lineages(mincost_ring, TARGETS)):
            assert traversed == base_tuple_set(root_causes(restored, "minCost", values)), values
