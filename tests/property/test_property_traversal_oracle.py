"""The distributed traversal against the centralized provenance graph, under churn.

Every provenance query is answered by one distributed traversal of the
partitioned ``prov`` / ``ruleExec`` tables.  The oracle here is independent
of that traversal: :meth:`ProvenanceEngine.build_graph` assembles the same
tables into one in-memory graph, and the offline analyses
(:func:`~repro.analysis.root_causes`,
:func:`~repro.analysis.participating_nodes`,
:meth:`ProvenanceGraph.derivation_count`,
:meth:`ProvenanceGraph.subgraph_rooted_at`) answer each query by walking it
locally.  Over MINCOST and prefix routing, after every step of a seeded
churn script, at quiescence, the traversal's lineage, participants,
derivation count and subgraph tuple vertices must equal the offline
answers — issued at the tuple's home node and from another node, in
parallel and in sequential order.

The harness replays the churn scripts of :mod:`churn_harness` and honours
``NETTRAILS_CHURN_SEED`` like its siblings.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import participating_nodes, root_causes
from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.protocols import prefix_routing
from churn_harness import SEEDS, TOPOLOGIES, apply_op, build_runtime, build_variant, generate_churn_script


def offline_answers(graph, values, relation):
    """Lineage, participants, derivation count and subgraph tuples from the centralized graph."""
    (vertex,) = graph.find_tuples(relation, tuple(values))
    subgraph = graph.subgraph_rooted_at(vertex.vid)
    return (
        {(base.relation,) + tuple(base.values) for base in root_causes(graph, relation, values)},
        participating_nodes(graph, relation, values),
        graph.derivation_count(vertex.vid),
        {tuple_vertex.vid for tuple_vertex in subgraph.tuple_vertices()},
    )


def traversal_answers(engine, values, options, at, relation):
    """The same four answers from the distributed traversal, issued at *at*."""
    lineage = engine.lineage(relation, values, options=options, at=at)
    participants = engine.participants(relation, values, options=options, at=at)
    count = engine.derivation_count(relation, values, options=options, at=at)
    subgraph = engine.subgraph(relation, values, options=options, at=at)
    for result in (lineage, participants, count, subgraph):
        assert not result.truncated
    return (
        {(ref.relation,) + tuple(ref.values) for ref in lineage.value},
        set(participants.value),
        count.value,
        {tuple_vertex.vid for tuple_vertex in subgraph.value.tuple_vertices()},
    )


def assert_matches_offline(runtime, engine, relation, options, step, where, prov_rids_live):
    """Query up to four *relation* tuples at home and from another node; diff each answer.

    The graph is built from the same rows the traversal reads, so first
    check those rows against each other (``prov_rids_live``).

    Returns how many of the queries were issued away from the tuple's home
    (every relation here is stored at its first column).
    """
    prov_rids_live(runtime)
    graph = runtime.provenance.build_graph()
    targets = sorted(runtime.state(relation), key=repr)[:4]
    assert targets, f"{where}: nothing left to query"
    issuers = runtime.node_ids()
    remote_queries = 0
    for index, values in enumerate(targets):
        expected = offline_answers(graph, list(values), relation)
        remote = issuers[(index + step) % len(issuers)]
        remote_queries += remote != values[0]
        for at in (None, remote):
            answers = traversal_answers(engine, list(values), options, at, relation)
            assert answers == expected, f"{where} target={values} at={at}"
    return remote_queries


class TestTraversalMatchesCentralizedGraph:
    @pytest.mark.parametrize("traversal", ["parallel", "sequential"])
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", ["star", "ring", "as-level"])
    def test_answers_match_the_offline_graph_after_every_step(
        self, topology_name, seed, traversal, prov_rids_live
    ):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} traversal={traversal} (NETTRAILS_CHURN_SEED={seed})"
        options = QueryOptions(use_cache=False, traversal=traversal)

        runtime = build_variant(net)
        engine = DistributedQueryEngine(runtime)
        remote_queries = 0
        for step, op in enumerate(script):
            apply_op(runtime, op)
            where = f"{context} step={step} op={op}"
            remote_queries += assert_matches_offline(
                runtime, engine, "minCost", options, step, where, prov_rids_live
            )
        assert remote_queries, f"{context}: no query was issued away from its tuple's home"

    @pytest.mark.parametrize("traversal", ["parallel", "sequential"])
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    def test_prefix_routes_match_the_offline_graph_under_announce_withdraw_and_flaps(
        self, seed, traversal, prov_rids_live
    ):
        """Prefix routing's ``min`` aggregate over announced prefixes: the
        same oracle while origins come and go and links churn."""
        net = TOPOLOGIES["as-level"]()
        nodes = sorted(net.nodes)
        rng = random.Random(seed)
        script = generate_churn_script(seed, net)
        context = f"prefix_routing seed={seed} traversal={traversal} (NETTRAILS_CHURN_SEED={seed})"
        options = QueryOptions(use_cache=False, traversal=traversal)

        runtime = build_runtime(prefix_routing.program(), net)
        engine = DistributedQueryEngine(runtime)
        announced = list(dict.fromkeys((rng.choice(nodes), f"p{rng.randrange(3)}") for _ in range(3)))
        prefix_routing.announce(runtime, announced)
        remote_queries = 0
        for step, op in enumerate(script):
            if step == len(script) // 2:
                prefix_routing.withdraw(runtime, announced[:1])
            apply_op(runtime, op)
            where = f"{context} step={step} op={op}"
            remote_queries += assert_matches_offline(
                runtime, engine, "best", options, step, where, prov_rids_live
            )
        assert remote_queries, f"{context}: no query was issued away from its tuple's home"
