"""Random churn, replayed, is bit-identical to itself.

The fresh-run suite checks *what* incremental maintenance converges to; this
one checks that the way it gets there is reproducible.  One event loop runs
every node in scheduling order, so two runtimes fed the same seeded churn
script must agree after *every* step on everything a run can observe:
per-node store snapshots, the distributed provenance tables, per-node
provenance versions, network message counts and simulator event/round
counts — and, at the end, on query answers and on what each query cost.
Like its siblings the suite honours ``NETTRAILS_CHURN_SEED``.
"""

from __future__ import annotations

import pytest

from churn_harness import (
    SEEDS,
    TOPOLOGIES,
    apply_op,
    build_variant,
    generate_churn_script,
    lineage_answers,
)
from repro.core.query import DistributedQueryEngine


def observable_counts(runtime):
    """The wire and engine counters a replay must reproduce."""
    stats = runtime.message_stats()
    return {
        "messages": stats.messages,
        "by_category": stats.by_category,
        "events": runtime.simulator.processed_events,
        "rounds": runtime.simulator.rounds,
        "now": runtime.simulator.now,
    }


class TestChurnReplaysIdentically:
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
    def test_every_step_matches_a_replay(
        self, topology_name, seed, global_state, provenance_fingerprint, store_snapshots
    ):
        net = TOPOLOGIES[topology_name]()
        script = generate_churn_script(seed, net)
        context = f"topology={topology_name} seed={seed} (NETTRAILS_CHURN_SEED={seed})"

        with build_variant(net) as original, build_variant(net) as replay:
            for step, op in enumerate(script):
                where = f"{context} step={step} op={op}"
                apply_op(original, op)
                apply_op(replay, op)
                assert store_snapshots(replay) == store_snapshots(original), where
                assert provenance_fingerprint(replay) == provenance_fingerprint(original), where
                assert replay.provenance.versions() == original.provenance.versions(), where
                assert observable_counts(replay) == observable_counts(original), where
            relations = ["link", "path", "minCost"]
            assert global_state(replay, relations) == global_state(original, relations), context
            assert lineage_answers(replay, "minCost") == lineage_answers(original, "minCost"), context

    @pytest.mark.parametrize("seed", SEEDS[:1], ids=lambda s: f"seed{s}")
    def test_query_traffic_identical_on_replay(self, seed):
        """Provenance-query traversal costs (messages, rounds, nodes visited)
        are part of the paper's claims, so a replay must reproduce them too,
        not just the answers."""
        net = TOPOLOGIES["as-level"]()
        script = generate_churn_script(seed, net, steps=3)

        def query_stats():
            with build_variant(net) as runtime:
                for op in script:
                    apply_op(runtime, op)
                engine = DistributedQueryEngine(runtime)
                stats = []
                for values in sorted(runtime.state("minCost"), key=repr)[:3]:
                    result = engine.lineage("minCost", list(values))
                    stats.append(
                        (
                            values,
                            sorted(str(ref) for ref in result.value),
                            result.stats.messages,
                            result.stats.rounds,
                            result.stats.nodes_visited,
                        )
                    )
                return stats

        first = query_stats()
        assert first and all(messages > 0 for _, _, messages, _, _ in first)
        assert query_stats() == first, f"seed={seed}"
