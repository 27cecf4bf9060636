"""Tests for ``run_scenario``, the seeded churn-and-query run E11, E15 and E20 gate.

Pinned here: a fixed seed reproduces every counter, the random streams follow
the documented derivation, phases add up to the totals, ``batch_size`` only
regroups the same ops, and churn converges to the protocol's reference.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import topology
from repro.protocols import mincost, prefix_routing
from repro.workloads import ChurnOp
from repro.workloads.churn import hot_hub_skew, link_flap, node_fail_recover, prefix_announce_withdraw, random_link_churn
from scenario import COUNTERS, run_scenario, smoke

#: Knobs the runtime used to take: a scenario passes them on, to be rejected.
RETIRED_KNOBS = ("num_shards", "shard_workers", "columnar", "backend", "backend_workers",
                 "batch_commit_stall_s", "batch_deltas", "aggregate_retract_first", "use_interval_index")

LINK_GENERATORS = [
    pytest.param(link_flap, {"flaps_per_batch": 2}, id="link_flap"),
    pytest.param(node_fail_recover, {}, id="node_fail_recover"),
    pytest.param(hot_hub_skew, {}, id="hot_hub_skew"),
    pytest.param(random_link_churn, {}, id="random_link_churn"),
]


def deterministic(report):
    """The report less its one wall-clock figure."""
    return {key: value for key, value in report.items() if key != "seconds"}


def star_prefix_run(batch_size=None, queries=("best", 1, 2), **runtime_kwargs):
    """Prefix routing on a 5-node star: announce/withdraw, then link flaps."""
    phases = [
        (prefix_announce_withdraw, 3, {"prefixes": 1, "origins_per_prefix": 2}),
        (link_flap, 2, {"flaps_per_batch": 1}),
    ]
    return run_scenario(topology.star(5), prefix_routing.program(), phases, 7,
                        batch_size=batch_size, queries=queries, **runtime_kwargs)


def flap_run(program, relation, announce):
    """Link flaps on a 3x3 grid, after one announcement window when *announce*."""
    phases = [(prefix_announce_withdraw, 1, {"prefixes": 2, "origins_per_prefix": 1})] if announce else []
    phases.append((link_flap, 4, {"flaps_per_batch": 2}))
    return run_scenario(topology.grid(3, 3), program, phases, 7, queries=(relation, 2, 1))


class TestDeterminism:
    def test_smoke_report_identical_across_runs(self):
        assert deterministic(smoke(seed=29)[1]) == deterministic(smoke(seed=29)[1])

    @pytest.mark.parametrize("program, relation, announce", [
        pytest.param(mincost.SOURCE, "minCost", False, id="mincost"),
        pytest.param(prefix_routing.program(), "route", True, id="prefix_routing"),
    ])
    def test_flap_report_identical_across_runs(self, program, relation, announce):
        _runtime, first = flap_run(program, relation, announce)
        assert first["totals"]["messages"] > 0 and first["totals"]["queries"] > 0
        assert deterministic(flap_run(program, relation, announce)[1]) == deterministic(first)

    def test_seed_changes_the_counters(self):
        assert deterministic(smoke(seed=1)[1]) != deterministic(smoke(seed=2)[1])

    def test_phase_streams_follow_the_documented_derivation(self):
        seen = []

        def probe(mirror, rng, batches):
            seen.append(rng.random())
            return iter(())

        run_scenario(topology.ring(4), mincost.SOURCE, [(probe, 1, {}), (probe, 1, {})], 5)
        assert seen == [random.Random("5:0:0:probe").random(), random.Random("5:1:0:probe").random()]
        assert seen[0] != seen[1], "a repeated phase must not replay the same stream"


class TestReport:
    def test_run_produces_a_consistent_report(self):
        _runtime, report = star_prefix_run()
        assert report["nodes"] == 5
        assert list(report["phases"]) == ["seed", "prefix_announce_withdraw", "link_flap"]
        for key in COUNTERS:
            assert report["totals"][key] == sum(phase[key] for phase in report["phases"].values()), key
        assert report["totals"]["messages"] > 0 and report["totals"]["events"] > 0
        assert report["phases"]["seed"]["deltas"] == 8  # 4 spokes, both directions
        assert report["seconds"] > 0

    @pytest.mark.parametrize("net", [topology.line(4), topology.ring(5), topology.star(6), topology.grid(2, 3)],
                             ids=["line", "ring", "star", "grid"])
    def test_seed_phase_is_one_window_of_every_link(self, net):
        _runtime, report = run_scenario(net, mincost.SOURCE, [], 1)
        seed = report["phases"]["seed"]
        assert report["phases"] == {"seed": report["totals"]}
        assert seed["batches"] == 1 and seed["ops"] == seed["deltas"] == 2 * net.edge_count()

    def test_deltas_count_base_tuple_deltas_of_the_ops(self):
        _runtime, report = run_scenario(topology.ring(6), mincost.SOURCE, [(link_flap, 3, {"flaps_per_batch": 2})], 3)
        flaps = report["phases"]["link_flap"]
        assert flaps["deltas"] == 2 * flaps["ops"]  # every op is a link op

    def test_empty_generator_batches_are_not_windows(self):
        def quiet_then_one_flap(mirror, rng, batches):
            yield from ((), (ChurnOp.remove_link("n0", "n1"),), ())

        _runtime, report = run_scenario(topology.ring(4), mincost.SOURCE, [(quiet_then_one_flap, 3, {})], 1)
        assert report["phases"]["quiet_then_one_flap"]["batches"] == report["phases"]["quiet_then_one_flap"]["ops"] == 1

    def test_phases_share_one_evolving_mirror(self):
        """The second phase sees the link the first took down as down."""

        def take_down(mirror, rng, batches):
            mirror.remove_edge("n0", "n1")
            yield (ChurnOp.remove_link("n0", "n1"),)

        def bring_back(mirror, rng, batches):
            assert not mirror.has_edge("n0", "n1")
            mirror.add_edge("n0", "n1", 1.0)
            yield (ChurnOp.add_link("n0", "n1", 1.0),)

        runtime, _report = run_scenario(topology.ring(4), mincost.SOURCE, [(take_down, 1, {}), (bring_back, 1, {})], 1)
        assert runtime.topology.has_edge("n0", "n1")
        assert mincost.check_against_reference(runtime, runtime.topology)


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 10_000])
    def test_batch_size_rechunks_windows(self, batch_size):
        _runtime, native = star_prefix_run()
        _runtime, rechunked = star_prefix_run(batch_size=batch_size)
        churn_ops = native["totals"]["ops"] - native["phases"]["seed"]["ops"]
        churn_windows = rechunked["totals"]["batches"] - rechunked["phases"]["seed"]["batches"]
        assert churn_windows == -(-churn_ops // batch_size)
        for key in ("ops", "deltas"):
            assert rechunked["totals"][key] == native["totals"][key], key

    def test_window_counts_toward_the_phase_of_its_first_op(self):
        _runtime, report = star_prefix_run(batch_size=10_000)
        assert report["phases"]["prefix_announce_withdraw"]["batches"] == 1
        assert "link_flap" not in report["phases"]

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_batch_size_leaves_the_converged_state_unchanged(self, batch_size):
        native, _report = star_prefix_run(queries=None)
        rechunked, _report = star_prefix_run(batch_size=batch_size, queries=None)
        for relation in ("link", "prefix", "route", "best"):
            assert sorted(rechunked.state(relation)) == sorted(native.state(relation)), relation


class TestConvergence:
    def test_prefix_churn_matches_protocol_reference(self):
        phases = [(prefix_announce_withdraw, 1, {"prefixes": 2, "origins_per_prefix": 1})]
        runtime, _report = run_scenario(topology.star(5), prefix_routing.program(), phases, 7)
        origins = [(node, prefix) for node, prefix, _cost in runtime.state("prefix")]
        assert origins
        assert prefix_routing.check_against_reference(runtime, runtime.topology, origins)

    @pytest.mark.parametrize("generator, params", LINK_GENERATORS)
    def test_link_churn_matches_protocol_reference(self, generator, params):
        runtime, report = run_scenario(topology.ring(6), mincost.SOURCE, [(generator, 4, params)], 13)
        assert report["phases"][generator.__name__]["ops"] > 0
        assert mincost.check_against_reference(runtime, runtime.topology)


class TestQueries:
    def test_query_waves_interleave_and_fill_cache_counters(self):
        _runtime, report = star_prefix_run()
        assert report["totals"]["queries"] > 0 and report["totals"]["query_messages"] > 0
        assert report["cache"]["hits"] + report["cache"]["misses"] > 0

    def test_no_query_wave_leaves_query_counters_at_zero(self):
        _runtime, report = star_prefix_run(queries=None)
        assert report["cache"] == {}
        assert report["totals"]["queries"] == report["totals"]["query_messages"] == report["totals"]["query_rounds"] == 0

    def test_wave_on_an_empty_relation_issues_nothing(self):
        phases = [(link_flap, 2, {"flaps_per_batch": 1})]
        _runtime, report = run_scenario(topology.star(5), prefix_routing.program(), phases, 7, queries=("best", 2, 1))
        assert report["phases"]["link_flap"]["batches"] >= 2
        assert report["totals"]["queries"] == 0 and report["cache"] == {}

    def test_waves_follow_every(self):
        _runtime, every_window = star_prefix_run(queries=("best", 1, 1))
        _runtime, every_other = star_prefix_run(queries=("best", 1, 2))
        assert every_window["totals"]["queries"] > every_other["totals"]["queries"] > 0


class TestRuntimeKwargs:
    def test_runtime_kwargs_reach_the_runtime(self):
        runtime, _report = star_prefix_run(query_cache_capacity=3, observability=True)
        assert runtime.obs is not None and runtime.query_cache_capacity == 3

    def test_runtime_kwargs_leave_the_counters_unchanged(self):
        _runtime, plain = star_prefix_run(queries=None)
        _runtime, observed = star_prefix_run(queries=None, observability=True)
        assert observed["totals"] == plain["totals"]

    @pytest.mark.parametrize("knob", RETIRED_KNOBS)
    def test_scenario_rejects_retired_knob(self, knob):
        with pytest.raises(TypeError, match=knob):
            star_prefix_run(**{knob: 2})
