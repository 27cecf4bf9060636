"""Tests for the scenario driver and its metrics reports."""

import json

import pytest

from repro.errors import EngineError
from repro.protocols import prefix_routing
from repro.workloads import (
    ChurnPhase,
    QueryMixSpec,
    ScenarioDriver,
    ScenarioSpec,
    TopologySpec,
    build_profile,
    run_scenario,
    smoke,
)


def tiny_spec(**overrides):
    fields = dict(
        name="tiny",
        topology=TopologySpec.make("star", count=5),
        protocol="prefix_routing",
        seed=7,
        churn=(
            ChurnPhase.make(
                "prefix_announce_withdraw", batches=3, prefixes=1, origins_per_prefix=2
            ),
            ChurnPhase.make("link_flap", batches=2, flaps_per_batch=1),
        ),
        queries=QueryMixSpec(relation="best", queries_per_wave=1, wave_every=2),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestScenarioDriver:
    def test_run_produces_a_consistent_report(self):
        report = run_scenario(tiny_spec())
        assert report.scenario == "tiny"
        assert report.nodes == 5
        phase_names = {phase.name for phase in report.phases}
        assert {"seed", "prefix_announce_withdraw", "link_flap"} <= phase_names
        totals = report.totals()
        for key, value in totals.items():
            assert value == sum(getattr(phase, key) for phase in report.phases), key
        assert totals["messages"] > 0 and totals["events"] > 0
        assert report.phase("seed").deltas == 8  # 4 spokes, both directions

    def test_converged_state_matches_protocol_reference(self):
        spec = tiny_spec(churn=(
            ChurnPhase.make(
                "prefix_announce_withdraw", batches=1, prefixes=2, origins_per_prefix=1
            ),
        ), queries=None)
        with ScenarioDriver(spec) as driver:
            driver.run()
            origins = [
                (values[0], values[1])
                for values in driver.runtime.state("prefix")
            ]
            assert origins
            assert prefix_routing.check_against_reference(
                driver.runtime, driver.runtime.topology, origins
            )

    def test_batch_size_rechunks_windows(self):
        native = run_scenario(tiny_spec())
        tiny_windows = run_scenario(tiny_spec(batch_size=1))
        one_window = run_scenario(tiny_spec(batch_size=10_000))
        churn = lambda report: report.totals()["batches"] - report.phase("seed").batches
        assert churn(tiny_windows) == (
            tiny_windows.totals()["ops"] - tiny_windows.phase("seed").ops
        )
        assert churn(one_window) == 1
        assert churn(tiny_windows) > churn(native) >= churn(one_window)

    def test_query_waves_interleave_and_fill_cache_counters(self):
        report = run_scenario(tiny_spec())
        assert report.totals()["queries"] > 0
        assert report.cache, "query waves must surface cache counters"
        assert report.cache["hits"] + report.cache["misses"] > 0

    def test_run_twice_rejected(self):
        with ScenarioDriver(tiny_spec()) as driver:
            driver.run()
            with pytest.raises(EngineError, match="only be called once"):
                driver.run()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(EngineError, match="unknown protocol"):
            ScenarioDriver(tiny_spec(protocol="ospf"))

    def test_report_to_dict_is_json_serialisable(self):
        document = json.loads(json.dumps(run_scenario(tiny_spec()).to_dict()))
        assert document["scenario"] == "tiny"
        assert all("seconds" in phase for phase in document["phases"])

    def test_knobs_reach_the_runtime(self):
        spec = tiny_spec().with_knobs(query_cache_capacity=3, use_interval_index=True)
        with ScenarioDriver(spec) as driver:
            assert driver.runtime.use_interval_index is True
            assert driver.runtime.query_cache_capacity == 3
            driver.run()


class TestProfiles:
    def test_build_profile_resolves_and_sweeps(self):
        spec = build_profile("smoke", seed=3, batch_size=4)
        assert spec.name == "smoke"
        assert spec.seed == 3
        assert spec.batch_size == 4

    def test_unknown_profile_rejected(self):
        with pytest.raises(EngineError, match="unknown profile"):
            build_profile("galactic")

    def test_smoke_profile_is_ci_sized(self):
        spec = smoke()
        net = spec.topology.build()
        assert net.node_count() <= 16
        report = run_scenario(spec)
        assert report.seconds < 10, "smoke must stay seconds-fast for CI"

    def test_scale_profiles_are_1000_plus_nodes(self):
        from repro.workloads.profiles import scale

        for kind in ("isp_hierarchy", "power_law"):
            net = scale(topology_kind=kind).topology.build()
            assert net.node_count() >= 1000, kind
            assert net.is_connected(), kind

    def test_scale_rejects_unknown_topology_kind(self):
        from repro.workloads.profiles import scale

        with pytest.raises(EngineError, match="topology_kind"):
            scale(topology_kind="donut")
