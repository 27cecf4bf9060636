"""The workload determinism contract, pinned.

Same seed ⇒ bit-identical churn trace, bit-identical generated topology and
bit-identical smoke-profile MetricsReport deterministic view — across
repeated runs.  This is what makes a
scenario name + seed a complete bug report: any counter divergence
reproduces from the spec alone.
"""

import pytest

from repro.engine import topology
from repro.workloads import ScenarioDriver, scenario_trace, trace_digest
from repro.workloads.profiles import demo, scale, smoke
from repro.workloads.spec import ChurnPhase, QueryMixSpec, ScenarioSpec, TopologySpec

class TestTraceDeterminism:
    @pytest.mark.parametrize("profile", [smoke, demo, scale], ids=lambda p: p.__name__)
    def test_same_seed_bit_identical_trace(self, profile):
        spec = profile(seed=17)
        first = scenario_trace(spec)
        second = scenario_trace(spec)
        assert first == second
        assert trace_digest(first) == trace_digest(second)

    def test_seed_changes_the_trace(self):
        assert scenario_trace(smoke(seed=1)) != scenario_trace(smoke(seed=2))


class TestTopologyDeterminism:
    def test_power_law_identical_across_runs(self):
        one = topology.power_law(200, attach=2, seed=23)
        two = topology.power_law(200, attach=2, seed=23)
        assert one.nodes == two.nodes
        assert one.edges == two.edges
        assert one != topology.power_law(200, attach=2, seed=24)

    def test_isp_hierarchy_identical_across_runs(self):
        one = topology.isp_hierarchy(4, 3, 2, seed=23)
        two = topology.isp_hierarchy(4, 3, 2, seed=23)
        assert (one.nodes, one.edges) == (two.nodes, two.edges)


class TestReportDeterminism:
    def run_view(self, spec):
        with ScenarioDriver(spec) as driver:
            return driver.run().deterministic_view()

    def test_smoke_report_identical_across_runs(self):
        spec = smoke(seed=29)
        assert self.run_view(spec) == self.run_view(spec)

    @pytest.mark.parametrize("protocol", ["mincost", "prefix_routing"])
    def test_flap_report_identical_across_runs(self, protocol):
        """The view folds the trace digest and every metrics counter into one
        equality; a link-flap run on a grid must reproduce it run after run
        for the routing protocols the smoke profile does not run."""
        spec = ScenarioSpec(
            name=f"flap-{protocol}",
            topology=TopologySpec.make("grid", rows=3, columns=3),
            protocol=protocol,
            seed=7,
            churn=(ChurnPhase.make("link_flap", batches=4, flaps_per_batch=2),),
            queries=QueryMixSpec(
                relation="route" if protocol == "prefix_routing" else "path",
                queries_per_wave=2,
            ),
        )
        first = self.run_view(spec)
        assert first["totals"]["messages"] > 0
        assert self.run_view(spec) == first, f"{protocol} flap run diverged from itself"

    def test_view_excludes_wall_clock_but_dict_keeps_it(self):
        spec = smoke(seed=29)
        with ScenarioDriver(spec) as driver:
            report = driver.run()
        view = report.deterministic_view()
        assert "seconds" not in view
        assert "seconds" in report.to_dict()
