"""The workload determinism contract, pinned.

Same seed ⇒ bit-identical churn trace, bit-identical generated topology and
bit-identical smoke-profile MetricsReport deterministic view — across
repeated runs and across every execution backend.  This is what makes a
scenario name + seed a complete bug report: any counter divergence
reproduces from the spec alone.
"""

import pytest

from repro.engine import topology
from repro.workloads import ScenarioDriver, scenario_trace, trace_digest
from repro.workloads.profiles import demo, scale, smoke
from repro.workloads.spec import ChurnPhase, QueryMixSpec, ScenarioSpec, TopologySpec

BACKENDS = ("serial", "thread")


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
    def run_view(self, backend):
        spec = smoke(seed=29).with_knobs(
            backend=backend, backend_workers=None if backend == "serial" else 2
        )
        with ScenarioDriver(spec) as driver:
            return driver.run().deterministic_view()

    def test_smoke_report_identical_across_runs(self):
        assert self.run_view("serial") == self.run_view("serial")

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_smoke_report_identical_across_backends(self, backend):
        serial = self.run_view("serial")
        concurrent = self.run_view(backend)
        assert concurrent == serial, (
            f"{backend} backend diverged from the serial reference"
        )

    @pytest.mark.parametrize("workers", [1, 4], ids=lambda w: f"workers{w}")
    def test_smoke_report_identical_across_thread_worker_counts(self, workers):
        """Worker count only bounds how many key groups overlap; one thread
        (every group queued behind it) and four must report the same."""
        spec = smoke(seed=29).with_knobs(backend="thread", backend_workers=workers)
        with ScenarioDriver(spec) as driver:
            report = driver.run()
        assert report.backend_workers == workers
        assert report.deterministic_view() == self.run_view("serial")

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("protocol", ["mincost", "prefix_routing"])
    def test_flap_report_identical_across_backends(self, protocol, backend):
        """The view folds the trace digest and every metrics counter into one
        equality; a link-flap run on a grid must leave it backend-invariant
        for the routing protocols the smoke profile does not run."""
        spec = ScenarioSpec(
            name=f"backend-equiv-{protocol}",
            topology=TopologySpec.make("grid", rows=3, columns=3),
            protocol=protocol,
            seed=7,
            churn=(ChurnPhase.make("link_flap", batches=4, flaps_per_batch=2),),
            queries=QueryMixSpec(
                relation="route" if protocol == "prefix_routing" else "path",
                queries_per_wave=2,
            ),
        )
        views = {}
        for name in ("serial", backend):
            knobs = spec.with_knobs(
                backend=name, backend_workers=None if name == "serial" else 2
            )
            with ScenarioDriver(knobs) as driver:
                views[name] = driver.run().deterministic_view()
        assert views[backend] == views["serial"], (
            f"{backend} backend diverged from the serial reference on {protocol}"
        )

    def test_view_excludes_wall_clock_but_dict_keeps_it(self):
        spec = smoke(seed=29)
        with ScenarioDriver(spec) as driver:
            report = driver.run()
        view = report.deterministic_view()
        assert "seconds" not in view
        assert "backend" not in view
        assert "seconds" in report.to_dict()
