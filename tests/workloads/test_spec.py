"""Tests for scenario specifications (construction, validation, sweeping)."""

import json

import pytest

from repro.errors import EngineError
from repro.workloads import (
    ChurnPhase,
    QueryMixSpec,
    RuntimeKnobs,
    ScenarioSpec,
    TopologySpec,
)


class TestTopologySpec:
    def test_build_runs_the_named_generator(self):
        spec = TopologySpec.make("star", count=5)
        net = spec.build()
        assert net.node_count() == 5
        assert net.degree("n0") == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(EngineError, match="unknown topology kind"):
            TopologySpec.make("torus", count=5)

    def test_params_are_frozen_and_hashable(self):
        spec = TopologySpec.make("ring", count=6, cost=2.0)
        assert hash(spec) == hash(TopologySpec.make("ring", cost=2.0, count=6))

    def test_seeded_generators_build_identically(self):
        spec = TopologySpec.make("power_law", count=40, attach=2, seed=9)
        assert spec.build().edges == spec.build().edges


class TestScenarioSpec:
    def make_spec(self, **overrides):
        fields = dict(
            name="t",
            topology=TopologySpec.make("ring", count=4),
            protocol="mincost",
            seed=3,
            churn=(ChurnPhase.make("link_flap", batches=2),),
        )
        fields.update(overrides)
        return ScenarioSpec(**fields)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(EngineError, match="batch_size"):
            self.make_spec(batch_size=0)

    def test_invalid_query_mix_rejected(self):
        with pytest.raises(EngineError, match="wave_every"):
            QueryMixSpec(relation="minCost", wave_every=0)
        with pytest.raises(EngineError, match="queries_per_wave"):
            QueryMixSpec(relation="minCost", queries_per_wave=0)

    def test_with_helpers_replace_without_mutating(self):
        spec = self.make_spec()
        swept = spec.with_batch_size(8).with_knobs(use_interval_index=True).with_seed(5)
        assert (swept.batch_size, swept.knobs.use_interval_index, swept.seed) == (8, True, 5)
        assert (spec.batch_size, spec.knobs.use_interval_index, spec.seed) == (None, None, 3)

    def test_to_dict_is_json_serialisable(self):
        spec = self.make_spec(queries=QueryMixSpec(relation="minCost"))
        document = json.loads(json.dumps(spec.to_dict()))
        assert document["protocol"] == "mincost"
        assert document["queries"]["relation"] == "minCost"

    def test_knobs_runtime_kwargs_round_trip(self):
        knobs = RuntimeKnobs(query_cache_capacity=2, use_interval_index=True)
        kwargs = knobs.runtime_kwargs()
        assert kwargs["query_cache_capacity"] == 2
        assert kwargs["use_interval_index"] is True
        assert kwargs["observability"] is None

    def test_equal_specs_compare_equal(self):
        assert self.make_spec() == self.make_spec()
        assert self.make_spec() != self.make_spec(seed=4)
