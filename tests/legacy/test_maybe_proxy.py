"""Tests for "maybe" rule evaluation and the legacy proxy."""

import pytest

from repro.core.keys import BASE_RID, rid_for, vid_for
from repro.core.query import DistributedQueryEngine
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.legacy.maybe import MaybeRuleEvaluator
from repro.legacy.proxy import (
    LEGACY_PROGRAM_SOURCE,
    INPUT_ROUTE,
    OUTPUT_ROUTE,
    ROUTE_ENTRY,
    as_node_id,
    as_path_values,
)
from repro.errors import LegacyIntegrationError


@pytest.fixture
def legacy_runtime():
    """A two-node runtime running the legacy provenance program."""
    net = topology.from_edges([("as1", "as2", 1.0)], name="two-as")
    return NetTrailsRuntime(LEGACY_PROGRAM_SOURCE, net, provenance=True, program_name="legacy")


@pytest.fixture
def evaluator(legacy_runtime):
    node = legacy_runtime.node("as2")
    return MaybeRuleEvaluator(
        node,
        legacy_runtime.compiled.maybe_rules,
        legacy_runtime.compiled.registry,
        "legacy",
    )


class TestMaybeRuleEvaluator:
    def test_requires_maybe_rules(self, legacy_runtime):
        node = legacy_runtime.node("as1")
        ordinary = legacy_runtime.compiled.rules
        with pytest.raises(LegacyIntegrationError):
            MaybeRuleEvaluator(node, ordinary, legacy_runtime.compiled.registry, "legacy")

    def test_rules_of_another_program_rejected(self, legacy_runtime):
        """A maybe derivation is recorded in the node's firings, whose rows
        name the node's program."""
        node = legacy_runtime.node("as1")
        maybe = legacy_runtime.compiled.maybe_rules
        with pytest.raises(LegacyIntegrationError, match="running 'legacy'"):
            MaybeRuleEvaluator(node, maybe, legacy_runtime.compiled.registry, "other")

    def test_extended_output_is_explained(self, evaluator, legacy_runtime):
        incoming = Fact.make(INPUT_ROUTE, ["as2", "as9", "10.0.0.0/24", ("as9", "as7")])
        evaluator.observe_input(incoming)
        outgoing = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "10.0.0.0/24", ("as2", "as9", "as7")])
        assert evaluator.observe_output(outgoing) == 1
        # the derivation is recorded in the provenance tables
        store = legacy_runtime.provenance.store("as2")
        entries = store.prov_entries(vid_for(outgoing))
        assert len(entries) == 1 and entries[0][0] != BASE_RID

    def test_derivation_id_is_the_rid(self, evaluator, legacy_runtime):
        """A maybe derivation's id is a real RID: the prov row, the ruleExec
        row and the store's derivation all name ``rid_for`` of its body."""
        incoming = Fact.make(INPUT_ROUTE, ["as2", "as9", "10.0.0.0/24", ("as9", "as7")])
        evaluator.observe_input(incoming)
        outgoing = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "10.0.0.0/24", ("as2", "as9", "as7")])
        assert evaluator.observe_output(outgoing) == 1
        store = legacy_runtime.provenance.store("as2")
        ((rid, rloc),) = store.prov_entries(vid_for(outgoing))
        assert rid == rid_for("br1", "as2", [vid_for(incoming)]) and rloc == "as2"
        entry = store.rule_exec(rid)
        assert entry.rid == rid and entry.rule_name == "br1"
        assert entry.child_vids == (vid_for(incoming),) and entry.head_vid == vid_for(outgoing)
        assert legacy_runtime.node("as2").store.derivations(outgoing) == {rid}

    def test_one_body_explains_two_outputs_under_one_rid(self):
        """A maybe rule's body does not fix its head: two outputs explained
        by one input share a RID and are still retracted one at a time."""
        net = topology.from_edges([("as1", "as2", 1.0), ("as2", "as3", 1.0)], name="three-as")
        legacy_runtime = NetTrailsRuntime(LEGACY_PROGRAM_SOURCE, net, program_name="legacy")
        compiled = legacy_runtime.compiled
        evaluator = MaybeRuleEvaluator(
            legacy_runtime.node("as2"), compiled.maybe_rules, compiled.registry, "legacy"
        )
        incoming = Fact.make(INPUT_ROUTE, ["as2", "as9", "p", ("as9",)])
        evaluator.observe_input(incoming)
        first = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "p", ("as2", "as9")])
        second = Fact.make(OUTPUT_ROUTE, ["as2", "as3", "p", ("as2", "as9")])
        assert evaluator.observe_output(first) == 1
        assert evaluator.observe_output(second) == 1
        assert evaluator.observe_output(second) == 1  # already recorded: no second derivation
        node = legacy_runtime.node("as2")
        assert node.store.derivations(first) == node.store.derivations(second)
        assert node.store.derivation_count(second) == 1
        legacy_runtime.run_to_quiescence()
        evaluator.retract_output(first)
        legacy_runtime.run_to_quiescence()
        assert not node.store.contains(first) and node.store.contains(second)
        # the surviving output's derivation still has its ruleExec row
        store = legacy_runtime.provenance.store("as2")
        ((rid, rloc),) = store.prov_entries(vid_for(second))
        assert rloc == "as2" and store.has_rule_exec(rid)
        assert store.rule_exec(rid).head_vid == vid_for(second)
        assert legacy_runtime.node_state("as3", INPUT_ROUTE) == [("as3", "as2", "p", ("as2", "as9"))]
        evaluator.retract_input(incoming)
        legacy_runtime.run_to_quiescence()
        assert not node.store.contains(second)
        assert legacy_runtime.node_state("as3", INPUT_ROUTE) == []

    def test_unexplained_output_recorded_as_base(self, evaluator, legacy_runtime):
        outgoing = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "10.1.0.0/24", ("as2",)])
        assert evaluator.observe_output(outgoing) == 0
        store = legacy_runtime.provenance.store("as2")
        ((rid, _rloc),) = store.prov_entries(vid_for(outgoing))
        assert rid == BASE_RID

    def test_condition_rejects_non_extension(self, evaluator):
        evaluator.observe_input(Fact.make(INPUT_ROUTE, ["as2", "as9", "p", ("as9",)]))
        bogus = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "p", ("as5", "as9")])
        assert evaluator.observe_output(bogus) == 0

    def test_multiple_matching_inputs_give_multiple_derivations(self, evaluator):
        evaluator.observe_input(Fact.make(INPUT_ROUTE, ["as2", "as8", "p", ("as7",)]))
        evaluator.observe_input(Fact.make(INPUT_ROUTE, ["as2", "as9", "p", ("as7",)]))
        outgoing = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "p", ("as2", "as7")])
        assert evaluator.observe_output(outgoing) == 2

    def test_retract_input_retracts_dependent_output(self, evaluator, legacy_runtime):
        incoming = Fact.make(INPUT_ROUTE, ["as2", "as9", "p", ("as9",)])
        evaluator.observe_input(incoming)
        outgoing = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "p", ("as2", "as9")])
        evaluator.observe_output(outgoing)
        node = legacy_runtime.node("as2")
        assert node.store.contains(outgoing)
        evaluator.retract_input(incoming)
        assert not node.store.contains(outgoing)

    def test_retract_output(self, evaluator, legacy_runtime):
        outgoing = Fact.make(OUTPUT_ROUTE, ["as2", "as1", "p", ("as2",)])
        evaluator.observe_output(outgoing)
        evaluator.retract_output(outgoing)
        assert not legacy_runtime.node("as2").store.contains(outgoing)


class TestProxyHelpers:
    def test_as_node_id_and_path_conversion(self):
        assert as_node_id(42) == "as42"
        assert as_path_values((1, 2)) == ("as1", "as2")


class TestQuaggaDeployment:
    @pytest.fixture
    def deployment(self):
        from repro.legacy.quagga import QuaggaDeployment

        return QuaggaDeployment(tier1_count=2, tier2_per_tier1=1, stubs_per_tier2=1, seed=0)

    def test_route_entries_match_bgp_ribs(self, deployment):
        deployment.play_generated_trace(seed=1, flap_probability=0.0)
        prefix = deployment.events_played[0].prefix
        for asn in deployment.as_topology.ases:
            best = deployment.bgp.best_route(asn, prefix)
            entry = deployment.proxy.current_route_entry(asn, prefix)
            if best is None:
                assert entry is None
            else:
                assert entry is not None
                assert entry.values[2] == as_path_values(best.as_path)

    def test_lineage_traces_back_to_origin_announcement(self, deployment):
        deployment.play_generated_trace(seed=1, flap_probability=0.0)
        event = deployment.events_played[0]
        entries = deployment.route_entries(event.prefix)
        # pick the AS with the longest installed AS path (farthest from origin)
        far = max(entries, key=lambda asn: len(entries[asn]))
        result = deployment.derivation_of_route(far, event.prefix)
        base_relations = {ref.relation for ref in result.value}
        assert base_relations == {OUTPUT_ROUTE}
        origins = {ref.location for ref in result.value}
        assert origins == {as_node_id(event.asn)}

    def test_participants_follow_the_as_path(self, deployment):
        deployment.play_generated_trace(seed=1, flap_probability=0.0)
        event = deployment.events_played[0]
        entries = deployment.route_entries(event.prefix)
        far = max(entries, key=lambda asn: len(entries[asn]))
        participants = deployment.participants_of_route(far, event.prefix).value
        expected = set(entries[far]) | {as_node_id(far)}
        assert participants == frozenset(expected)

    def test_withdrawal_removes_route_entries_and_provenance(self, deployment):
        deployment.play_generated_trace(seed=1, flap_probability=0.0)
        event = deployment.events_played[0]
        assert deployment.route_entries(event.prefix)
        from repro.legacy.routeviews import TraceEvent

        deployment.play_event(TraceEvent(999.0, event.asn, event.prefix, announce=False))
        assert deployment.route_entries(event.prefix) == {}
        # no captured state for the withdrawn prefix survives (other prefixes
        # from the trace are untouched)
        assert [r for r in deployment.runtime.state(ROUTE_ENTRY) if r[1] == event.prefix] == []
        assert [r for r in deployment.runtime.state(INPUT_ROUTE) if r[2] == event.prefix] == []
        assert [r for r in deployment.runtime.state(OUTPUT_ROUTE) if r[2] == event.prefix] == []

    def test_flapping_prefix_converges_to_final_state(self, deployment):
        deployment.play_generated_trace(seed=3, flap_probability=1.0, flaps_max=1)
        # after the trace, whatever BGP says must match the proxy's records
        for event in deployment.events_played:
            for asn in deployment.as_topology.ases:
                best = deployment.bgp.best_route(asn, event.prefix)
                entry = deployment.proxy.current_route_entry(asn, event.prefix)
                assert (best is None) == (entry is None)

    def test_missing_route_query_raises(self, deployment):
        with pytest.raises(KeyError):
            deployment.derivation_of_route(100, "10.255.255.0/24")
