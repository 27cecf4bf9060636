"""Tests for the ExSPAN provenance maintenance engine."""

import pytest

from repro.core.keys import BASE_RID, vid_for
from repro.core.maintenance import ProvenanceEngine
from repro.core.query import DistributedQueryEngine
from repro.errors import ProvenanceError
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.protocols import mincost, path_vector


@pytest.fixture
def ring_runtime(ring5):
    return mincost.setup(ring5)


class TestTableMaintenance:
    def test_prov_and_rule_exec_tables_populated(self, ring_runtime):
        sizes = ring_runtime.provenance.table_sizes()
        assert sizes["prov"] > 0
        assert sizes["ruleExec"] > 0

    def test_version_of_is_a_pure_read(self, ring_runtime):
        provenance = ring_runtime.provenance
        assert provenance.version_of("n0") > 0
        assert provenance.version_of("n0") == provenance.versions()["n0"]
        # Probing an unknown node must raise, not materialise a phantom
        # partition that would then show up in versions()/node_ids().
        before = provenance.node_ids()
        with pytest.raises(ProvenanceError):
            provenance.version_of("no-such-node")
        assert provenance.node_ids() == before
        assert "no-such-node" not in provenance.versions()

    def test_every_stored_fact_has_a_prov_entry(self, ring_runtime):
        provenance = ring_runtime.provenance
        for node_id, node in ring_runtime.nodes.items():
            store = provenance.store(node_id)
            for fact in node.store.all_facts():
                assert store.prov_entries(vid_for(fact)), f"missing prov for {fact}"

    def test_prov_entry_count_matches_derivation_count(self, ring_runtime):
        provenance = ring_runtime.provenance
        for node_id, node in ring_runtime.nodes.items():
            store = provenance.store(node_id)
            for fact in node.store.all_facts():
                assert len(store.prov_entries(vid_for(fact))) == node.store.derivation_count(fact)

    def test_base_tuples_marked_with_base_rid(self, ring_runtime):
        provenance = ring_runtime.provenance
        store = provenance.store("n0")
        link_vid = vid_for(Fact.make("link", ["n0", "n1", 1.0]))
        entries = store.prov_entries(link_vid)
        assert len(entries) == 1
        assert entries[0] == (BASE_RID, "n0")

    def test_rule_exec_children_are_local_tuples(self, ring_runtime):
        provenance = ring_runtime.provenance
        for node_id in ring_runtime.node_ids():
            store = provenance.store(node_id)
            tuples = ring_runtime.nodes[node_id].store
            for _loc, rid, _rule, _prog, child_vids in store.rule_exec_table():
                for child in child_vids:
                    fact = store.find_tuple(child)
                    assert fact is not None and vid_for(fact) == child and tuples.contains(fact)

    def test_prov_entries_point_to_existing_rule_execs(self, ring_runtime):
        provenance = ring_runtime.provenance
        for node_id in ring_runtime.node_ids():
            for _loc, _vid, rid, rloc in provenance.store(node_id).prov_table():
                if rid == BASE_RID:
                    continue
                assert provenance.store(rloc).has_rule_exec(rid)

    def test_tables_shrink_after_deletions(self, ring_runtime, ring5):
        before = ring_runtime.provenance.table_sizes()
        ring_runtime.remove_link("n0", "n1")
        ring_runtime.run_to_quiescence()
        after = ring_runtime.provenance.table_sizes()
        assert after["prov"] < before["prov"]
        assert after["ruleExec"] < before["ruleExec"]

    def test_tables_restored_after_reinsertion(self, ring_runtime):
        before = ring_runtime.provenance.table_sizes()
        ring_runtime.remove_link("n0", "n1")
        ring_runtime.run_to_quiescence()
        ring_runtime.add_link("n0", "n1", 1.0)
        ring_runtime.run_to_quiescence()
        assert ring_runtime.provenance.table_sizes() == before

    def test_per_node_sizes_sum_to_totals(self, ring_runtime):
        per_node = ring_runtime.provenance.per_node_sizes()
        totals = ring_runtime.provenance.table_sizes()
        assert sum(entry["prov"] for entry in per_node.values()) == totals["prov"]
        assert sum(entry["ruleExec"] for entry in per_node.values()) == totals["ruleExec"]


class TestGraphAssembly:
    def test_build_graph_covers_all_stored_tuples(self, ring_runtime):
        graph = ring_runtime.provenance.build_graph()
        assert graph.tuple_count >= ring_runtime.total_facts()
        assert graph.rule_exec_count == ring_runtime.provenance.table_sizes()["ruleExec"]

    def test_graph_lineage_matches_expectation(self, ring_runtime):
        graph = ring_runtime.provenance.build_graph()
        # minCost(n0 -> n2) = 2 goes through n1, so its lineage is exactly the
        # two links n0->n1 and n1->n2.
        target = graph.find_tuples("minCost", ("n0", "n2", 2.0))[0]
        lineage = {(v.relation,) + v.values for v in graph.base_tuples_of(target.vid)}
        assert lineage == {("link", "n0", "n1", 1.0), ("link", "n1", "n2", 1.0)}

    def test_resolve_tuple(self, ring_runtime):
        provenance = ring_runtime.provenance
        fact = Fact.make("link", ["n0", "n1", 1.0])
        relation, values, location = provenance.resolve_tuple(vid_for(fact))
        assert relation == "link"
        assert values == fact.values
        assert location == "n0"

    def test_resolve_unknown_tuple_raises(self, ring_runtime):
        from repro.errors import UnknownVertexError

        with pytest.raises(UnknownVertexError):
            ring_runtime.provenance.resolve_tuple("vid_nonexistent")


#: An aggregate whose contributing facts outlive a change of its value: one
#: ``blk`` row removes an entry from the group but no fact from it.
SHARED_RID_PROGRAM = """
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(blk, infinity, infinity, keys(1,2)).
materialize(c, infinity, infinity, keys(1,2)).
r1 c(@S, count<*>) :- e(@S, X, Y), e(@S, Y, X), !blk(@S, X).
"""


class TestSharedRid:
    def test_aggregate_replaced_under_the_same_facts_keeps_its_rule_exec(self):
        """``c(n0,2)`` becomes ``c(n0,1)`` under the same RID (the same rule
        over the same facts); retracting the old head must not take the new
        head's ``ruleExec`` row with it."""
        runtime = NetTrailsRuntime(SHARED_RID_PROGRAM, topology.line(1), program_name="blk")
        runtime.insert_batch("e", [["n0", "a", "b"], ["n0", "b", "a"]])
        runtime.run_to_quiescence()
        assert runtime.state("c") == [("n0", 2)]
        runtime.insert("blk", ["n0", "b"])
        runtime.run_to_quiescence()
        assert runtime.state("c") == [("n0", 1)]

        store = runtime.provenance.store("n0")
        ((rid, rloc),) = store.prov_entries(vid_for(Fact.make("c", ["n0", 1])))
        assert rloc == "n0" and store.has_rule_exec(rid)
        assert store.rule_exec(rid).head_vid == vid_for(Fact.make("c", ["n0", 1]))
        assert runtime.provenance.table_sizes() == {"prov": 4, "ruleExec": 1}
        lineage = DistributedQueryEngine(runtime).lineage("c", ["n0", 1])
        assert {(ref.relation, ref.values) for ref in lineage.value} == {
            ("e", ("n0", "a", "b")),
            ("e", ("n0", "b", "a")),
        }


    def test_two_groups_explained_by_the_same_facts_share_one_rule_exec(self, prov_rids_live, prov_vids_present):
        """``e(a,b)`` and ``e(b,a)`` are the contributing facts of group ``a``
        and of group ``b``, so both heads carry one RID: one ``ruleExec``
        row holding both heads, which lives until the last head goes."""
        program = """
        materialize(e, infinity, infinity, keys(1,2,3)).
        materialize(c, infinity, infinity, keys(1,2)).
        r1 c(@S, X, count<*>) :- e(@S, X, Y), e(@S, Y, X).
        """
        runtime = NetTrailsRuntime(program, topology.line(1), program_name="pairs")
        runtime.insert_batch("e", [["n0", "a", "b"], ["n0", "b", "a"]])
        runtime.run_to_quiescence()
        assert runtime.state("c") == [("n0", "a", 1), ("n0", "b", 1)]
        store = runtime.provenance.store("n0")
        heads = [Fact.make("c", ["n0", "a", 1]), Fact.make("c", ["n0", "b", 1])]
        ((rid, _),) = store.prov_entries(vid_for(heads[0]))
        assert store.prov_entries(vid_for(heads[1])) == ((rid, "n0"),)
        assert [entry.head_vid for entry in store.rule_execs()] == sorted(map(vid_for, heads))
        assert runtime.provenance.table_sizes() == {"prov": 4, "ruleExec": 1}
        assert prov_rids_live(runtime) == 2
        assert prov_vids_present(runtime) == 4

        runtime.insert_batch("e", [["n0", "a", "c"], ["n0", "c", "a"]])
        runtime.run_to_quiescence()
        assert runtime.state("c") == [("n0", "a", 2), ("n0", "b", 1), ("n0", "c", 1)]
        assert prov_rids_live(runtime) == 3
        assert prov_vids_present(runtime) == 7
        runtime.delete_batch("e", [["n0", "a", "c"], ["n0", "c", "a"], ["n0", "b", "a"]])
        runtime.run_to_quiescence()
        assert runtime.state("c") == []
        assert runtime.provenance.table_sizes() == {"prov": 1, "ruleExec": 0}
        assert prov_vids_present(runtime) == 1
        assert runtime.node("n0").evaluator.firings.consumers == {}


class TestDisabledProvenance:
    def test_runtime_without_provenance_still_converges(self, ring5):
        runtime = mincost.setup(ring5, provenance=False)
        assert mincost.check_against_reference(runtime, ring5)
        assert runtime.provenance is None

    def test_provenance_overhead_is_positive(self, ring5):
        with_provenance = mincost.setup(ring5, provenance=True)
        sizes = with_provenance.provenance.table_sizes()
        assert sizes["prov"] >= with_provenance.total_facts()


class TestPerVidVersions:
    """Per-VID reachability versions: bump exactly the changed subgraph's ancestors."""

    CHAIN_PROGRAM = """
    r1 hop(@D, S) :- edge(@S, D).
    r2 hop2(@D, S) :- hop(@M, S), edge(@M, D).
    """

    @pytest.fixture
    def chain(self):
        from repro.engine.runtime import NetTrailsRuntime

        runtime = NetTrailsRuntime(self.CHAIN_PROGRAM, topology.line(3))
        runtime.insert("edge", ["n0", "n1"])
        runtime.insert("edge", ["n1", "n2"])
        runtime.run_to_quiescence()
        vids = {
            "edge01": vid_for(Fact.make("edge", ["n0", "n1"])),
            "edge12": vid_for(Fact.make("edge", ["n1", "n2"])),
            "hop": vid_for(Fact.make("hop", ["n1", "n0"])),
            "hop2": vid_for(Fact.make("hop2", ["n2", "n0"])),
        }
        return runtime, vids

    def test_versions_assigned_on_initial_derivation(self, chain):
        runtime, vids = chain
        provenance = runtime.provenance
        for name, vid in vids.items():
            assert provenance.vid_version(vid) > 0, name

    def test_delete_bumps_ancestors_not_descendants(self, chain):
        runtime, vids = chain
        provenance = runtime.provenance
        before = {name: provenance.vid_version(vid) for name, vid in vids.items()}
        runtime.delete("edge", ["n1", "n2"])
        runtime.run_to_quiescence()
        after = {name: provenance.vid_version(vid) for name, vid in vids.items()}
        # The deleted base and the tuple derived through it change...
        assert after["edge12"] > before["edge12"]
        assert after["hop2"] > before["hop2"]
        # ...but the rest of the chain is downstream of neither.
        assert after["edge01"] == before["edge01"]
        assert after["hop"] == before["hop"]

    def test_delete_propagates_transitively_upward(self, chain):
        runtime, vids = chain
        provenance = runtime.provenance
        before = {name: provenance.vid_version(vid) for name, vid in vids.items()}
        runtime.delete("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        after = {name: provenance.vid_version(vid) for name, vid in vids.items()}
        # hop2 is two derivation steps above the deleted base (and lives two
        # nodes away); the upward walk must still reach it.
        assert after["edge01"] > before["edge01"]
        assert after["hop"] > before["hop"]
        assert after["hop2"] > before["hop2"]
        assert after["edge12"] == before["edge12"]

    def test_insert_propagates_like_delete(self, chain):
        runtime, vids = chain
        provenance = runtime.provenance
        runtime.delete("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        before = {name: provenance.vid_version(vid) for name, vid in vids.items()}
        runtime.insert("edge", ["n0", "n1"])
        runtime.run_to_quiescence()
        after = {name: provenance.vid_version(vid) for name, vid in vids.items()}
        assert after["edge01"] > before["edge01"]
        assert after["hop"] > before["hop"]
        assert after["hop2"] > before["hop2"]
        assert after["edge12"] == before["edge12"]

    def test_propagation_covers_graph_forward_closure(self, ring_runtime):
        """Oracle check: flapping a base link bumps (at least) every vertex
        whose forward closure in the assembled graph contains it, and leaves
        vertices outside every plausible blast radius untouched."""
        provenance = ring_runtime.provenance
        link = Fact.make("link", ["n0", "n1", 1.0])
        link_vid = vid_for(link)
        closure = provenance.build_graph().affected_vids(link_vid)
        assert closure  # the link derives paths, so the closure is non-empty
        before = {vid: provenance.vid_version(vid) for vid in closure | {link_vid}}
        ring_runtime.remove_link("n0", "n1")
        ring_runtime.run_to_quiescence()
        ring_runtime.add_link("n0", "n1", 1.0)
        ring_runtime.run_to_quiescence()
        for vid in closure | {link_vid}:
            assert provenance.vid_version(vid) > before[vid], vid

    def test_aggregate_head_isolated_from_losing_alternatives(self):
        """Adding a worse alternative to a min-group must not bump the head:
        the winning derivation — what a traversal visits — is unchanged."""
        star = topology.star(5)
        runtime = mincost.setup(star)
        provenance = runtime.provenance
        hub = "n0"
        # minCost(n1 -> hub) is the direct link; churn a *different* leaf's
        # link, which rewrites many path groups but not this winner's subtree.
        target_vid = provenance.vid_of("minCost", ["n1", hub, 1.0])
        before = provenance.vid_version(target_vid)
        runtime.remove_link("n2", hub)
        runtime.run_to_quiescence()
        runtime.add_link("n2", hub, 1.0)
        runtime.run_to_quiescence()
        assert provenance.vid_version(target_vid) == before


class TestGlobalVersionMemo:
    def test_global_version_equals_partition_sum(self, ring_runtime):
        provenance = ring_runtime.provenance
        assert provenance.global_version() == sum(provenance.versions().values())
        ring_runtime.remove_link("n0", "n1")
        ring_runtime.run_to_quiescence()
        assert provenance.global_version() == sum(provenance.versions().values())

    def test_fresh_engine_starts_at_zero(self):
        engine = ProvenanceEngine()
        assert engine.global_version() == 0
        assert engine.vid_version("anything") == 0
