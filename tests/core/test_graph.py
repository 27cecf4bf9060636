"""Tests for the in-memory provenance graph model."""

import dataclasses
import itertools

import pytest

from repro.errors import UnknownVertexError
from repro.core.graph import ProvenanceGraph, RuleExecVertex, TupleVertex


def tuple_vertex(vid, relation="r", values=(1,), location="n0", is_base=False):
    return TupleVertex(vid=vid, relation=relation, values=values, location=location, is_base=is_base)


@pytest.fixture
def diamond():
    """A tuple with two alternative derivations sharing one base tuple.

        base_a  base_b      base_a  base_c
            \\   /              \\   /
            exec1               exec2
               \\                /
                +--- derived ---+
    """
    graph = ProvenanceGraph()
    graph.add_tuple(tuple_vertex("base_a", "link", ("a",), "n0", is_base=True))
    graph.add_tuple(tuple_vertex("base_b", "link", ("b",), "n1", is_base=True))
    graph.add_tuple(tuple_vertex("base_c", "link", ("c",), "n2", is_base=True))
    graph.add_tuple(tuple_vertex("derived", "path", ("a", "c"), "n0"))
    graph.add_rule_exec(
        RuleExecVertex(rid="exec1", rule_name="r1", program_name="p", location="n1"),
        ["base_a", "base_b"],
        "derived",
    )
    graph.add_rule_exec(
        RuleExecVertex(rid="exec2", rule_name="r2", program_name="p", location="n2"),
        ["base_a", "base_c"],
        "derived",
    )
    return graph


class TestConstruction:
    def test_counts(self, diamond):
        assert diamond.tuple_count == 4
        assert diamond.rule_exec_count == 2
        assert diamond.edge_count == 6  # 4 input edges + 2 output edges

    def test_vertex_lookup(self, diamond):
        assert diamond.tuple_vertex("base_a").relation == "link"
        assert diamond.rule_exec_vertex("exec1").rule_name == "r1"
        with pytest.raises(UnknownVertexError):
            diamond.tuple_vertex("missing")
        with pytest.raises(UnknownVertexError):
            diamond.rule_exec_vertex("missing")

    def test_find_tuples(self, diamond):
        assert len(diamond.find_tuples("link")) == 3
        assert diamond.find_tuples("path", ("a", "c"))[0].vid == "derived"
        assert diamond.find_tuples("path", ("x",)) == []

    def test_base_flag_merging(self):
        graph = ProvenanceGraph()
        graph.add_tuple(tuple_vertex("v", is_base=False))
        graph.add_tuple(tuple_vertex("v", is_base=True))
        assert graph.tuple_vertex("v").is_base

    def test_mark_base(self, diamond):
        diamond.mark_base("derived")
        assert diamond.tuple_vertex("derived").is_base

    def test_locations(self, diamond):
        assert diamond.locations() == {"n0", "n1", "n2"}


class TestEdges:
    def test_derivations_and_inputs(self, diamond):
        derivations = diamond.derivations_of("derived")
        assert {d.rid for d in derivations} == {"exec1", "exec2"}
        assert {v.vid for v in diamond.inputs_of("exec1")} == {"base_a", "base_b"}
        assert diamond.output_of("exec2").vid == "derived"

    def test_uses_of(self, diamond):
        assert {u.rid for u in diamond.uses_of("base_a")} == {"exec1", "exec2"}
        assert diamond.uses_of("derived") == []


class TestTraversals:
    def test_base_tuples_of(self, diamond):
        lineage = {v.vid for v in diamond.base_tuples_of("derived")}
        assert lineage == {"base_a", "base_b", "base_c"}

    def test_base_tuples_of_base_is_itself(self, diamond):
        assert [v.vid for v in diamond.base_tuples_of("base_a")] == ["base_a"]

    def test_participating_nodes(self, diamond):
        assert diamond.participating_nodes("derived") == {"n0", "n1", "n2"}

    def test_derivation_count_alternatives(self, diamond):
        assert diamond.derivation_count("derived") == 2
        assert diamond.derivation_count("base_a") == 1

    def test_derivation_count_multiplies_through_levels(self):
        graph = ProvenanceGraph()
        graph.add_tuple(tuple_vertex("b1", is_base=True))
        graph.add_tuple(tuple_vertex("b2", is_base=True))
        graph.add_tuple(tuple_vertex("mid"))
        graph.add_tuple(tuple_vertex("top"))
        graph.add_rule_exec(
            RuleExecVertex("e1", "r", "p", "n0"), ["b1"], "mid"
        )
        graph.add_rule_exec(
            RuleExecVertex("e2", "r", "p", "n0"), ["b2"], "mid"
        )
        graph.add_rule_exec(
            RuleExecVertex("e3", "r", "p", "n0"), ["mid"], "top"
        )
        assert graph.derivation_count("mid") == 2
        assert graph.derivation_count("top") == 2

    def test_subgraph_rooted_at(self, diamond):
        subgraph = diamond.subgraph_rooted_at("derived")
        assert subgraph.tuple_count == 4
        assert subgraph.rule_exec_count == 2
        shallow = diamond.subgraph_rooted_at("derived", max_depth=0)
        assert shallow.tuple_count == 1
        assert shallow.rule_exec_count == 0

    def test_affected_tuples_forward(self, diamond):
        affected = diamond.affected_tuples("base_b")
        assert [v.vid for v in affected] == ["derived"]
        assert diamond.affected_tuples("derived") == []

    def test_merge(self, diamond):
        other = ProvenanceGraph()
        other.add_tuple(tuple_vertex("extra", is_base=True))
        other.merge(diamond)
        assert other.tuple_count == 5
        assert other.derivation_count("derived") == 2


def _reference_merge(graph, other):
    """The per-vertex merge that ``ProvenanceGraph.merge`` replaced, kept as its oracle."""
    for vertex in other.tuple_vertices():
        graph.add_tuple(vertex)
    for exec_vertex in other.rule_exec_vertices():
        graph.add_rule_exec(exec_vertex, other.input_vids_of(exec_vertex.rid), other.output_of(exec_vertex.rid).vid)


def _shape(graph):
    """Vertices with their flags, rule executions and every edge list, in order."""
    vids = [vertex.vid for vertex in graph.tuple_vertices()]
    return (
        graph.tuple_vertices(),
        graph.rule_exec_vertices(),
        {
            rule.rid: (graph.input_vids_of(rule.rid), graph.output_of(rule.rid).vid)
            for rule in graph.rule_exec_vertices()
        },
        {vid: [rule.rid for rule in graph.derivations_of(vid)] for vid in vids},
        {vid: [rule.rid for rule in graph.uses_of(vid)] for vid in vids},
        graph.edge_count,
    )


class TestMergeAgainstPerVertexMerge:
    @pytest.fixture(scope="class")
    def fragments(self):
        """Fragments cut from a MINCOST graph: two rooted subgraphs that
        share vertices and carry rule executions, two flat fragments that
        flip a vertex's base flag each way, and an empty graph."""
        from repro.engine import topology
        from repro.protocols import mincost

        full = mincost.setup(topology.ring(5)).provenance.build_graph()
        derived = [vertex for vertex in full.find_tuples("minCost") if full.derivations_of(vertex.vid)]
        far, near = derived[-1], derived[0]
        deep = full.subgraph_rooted_at(far.vid)
        shallow = full.subgraph_rooted_at(near.vid)
        assert deep.rule_exec_count and shallow.rule_exec_count and deep.edge_count
        base = next(vertex for vertex in deep.tuple_vertices() if vertex.is_base)
        inner = next(vertex for vertex in deep.tuple_vertices() if not vertex.is_base)
        flipped_to_base = ProvenanceGraph()
        flipped_to_base.add_tuple(dataclasses.replace(inner, is_base=True))
        flipped_to_base.add_tuple(next(vertex for vertex in shallow.tuple_vertices() if vertex.is_base))
        flipped_to_derived = ProvenanceGraph()
        flipped_to_derived.add_tuple(dataclasses.replace(base, is_base=False))
        return [deep, shallow, flipped_to_base, flipped_to_derived, ProvenanceGraph()]

    def test_every_merge_order_matches_the_per_vertex_merge(self, fragments):
        for order in itertools.permutations(range(len(fragments))):
            merged, reference = ProvenanceGraph(), ProvenanceGraph()
            for index in order:
                merged.merge(fragments[index])
                _reference_merge(reference, fragments[index])
            assert _shape(merged) == _shape(reference), order

    def test_a_vid_base_on_one_side_is_base_after_the_merge(self, fragments):
        deep, _, flipped_to_base, flipped_to_derived, empty = fragments
        for left, right in ((deep, flipped_to_base), (flipped_to_base, deep), (deep, flipped_to_derived)):
            merged = ProvenanceGraph()
            merged.merge(left)
            merged.merge(right)
            shared = {vertex.vid for vertex in left.tuple_vertices()} & {
                vertex.vid for vertex in right.tuple_vertices()
            }
            assert shared
            for vid in shared:
                assert merged.tuple_vertex(vid).is_base == (
                    left.tuple_vertex(vid).is_base or right.tuple_vertex(vid).is_base
                )
        merged = ProvenanceGraph()
        merged.merge(empty)
        assert _shape(merged) == _shape(empty)
