"""Tests for topology generators."""

import pytest

from repro.errors import EngineError
from repro.engine import topology


class TestTopologyBasics:
    def test_add_edge_normalises_direction(self):
        net = topology.Topology(name="t")
        net.add_edge("b", "a", 2.0)
        assert net.has_edge("a", "b")
        assert net.cost("a", "b") == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(EngineError):
            topology.Topology(name="t").add_edge("a", "a")

    def test_directed_edges_contains_both_directions(self):
        net = topology.line(3)
        directed = net.directed_edges()
        assert ("n0", "n1", 1.0) in directed and ("n1", "n0", 1.0) in directed
        assert len(directed) == 2 * net.edge_count()

    def test_neighbors(self):
        net = topology.star(4)
        assert net.neighbors("n0") == ["n1", "n2", "n3"]
        assert net.neighbors("n2") == ["n0"]

    def test_remove_edge(self):
        net = topology.ring(4)
        net.remove_edge("n0", "n1")
        assert not net.has_edge("n0", "n1")


class TestGenerators:
    def test_line_ring_star_shapes(self):
        assert topology.line(5).edge_count() == 4
        assert topology.ring(5).edge_count() == 5
        assert topology.star(5).edge_count() == 4

    def test_grid_shape(self):
        net = topology.grid(3, 4)
        assert net.node_count() == 12
        assert net.edge_count() == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert net.is_connected()

    def test_random_connected_is_connected_and_deterministic(self):
        a = topology.random_connected(12, edge_probability=0.2, seed=42)
        b = topology.random_connected(12, edge_probability=0.2, seed=42)
        assert a.is_connected()
        assert a.edges == b.edges

    def test_random_connected_different_seeds_differ(self):
        a = topology.random_connected(12, edge_probability=0.2, seed=1)
        b = topology.random_connected(12, edge_probability=0.2, seed=2)
        assert a.edges != b.edges

    def test_isp_hierarchy_structure(self):
        net = topology.isp_hierarchy(tier1_count=3, tier2_per_tier1=2, stubs_per_tier2=2)
        assert net.is_connected()
        tier1 = [node for node in net.nodes if node.startswith("t1_")]
        stubs = [node for node in net.nodes if node.startswith("stub_")]
        assert len(tier1) == 3
        assert len(stubs) == 3 * 2 * 2
        # tier-1 clique
        assert net.has_edge("t1_0", "t1_1") and net.has_edge("t1_1", "t1_2")

    def test_isp_hierarchy_identical_across_runs(self):
        one = topology.isp_hierarchy(4, 3, 2, seed=23)
        two = topology.isp_hierarchy(4, 3, 2, seed=23)
        assert (one.nodes, one.edges) == (two.nodes, two.edges)

    def test_from_edges(self):
        net = topology.from_edges([("a", "b", 1.0), ("b", "c", 2.0)], name="custom")
        assert net.node_count() == 3
        assert net.cost("b", "c") == 2.0


class TestShortestPaths:
    def test_matches_known_values_on_ring(self):
        net = topology.ring(5)
        costs = net.shortest_path_costs()
        assert costs[("n0", "n1")] == 1.0
        assert costs[("n0", "n2")] == 2.0
        # going the other way round is 2 hops as well
        assert costs[("n0", "n3")] == 2.0

    def test_respects_edge_weights(self):
        net = topology.from_edges([("a", "b", 10.0), ("a", "c", 1.0), ("c", "b", 1.0)])
        costs = net.shortest_path_costs()
        assert costs[("a", "b")] == 2.0

    def test_disconnected_pairs_absent(self):
        net = topology.Topology(name="two-islands")
        net.add_edge("a", "b", 1.0)
        net.add_edge("c", "d", 1.0)
        costs = net.shortest_path_costs()
        assert ("a", "c") not in costs
        assert not net.is_connected()


class TestAdjacencyIndex:
    def test_neighbors_track_adds_and_removes(self):
        net = topology.ring(5)
        assert net.neighbors("n0") == ["n1", "n4"]
        net.remove_edge("n0", "n1")
        assert net.neighbors("n0") == ["n4"]
        net.add_edge("n0", "n2")
        assert net.neighbors("n0") == ["n2", "n4"]
        assert net.degree("n0") == 2

    def test_index_rebuilt_from_explicit_edges(self):
        net = topology.Topology(name="t", nodes=["x"], edges={("a", "b"): 1.0})
        assert net.neighbors("a") == ["b"]
        assert net.neighbors("x") == []
        assert sorted(net.nodes) == ["a", "b", "x"]

    def test_deepcopy_keeps_a_private_index(self):
        import copy

        net = topology.star(4)
        clone = copy.deepcopy(net)
        clone.remove_edge("n0", "n1")
        assert net.neighbors("n1") == ["n0"]
        assert clone.neighbors("n1") == []

    def test_removing_absent_edge_is_a_noop(self):
        net = topology.line(3)
        net.remove_edge("n0", "n2")
        assert net.neighbors("n0") == ["n1"]

    def test_equality_ignores_the_index(self):
        one = topology.ring(4)
        two = topology.Topology(name=one.name, nodes=list(one.nodes), edges=dict(one.edges))
        assert one == two

    def test_matches_edge_scan_on_generated_graphs(self):
        net = topology.power_law(60, attach=2, seed=5)
        for node in net.nodes:
            scanned = sorted(
                b if a == node else a for (a, b) in net.edges if node in (a, b)
            )
            assert net.neighbors(node) == scanned


class TestPowerLaw:
    def test_connected_with_exact_node_count(self):
        net = topology.power_law(120, attach=2, seed=1)
        assert net.node_count() == 120
        assert net.is_connected()

    def test_degree_skew_has_hubs_and_stubs(self):
        net = topology.power_law(300, attach=2, seed=2)
        degrees = sorted(net.degree(node) for node in net.nodes)
        assert degrees[0] == 2  # late attachers keep exactly `attach` links
        assert degrees[-1] >= 5 * degrees[len(degrees) // 2], (
            "expected heavy-tailed hubs from preferential attachment"
        )

    def test_deterministic_per_seed(self):
        assert topology.power_law(80, seed=9).edges == topology.power_law(80, seed=9).edges
        assert topology.power_law(80, seed=9).edges != topology.power_law(80, seed=10).edges

    def test_validation(self):
        with pytest.raises(EngineError):
            topology.power_law(3, attach=3)
        with pytest.raises(EngineError):
            topology.power_law(10, attach=0)
