"""Tests for the seeded churn generators and the op vocabulary."""

import copy
import random

import pytest

from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.errors import EngineError
from repro.protocols import mincost, prefix_routing
from repro.workloads import ChurnBatch, ChurnOp, apply_batch, apply_churn_op
from repro.workloads.churn import (
    hot_hub_skew,
    link_flap,
    node_fail_recover,
    prefix_announce_withdraw,
    random_link_churn,
)

GENERATORS = {
    generator.__name__: generator
    for generator in (hot_hub_skew, link_flap, node_fail_recover, prefix_announce_withdraw, random_link_churn)
}


def replay_on_mirror(mirror, batches):
    """Validate every op against a mirror as it would apply at runtime."""
    for ops in batches:
        for op in ops:
            if op.kind == "remove_link":
                a, b = op.subject
                assert mirror.has_edge(a, b), f"removing absent link {a}-{b}"
                mirror.remove_edge(a, b)
            elif op.kind == "add_link":
                a, b, cost = op.subject
                assert not mirror.has_edge(a, b), f"adding duplicate link {a}-{b}"
                mirror.add_edge(a, b, cost)


class TestGeneratorsAreValidAndSeeded:
    @pytest.mark.parametrize("name", sorted(set(GENERATORS) - {"prefix_announce_withdraw"}))
    def test_link_ops_always_valid(self, name):
        net = topology.isp_hierarchy(2, 2, 2, seed=4)
        generator = GENERATORS[name]
        batches = list(generator(copy.deepcopy(net), random.Random(5), 6))
        replay_on_mirror(copy.deepcopy(net), batches)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_same_seed_same_trace(self, name):
        net = topology.isp_hierarchy(2, 2, 2, seed=4)
        runs = [
            list(GENERATORS[name](copy.deepcopy(net), random.Random(9), 5))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_different_seed_different_trace(self, name):
        net = topology.isp_hierarchy(3, 3, 3, seed=4)
        one = list(GENERATORS[name](copy.deepcopy(net), random.Random(1), 6))
        two = list(GENERATORS[name](copy.deepcopy(net), random.Random(2), 6))
        assert one != two


class TestLinkFlap:
    def test_slow_flaps_restore_topology_by_end(self):
        net = topology.ring(8)
        mirror = copy.deepcopy(net)
        list(link_flap(mirror, random.Random(3), 5, flaps_per_batch=2, fast_ratio=0.0))
        assert mirror.edges == net.edges

    def test_fast_flaps_are_down_and_up_in_one_batch(self):
        net = topology.ring(6)
        batches = list(
            link_flap(copy.deepcopy(net), random.Random(3), 4, flaps_per_batch=1, fast_ratio=1.0)
        )
        for ops in batches:
            assert [op.kind for op in ops] == ["remove_link", "add_link"]
            assert ops[0].subject == ops[1].subject[:2]


class TestNodeFailRecover:
    def test_fail_drops_every_incident_link_and_recovery_restores(self):
        net = topology.star(6)
        mirror = copy.deepcopy(net)
        batches = list(node_fail_recover(mirror, random.Random(2), 6))
        assert mirror.edges == net.edges  # flushed recoveries restore everything
        fail_batches = [ops for ops in batches if ops and ops[0].kind == "remove_link"]
        assert fail_batches
        for ops in fail_batches:
            failed = {op.subject[0] for op in ops} & {op.subject[1] for op in ops} or {
                op.subject[0] for op in ops
            }
            # All removed links share the failed node.
            node = sorted(failed)[0]
            assert all(node in op.subject[:2] for op in ops)

    def test_concurrent_failures_overlap(self):
        net = topology.isp_hierarchy(3, 3, 3, seed=1)
        mirror = copy.deepcopy(net)
        down = peak = 0
        for ops in node_fail_recover(mirror, random.Random(4), 12, concurrent_failures=3):
            if ops and ops[0].kind == "remove_link":
                down += 1
            elif ops:
                down -= 1
            peak = max(peak, down)
        # A recovery whose links were all deferred yields an empty batch the
        # op-kind proxy above cannot see, so peak may overshoot by the number
        # of such deferrals; the point is that failures genuinely overlap.
        assert peak >= 3, "three nodes must be down simultaneously"
        assert mirror.edges == net.edges

    def test_recovery_defers_links_into_still_down_neighbors(self):
        from repro.workloads.churn import _recover_node

        # n1 failed first (saving both its links), then n2 (no links left).
        mirror = topology.line(3)
        mirror.remove_edge("n0", "n1")
        mirror.remove_edge("n1", "n2")
        down = [("n1", [("n0", "n1", 1.0), ("n1", "n2", 1.0)]), ("n2", [])]
        first = _recover_node(mirror, down)
        # n1 comes back up towards n0 only; n1-n2 must not be restored while
        # n2 is still down — it is deferred onto n2's failure record.
        assert [op.subject for op in first] == [("n0", "n1", 1.0)]
        assert down == [("n2", [("n1", "n2", 1.0)])]
        second = _recover_node(mirror, down)
        assert [op.subject for op in second] == [("n1", "n2", 1.0)]
        assert mirror.edges == topology.line(3).edges

    def test_protected_nodes_never_fail(self):
        net = topology.star(5)
        protect = ("n0",)  # the hub: failing it would remove every link
        batches = list(
            node_fail_recover(copy.deepcopy(net), random.Random(7), 8, protect=protect)
        )
        for ops in batches:
            for op in ops:
                if op.kind == "remove_link":
                    # links are (hub, leaf); the failed node is the leaf side
                    assert op.subject[:2] != ("n0", "n0")
        # Every fail batch removes exactly one link (a leaf's only edge),
        # never the hub's full fan-out.
        removes = [ops for ops in batches if ops and ops[0].kind == "remove_link"]
        assert removes and all(len(ops) == 1 for ops in removes)


class TestPrefixAnnounceWithdraw:
    def collect(self, keep_alive, batches=8, seed=3):
        net = topology.ring(6)
        return list(
            prefix_announce_withdraw(
                copy.deepcopy(net),
                random.Random(seed),
                batches,
                prefixes=2,
                origins_per_prefix=2,
                keep_alive=keep_alive,
            )
        )

    def test_first_batch_announces_every_homing(self):
        batches = self.collect(keep_alive=True)
        first = batches[0]
        assert len(first) == 4  # 2 prefixes x 2 origins
        assert all(op.kind == "insert" and op.subject[0] == "prefix" for op in first)

    def test_keep_alive_never_withdraws_last_origin(self):
        batches = self.collect(keep_alive=True, batches=20)
        live = {}
        for ops in batches:
            for op in ops:
                _relation, origin, prefix, _cost = op.subject
                if op.kind == "insert":
                    live[(prefix, origin)] = True
                else:
                    live[(prefix, origin)] = False
                prefix_live = sum(1 for (p, _o), up in live.items() if p == prefix and up)
                assert prefix_live >= 1, f"prefix {prefix} lost its last origin"

    def test_withdraw_only_what_is_announced(self):
        batches = self.collect(keep_alive=False, batches=20)
        live = set()
        for ops in batches:
            for op in ops:
                key = op.subject[1:3]
                if op.kind == "insert":
                    assert key not in live
                    live.add(key)
                else:
                    assert key in live
                    live.remove(key)

    def test_too_many_origins_rejected(self):
        net = topology.ring(3)
        with pytest.raises(EngineError, match="origins_per_prefix"):
            list(
                prefix_announce_withdraw(
                    net, random.Random(0), 2, prefixes=1, origins_per_prefix=5
                )
            )


class TestHotHubSkew:
    def test_churn_concentrates_on_the_hub(self):
        net = topology.star(10)  # n0 is by far the highest-degree node
        batches = list(
            hot_hub_skew(copy.deepcopy(net), random.Random(5), 10, ops_per_batch=4)
        )
        touches = {}
        for ops in batches:
            for op in ops:
                if op.kind == "remove_link":
                    for node in op.subject[:2]:
                        touches[node] = touches.get(node, 0) + 1
        assert max(touches, key=lambda node: touches[node]) == "n0"


class TestRandomLinkChurn:
    def test_flap_is_remove_then_add_in_one_batch(self):
        net = topology.ring(6)
        flaps = [
            ops
            for ops in random_link_churn(copy.deepcopy(net), random.Random(3), 30)
            if len(ops) == 2
        ]
        assert flaps
        for remove, add in flaps:
            assert (remove.kind, add.kind) == ("remove_link", "add_link")
            assert remove.subject == add.subject[:2]

    def test_one_op_per_batch_except_flaps(self):
        net = topology.star(6)
        for ops in random_link_churn(copy.deepcopy(net), random.Random(11), 20):
            assert len(ops) in (1, 2)


class TestSharedMirror:
    def test_generators_chained_on_one_mirror_stay_valid(self):
        """A later generator only sees links as the earlier one left them."""
        net = topology.isp_hierarchy(2, 2, 1, seed=13)
        mirror = copy.deepcopy(net)
        rng = random.Random(13)
        batches = list(prefix_announce_withdraw(mirror, rng, 3, prefixes=2, origins_per_prefix=2))
        batches += list(link_flap(mirror, rng, 2, flaps_per_batch=1))
        batches += list(node_fail_recover(mirror, rng, 2))
        # Replaying the whole trace keeps every link op valid, which can
        # only hold if generation threaded one mirror through all three.
        replay_on_mirror(copy.deepcopy(net), batches)
        assert mirror.edges == net.edges


class TestChurnOp:
    def test_op_delta_accounting(self):
        assert ChurnOp.add_link("a", "b", 1.0).base_deltas() == 2
        assert ChurnOp.remove_link("a", "b").base_deltas() == 2
        assert ChurnOp.insert("prefix", "a", "p0", 0.0).base_deltas() == 1


@pytest.fixture
def prefix_runtime():
    """Prefix routing on a converged 3-node line with p0 announced at n0."""
    with NetTrailsRuntime(prefix_routing.program(), topology.line(3)) as runtime:
        runtime.seed_links(run=True)
        runtime.insert("prefix", ["n0", "p0", 0.0])
        runtime.run_to_quiescence()
        yield runtime


class TestApplyChurnOp:
    @pytest.mark.parametrize("op, link, prefix", [
        pytest.param(ChurnOp.add_link("n0", "n2", 1.0), True, True, id="add_link"),
        pytest.param(ChurnOp.remove_link("n1", "n2"), False, True, id="remove_link"),
        pytest.param(ChurnOp.insert("prefix", "n2", "p1", 0.0), False, True, id="insert"),
        pytest.param(ChurnOp.delete("prefix", "n0", "p0", 0.0), False, False, id="delete"),
    ])
    def test_op_reaches_the_runtime(self, prefix_runtime, op, link, prefix):
        """Each op kind lands as its base-tuple deltas and the system reconverges."""
        apply_churn_op(prefix_runtime, op)
        prefix_runtime.run_to_quiescence()
        links = prefix_runtime.state("link")
        assert (("n0", "n2", 1.0) in links and ("n2", "n0", 1.0) in links) == link
        assert (("n0", "p0", 0.0) in prefix_runtime.state("prefix")) == prefix
        assert bool(prefix_runtime.state("best")) == prefix
        origins = [(node, name) for node, name, _cost in prefix_runtime.state("prefix")]
        assert prefix_routing.check_against_reference(prefix_runtime, prefix_runtime.topology, origins)

    def test_unknown_kind_rejected(self, prefix_runtime):
        with pytest.raises(EngineError, match="unknown churn op kind"):
            apply_churn_op(prefix_runtime, ChurnOp("meteor_strike", ("n0",)))

    def test_op_does_not_run_the_simulator(self, prefix_runtime):
        apply_churn_op(prefix_runtime, ChurnOp.remove_link("n0", "n1"))
        assert prefix_runtime.simulator.pending_events > 0


class TestApplyBatch:
    FLAP = ChurnBatch(0, "link_flap", (ChurnOp.remove_link("n0", "n1"), ChurnOp.add_link("n0", "n1", 2.0)))

    @pytest.mark.parametrize("run", [True, False])
    def test_batch_runs_to_quiescence_unless_told_not_to(self, run):
        with NetTrailsRuntime(mincost.SOURCE, topology.ring(4)) as runtime:
            runtime.seed_links(run=True)
            apply_batch(runtime, self.FLAP, run=run)
            assert (runtime.simulator.pending_events == 0) == run
            runtime.run_to_quiescence()
            assert runtime.topology.cost("n0", "n1") == 2.0
            assert mincost.check_against_reference(runtime, runtime.topology)
