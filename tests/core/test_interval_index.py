"""Unit tests for the per-partition interval index.

These tests drive a standalone :class:`NodeProvenanceStore` (no engine, no
runtime) so every structural case of the index is exercised in isolation:
cold builds, incremental tree-edge inserts and deletes, non-tree edges on
exception lists, the gap-exhaustion escalation ladder (gap fit → ancestor
relabel → fresh top interval → rebuild), pending-backlog overflow, winner
isolation under aggregate-loser churn, and label determinism.  The offline
oracle for every closure assertion is :func:`repro.core.graph.reachable_closure`
over the successor map the store's rows induce.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BASE_RID,
    NodeProvenanceStore,
    PartitionIntervalIndex,
    reachable_closure,
)
NODE = "n1"


def make_store():
    return NodeProvenanceStore(NODE)


def attach_index(store, **kwargs):
    """A custom-parameter index wired into the store's mutation hooks."""
    index = PartitionIntervalIndex(store, **kwargs)
    store._interval_index = index
    return index


def add_base(store, vid):
    store.add_prov(vid, BASE_RID, store.node_id)


def derive(store, head, rid, children, rloc=None):
    """One local derivation: register the firing, then the prov row."""
    store.add_rule_exec(rid, "r", "p", tuple(children), head, store.node_id)
    store.add_prov(head, rid, rloc if rloc is not None else store.node_id)


def retract(store, head, rid, children, rloc=None):
    store.remove_prov(head, rid, rloc if rloc is not None else store.node_id)
    store.remove_rule_exec(rid)


def store_successors(store):
    """The successor map the store's rows induce (the index's edge contract)."""
    successors = {}
    for _loc, vid, rid, rloc in store.prov_table():
        key = ("t", vid)
        successors.setdefault(key, set())
        if rid != BASE_RID and rloc == store.node_id:
            successors[key].add(("x", rid))
    for _loc, rid, _rule, _program, child_vids in store.rule_exec_table():
        key = ("x", rid)
        successors.setdefault(key, set())
        for child in child_vids:
            successors[key].add(("t", child))
    return successors


def assert_closure_matches_oracle(index, store, targets):
    reached, missing = index.closure(list(targets))
    assert not missing, missing
    assert reached == reachable_closure(store_successors(store), targets)


def build_diamond(store):
    """h is derived two ways that share base b: x1(a, b) and x2(b, c)."""
    for vid in ("a", "b", "c"):
        add_base(store, vid)
    derive(store, "h", "x1", ["a", "b"])
    derive(store, "h", "x2", ["b", "c"])


class TestBuildAndClosure:
    def test_cold_build_closure_matches_oracle(self):
        store = make_store()
        build_diamond(store)
        index = store.interval_index()
        assert not index.active
        index.ensure_ready()
        assert index.active
        assert index.counters()["builds"] == 1
        for targets in ([("t", "h")], [("t", "a")], [("x", "x2")], [("t", "h"), ("t", "c")]):
            assert_closure_matches_oracle(index, store, targets)

    def test_shared_child_lands_on_an_exception_list(self):
        store = make_store()
        build_diamond(store)
        index = store.interval_index()
        index.ensure_ready()
        # b has two predecessors; the spanning forest keeps one tree edge and
        # the other must survive as an exception edge — and the closure must
        # still reach b through it.
        exception_targets = {
            target for targets in index._exceptions.values() for target in targets
        }
        assert ("t", "b") in exception_targets
        reached, _ = index.closure([("x", "x2")])
        assert ("t", "b") in reached

    def test_unlabeled_targets_come_back_as_missing(self):
        store = make_store()
        add_base(store, "a")
        index = store.interval_index()
        index.ensure_ready()
        reached, missing = index.closure([("t", "a"), ("t", "ghost")])
        assert ("t", "a") in reached
        assert missing == [("t", "ghost")]

    def test_remote_prov_entries_are_not_edges(self):
        store = make_store()
        add_base(store, "a")
        derive(store, "h", "x1", ["a"])
        store.add_prov("h", "xr", "other-node")  # remote derivation: frontier
        index = store.interval_index()
        index.ensure_ready()
        reached, _ = index.closure([("t", "h")])
        assert ("x", "xr") not in reached
        assert_closure_matches_oracle(index, store, [("t", "h")])


class TestIncrementalMaintenance:
    def test_tree_edge_insert_and_delete(self):
        store = make_store()
        add_base(store, "a")
        index = store.interval_index()
        index.ensure_ready()

        derive(store, "h", "x1", ["a"])
        index.ensure_ready()
        assert index.counters()["pending_applied"] > 0
        assert_closure_matches_oracle(index, store, [("t", "h")])
        reached, _ = index.closure([("t", "h")])
        assert {("t", "h"), ("x", "x1"), ("t", "a")} <= reached

        retract(store, "h", "x1", ["a"])
        index.ensure_ready()
        reached, _ = index.closure([("t", "h")])
        assert ("x", "x1") not in reached
        assert ("t", "a") not in reached
        assert_closure_matches_oracle(index, store, [("t", "h")])

    def test_exception_edge_insert_and_delete(self):
        store = make_store()
        for vid in ("a", "b"):
            add_base(store, vid)
        derive(store, "h1", "x1", ["a", "b"])
        index = store.interval_index()
        index.ensure_ready()

        # x2 consumes b too: the second predecessor of b becomes an exception
        # edge, and removing it must not disturb the surviving tree edge.
        derive(store, "h2", "x2", ["b"])
        index.ensure_ready()
        assert_closure_matches_oracle(index, store, [("t", "h1")])
        assert_closure_matches_oracle(index, store, [("t", "h2")])

        retract(store, "h2", "x2", ["b"])
        index.ensure_ready()
        reached, _ = index.closure([("t", "h1")])
        assert ("t", "b") in reached
        assert_closure_matches_oracle(index, store, [("t", "h1")])

    def test_deleting_a_tree_edge_promotes_the_exception_predecessor(self):
        store = make_store()
        build_diamond(store)
        index = store.interval_index()
        index.ensure_ready()
        # Retract the winner derivation x1; b must remain reachable from x2
        # whichever of its two predecessors held the tree edge.
        retract(store, "h", "x1", ["a", "b"])
        index.ensure_ready()
        reached, _ = index.closure([("t", "h")])
        assert ("t", "b") in reached
        assert ("t", "c") in reached
        assert ("x", "x1") not in reached
        assert_closure_matches_oracle(index, store, [("t", "h")])

    def test_pending_overflow_deactivates_then_rebuilds(self):
        store = make_store()
        add_base(store, "a")
        index = attach_index(store, pending_limit=3)
        index.ensure_ready()
        assert index.counters()["builds"] == 1

        for step in range(4):
            derive(store, f"h{step}", f"x{step}", ["a"])
        assert not index.active, "backlog beyond pending_limit must go cold"
        assert index.counters()["overflows"] == 1

        index.ensure_ready()
        assert index.active
        assert index.counters()["builds"] == 2
        for step in range(4):
            assert_closure_matches_oracle(index, store, [("t", f"h{step}")])


class TestGapExhaustion:
    def test_slack_one_forces_ancestor_relabels(self):
        store = make_store()
        add_base(store, "a")
        derive(store, "h", "x0", ["a"])
        index = attach_index(store, slack=1)
        index.ensure_ready()
        # With slack=1 every interval is exactly its subtree size: any insert
        # under an existing parent must escalate past the (empty) gap search.
        for step in range(4):
            derive(store, "h", f"y{step}", ["a"])
            index.ensure_ready()
            assert_closure_matches_oracle(index, store, [("t", "h")])
        assert index.counters()["subtree_relabels"] > 0

    def test_capacity_exhaustion_triggers_partition_rebuild(self):
        store = make_store()
        add_base(store, "a")
        index = attach_index(store, slack=1, capacity=16)
        index.ensure_ready()
        for step in range(24):
            derive(store, f"h{step}", f"x{step}", ["a"])
        index.ensure_ready()
        assert index.counters()["rebuilds"] > 0
        for step in range(24):
            assert_closure_matches_oracle(index, store, [("t", f"h{step}")])

    def test_rejects_nonpositive_slack(self):
        store = make_store()
        with pytest.raises(ValueError):
            PartitionIntervalIndex(store, slack=0)


class TestAggregateLoserIsolation:
    def test_loser_churn_never_perturbs_winner_subtree_labels(self):
        store = make_store()
        for vid in ("a", "b"):
            add_base(store, vid)
        derive(store, "h", "x1", ["a", "b"])  # the aggregate winner
        index = store.interval_index()
        index.ensure_ready()
        winner_keys = {("x", "x1"), ("t", "a"), ("t", "b")}
        snapshot = {key: value for key, value in index.labels().items() if key in winner_keys}
        assert set(snapshot) == winner_keys

        # A losing alternative arrives and is retracted again (the transient
        # aggregate-loser pattern): the winner's labels must never move, so
        # cached interval ranges over the winner subtree stay valid.
        add_base(store, "c")
        derive(store, "h", "x2", ["c"])
        index.ensure_ready()
        assert_closure_matches_oracle(index, store, [("t", "h")])
        after_add = {key: value for key, value in index.labels().items() if key in winner_keys}
        assert after_add == snapshot

        retract(store, "h", "x2", ["c"])
        index.ensure_ready()
        assert_closure_matches_oracle(index, store, [("t", "h")])
        after_remove = {key: value for key, value in index.labels().items() if key in winner_keys}
        assert after_remove == snapshot


class TestLabelDeterminism:
    SCRIPT = (
        ("base", "a"),
        ("base", "b"),
        ("derive", "h", "x1", ("a", "b")),
        ("derive", "h", "x2", ("b",)),
        ("base", "c"),
        ("derive", "g", "x3", ("c", "h")),
        ("retract", "h", "x2", ("b",)),
        ("derive", "h", "x4", ("c",)),
    )

    def replay(self, store, index=None, checkpoints=False):
        for op in self.SCRIPT:
            if op[0] == "base":
                add_base(store, op[1])
            elif op[0] == "derive":
                derive(store, op[1], op[2], list(op[3]))
            else:
                retract(store, op[1], op[2], list(op[3]))
            if checkpoints and index is not None:
                index.ensure_ready()

    def test_cold_builds_are_deterministic(self):
        first, second = make_store(), make_store()
        self.replay(first)
        self.replay(second)
        one, two = first.interval_index(), second.interval_index()
        one.ensure_ready()
        two.ensure_ready()
        assert one.labels() == two.labels()

    def test_incremental_histories_are_deterministic(self):
        first, second = make_store(), make_store()
        indexes = [first.interval_index(), second.interval_index()]
        for index in indexes:
            index.ensure_ready()
        self.replay(first, indexes[0], checkpoints=True)
        self.replay(second, indexes[1], checkpoints=True)
        assert indexes[0].labels() == indexes[1].labels()
        assert indexes[0].counters() == indexes[1].counters()
        assert_closure_matches_oracle(indexes[0], first, [("t", "g")])
