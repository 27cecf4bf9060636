"""Tests for snapshots, the central log store and replay."""

import pytest

from repro.errors import LogStoreError
from repro.engine import topology
from repro.logstore import LogStore, ReplaySession, Snapshot, take_snapshot
from repro.logstore.replay import diff_snapshots
from repro.protocols import mincost


@pytest.fixture
def runtime(ring5):
    return mincost.setup(ring5)


class TestSnapshot:
    def test_snapshot_captures_every_relation(self, runtime):
        snapshot = take_snapshot(runtime, label="t0")
        assert set(snapshot.relations()) >= {"link", "path", "minCost"}
        assert snapshot.total_facts() == runtime.total_facts()
        assert snapshot.node_ids() == ["n0", "n1", "n2", "n3", "n4"]

    def test_snapshot_relation_matches_runtime_state(self, runtime):
        snapshot = take_snapshot(runtime)
        assert snapshot.relation("minCost") == runtime.state("minCost")

    def test_json_round_trip(self, runtime):
        snapshot = take_snapshot(runtime, label="x")
        restored = Snapshot.from_json(snapshot.to_json())
        assert restored.label == "x"
        assert restored.relation("minCost") == snapshot.relation("minCost")
        assert restored.time == snapshot.time

    def test_malformed_snapshot_rejected(self):
        with pytest.raises(LogStoreError):
            Snapshot.from_dict({"time": "soon"})

    def test_provenance_graph_reconstruction(self, runtime):
        snapshot = take_snapshot(runtime)
        graph = snapshot.provenance_graph()
        live = runtime.provenance.build_graph()
        assert graph.tuple_count == live.tuple_count
        assert graph.rule_exec_count == live.rule_exec_count
        # lineage computed from the snapshot graph matches the live graph
        target = graph.find_tuples("minCost", ("n0", "n2", 2.0))[0]
        assert {v.values for v in graph.base_tuples_of(target.vid)} == {
            v.values for v in live.base_tuples_of(target.vid)
        }

    def test_a_flap_back_to_the_base_state_restores_every_node_snapshot(self):
        """The snapshot is a function of the current state: one link down and
        up again brings back every node's relations, ``prov``, ``ruleExec``
        and ``tuples`` entries, the last of which holds present facts only."""
        runtime = mincost.setup(topology.ring(4), run=False)
        runtime.seed_links(run=True)
        before = take_snapshot(runtime).to_dict()["nodes"]
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        during = take_snapshot(runtime).to_dict()["nodes"]
        runtime.add_link("n0", "n1", 1.0)
        runtime.run_to_quiescence()
        after = take_snapshot(runtime).to_dict()["nodes"]
        assert during != before
        for node_id, node in before.items():
            assert after[node_id] == node, node_id
            facts = sum(len(rows) for rows in node["relations"].values())
            assert len(node["tuples"]) == facts, node_id

    def test_snapshot_json_round_trip_preserves_provenance(self, runtime):
        snapshot = take_snapshot(runtime)
        restored = Snapshot.from_json(snapshot.to_json())
        graph = restored.provenance_graph()
        assert graph.tuple_count == snapshot.provenance_graph().tuple_count


class TestLogStore:
    def test_collect_appends_in_time_order(self, runtime):
        store = LogStore()
        store.collect(runtime, label="first")
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        store.collect(runtime, label="second")
        assert len(store) == 2
        assert store.latest().label == "second"
        assert store.by_label("first").relation("minCost") != store.latest().relation("minCost")

    def test_out_of_order_append_rejected(self, runtime):
        store = LogStore()
        later = take_snapshot(runtime)
        store.append(later)
        earlier = Snapshot(time=later.time - 1.0)
        with pytest.raises(LogStoreError):
            store.append(earlier)

    def test_at_time_selection(self, runtime):
        store = LogStore()
        first = store.collect(runtime)
        runtime.add_link("n0", "n2", 1.0)
        runtime.run_to_quiescence()
        second = store.collect(runtime)
        assert store.at_time(first.time) is first
        assert store.at_time(second.time + 10) is second
        with pytest.raises(LogStoreError):
            store.at_time(first.time - 1)

    def test_unknown_label_rejected(self, runtime):
        store = LogStore()
        store.collect(runtime, label="only")
        with pytest.raises(LogStoreError):
            store.by_label("missing")

    def test_by_label_is_latest_wins(self, runtime):
        """Duplicate labels (periodic captures, re-taken checkpoints) must
        resolve to the newest capture, never an arbitrary earlier one."""
        store = LogStore()
        first = store.collect(runtime, label="periodic")
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        second = store.collect(runtime, label="periodic")
        assert store.by_label("periodic") is second
        assert store.by_label("periodic") is not first
        # unique labels are unaffected by the tiebreak
        third = store.collect(runtime, label="unique")
        assert store.by_label("unique") is third
        assert store.by_label("periodic") is second

    def test_at_time_ties_resolve_to_last_appended(self, runtime):
        """Snapshots sharing one capture time follow the same latest-wins
        tiebreak as by_label: the boundary is inclusive and the last
        appended snapshot for that time wins."""
        store = LogStore()
        first = store.collect(runtime, label="a")
        duplicate = take_snapshot(runtime, label="b")
        assert duplicate.time == first.time  # no simulator progress between
        store.append(duplicate)
        assert store.at_time(first.time) is duplicate
        assert store.at_time(first.time + 0.001) is duplicate

    def test_empty_store_latest_rejected(self):
        with pytest.raises(LogStoreError):
            LogStore().latest()

    def test_save_and_load(self, runtime, tmp_path):
        store = LogStore()
        store.collect(runtime, label="persisted")
        path = tmp_path / "log.json"
        store.save(path)
        loaded = LogStore.load(path)
        assert len(loaded) == 1
        assert loaded.latest().label == "persisted"
        assert loaded.latest().relation("minCost") == store.latest().relation("minCost")

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(LogStoreError):
            LogStore.load(tmp_path / "nope.json")

    def test_periodic_collection_via_simulator(self, ring5):
        runtime = mincost.setup(ring5, run=False)
        store = LogStore()
        store.schedule_periodic(runtime, interval=0.05, count=3)
        runtime.run_to_quiescence()
        assert len(store) == 3
        # the protocol kept running between captures, so later snapshots see
        # at least as much state as earlier ones
        sizes = [snapshot.total_facts() for snapshot in store.snapshots()]
        assert sizes == sorted(sizes)

    def test_invalid_interval_rejected(self, runtime):
        with pytest.raises(LogStoreError):
            LogStore().schedule_periodic(runtime, interval=0.0, count=1)


class TestReplay:
    def test_replay_steps_through_diffs(self, runtime):
        store = LogStore()
        store.collect(runtime, label="initial")
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        store.collect(runtime, label="after-failure")
        session = ReplaySession(store)
        assert session.position == 0
        diff = session.step()
        assert diff is not None
        assert diff.removed_count() > 0
        assert "minCost" in diff.removed or "path" in diff.removed
        assert session.at_end()
        assert session.step() is None

    def test_empty_store_cannot_be_replayed(self):
        with pytest.raises(LogStoreError):
            ReplaySession(LogStore())

    def test_seek_and_rewind(self, runtime):
        store = LogStore()
        first = store.collect(runtime)
        runtime.add_link("n1", "n3", 1.0)
        runtime.run_to_quiescence()
        store.collect(runtime)
        session = ReplaySession(store)
        session.step()
        assert session.seek_time(first.time).time == first.time
        assert session.rewind().time == first.time
        with pytest.raises(LogStoreError):
            session.seek_time(first.time - 100)

    def test_replay_provenance_graph_matches_snapshot(self, runtime):
        store = LogStore()
        store.collect(runtime)
        session = ReplaySession(store)
        assert session.provenance_graph().tuple_count == store.latest().provenance_graph().tuple_count

    def test_diff_summary_and_empty_diff(self, runtime):
        snapshot = take_snapshot(runtime)
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.is_empty
        assert "(no change)" in diff.summary()

    def test_all_diffs(self, runtime):
        store = LogStore()
        store.collect(runtime)
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        store.collect(runtime)
        runtime.add_link("n0", "n1", 1.0)
        runtime.run_to_quiescence()
        store.collect(runtime)
        session = ReplaySession(store)
        diffs = session.all_diffs()
        assert len(diffs) == 2
        assert diffs[0].removed_count() > 0
        assert diffs[1].added_count() > 0
