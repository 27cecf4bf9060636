"""Tests for snapshots and replay over the write-ahead log."""

import pytest

from repro.errors import DurabilityError
from repro.durability import wal_path
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.logstore import ReplaySession, take_snapshot
from repro.logstore.replay import diff_snapshots
from repro.protocols import mincost


@pytest.fixture
def runtime(ring5):
    return mincost.setup(ring5)


@pytest.fixture
def history(tmp_path, ring5):
    """A durable MINCOST run: batch 1 seeds the links, batch 2 fails n0-n1,
    batch 3 restores it.  Returns the durable dir and the live snapshot
    after each batch (index k is position k + 1)."""
    runtime = NetTrailsRuntime(mincost.SOURCE, ring5, durable_dir=tmp_path, wal_fsync=False)
    runtime.seed_links(run=True)
    snapshots = [take_snapshot(runtime)]
    runtime.remove_link("n0", "n1")
    runtime.run_to_quiescence()
    snapshots.append(take_snapshot(runtime))
    runtime.add_link("n0", "n1", 1.0)
    runtime.run_to_quiescence()
    snapshots.append(take_snapshot(runtime))
    runtime.close()
    return tmp_path, snapshots


class TestSnapshot:
    def test_snapshot_captures_every_relation(self, runtime):
        snapshot = take_snapshot(runtime, label="t0")
        assert set(snapshot.relations()) >= {"link", "path", "minCost"}
        assert snapshot.total_facts() == runtime.total_facts()
        assert snapshot.node_ids() == ["n0", "n1", "n2", "n3", "n4"]

    def test_snapshot_relation_matches_runtime_state(self, runtime):
        snapshot = take_snapshot(runtime)
        assert snapshot.relation("minCost") == runtime.state("minCost")

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


class TestReplay:
    def test_replay_steps_through_diffs(self, history):
        durable_dir, _ = history
        session = ReplaySession(durable_dir)
        assert session.position == 0
        session.seek(1)
        diff = session.step()
        assert diff is not None
        assert diff.removed_count() > 0
        assert "minCost" in diff.removed or "path" in diff.removed
        assert session.step().added_count() > 0
        assert session.at_end() and session.position == 3
        assert session.step() is None

    def test_position_zero_is_genesis(self, history):
        durable_dir, snapshots = history
        session = ReplaySession(durable_dir)
        assert session.current().total_facts() == 0
        diff = session.step()
        assert diff.removed_count() == 0
        assert diff.added_count() == snapshots[0].total_facts()

    def test_positions_match_the_live_run_forward_and_backward(self, history):
        durable_dir, snapshots = history
        session = ReplaySession(durable_dir)
        for position in (3, 1, 2, 2, 1):
            expected = snapshots[position - 1]
            seen = session.seek(position)
            assert session.position == position
            assert seen.to_dict()["nodes"] == expected.to_dict()["nodes"], position
            assert seen.time == expected.time, position

    def test_seek_out_of_range_rejected(self, history):
        session = ReplaySession(history[0])
        with pytest.raises(DurabilityError, match="positions 0 to 3"):
            session.seek(4)
        with pytest.raises(DurabilityError):
            session.seek(-1)

    def test_directory_without_a_wal_cannot_be_replayed(self, tmp_path):
        with pytest.raises(DurabilityError, match="no WAL"):
            ReplaySession(tmp_path)

    def test_torn_tail_is_read_up_to_its_valid_prefix_and_left_alone(self, history):
        durable_dir, snapshots = history
        path = wal_path(durable_dir)
        torn = path.read_bytes()[:-5]
        path.write_bytes(torn)
        session = ReplaySession(durable_dir)
        session.seek(2)
        assert session.at_end()  # batch 3 was torn off
        assert session.current().relation("minCost") == snapshots[1].relation("minCost")
        assert path.read_bytes() == torn

    def test_replay_provenance_graph_matches_snapshot(self, history):
        durable_dir, snapshots = history
        session = ReplaySession(durable_dir)
        session.seek(1)
        assert session.provenance_graph().tuple_count == snapshots[0].provenance_graph().tuple_count

    def test_diff_summary_and_empty_diff(self, runtime):
        snapshot = take_snapshot(runtime)
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.is_empty
        assert "(no change)" in diff.summary()
