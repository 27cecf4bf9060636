"""Unit tests for ServiceRuntime: serve, commit, checkpoint, crash, recover."""

from __future__ import annotations

import ast
import copy
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.core.optimizations import QueryOptions
from repro.durability import ServiceRuntime, scan, wal_path
from repro.durability.wal import RECORD_CHECKPOINT
from repro.engine import topology
from repro.errors import DurabilityError, EngineError, NetTrailsError
from repro.protocols import mincost
from repro.workloads.churn import ChurnOp, random_link_churn

# The churn scripts are shared with the property suites, whose directory is
# not a package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from churn_harness import TOPOLOGIES, generate_churn_script  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def make_service(tmp_path=None, **kwargs):
    kwargs.setdefault("wal_fsync", False)
    service = ServiceRuntime(
        "mincost", topology.ring(5),
        durable_dir=tmp_path, **kwargs,
    )
    service.seed_links()
    return service


class TestServing:
    def test_protocol_name_resolves_to_source(self):
        with make_service() as service:
            reference = mincost.program()
            assert len(service.runtime.program.rules) == len(reference.rules)
            assert not service.durable
            assert service.state("minCost")  # the resolved protocol converges

    def test_unknown_program_rejected(self):
        with pytest.raises(EngineError, match="neither NDlog source"):
            ServiceRuntime("nonsense", topology.ring(3))

    def test_commit_and_query(self, tmp_path):
        with make_service(tmp_path) as service:
            receipt = service.commit([ChurnOp.remove_link("n0", "n1")])
            assert receipt["ops"] == 1 and receipt["batch"] == 2
            assert receipt["events"] > 0
            rows = service.state("minCost")
            result = service.query("minCost", list(rows[0]), mode="lineage")
            assert result.value  # lineage of a derivable row is non-empty
            assert service.queries == 1
            assert service.commits == 2  # seed + one commit

    def test_query_on_a_churned_away_row_is_an_error_not_a_crash(self):
        """A client holding a row that a commit took away gets a
        NetTrailsError; the service keeps serving the next query."""
        with make_service() as service:
            gone = service.state("minCost")[0]  # ("n0", "n1", 1.0)
            service.commit((ChurnOp.remove_link("n0", "n1"),))  # any op sequence
            assert gone not in service.state("minCost")
            with pytest.raises(NetTrailsError):
                service.query("minCost", list(gone))
            assert service.query("minCost", list(service.state("minCost")[0])).value

    @pytest.mark.parametrize("sequence", [list, tuple, lambda ops: next(random_link_churn(topology.ring(5), random.Random(4), 1))],
                             ids=["list", "tuple", "generator-batch"])
    def test_commit_accepts_any_op_sequence(self, sequence, tmp_path):
        with make_service(tmp_path) as service:
            ops = sequence([ChurnOp.remove_link("n0", "n1"), ChurnOp.add_link("n0", "n1", 3.0)])
            receipt = service.commit(ops)
            assert receipt["ops"] == len(ops) and receipt["batch"] == 2
            assert mincost.check_against_reference(service.runtime, service.runtime.topology)

    def test_queries_from_threads_interleave_with_commits(self):
        """A query issued while commits land answers or raises NetTrailsError: none is lost."""
        with make_service() as service:
            rows = service.state("minCost")
            answered, failed = [], []

            def client(seed):
                rng = random.Random(seed)
                for _ in range(5):
                    try:
                        answered.append(service.query("minCost", list(rng.choice(rows))))
                    except NetTrailsError as error:
                        failed.append(error)

            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(3)]
            for thread in threads:
                thread.start()
            service.commit([ChurnOp.remove_link("n0", "n1")])
            service.commit([ChurnOp.add_link("n0", "n1", 1.0)])
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(answered) + len(failed) == 15
            assert service.queries == len(answered) and service.commits == 3  # seed + two commits

    def test_client_storm_answers_like_a_serial_replica(self, tmp_path, node_stats):
        """Eight client threads query, cached and uncached, while one churn
        script commits.  The service's lock is the only one: every answer
        must be the serial replica's for that row at some batch committed
        during the call (a stale cache hit from a lost reachability mark
        fails here), no query is lost, and the runtime ends where the replica
        does."""
        net = TOPOLOGIES["ring"]()
        script = generate_churn_script(11, net)
        replica = ServiceRuntime("mincost", copy.deepcopy(net), durable_dir=tmp_path / "replica", wal_fsync=False)
        expected = {}  # committed batch -> {row: lineage answer}

        def record():
            expected[replica.committed_batches] = {
                row: sorted(str(ref) for ref in replica.query("minCost", row).value)
                for row in replica.state("minCost")
            }

        replica.seed_links()
        record()
        for batch in script:
            replica.commit(batch.ops)
            record()
        rows = sorted({row for answers in expected.values() for row in answers}, key=repr)

        service = ServiceRuntime("mincost", copy.deepcopy(net), durable_dir=tmp_path / "storm", wal_fsync=False)
        service.seed_links()
        done = threading.Event()
        observed, unexpected, issued = [], [], [0] * 8

        def client(index):
            rng = random.Random(index)
            while not done.is_set() or issued[index] < 20:
                row = rng.choice(rows)
                options = QueryOptions(use_cache=bool(issued[index] % 2))
                issued[index] += 1
                before = service.committed_batches
                try:
                    answer = sorted(str(ref) for ref in service.query("minCost", row, options=options).value)
                except NetTrailsError:
                    answer = None
                except Exception as error:  # anything else is a bug, not churn
                    unexpected.append(error)
                    continue
                observed.append((row, before, service.committed_batches, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for batch in script:
                service.commit(batch.ops)
            done.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not unexpected
        assert len(observed) == sum(issued)
        answered = [entry for entry in observed if entry[3] is not None]
        assert answered and len(answered) < len(observed)  # some rows churned away mid-storm
        for row, before, after, answer in observed:
            assert any(
                expected[batch].get(row) == answer for batch in range(before, after + 1)
            ), (row, before, after)
        assert service.committed_batches == replica.committed_batches
        assert service.state("minCost") == replica.state("minCost")
        assert node_stats(service.runtime) == node_stats(replica.runtime)
        provenance = service.runtime.provenance
        assert provenance.vid_version_stats()["pending"] == 0
        service.close()
        replica.close()

    def test_only_the_service_imports_threading(self):
        """A runtime is single-threaded; the service's lock is the one lock,
        so no other module under ``src/repro`` may import ``threading``."""
        importers = set()
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] in ("threading", "_thread") for name in names):
                    importers.add(path.relative_to(SRC).as_posix())
        assert importers == {"durability/service.py"}

    def test_closed_service_refuses_everything(self):
        service = make_service()
        service.close()
        service.close()  # idempotent
        with pytest.raises(DurabilityError, match="closed"):
            service.commit([])
        with pytest.raises(DurabilityError, match="closed"):
            service.query("minCost", ["n0", "n1", 1.0])


class TestCheckpointing:
    def test_checkpoint_every_compacts_automatically(self, tmp_path):
        with make_service(tmp_path, checkpoint_every=2) as service:
            for _ in range(3):
                service.commit([ChurnOp.add_link("n0", "n2", 9.0)])
                service.commit([ChurnOp.remove_link("n0", "n2")])
            # seed + 6 commits = 7 batches; auto-checkpoints at 2, 4, 6.
            assert service.checkpoints_taken == 3
            records = scan(wal_path(tmp_path)).records
            assert sum(r.type == RECORD_CHECKPOINT for r in records) == 3

    def test_checkpoint_every_disabled_by_default(self, tmp_path):
        with make_service(tmp_path) as service:
            service.commit([ChurnOp.remove_link("n0", "n1")])
            assert service.checkpoints_taken == 0

    def test_negative_keep_rejected_before_anything_is_written(self, tmp_path):
        with make_service(tmp_path) as service:
            logged = wal_path(tmp_path).read_bytes()
            with pytest.raises(EngineError, match="keep"):
                service.checkpoint(keep=-1)
            assert service.checkpoints_taken == 0
            assert wal_path(tmp_path).read_bytes() == logged
            assert not list((tmp_path / "snapshots").glob("ckpt-*.json"))

    def test_negative_checkpoint_every_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="checkpoint_every"):
            ServiceRuntime("mincost", topology.ring(3),
                           durable_dir=tmp_path, checkpoint_every=-1)

    def test_recover_rejects_negative_checkpoint_every_before_recovering(self, tmp_path):
        make_service(tmp_path).crash()
        logged = wal_path(tmp_path).read_bytes()
        with pytest.raises(EngineError, match="checkpoint_every"):
            ServiceRuntime.recover(tmp_path, wal_fsync=False, checkpoint_every=-1)
        assert wal_path(tmp_path).read_bytes() == logged
        with ServiceRuntime.recover(tmp_path, wal_fsync=False) as service:
            assert service.last_recovery is not None
            assert service.checkpoint_every == 0


class TestCrashRecover:
    def test_crash_then_recover_serves_identical_answers(self, tmp_path):
        service = make_service(tmp_path)
        service.commit([ChurnOp.remove_link("n0", "n1")])
        rows = service.state("minCost")
        before = {
            tuple(row): sorted(str(ref) for ref in
                               service.query("minCost", list(row)).value)
            for row in rows[:3]
        }
        service.crash()

        recovered = ServiceRuntime.recover(tmp_path, wal_fsync=False)
        try:
            assert recovered.last_recovery is not None
            assert recovered.last_recovery.batches_replayed == 2
            assert recovered.state("minCost") == rows
            for row, lineage in before.items():
                answer = recovered.query("minCost", list(row)).value
                assert sorted(str(ref) for ref in answer) == lineage
        finally:
            recovered.close()

    def test_crash_discards_uncommitted_mutations(self, tmp_path):
        service = make_service(tmp_path)
        rows = service.state("minCost")
        # Mutate below the commit API, then crash before the window commits.
        service.runtime.remove_link("n0", "n1")
        service.crash()
        recovered = ServiceRuntime.recover(tmp_path, wal_fsync=False)
        try:
            assert recovered.state("minCost") == rows
            assert recovered.committed_batches == 1  # just the seed window
        finally:
            recovered.close()

    def test_recovered_service_keeps_committing(self, tmp_path):
        service = make_service(tmp_path)
        service.crash()
        recovered = ServiceRuntime.recover(tmp_path, wal_fsync=False)
        try:
            receipt = recovered.commit([ChurnOp.remove_link("n0", "n1")])
            assert receipt["batch"] == 2
            recovered.checkpoint()
        finally:
            recovered.close()
