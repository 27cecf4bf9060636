"""Unit tests for the process-pool backend's lifecycle and failure modes.

The bit-identical equivalence guarantees live in the property suite
(``tests/property/test_property_backends.py``); this file pins the parts a
churn sweep doesn't reach: the stability of the node→worker assignment, the
attach lifecycle, crash-of-worker reporting, graceful degradation without a
runtime, and the durable/process combination (workers fork *before* the WAL
opens, so recovery replays against a process-backend runtime too).
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.engine import topology
from repro.engine.backends import ProcessPoolBackend, resolve_backend
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.simulator import Simulator
from repro.errors import EngineError
from repro.protocols import mincost


def build_runtime(**kwargs):
    return NetTrailsRuntime(mincost.SOURCE, topology.line(3), **kwargs)


class TestAssignment:
    def test_assignment_is_stable_and_seeded(self):
        node_ids = [f"n{i}" for i in range(50)]
        first = ProcessPoolBackend(workers=4).assignment_for(node_ids)
        second = ProcessPoolBackend(workers=4).assignment_for(node_ids)
        assert first == second, "same seed + workers must map nodes identically"
        assert set(first.values()) <= set(range(4))
        reseeded = ProcessPoolBackend(workers=4, seed=1).assignment_for(node_ids)
        assert reseeded != first, "a different seed should reshuffle the pinning"

    def test_every_worker_index_is_reachable(self):
        backend = ProcessPoolBackend(workers=3)
        assignment = backend.assignment_for([f"n{i}" for i in range(200)])
        assert set(assignment.values()) == {0, 1, 2}


class TestLifecycle:
    def test_attach_twice_raises(self):
        with build_runtime(backend="process", backend_workers=1) as runtime:
            with pytest.raises(EngineError, match="one runtime"):
                runtime.backend.attach(runtime)

    def test_close_is_idempotent_and_reaps_workers(self):
        runtime = build_runtime(backend="process", backend_workers=2)
        processes = [channel.process for channel in runtime.backend._channels]
        assert len(processes) == 2 and all(p.is_alive() for p in processes)
        runtime.close()
        assert all(not p.is_alive() for p in processes)
        runtime.close()  # second close is a no-op, not an error

    def test_unattached_backend_degrades_to_thread_behaviour(self):
        # A bare simulator never calls attach: no workers fork and waves run
        # on the inherited thread-pool path.
        backend = ProcessPoolBackend(workers=2)
        simulator = Simulator(backend=backend)
        fired = []
        for i in range(4):
            simulator.schedule(1.0, lambda i=i: fired.append(i), key=f"k{i}")
        assert simulator.run() == 4
        assert sorted(fired) == [0, 1, 2, 3]
        assert backend._channels == []
        backend.close()

    def test_resolve_backend_builds_process_instance(self):
        backend = resolve_backend("process", workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3


class TestFailureModes:
    def test_killed_worker_raises_loudly_on_next_drain(self):
        runtime = build_runtime(backend="process", backend_workers=1)
        try:
            runtime.seed_links(run=True)
            process = runtime.backend._channels[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5.0)
            with pytest.raises(EngineError, match="died while"):
                runtime.insert("link", ["n0", "n2", 7])
                runtime.run_to_quiescence()
        finally:
            runtime.close()

    def test_worker_side_failure_is_shipped_home(self):
        # A link with a non-numeric cost makes the evaluator's comparison
        # blow up mid-drain; the worker ships the error back in its reply
        # envelope (and survives) instead of dying with the wave.
        runtime = build_runtime(backend="process", backend_workers=1)
        try:
            runtime.seed_links(run=True)
            node = runtime.nodes["n0"]
            from repro.engine.messages import TupleDelta
            from repro.engine.store import BASE_DERIVATION
            from repro.engine.tuples import Fact

            node._queue.append(
                TupleDelta(
                    +1, Fact.make("link", ("n0", "n1", "boom")), BASE_DERIVATION, None
                )
            )
            with pytest.raises(EngineError, match="failed draining"):
                node._drain()
            process = runtime.backend._channels[0].process
            assert process.is_alive(), "a shipped error must not kill the worker"
        finally:
            runtime.close()


class TestDurableCombination:
    def test_process_backend_journals_and_recovers(self, tmp_path):
        from repro.durability.recovery import RecoveryManager

        durable = tmp_path / "durable"
        with NetTrailsRuntime(
            mincost.SOURCE,
            topology.line(3),
            backend="process",
            backend_workers=2,
            durable_dir=durable,
            wal_fsync=False,
        ) as runtime:
            runtime.seed_links(run=True)
            runtime.insert("link", ["n0", "n2", 9])
            runtime.run_to_quiescence()
            expected = runtime.state("minCost")
        result = RecoveryManager(durable).recover(wal_fsync=False, attach=False)
        try:
            assert result.runtime.state("minCost") == expected
        finally:
            result.runtime.close()
