"""Execution-backend unit tests: resolution, wave semantics and edge cases.

The randomized equivalence sweep lives in
``tests/property/test_property_backends.py``; this module pins the
deterministic corner cases of the scheduling contract:

* backend resolution (names, env hook, worker plumbing, error paths),
* wave partitioning in the simulator (serialization keys, barrier events,
  deferred side-effect merge order),
* degenerate topologies (a single node — one serialization domain),
* zero-delay coalesced drains landing on one node,
* query traversal interleaved with in-flight churn,
* the runtime context manager releasing backend workers,
* the failure contract: a raising event fails the call with what serial
  raises, and a thread runtime refuses every later run,
* a durable thread-backend runtime journalling and recovering.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import topology
from repro.engine.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    SerialBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.engine.node import Node
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.simulator import Simulator
from repro.errors import EngineError
from repro.protocols import mincost

CONCURRENT_BACKENDS = ["thread"]


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_known_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadPoolBackend)

    def test_backend_names_are_serial_and_thread(self):
        assert sorted(BACKENDS) == ["serial", "thread"]

    def test_process_backend_is_retired(self):
        with pytest.raises(EngineError, match="unknown execution backend 'process'"):
            resolve_backend("process")

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_env_hook_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        assert isinstance(resolve_backend(None), ThreadPoolBackend)
        # An explicit name always wins over the environment.
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(EngineError):
            resolve_backend("fork")

    def test_workers_plumbed_through(self):
        assert resolve_backend("thread", workers=3).workers == 3
        with pytest.raises(EngineError):
            resolve_backend("thread", workers=0)

    def test_instance_passes_through(self):
        backend = ThreadPoolBackend(workers=2)
        assert resolve_backend(backend) is backend
        with pytest.raises(EngineError):
            resolve_backend(backend, workers=4)

    def test_runtime_env_hook(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        with NetTrailsRuntime("r1 reach(@D, S) :- edge(@S, D).", topology.line(2)) as runtime:
            assert isinstance(runtime.backend, ThreadPoolBackend)


# ---------------------------------------------------------------------------
# Simulator wave semantics
# ---------------------------------------------------------------------------


class TestWaveSemantics:
    def trace_run(self, backend):
        """One same-instant wave of keyed events around a keyless barrier."""
        sim = Simulator(backend=backend)
        log = []

        def event(name, extra=None):
            def fire():
                log.append(name)
                if extra is not None:
                    extra(sim)

            return fire

        # Two serialization domains plus a barrier in the middle; the "a"
        # events also schedule zero-delay follow-ups, which must land after
        # the whole wave in scheduling order.
        sim.schedule(1.0, event("a1", lambda s: s.schedule(0.0, event("a1-follow"), key="a")), key="a")
        sim.schedule(1.0, event("b1"), key="b")
        sim.schedule(1.0, event("barrier"))
        sim.schedule(1.0, event("a2", lambda s: s.schedule(0.0, event("a2-follow"), key="a")), key="a")
        sim.schedule(1.0, event("b2"), key="b")
        executed = sim.run()
        return executed, log, sim

    def test_serial_and_concurrent_runs_agree(self):
        serial_executed, serial_log, serial_sim = self.trace_run(SerialBackend())
        assert serial_executed == 7
        # Per-key order is part of the contract everywhere; the serial
        # reference additionally pins the global order.
        assert serial_log == ["a1", "b1", "barrier", "a2", "b2", "a1-follow", "a2-follow"]
        for backend in (ThreadPoolBackend(workers=1), ThreadPoolBackend(workers=2)):
            executed, log, sim = self.trace_run(backend)
            backend.close()
            assert executed == serial_executed
            assert (sim.processed_events, sim.rounds, sim.now) == (
                serial_sim.processed_events,
                serial_sim.rounds,
                serial_sim.now,
            )
            # The barrier splits the wave: everything before it finishes
            # first, then it runs alone, then the rest of the wave.
            assert log.index("a1") < log.index("barrier") < log.index("a2")
            assert log.index("b1") < log.index("barrier") < log.index("b2")
            # Follow-ups were deferred and merged after the wave, in the
            # sequence order of the events that scheduled them.
            assert log[-2:] == ["a1-follow", "a2-follow"]

    def test_max_events_truncates_wave(self):
        backend = ThreadPoolBackend(workers=2)
        sim = Simulator(backend=backend)
        log = []
        for index in range(5):
            sim.schedule(1.0, lambda index=index: log.append(index), key=index)
        assert sim.run(max_events=2) == 2
        assert log == [0, 1]
        assert sim.pending_events == 3
        assert sim.run() == 3
        assert log == [0, 1, 2, 3, 4]
        backend.close()

    def test_deferred_schedule_uses_wave_time(self):
        backend = ThreadPoolBackend(workers=2)
        sim = Simulator(backend=backend)
        times = []
        for key in ("a", "b"):
            sim.schedule(
                2.0,
                lambda: sim.schedule(1.5, lambda: times.append(sim.now)),
                key=key,
            )
        sim.run()
        backend.close()
        assert times == [3.5, 3.5]


# ---------------------------------------------------------------------------
# Runtime edge cases
# ---------------------------------------------------------------------------

LOCAL_PROGRAM = """
materialize(item, infinity, infinity, keys(1, 2)).
r1 double(@N, X) :- item(@N, X).
r2 seen(@N) :- double(@N, X).
"""


def converged(runtime):
    return {
        relation: runtime.state(relation)
        for relation in ("link", "path", "minCost")
    }


class TestBackendEdgeCases:
    @pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
    def test_single_node_topology(self, backend):
        """One node means one serialization domain: every wave takes the
        inline path, and results still match the serial reference."""
        single = topology.from_edges([], name="solo")
        single.add_node("n0")

        def run(spec):
            with NetTrailsRuntime(LOCAL_PROGRAM, single, backend=spec) as runtime:
                runtime.insert_batch("item", [["n0", 1], ["n0", 2]], run=True)
                return (
                    runtime.state("double"),
                    runtime.state("seen"),
                    runtime.simulator.processed_events,
                    runtime.message_stats().messages,
                )

        assert run(backend) == run("serial")

    @pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
    def test_zero_delay_coalesced_drains_on_one_node(self, backend, store_snapshots):
        """Every spoke's delta wave lands on the hub at one instant; the
        hub's zero-delay drain must coalesce them into the same single batch
        under every backend (same batch count, same state)."""

        def run(spec):
            with NetTrailsRuntime(
                mincost.program(), topology.star(8), backend=spec, backend_workers=4
            ) as runtime:
                runtime.seed_links(run=True)
                hub = runtime.nodes["n0"]
                return (
                    store_snapshots(runtime),
                    hub.stats.batches_processed,
                    hub.stats.deltas_received,
                    runtime.message_stats().messages,
                    runtime.simulator.processed_events,
                )

        assert run(backend) == run("serial")

    @pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
    def test_query_during_concurrent_churn(self, backend, store_snapshots):
        """A provenance query issued while churn deltas are still in flight:
        the traversal interleaves with concurrent drains, and both the answer
        and the post-quiescence state must equal the serial reference."""
        from repro.core.query import DistributedQueryEngine

        def run(spec):
            with NetTrailsRuntime(
                mincost.program(), topology.star(8), backend=spec, backend_workers=4
            ) as runtime:
                runtime.seed_links(run=True)
                target = sorted(runtime.state("minCost"), key=repr)[0]
                # Kick off churn but do NOT run to quiescence: the query's own
                # run_to_quiescence interleaves traversal with the churn waves.
                runtime.remove_link("n0", "n3")
                runtime.add_link("n0", "n3", 2.0)
                queries = DistributedQueryEngine(runtime)
                lineage = queries.lineage("minCost", list(target))
                participants = queries.participants("minCost", list(target))
                return (
                    sorted(str(ref) for ref in lineage.value),
                    set(participants.value),
                    store_snapshots(runtime),
                    runtime.message_stats().messages,
                )

        assert run(backend) == run("serial")

    @pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
    def test_delivery_log_order_matches_serial(self, backend, monkeypatch):
        """A delivery log shared across receivers (kept here, by wrapping
        ``Node.receive``) must flow through the deferred merge like any
        shared side effect: same order as serial, run after run, even
        though deliveries execute concurrently."""

        def log_of(spec):
            log = []
            with monkeypatch.context() as patch, NetTrailsRuntime(
                mincost.program(), topology.star(8), backend=spec, backend_workers=4
            ) as runtime:
                simulator = runtime.simulator
                receive = Node.receive

                def logged_receive(node, message):
                    entry = (simulator.now, message)
                    buffer = simulator.deferred_buffer()
                    if buffer is not None:
                        buffer.append(lambda: log.append(entry))
                    else:
                        log.append(entry)
                    receive(node, message)

                patch.setattr(Node, "receive", logged_receive)
                runtime.seed_links(run=True)
            return [
                (round(when, 6), message.sender, message.receiver, str(message.payload))
                for when, message in log
            ]

        expected = log_of("serial")
        assert expected, "workload produced no deliveries"
        for _ in range(3):
            assert log_of(backend) == expected

    @pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
    def test_per_delta_mode_matches_serial(self, backend, store_snapshots, provenance_fingerprint):
        """``batch_deltas=False`` drains inside the delivery event itself
        (no scheduled drain), which must still stay per-node under a wave."""

        def run(spec):
            with NetTrailsRuntime(
                mincost.program(), topology.star(6), backend=spec,
                backend_workers=4, batch_deltas=False,
            ) as runtime:
                runtime.seed_links(run=True)
                runtime.remove_link("n0", "n2")
                runtime.run_to_quiescence()
                runtime.add_link("n0", "n2", 3.0)
                runtime.run_to_quiescence()
                return (
                    store_snapshots(runtime),
                    provenance_fingerprint(runtime),
                    runtime.message_stats().messages,
                    runtime.simulator.processed_events,
                    runtime.simulator.rounds,
                )

        assert run(backend) == run("serial")

    @pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
    def test_periodic_snapshots_split_waves_like_serial(self, backend):
        """Log-store captures are keyless barrier events landing inside
        convergence waves; every capture must see exactly serial's state."""
        from repro.logstore.store import LogStore

        def run(spec):
            store = LogStore()
            with NetTrailsRuntime(
                mincost.program(), topology.ring(6), backend=spec, backend_workers=4
            ) as runtime:
                store.schedule_periodic(runtime, interval=0.01, count=6)
                runtime.seed_links(run=True)
            return [
                (snap.time, snap.label, snap.relation("path"), snap.relation("minCost"), snap.traffic)
                for snap in store.snapshots()
            ]

        serial = run("serial")
        assert len(serial) == 6 and serial[0][2] != serial[-1][2]
        assert run(backend) == serial

    def test_context_manager_releases_backend_workers(self):
        backend = ThreadPoolBackend(workers=2)
        with NetTrailsRuntime(mincost.program(), topology.star(5), backend=backend) as runtime:
            runtime.seed_links(run=True)
            assert backend._pool is not None  # waves actually fanned out
        assert backend._pool is None  # __exit__ closed the pool
        # close() is idempotent — a second explicit close must not fail.
        runtime.close()


# ---------------------------------------------------------------------------
# Failure contract
# ---------------------------------------------------------------------------

#: ``r2`` divides by the link cost, so a zero-cost link makes a drain raise.
DIVIDE_PROGRAM = """
r1 hop(@D, S, X) :- link(@S, D, X).
r2 out(@D, S, C) :- hop(@D, S, X), C := 10 / X.
"""

FAILURE_SEEDS = [3, 11, 29]


def link_rows_with_zero_costs(net, seed):
    """Both directions of every edge, seeded costs, at least one cost 0."""
    rng = random.Random(seed)
    rows = []
    for source, target, _ in net.directed_edges():
        rows.append([source, target, rng.choice([0, 1, 2, 5])])
    rows[rng.randrange(len(rows))][2] = 0
    return rows


def failing_runtime(backend, nodes=4):
    workers = 2 if isinstance(backend, str) else None
    return NetTrailsRuntime(
        DIVIDE_PROGRAM, topology.star(nodes), backend=backend, backend_workers=workers
    )


class TestFailureContract:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("seed", FAILURE_SEEDS, ids=lambda s: f"seed{s}")
    def test_failing_call_raises_what_serial_raises(self, seed, backend):
        with failing_runtime(backend) as runtime:
            rows = link_rows_with_zero_costs(runtime.topology, seed)
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                runtime.insert_batch("link", rows, run=True)

    @pytest.mark.parametrize("seed", FAILURE_SEEDS, ids=lambda s: f"seed{s}")
    def test_thread_runtime_refuses_every_later_run(self, seed):
        with failing_runtime("thread") as runtime:
            rows = link_rows_with_zero_costs(runtime.topology, seed)
            with pytest.raises(ZeroDivisionError):
                runtime.insert_batch("link", rows, run=True)
            assert "ZeroDivisionError" in runtime.simulator.broken
            for attempt in range(2):
                with pytest.raises(EngineError, match="state is undefined; rebuild"):
                    runtime.run_to_quiescence()
            with pytest.raises(EngineError, match="state is undefined"):
                runtime.run()
            # New input does not revive it either.
            runtime.insert("link", ["n0", "n1", 3])
            with pytest.raises(EngineError, match="durable mode replays the WAL"):
                runtime.run_to_quiescence()

    @pytest.mark.parametrize("seed", FAILURE_SEEDS, ids=lambda s: f"seed{s}")
    def test_serial_runtime_resumes_from_its_queue(self, seed):
        """Serial leaves every later event queued, so resuming is defined:
        it re-raises while failing events remain, never ``EngineError``."""
        with failing_runtime("serial") as runtime:
            rows = link_rows_with_zero_costs(runtime.topology, seed)
            with pytest.raises(ZeroDivisionError):
                runtime.insert_batch("link", rows, run=True)
            for _ in range(runtime.simulator.pending_events + 1):
                try:
                    runtime.run_to_quiescence()
                    break
                except ZeroDivisionError:
                    continue
            assert runtime.simulator.pending_events == 0
            assert runtime.simulator.broken is None

    def test_lowest_sequence_failure_wins_and_every_group_finishes(self):
        """Two groups raise; the lower-sequence event's exception is raised
        even when it finishes last, and only after every group is done."""
        import time

        backend = ThreadPoolBackend(workers=3)
        sim = Simulator(backend=backend)
        finished = []

        def slow_failure():
            time.sleep(0.05)
            raise ValueError("first in sequence")

        def fast_failure():
            raise KeyError("second in sequence")

        def slow_success():
            time.sleep(0.1)
            finished.append("c")

        sim.schedule(1.0, slow_failure, key="a")
        sim.schedule(1.0, fast_failure, key="b")
        sim.schedule(1.0, slow_success, key="c")
        with pytest.raises(ValueError, match="first in sequence"):
            sim.run()
        assert finished == ["c"]
        with pytest.raises(EngineError, match="ValueError: first in sequence"):
            sim.run()
        backend.close()

    @pytest.mark.parametrize("barrier", [False, True], ids=["inline", "barrier"])
    def test_single_domain_failure_drops_the_rest_of_the_wave(self, barrier):
        """The inline and barrier paths pop the wave whole too: the events
        after the failing one are lost, so the backend refuses to go on,
        while serial still holds them and resumes."""

        def schedule(sim, log):
            key = None if barrier else "a"

            def boom():
                raise RuntimeError("boom")

            sim.schedule(1.0, boom, key=key)
            sim.schedule(1.0, lambda: log.append("after"), key=key)

        serial_log, thread_log = [], []
        serial = Simulator(backend=SerialBackend())
        schedule(serial, serial_log)
        with pytest.raises(RuntimeError):
            serial.run()
        assert serial.run() == 1 and serial_log == ["after"]

        backend = ThreadPoolBackend(workers=2)
        threaded = Simulator(backend=backend)
        schedule(threaded, thread_log)
        with pytest.raises(RuntimeError):
            threaded.run()
        assert threaded.pending_events == 0 and thread_log == []
        with pytest.raises(EngineError, match="RuntimeError: boom"):
            threaded.run()
        assert backend._pool is None  # one serialization domain: no threads

    def test_failed_runtime_stays_readable(self, store_snapshots):
        """Refusing to run is all the broken state does: inspection and
        close still work, so the operator can look before rebuilding."""
        with failing_runtime("thread") as runtime:
            with pytest.raises(ZeroDivisionError):
                runtime.insert_batch("link", link_rows_with_zero_costs(runtime.topology, 3), run=True)
            assert runtime.state("hop")
            assert store_snapshots(runtime)
            assert runtime.message_stats().messages > 0
            assert runtime.provenance.versions()

    def test_reused_backend_instance_serves_a_rebuilt_runtime(self):
        """The failure marks the runtime, not the backend: the rebuilt
        runtime the error message asks for may reuse the same instance."""
        backend = ThreadPoolBackend(workers=2)
        with failing_runtime(backend) as runtime:
            with pytest.raises(ZeroDivisionError):
                runtime.insert_batch("link", [["n0", "n1", 0], ["n1", "n0", 0]], run=True)
            with pytest.raises(EngineError, match="state is undefined"):
                runtime.run_to_quiescence()
        assert backend._pool is None  # close() still released the pool
        with failing_runtime(backend) as rebuilt:
            assert rebuilt.backend is backend and rebuilt.simulator.broken is None
            rebuilt.insert_batch("link", [["n0", "n1", 2], ["n1", "n0", 2]], run=True)
            assert rebuilt.state("out") == [("n0", "n1", 5.0), ("n1", "n0", 5.0)]
            assert backend._pool is not None  # the rebuilt runtime fanned out again


# ---------------------------------------------------------------------------
# Thread backend specifics
# ---------------------------------------------------------------------------


class TestThreadBackend:
    def test_single_node_runtime_never_spawns_a_pool(self):
        single = topology.from_edges([], name="solo")
        single.add_node("n0")
        with NetTrailsRuntime(LOCAL_PROGRAM, single, backend="thread") as runtime:
            runtime.insert_batch("item", [["n0", 1], ["n0", 2]], run=True)
            assert runtime.backend._pool is None

    def test_wave_metrics_reach_the_registry(self):
        with NetTrailsRuntime(
            mincost.program(), topology.star(5), backend="thread", observability=True
        ) as runtime:
            runtime.seed_links(run=True)
            collected = runtime.obs.registry.collect()
            assert collected["wave.waves"] >= runtime.simulator.rounds
            assert collected["wave.events"] == runtime.simulator.processed_events
            assert collected["wave.occupancy.count"] > 0

    def test_instance_reused_after_close_respawns_its_pool(self, store_snapshots):
        backend = ThreadPoolBackend(workers=2)
        snapshots = []
        for _ in range(2):
            with NetTrailsRuntime(mincost.program(), topology.star(5), backend=backend) as runtime:
                runtime.seed_links(run=True)
                assert backend._pool is not None
                snapshots.append(store_snapshots(runtime))
            assert backend._pool is None
        assert snapshots[0] == snapshots[1]

    def test_attach_binds_only_the_observability_bundle(self):
        backend = ThreadPoolBackend(workers=2)
        backend.attach(None)
        assert backend._obs is None
        with NetTrailsRuntime(
            mincost.program(), topology.line(3), backend=backend, observability=True
        ) as runtime:
            assert backend._obs is runtime.obs


# ---------------------------------------------------------------------------
# Durable mode under the thread backend
# ---------------------------------------------------------------------------


class TestDurableCombination:
    def test_thread_backend_journals_and_recovers(self, tmp_path, monkeypatch):
        from repro.durability.recovery import RecoveryManager

        # The backend is not journalled: recovery takes the default, which
        # the environment hook would otherwise supply.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        durable = tmp_path / "durable"
        with NetTrailsRuntime(
            mincost.SOURCE,
            topology.line(3),
            backend="thread",
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
            assert result.runtime.backend.name == "serial"
            assert result.runtime.state("minCost") == expected
        finally:
            result.runtime.close()

    def test_serial_history_recovers_under_the_thread_backend(self, tmp_path, store_snapshots):
        from repro.durability.recovery import RecoveryManager

        durable = tmp_path / "durable"
        with NetTrailsRuntime(
            mincost.SOURCE, topology.ring(5), durable_dir=durable, wal_fsync=False
        ) as runtime:
            runtime.seed_links(run=True)
            runtime.remove_link("n0", "n1")
            runtime.run_to_quiescence()
            expected = store_snapshots(runtime)
        result = RecoveryManager(durable).recover(
            wal_fsync=False, attach=False, backend="thread", backend_workers=2
        )
        try:
            assert result.runtime.backend.name == "thread"
            assert store_snapshots(result.runtime) == expected
        finally:
            result.runtime.close()
