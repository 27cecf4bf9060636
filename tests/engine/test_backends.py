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
* the runtime context manager releasing backend workers.
"""

from __future__ import annotations

import pytest

from repro.engine import topology
from repro.engine.backends import (
    BACKEND_ENV_VAR,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.engine.node import Node
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.simulator import Simulator
from repro.errors import EngineError
from repro.protocols import mincost

CONCURRENT_BACKENDS = ["thread", "process"]


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_known_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadPoolBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)

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
        for backend in (ThreadPoolBackend(workers=2), ProcessPoolBackend(workers=2)):
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

    def test_context_manager_releases_backend_workers(self):
        backend = ThreadPoolBackend(workers=2)
        with NetTrailsRuntime(mincost.program(), topology.star(5), backend=backend) as runtime:
            runtime.seed_links(run=True)
            assert backend._pool is not None  # waves actually fanned out
        assert backend._pool is None  # __exit__ closed the pool
        # close() is idempotent — a second explicit close must not fail.
        runtime.close()
