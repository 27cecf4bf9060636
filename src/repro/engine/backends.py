"""Pluggable execution backends for the discrete-event simulator.

The deterministic :class:`~repro.engine.simulator.Simulator` owns the clock
and the event queue; *how* the events of one virtual instant are executed is
delegated to an :class:`ExecutionBackend`:

* :class:`SerialBackend` — the reference mode (and the default): events run
  one at a time in ``(time, sequence)`` order, exactly as the seed simulator
  always has.
* :class:`ThreadPoolBackend` — same-instant events whose serialization keys
  differ (in practice: drains and deliveries of *distinct* nodes) run
  concurrently on a thread pool.
* :class:`ProcessPoolBackend` — forked worker processes own the CPU-heavy
  drain cascades (one worker per ``workers``, nodes pinned by a stable
  seeded hash), sidestepping the GIL for true multi-core execution; the
  coordinator mirrors each worker's drain trace so observable state stays
  bit-identical (see :mod:`repro.engine.procpool`).

Scheduling contract (every backend)
-----------------------------------

1. The simulator pops one **wave** — every queued event sharing the earliest
   virtual time — in sequence order.
2. Each event carries an optional **serialization key** (see the ``key=``
   parameter of :meth:`Simulator.schedule`).  Events with the same key are
   executed in sequence order by a single worker; events with *different*
   keys may execute concurrently.  Node drains are keyed by the draining
   node and message deliveries by the receiving node, so each node's store,
   evaluator and provenance partition stay single-writer.
3. An event **without** a key is a barrier: everything scheduled before it
   finishes first, then the event runs alone, then the rest of the wave
   proceeds.  (Log-store snapshot captures, which read every node, use
   this.)
4. While a keyed event executes concurrently, its outward side effects —
   ``Simulator.schedule`` calls and ``Network.send`` dispatches — are not
   applied immediately: they are appended to a per-event effect buffer (a
   thread-confined queue, so no locks are needed on the hot path) and
   **merged after the wave in event-sequence order** on the coordinating
   thread.

Because in serial execution an event's side effects all land before the next
event's (and same-instant events never observe one another's queue pushes),
the deferred merge reproduces the serial heap contents, sequence numbering,
message ordering and traffic statistics *bit for bit*.  Every backend is
therefore indistinguishable from :class:`SerialBackend` on store snapshots,
provenance tables, message/event counts and query answers — the equivalence
suite (``tests/property/test_property_backends.py``) sweeps the backends to
pin this.

Backend selection is uniform across the API surface: pass ``backend=`` /
``backend_workers=`` to :class:`~repro.engine.runtime.NetTrailsRuntime`, or
set the ``NETTRAILS_BACKEND`` environment variable (``serial`` | ``thread``
| ``process``) to change the default process-wide — the CI
property matrix runs the whole suite under each value.  The companion
``NETTRAILS_BACKEND_WORKERS`` variable supplies the default worker count the
same way (:func:`default_backend_workers`); an explicit ``backend_workers=``
argument always wins.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator imports us)
    from repro.engine.simulator import Simulator, _ScheduledEvent


#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "NETTRAILS_BACKEND"

#: Environment variable supplying the default worker count (parity with
#: ``backend_workers=``); unset/empty means each backend's built-in default.
BACKEND_WORKERS_ENV_VAR = "NETTRAILS_BACKEND_WORKERS"


def default_worker_count() -> int:
    """The concurrent backends' built-in worker-pool size."""
    return min(8, os.cpu_count() or 2)


def default_backend_workers() -> Optional[int]:
    """``NETTRAILS_BACKEND_WORKERS`` as an int, or ``None`` when unset.

    Same contract as every other ``NETTRAILS_*`` hook: unset or empty means
    the default (here: ``None``, i.e. the backend's own default worker
    count), a well-formed value applies, and a malformed one — not an
    integer, or < 1 — raises :class:`~repro.errors.EngineError` loudly at
    construction time rather than being silently ignored.
    """
    raw = os.environ.get(BACKEND_WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise EngineError(
            f"{BACKEND_WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
        )
    if workers < 1:
        raise EngineError(f"{BACKEND_WORKERS_ENV_VAR} must be >= 1, got {workers}")
    return workers


class ExecutionBackend:
    """Strategy for executing the events of one virtual-time wave."""

    #: Short name used by :func:`resolve_backend` and ``NETTRAILS_BACKEND``.
    name = "abstract"

    #: The runtime's observability bundle (``None`` while the knob is off);
    #: bound by :meth:`attach`.  Purely observational — nothing here may
    #: influence event ordering or the deferred side-effect merge.
    _obs = None

    def execute_wave(self, simulator: "Simulator", limit: Optional[int] = None) -> int:
        """Execute (up to *limit* of) the events at the earliest queued time.

        Returns the number of events executed.  Implementations must preserve
        the serial observable semantics described in the module docstring.
        """
        raise NotImplementedError

    def attach(self, runtime: object) -> None:
        """Bind the backend to a fully-built runtime (hook for subclasses).

        Called once by :class:`~repro.engine.runtime.NetTrailsRuntime` after
        its nodes and links exist but before any event has executed (and
        before durable mode opens its WAL).  The base implementation only
        adopts the runtime's observability bundle; the process-pool backend
        additionally forks its workers here so they inherit a byte-identical
        copy of every store.
        """
        self._bind_obs(getattr(runtime, "obs", None))

    def _bind_obs(self, obs) -> None:
        """Adopt an observability bundle and pre-resolve the wave instruments."""
        self._obs = obs
        if obs is not None:
            self._m_waves = obs.registry.counter(
                "wave.waves", "Same-instant event waves executed"
            )
            self._m_wave_events = obs.registry.counter(
                "wave.events", "Events executed across all waves"
            )
            self._m_wave_groups = obs.registry.histogram(
                "wave.occupancy",
                "Concurrent serialization-key groups per multi-group wave segment",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            )

    def close(self) -> None:
        """Release worker resources (threads, processes); idempotent."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """The deterministic reference mode: one event at a time, in order."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None):
        # ``workers`` is accepted (and ignored) so every backend shares one
        # constructor signature; serial execution has nothing to fan out.
        self.workers = 1

    def execute_wave(self, simulator: "Simulator", limit: Optional[int] = None) -> int:
        return 1 if simulator.step() else 0


class _ConcurrentBackend(ExecutionBackend):
    """Shared wave partitioning and deterministic effect merging.

    Subclasses provide :meth:`_map`, which runs one callable per key group
    with whatever concurrency mechanism they implement.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise EngineError(f"{type(self).__name__} needs >= 1 worker, got {workers}")
        self.workers = workers or default_worker_count()

    # -- wave execution -----------------------------------------------------

    def execute_wave(self, simulator: "Simulator", limit: Optional[int] = None) -> int:
        wave = simulator._take_wave(limit)
        if self._obs is not None and wave:
            self._m_waves.inc()
            self._m_wave_events.inc(len(wave))
        index = 0
        while index < len(wave):
            if wave[index].key is None:
                # Barrier event: may touch global state (e.g. snapshot every
                # node), so it runs alone between concurrent segments.
                wave[index].run()
                index += 1
                continue
            end = index
            while end < len(wave) and wave[end].key is not None:
                end += 1
            self._execute_segment(simulator, wave[index:end])
            index = end
        return len(wave)

    def _execute_segment(self, simulator: "Simulator", events: Sequence["_ScheduledEvent"]) -> None:
        groups: Dict[object, List["_ScheduledEvent"]] = {}
        for event in events:
            groups.setdefault(event.key, []).append(event)
        if self._obs is not None and len(groups) > 1:
            self._m_wave_groups.observe(len(groups))
        if len(groups) == 1:
            # One serialization domain (e.g. a single-node topology): running
            # inline *is* the serial order, no deferral machinery needed.
            for event in events:
                event.run()
            return

        def run_group(
            group: List["_ScheduledEvent"],
        ) -> List[Tuple[int, List[Callable[[], None]]]]:
            finished = []
            for event in group:
                buffer: List[Callable[[], None]] = []
                simulator._execute_event_deferred(event, buffer)
                finished.append((event.sequence, buffer))
            return finished

        results = self._map(run_group, list(groups.values()))
        # The deterministic merge: flush every deferred side effect (schedule
        # calls, network sends) in the order the events were *popped*, which
        # is the order serial execution would have applied them in.
        pending = [pair for result in results for pair in result]
        pending.sort(key=lambda pair: pair[0])
        for _, buffer in pending:
            for thunk in buffer:
                thunk()

    def _map(self, fn: Callable, groups: List) -> List:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class ThreadPoolBackend(_ConcurrentBackend):
    """Drain independent nodes' same-instant events on a thread pool.

    The pool is created lazily (a run that never produces a multi-key wave
    never spawns a thread) and released by :meth:`close` — reached through
    ``NetTrailsRuntime.close()`` or the runtime's context manager.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers)
        self._pool = None

    def _map(self, fn: Callable, groups: List) -> List:
        # _execute_segment runs single-group segments inline, so this is
        # only reached with >= 2 groups to overlap.
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="nettrails-wave"
            )
        return list(self._pool.map(fn, groups))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class _WorkerChannel:
    """One worker pipe: request coalescing, delta codec and byte accounting.

    Coordinator threads that want a drain enqueue ``(node_id, updates)`` and
    then contend for the pipe lock.  The first thread in becomes the
    **leader**: it snapshots everything queued so far — its own request plus
    any that piled up behind the in-flight round-trip — ships them to the
    worker as a single envelope, and distributes the per-drain traces back.
    A thread that finds its request already served by an earlier leader
    returns immediately.  Same-worker drains of a wave therefore collapse
    into one pipe round-trip (two pickles, two wakeups) instead of one each,
    and the shared :class:`~repro.engine.procpool.TraceCodec` tables stay in
    lockstep because every encode/decode happens under the pipe lock in
    envelope order.
    """

    def __init__(self, process, conn, trace_delta: bool, obs=None):
        import threading

        self.process = process
        self.conn = conn
        self.trace_delta = trace_delta
        self.obs = obs
        self._codec = None
        self._pipe_lock = threading.Lock()
        self._queue_lock = threading.Lock()
        self._pending: List[list] = []  # [node_id, updates, result, error, done, trace_ctx]
        # Transport statistics (reads are snapshots; mutated under _pipe_lock).
        self.request_bytes = 0
        self.reply_bytes = 0
        self.envelopes = 0
        self.drains = 0

    def request(self, node_id: object, updates: List, ctx: Optional[tuple] = None) -> List[tuple]:
        """Ship one drain request, possibly riding another thread's envelope.

        *ctx* is the coordinator's ambient ``(trace_id, span_id)`` for this
        drain (``None`` while tracing is off); it rides the envelope so the
        worker can parent its drain span correctly.
        """
        entry = [node_id, updates, None, None, False, ctx]
        with self._queue_lock:
            self._pending.append(entry)
        with self._pipe_lock:
            if not entry[4]:
                with self._queue_lock:
                    batch, self._pending = self._pending, []
                self._round_trip(batch)
        if entry[3] is not None:
            raise EngineError(entry[3])
        return entry[2]

    def _round_trip(self, batch: List[list]) -> None:
        from repro.engine.procpool import TraceCodec, dump_envelope, load_envelope

        if self.trace_delta:
            if self._codec is None:
                self._codec = TraceCodec()
            codec = self._codec
            # The trace context only rides along when present, so envelope
            # bytes are unchanged while tracing is off.
            items = [
                (codec._enc_str(entry[0]), codec.encode_updates(entry[1]))
                if entry[5] is None
                else (codec._enc_str(entry[0]), codec.encode_updates(entry[1]), entry[5])
                for entry in batch
            ]
            envelope = ("drains", items)
        else:
            envelope = (
                "raw",
                [
                    (entry[0], entry[1]) if entry[5] is None else (entry[0], entry[1], entry[5])
                    for entry in batch
                ],
            )
        blob = dump_envelope(envelope)
        try:
            self.conn.send_bytes(blob)
            reply_blob = self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            message = (
                f"process backend worker (pid {self.process.pid}) died while "
                f"draining nodes {[entry[0] for entry in batch]!r}; the in-flight "
                "wave is lost — rebuild the runtime (durable mode replays the WAL)"
            )
            if self.obs is not None:
                self.obs.record_event(
                    "worker_error",
                    pid=self.process.pid,
                    error="worker died (pipe closed)",
                    nodes=[repr(entry[0]) for entry in batch],
                )
            for entry in batch:
                entry[3] = message
                entry[4] = True
            raise EngineError(message) from exc
        self.request_bytes += len(blob)
        self.reply_bytes += len(reply_blob)
        self.envelopes += 1
        self.drains += len(batch)
        status, payload = load_envelope(reply_blob)
        if status != "ok":
            message = (
                f"process backend worker (pid {self.process.pid}) failed draining "
                f"nodes {[entry[0] for entry in batch]!r}: {payload}"
            )
            if self.obs is not None:
                self.obs.record_event(
                    "worker_error",
                    pid=self.process.pid,
                    error=str(payload),
                    nodes=[repr(entry[0]) for entry in batch],
                )
            for entry in batch:
                entry[3] = message
                entry[4] = True
            raise EngineError(message)
        if self.trace_delta:
            traces = [self._codec.decode_trace(trace_enc) for trace_enc in payload]
        else:
            traces = payload
        for entry, trace in zip(batch, traces):
            entry[2] = trace
            entry[4] = True


class ProcessPoolBackend(ThreadPoolBackend):
    """True multi-core execution: forked worker processes own node drains.

    :meth:`attach` — called by the runtime constructor once nodes and links
    exist — pins every logical node to one of ``workers`` forked processes
    (stable seeded CRC32 of the node id, so the same topology always maps
    the same way) and installs a remote-drain hook on each node.  A drain
    then ships the node's pending queue to the owning worker, which runs the
    full evaluator cascade against its forked copy of the store and returns
    an ordered trace of store batches and rule effects; the coordinator
    mirrors the trace so the authoritative store, provenance graph and
    outgoing traffic stay bit-identical to a local drain (see
    :mod:`repro.engine.procpool` for the worker side and the divergence
    check).

    Wave scheduling is inherited from :class:`ThreadPoolBackend`: each key
    group of a wave runs on a coordinator thread, but the heavy lifting of a
    drain happens in the worker process while the coordinator thread merely
    blocks on the pipe (releasing the GIL) — which is what lets distinct
    nodes' drains use distinct cores.  Requests to the same worker are
    serialized by the per-worker channel, which coalesces every drain queued
    behind an in-flight round-trip into one envelope and delta-encodes the
    payloads (see :class:`_WorkerChannel` and ``trace_delta``); the deferred
    side-effect merge is byte-for-byte the thread backend's.

    If a worker process dies (killed, OOM, crashed), the next drain request
    routed to it raises :class:`~repro.errors.EngineError` loudly — the
    in-flight wave cannot be recovered, so the runtime must be rebuilt
    (durable mode replays the WAL).  Without :meth:`attach` (a bare
    ``Simulator(backend=ProcessPoolBackend())``) no workers exist and the
    backend degrades gracefully to thread-pool behaviour.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None, seed: int = 0, trace_delta: bool = True):
        super().__init__(workers)
        #: Seed of the node→worker assignment hash (stable across runs).
        self.seed = seed
        #: When True (the default), drain requests and traces travel
        #: delta-encoded through a per-pipe :class:`~repro.engine.procpool.TraceCodec`
        #: and same-worker drains of a wave coalesce into one envelope.
        #: ``False`` is the ablation: plain pickled payloads (coalescing
        #: still applies — the knob isolates the codec's byte savings).
        self.trace_delta = trace_delta
        self._channels: List[_WorkerChannel] = []
        self._assignment: Dict[object, int] = {}
        self._attached = False

    # -- worker management -------------------------------------------------------

    def assignment_for(self, node_ids: Sequence[object]) -> Dict[object, int]:
        """The stable node→worker mapping, balanced by construction.

        Nodes are ordered by a seeded CRC32 of their id (a stable
        pseudo-random shuffle — same seed and node set, same order) and
        dealt round-robin, so worker loads never differ by more than one
        node regardless of how the hash happens to cluster.
        """
        import zlib

        def shuffle_key(node_id: object) -> tuple:
            return (zlib.crc32(repr((self.seed, node_id)).encode("utf-8")), repr(node_id))

        ordered = sorted(node_ids, key=shuffle_key)
        return {node_id: index % self.workers for index, node_id in enumerate(ordered)}

    def attach(self, runtime: object) -> None:
        import multiprocessing as mp

        if self._attached:
            raise EngineError(
                "a ProcessPoolBackend instance binds to one runtime; construct "
                "a fresh backend (or pass backend='process') per runtime"
            )
        self._attached = True
        self._bind_obs(getattr(runtime, "obs", None))
        nodes = getattr(runtime, "nodes", None)
        if not nodes:
            return
        if "fork" not in mp.get_all_start_methods():  # pragma: no cover - POSIX-only repo
            raise EngineError(
                "the process backend requires the fork start method (POSIX); "
                "use backend='thread' on this platform"
            )
        from repro.engine.procpool import worker_main

        context = mp.get_context("fork")
        self._assignment = self.assignment_for(list(nodes))
        owned_by: Dict[int, List[object]] = {index: [] for index in range(self.workers)}
        for node_id, index in self._assignment.items():
            owned_by[index].append(node_id)
        for index in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=worker_main,
                args=(child_conn, dict(nodes), owned_by[index]),
                name=f"nettrails-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._channels.append(
                _WorkerChannel(process, parent_conn, self.trace_delta, obs=self._obs)
            )
        for node_id, node in nodes.items():
            node._remote_drain = self._make_remote_drain(self._assignment[node_id])

    def _make_remote_drain(self, index: int) -> Callable:
        def remote_drain(node) -> None:
            updates = list(node._queue)
            node._queue.clear()
            if not updates:
                return
            ctx = None
            obs = self._obs
            if obs is not None and obs.tracing:
                current = obs.tracer.current()
                if current is not None:
                    ctx = current.as_tuple()
            trace = self._channels[index].request(node.id, updates, ctx)
            node._mirror_trace(trace)

        return remote_drain

    def transport_stats(self) -> Dict[str, int]:
        """Aggregate pipe-transport statistics across all worker channels.

        ``drains`` counts drain requests, ``envelopes`` the pipe round-trips
        they were packed into (coalescing makes ``envelopes <= drains``);
        ``request_bytes`` / ``reply_bytes`` are the pickled envelope sizes in
        each direction.
        """
        stats = {"drains": 0, "envelopes": 0, "request_bytes": 0, "reply_bytes": 0}
        for channel in self._channels:
            stats["drains"] += channel.drains
            stats["envelopes"] += channel.envelopes
            stats["request_bytes"] += channel.request_bytes
            stats["reply_bytes"] += channel.reply_bytes
        return stats

    def close(self) -> None:
        from repro.engine.procpool import dump_envelope

        channels, self._channels = self._channels, []
        for channel in channels:
            try:
                channel.conn.send_bytes(dump_envelope(None))
            except OSError:  # worker already gone / pipe closed
                pass
            channel.conn.close()
            channel.process.join(timeout=5.0)
            if channel.process.is_alive():  # pragma: no cover - stuck worker backstop
                channel.process.terminate()
                channel.process.join(timeout=1.0)
        super().close()


#: Registry used by :func:`resolve_backend` and the ``NETTRAILS_BACKEND`` hook.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}

BackendSpec = Union[None, str, ExecutionBackend]


def default_backend_name() -> str:
    """The backend name used when none is requested: ``NETTRAILS_BACKEND`` or serial."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or SerialBackend.name


def resolve_backend(spec: BackendSpec = None, workers: Optional[int] = None) -> ExecutionBackend:
    """Turn a backend specification into an :class:`ExecutionBackend` instance.

    *spec* may be an instance (returned as-is; *workers* must then be unset),
    a registered name (``"serial"``, ``"thread"``, ``"process"``), or
    ``None`` — which consults the ``NETTRAILS_BACKEND`` environment variable
    and falls back to serial; any other name raises
    :class:`~repro.errors.EngineError`.  ``workers`` bounds the
    worker pool of the concurrent backends; when ``None`` the
    ``NETTRAILS_BACKEND_WORKERS`` variable is consulted and the backends'
    built-in default (``min(8, cpu_count)``) applies last.  The serial
    backend ignores it, and an already-constructed instance is returned
    untouched (its own configuration wins over the environment).
    """
    if isinstance(spec, ExecutionBackend):
        if workers is not None:
            raise EngineError(
                "backend_workers cannot be combined with an already-constructed "
                f"backend instance ({spec!r}); configure the instance instead"
            )
        return spec
    if workers is None:
        workers = default_backend_workers()
    name = spec if spec is not None else default_backend_name()
    if name not in BACKENDS:
        raise EngineError(
            f"unknown execution backend {name!r}; known backends: {sorted(BACKENDS)}"
        )
    return BACKENDS[name](workers=workers)
