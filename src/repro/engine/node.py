"""A single node of the simulated distributed system.

Each :class:`Node` owns:

* a :class:`~repro.engine.store.TupleStore` holding its horizontal partition
  of every relation,
* a :class:`~repro.engine.evaluator.LocalEvaluator` that computes the
  consequences of local updates,
* a work queue of pending tuple deltas (local derivations and deltas received
  from other nodes), and
* an optional provenance recorder (the ExSPAN maintenance engine) that is
  informed of every rule execution and every derivation added to or removed
  from the store.

The provenance recorder must provide the following methods (see
:class:`repro.core.maintenance.ProvenanceEngine` for the real implementation)::

    record_rule_exec(exec_node, effect)   -> ProvenanceTag
    remove_rule_exec(exec_node, effect)   -> None
    record_support(node, fact, derivation_id, tag_or_None) -> None
    remove_support(node, fact, derivation_id) -> None
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.engine.compiler import CompiledProgram
from repro.engine.evaluator import DerivationEffect, LocalEvaluator
from repro.engine.messages import (
    CATEGORY_TUPLE,
    Message,
    ProvenanceTag,
    TupleDelta,
    TupleDeltaBatch,
)
from repro.engine.network import Network
from repro.engine.store import (
    BASE_DERIVATION,
    ColumnarTupleStore,
    SerialShardExecutor,
    ShardedTupleStore,
    ThreadShardExecutor,
    TupleStore,
)
from repro.engine.tuples import Fact
from repro.obs import Observability


@dataclass
class NodeStats:
    """Counters describing the work one node has performed.

    ``deltas_sent`` / ``deltas_received`` count individual tuple deltas;
    ``messages_sent`` counts network messages, which is lower in batched mode
    because deltas to the same destination share one message.
    """

    updates_processed: int = 0
    batches_processed: int = 0
    rule_firings: int = 0
    rule_retractions: int = 0
    deltas_sent: int = 0
    deltas_received: int = 0
    messages_sent: int = 0


class Node:
    """One node: local store + evaluator + messaging."""

    def __init__(
        self,
        node_id: object,
        compiled: CompiledProgram,
        network: Network,
        provenance: Optional[object] = None,
        aggregate_retract_first: bool = False,
        batch_deltas: bool = True,
        num_shards: Optional[int] = None,
        shard_workers: int = 0,
        batch_commit_stall_s: float = 0.0,
        columnar: bool = False,
        observability: Optional[Observability] = None,
    ):
        self.id = node_id
        self.compiled = compiled
        self.network = network
        #: Number of store shards (``None`` = the flat unsharded store).  When
        #: set, the node's relations are hash-partitioned by primary-key
        #: columns across ``num_shards`` private :class:`TupleStore` shards
        #: and incoming delta batches are split into per-shard sub-batches.
        self.num_shards = num_shards
        #: Worker threads for shard absorption and per-shard join passes;
        #: ``0``/``1`` selects the serial deterministic reference executor.
        self.shard_workers = shard_workers
        if num_shards is not None and num_shards < 1:
            raise EngineError(f"node {node_id!r}: num_shards must be >= 1, got {num_shards}")
        if shard_workers > 1 and num_shards is None:
            raise EngineError(
                f"node {node_id!r}: shard_workers={shard_workers} requires num_shards "
                "(the flat unsharded store has nothing to parallelise over)"
            )
        self._shard_executor = (
            ThreadShardExecutor(shard_workers) if shard_workers > 1 else SerialShardExecutor()
        )
        #: Dictionary-encoded columnar store representation (see
        #: :class:`~repro.engine.store.ColumnarTupleStore`); the evaluator's
        #: batch join then runs its compiled slot programs over interned id
        #: arrays.  ``False`` keeps the dict-based reference representation.
        self.columnar = columnar
        if num_shards is None:
            self.store = ColumnarTupleStore() if columnar else TupleStore()
        else:
            catalog = compiled.catalog

            def shard_key(fact: Fact) -> Tuple[object, ...]:
                key = catalog.key_of(fact)
                return key if key else fact.values

            self.store = ShardedTupleStore(
                num_shards, key_fn=shard_key, executor=self._shard_executor, columnar=columnar
            )
        self.evaluator = LocalEvaluator(
            compiled,
            self.store,
            node_id,
            aggregate_retract_first=aggregate_retract_first,
            shard_executor=self._shard_executor,
        )
        self.provenance = provenance
        self.stats = NodeStats()
        #: Batch-first mode (the default): the work queue is drained in
        #: batches through :meth:`LocalEvaluator.on_batch`, outgoing deltas
        #: are grouped per destination into :class:`TupleDeltaBatch`
        #: messages, and provenance is updated once per batch.  ``False``
        #: restores the historical one-delta-at-a-time path (kept as the
        #: baseline the batching benchmarks compare against).
        self.batch_deltas = batch_deltas
        #: Emulated per-batch commit latency in *real* seconds (``time.sleep``
        #: before each batch is absorbed), modelling the blocking I/O a
        #: durable deployment pays to fsync its store/provenance log.  The
        #: sleep releases the GIL exactly like real I/O, which is what the
        #: E13 backend benchmark uses to show concurrent backends overlapping
        #: independent nodes' commit stalls.  Leave at 0.0 (the default) for
        #: pure in-memory simulation.
        self.batch_commit_stall_s = batch_commit_stall_s
        self._queue: Deque[TupleDelta] = deque()
        self._processing = False
        self._drain_scheduled = False
        #: Installed by the process-pool backend: a callable that ships this
        #: node's pending queue to the owning worker process and mirrors the
        #: returned drain trace (see :mod:`repro.engine.procpool`).  ``None``
        #: — every other configuration — drains locally.
        self._remote_drain: Optional[Callable[["Node"], None]] = None
        #: Worker-side drain trace: ``None`` outside a worker process.  While
        #: a list, ``_apply_batch`` / ``_apply`` / ``_handle_effects`` append
        #: ``("batch", updates)`` / ``("single", update)`` /
        #: ``("effects", effects, tags)`` entries instead of touching the
        #: network, and the coordinator replays them via :meth:`_mirror_trace`.
        self._trace: Optional[List[tuple]] = None
        #: The runtime's :class:`~repro.obs.Observability` bundle, or ``None``
        #: (the default — every instrumentation site below is one branch).
        self.obs = observability
        #: Worker-side drain trace context: the coordinator ships the ambient
        #: ``(trace_id, span_id)`` with each remote drain request so spans
        #: recorded in the worker carry correct parent ids (see
        #: :func:`repro.engine.procpool.run_drain`).
        self._obs_drain_ctx: Optional[Tuple[str, str]] = None
        #: ``repr(node_id)`` computed once — the drain instrumentation path
        #: stamps it on every span/event and must not re-render it per batch.
        self._id_repr = repr(node_id)
        #: The label and callback of this node's drain events, made once so
        #: scheduling a drain allocates nothing but the event.
        self._drain_label = f"drain:{node_id}"
        self._drain_callback = self._fire_drain
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        network.register(node_id, self)

    # -- external API ----------------------------------------------------------

    def insert_base(self, fact: Fact) -> None:
        """Insert a base tuple locally (e.g. a ``link`` tuple from the topology)."""
        self._check_location(fact)
        self._enqueue(TupleDelta(+1, fact, BASE_DERIVATION, None))

    def delete_base(self, fact: Fact) -> None:
        """Delete a base tuple previously inserted at this node."""
        self._check_location(fact)
        self._enqueue(TupleDelta(-1, fact, BASE_DERIVATION, None))

    def apply_base_batch(
        self, inserts: Sequence[Fact] = (), deletes: Sequence[Fact] = ()
    ) -> None:
        """Enqueue many base-tuple deltas and process them as one batch.

        Deletions are staged before insertions so key-overwrite sequences
        ("delete the old row, insert the new one") behave as expected.  In
        batched mode the whole set reaches the evaluator as a single
        :meth:`LocalEvaluator.on_batch` call; in per-delta mode it simply
        replays one update at a time.
        """
        for fact in deletes:
            self._check_location(fact)
            self._queue.append(TupleDelta(-1, fact, BASE_DERIVATION, None))
        for fact in inserts:
            self._check_location(fact)
            self._queue.append(TupleDelta(+1, fact, BASE_DERIVATION, None))
        if self._queue and not self._processing:
            self._drain()

    def apply_external_derivation(self, effect: DerivationEffect) -> None:
        """Apply a derivation produced outside the local evaluator.

        This is how the legacy-application layer injects derivations inferred
        by "maybe" rules: the proxy builds a :class:`DerivationEffect` (with
        its own firing id) and the node records/ships it exactly as if one of
        its own rules had fired.
        """
        self._handle_effects([effect])

    def register_handler(self, category: str, handler: Callable[[Message], None]) -> None:
        """Register a handler for a non-tuple message category (e.g. provenance queries)."""
        self._handlers[category] = handler

    def send(self, receiver: object, category: str, payload: object) -> None:
        """Send an arbitrary message to another node through the network."""
        self.network.send(Message(sender=self.id, receiver=receiver, category=category, payload=payload))

    # -- message reception -------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Entry point used by the network to deliver a message to this node."""
        if message.category == CATEGORY_TUPLE:
            payload = message.payload
            # Received deltas are queued as they are: a delta is immutable,
            # so the work queue needs no copy of its own.
            if isinstance(payload, TupleDeltaBatch):
                self.stats.deltas_received += len(payload.deltas)
                self._queue.extend(payload.deltas)
            elif isinstance(payload, TupleDelta):
                self.stats.deltas_received += 1
                self._queue.append(payload)
            else:
                raise EngineError(f"malformed tuple message payload: {message.payload!r}")
            if self.batch_deltas:
                # Defer draining to a zero-delay simulator event: every
                # message delivered to this node at the same virtual instant
                # lands in the queue first, so one evaluation batch absorbs
                # the whole wave instead of one batch per sender.
                self._schedule_drain()
            elif not self._processing:
                self._drain()
            return
        handler = self._handlers.get(message.category)
        if handler is None:
            raise EngineError(
                f"node {self.id!r} has no handler for message category {message.category!r}"
            )
        handler(message)

    # -- internals -----------------------------------------------------------------

    def _check_location(self, fact: Fact) -> None:
        location = self.compiled.catalog.location_of(fact)
        if location != self.id:
            raise EngineError(
                f"fact {fact} is located at {location!r} and cannot be inserted at node {self.id!r}"
            )

    def _enqueue(self, update: TupleDelta) -> None:
        self._queue.append(update)
        if not self._processing:
            self._drain()

    def _schedule_drain(self) -> None:
        if self._drain_scheduled or self._processing:
            return
        self._drain_scheduled = True
        # Drains are serialized per node (the event key): a concurrent
        # backend may drain distinct nodes of the same wave in parallel, but
        # this node's store/evaluator/provenance partition stays
        # single-writer.
        self.network.simulator.schedule(0.0, self._drain_callback, label=self._drain_label, key=self.id)

    def _fire_drain(self) -> None:
        self._drain_scheduled = False
        if not self._processing and self._queue:
            self._drain()

    def _drain(self) -> None:
        if self._remote_drain is not None:
            self._remote_drain(self)
            return
        self._processing = True
        try:
            while self._queue:
                if self.batch_deltas:
                    batch = list(self._queue)
                    self._queue.clear()
                    self._apply_batch(batch)
                else:
                    self._apply(self._queue.popleft())
        finally:
            self._processing = False

    def _apply_batch(self, updates: List[TupleDelta]) -> None:
        """Apply a batch of pending updates with one evaluator/provenance pass.

        The store absorbs the whole batch first; the evaluator then sees only
        the *net* presence transitions, and the provenance partition is
        updated under a single version bump.
        """
        if self._trace is not None:
            self._trace.append(("batch", list(updates)))
        token = None if self.obs is None else self._obs_drain_begin()
        self.stats.updates_processed += len(updates)
        self.stats.batches_processed += 1
        if self.batch_commit_stall_s > 0.0:
            time.sleep(self.batch_commit_stall_s)
        newly_present, disappeared = self._absorb_batch(updates)
        if newly_present or disappeared:
            effects = self.evaluator.on_batch(newly_present, disappeared)
            self._handle_effects(effects)
        if self.obs is not None:
            self._obs_drain_end(token, len(updates))

    def _absorb_batch(
        self, updates: List[TupleDelta]
    ) -> Tuple[List[Fact], List[Fact]]:
        """Apply *updates* to the store and the provenance partition (no evaluation)."""
        newly_present, disappeared, applied = self.store.apply_delta_batch(
            (update.sign, update.fact, update.derivation_id) for update in updates
        )
        if self.provenance is not None:
            ops = []
            for update, was_applied in zip(updates, applied):
                if update.sign > 0:
                    ops.append((+1, update.fact, update.derivation_id, update.provenance))
                elif was_applied:
                    ops.append((-1, update.fact, update.derivation_id, None))
            apply_batch = getattr(self.provenance, "apply_support_batch", None)
            if apply_batch is not None:
                apply_batch(self.id, ops)
            else:  # duck-typed recorder without the batch extension
                for sign, fact, derivation_id, tag in ops:
                    if sign > 0:
                        self.provenance.record_support(self.id, fact, derivation_id, tag)
                    else:
                        self.provenance.remove_support(self.id, fact, derivation_id)
        return newly_present, disappeared

    def _apply(self, update: TupleDelta) -> None:
        if self._trace is not None:
            self._trace.append(("single", update))
        self.stats.updates_processed += 1
        if self._absorb_single(update):
            if update.sign > 0:
                effects = self.evaluator.on_fact_inserted(update.fact)
            else:
                effects = self.evaluator.on_fact_deleted(update.fact)
            self._handle_effects(effects)

    def _absorb_single(self, update: TupleDelta) -> bool:
        """Apply one update to store + provenance; True if presence changed."""
        if update.sign > 0:
            newly_present = self.store.add_derivation(update.fact, update.derivation_id)
            if self.provenance is not None:
                self.provenance.record_support(
                    self.id, update.fact, update.derivation_id, update.provenance
                )
            return bool(newly_present)
        had_derivation = update.derivation_id in self.store.derivations(update.fact)
        disappeared = self.store.remove_derivation(update.fact, update.derivation_id)
        if self.provenance is not None and had_derivation:
            self.provenance.remove_support(self.id, update.fact, update.derivation_id)
        return bool(disappeared)

    def _handle_effects(self, effects: List[DerivationEffect]) -> None:
        if not effects:
            return
        tags = self._record_effects(effects)
        if self._trace is not None:
            # Worker process: ship the effects + tags for the coordinator to
            # mirror (it performs the network sends); keep the local-head
            # enqueue so the worker-side cascade continues.
            self._trace.append(("effects", list(effects), list(tags)))
            self._dispatch_effects(effects, tags, enqueue_local=True, send_remote=False)
        else:
            self._dispatch_effects(effects, tags, enqueue_local=True, send_remote=True)
        if self._queue and not self._processing:
            self._drain()

    def _dispatch_effects(
        self,
        effects: List[DerivationEffect],
        tags: List[Optional[ProvenanceTag]],
        enqueue_local: bool,
        send_remote: bool,
    ) -> None:
        """Turn evaluator effects into queue pushes and outgoing deltas.

        ``enqueue_local=False`` is the coordinator mirroring a worker trace:
        local heads already continued the cascade worker-side and arrive as
        the trace's next ``("batch", ...)`` entry.  ``send_remote=False`` is
        the worker side of the same split: remote heads travel home in the
        ``("effects", ...)`` trace entry and the coordinator sends them.
        """
        outgoing: Dict[object, List[TupleDelta]] = {}
        destinations: List[object] = []  # deterministic first-seen order
        for effect, tag in zip(effects, tags):
            if effect.sign > 0:
                self.stats.rule_firings += 1
            else:
                self.stats.rule_retractions += 1
            if effect.head_location == self.id:
                if enqueue_local:
                    self._queue.append(
                        TupleDelta(effect.sign, effect.head_fact, effect.firing_id, tag)
                    )
                continue
            if not send_remote:
                continue
            self.stats.deltas_sent += 1
            delta = TupleDelta(
                sign=effect.sign,
                fact=effect.head_fact,
                derivation_id=effect.firing_id,
                provenance=tag,
            )
            if effect.head_location not in outgoing:
                destinations.append(effect.head_location)
            outgoing.setdefault(effect.head_location, []).append(delta)

        for destination in destinations:
            deltas = outgoing[destination]
            if self.batch_deltas:
                payloads: List[object] = [
                    deltas[0] if len(deltas) == 1 else TupleDeltaBatch(tuple(deltas))
                ]
            else:
                payloads = list(deltas)
            for payload in payloads:
                self.stats.messages_sent += 1
                self.network.send(
                    Message(
                        sender=self.id,
                        receiver=destination,
                        category=CATEGORY_TUPLE,
                        payload=payload,
                    )
                )

    # -- observability -----------------------------------------------------------

    def _obs_drain_begin(self) -> Optional[object]:
        """Start-of-batch telemetry token: a ``((trace_id, span_id), start)``
        pair, or ``None`` when tracing is off / no trace is ambient.

        This runs once per drain on the engine's hottest path, so both sides
        use the primitive span-record fast lane (:meth:`Tracer.defer`) rather
        than live :class:`~repro.obs.Span` objects — benchmark E20 gates the
        cost."""
        obs = self.obs
        if obs is None or not obs.tracing:
            return None
        if self._trace is not None:
            # Worker process: spans travel home in the drain trace; parent to
            # the context the coordinator shipped with this drain request.
            if self._obs_drain_ctx is None:
                return None
            return (self._obs_drain_ctx, time.perf_counter())
        parent = obs.tracer.current()
        if parent is None:
            return None
        return (parent.as_tuple(), time.perf_counter())

    def _obs_drain_end(self, token: Optional[object], updates: int) -> None:
        obs = self.obs
        if obs is None:
            return
        if self._trace is None:
            obs.recorder.record("drain", node=self._id_repr, updates=updates)
        if token is None:
            return
        (trace_id, span_id), start = token
        record = (
            "drain", trace_id, span_id, self._id_repr,
            start, time.perf_counter(), (("updates", updates),),
        )
        if self._trace is not None:
            self._trace.append(("spans", [record]))
        else:
            obs.tracer.defer(record)

    # -- coordinator-side mirror of a worker drain trace -------------------------

    def _mirror_trace(self, trace: List[tuple]) -> None:
        """Replay a worker's drain trace against the authoritative state.

        The trace is the exact sequence of store batches and effect lists a
        local drain would have produced, so replaying it entry by entry
        leaves the coordinator's store, provenance partition, stats and
        outgoing traffic bit-identical to a local drain — minus the
        evaluator work and the commit stall, which the worker already paid.
        """
        self._processing = True
        try:
            for entry in trace:
                kind = entry[0]
                if kind == "batch":
                    self._mirror_batch(entry[1])
                elif kind == "single":
                    self._mirror_single(entry[1])
                elif kind == "effects":
                    self._mirror_effects(entry[1], entry[2])
                elif kind == "spans":
                    # Worker-side observability spans: re-home them into the
                    # coordinator's tracer (parent ids were assigned from the
                    # context shipped with the drain request, so the tree is
                    # complete without translation).
                    if self.obs is not None:
                        self.obs.tracer.absorb(entry[1])
                else:
                    raise EngineError(
                        f"node {self.id!r}: malformed worker trace entry {kind!r}"
                    )
        finally:
            self._processing = False

    def _mirror_batch(self, updates: List[TupleDelta]) -> None:
        self.stats.updates_processed += len(updates)
        self.stats.batches_processed += 1
        if self.obs is not None:
            self.obs.record_event(
                "drain", node=self._id_repr, updates=len(updates), remote=True
            )
        # The commit stall was paid in the worker (where stalls of distinct
        # workers overlap); the evaluator consequences arrive as the next
        # trace entries.
        self._absorb_batch(updates)

    def _mirror_single(self, update: TupleDelta) -> None:
        self.stats.updates_processed += 1
        self._absorb_single(update)

    def _mirror_effects(
        self, effects: List[DerivationEffect], tags: List[Optional[ProvenanceTag]]
    ) -> None:
        recorded = self._record_effects(effects)
        if recorded != tags:
            raise EngineError(
                f"node {self.id!r}: worker-computed provenance tags diverged from "
                "the coordinator's provenance engine (stores out of sync?)"
            )
        self._dispatch_effects(effects, recorded, enqueue_local=False, send_remote=True)

    def _record_effects(self, effects: List[DerivationEffect]) -> List[Optional[ProvenanceTag]]:
        """Record rule firings/retractions in the provenance engine, batched."""
        if self.provenance is None:
            return [None] * len(effects)
        apply_batch = getattr(self.provenance, "apply_rule_exec_batch", None)
        if self.batch_deltas and apply_batch is not None:
            return apply_batch(self.id, effects)
        tags: List[Optional[ProvenanceTag]] = []
        for effect in effects:
            if effect.sign > 0:
                tags.append(self.provenance.record_rule_exec(self.id, effect))
            else:
                self.provenance.remove_rule_exec(self.id, effect)
                tags.append(None)
        return tags

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release shard worker threads (no-op for the serial executor)."""
        self._shard_executor.close()

    # -- convenience accessors -------------------------------------------------------

    def facts(self, relation: str) -> List[Fact]:
        """All facts of *relation* stored at this node (sorted for determinism)."""
        return sorted(self.store.facts(relation), key=lambda fact: repr(fact.values))

    def __repr__(self) -> str:
        return f"Node({self.id!r}, {self.store.count()} facts)"
