"""A single node of the simulated distributed system.

Each :class:`Node` owns:

* a :class:`~repro.engine.store.TupleStore` holding its horizontal partition
  of every relation, each fact with its derivations: the ``(derivation id,
  rloc)`` pair of every delta that derived it, which is the fact's ``prov``
  row,
* a :class:`~repro.engine.evaluator.LocalEvaluator` that computes the
  consequences of local updates,
* a work queue of pending tuple deltas (local derivations and deltas received
  from other nodes), and
* optionally the runtime's :class:`~repro.core.maintenance.ProvenanceEngine`
  (the ExSPAN maintenance engine), whose partition for this node reads the
  tuple store as its ``prov`` table and the evaluator's
  :class:`~repro.engine.evaluator.Firings` as its ``ruleExec`` table.  The
  node makes one provenance call per applied batch
  (:meth:`~repro.core.maintenance.ProvenanceEngine.apply_rule_exec_batch`):
  the facts whose derivations changed, the facts that appeared or
  disappeared, and the batch's rule executions.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence

from repro.errors import EngineError
from repro.engine.compiler import CompiledProgram
from repro.engine.evaluator import DerivationEffect, LocalEvaluator
from repro.engine.messages import (
    CATEGORY_TUPLE,
    Message,
    TupleDelta,
    TupleDeltaBatch,
)
from repro.engine.network import Network
from repro.engine.store import BASE_DERIVATION, TupleStore
from repro.engine.tuples import Fact
from repro.obs import Observability

if TYPE_CHECKING:  # the maintenance engine imports this package
    from repro.core.maintenance import ProvenanceEngine


@dataclass
class NodeStats:
    """Counters describing the work one node has performed.

    ``deltas_sent`` / ``deltas_received`` count individual tuple deltas;
    ``messages_sent`` counts network messages, which is lower because the
    deltas of one drain to the same destination share one message.
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
        provenance: Optional[ProvenanceEngine] = None,
        observability: Optional[Observability] = None,
    ):
        self.id = node_id
        self.compiled = compiled
        self.network = network
        self.store = TupleStore()
        #: With provenance the evaluator's firing ids are RIDs, and every
        #: derived delta this node ships is the receiver's prov row
        #: ``(RID, RLoc = this node)``; without, ids are counters and
        #: ``rloc`` stays ``None``.
        self.evaluator = LocalEvaluator(
            compiled,
            self.store,
            node_id,
            None if provenance is None else provenance.derivation_id,
        )
        self.provenance = provenance
        self._rloc = None if provenance is None else node_id
        if provenance is not None:
            provenance.attach(node_id, self.evaluator.firings, self.store)
        self.stats = NodeStats()
        #: Pending deltas.  A drain takes the whole queue as one batch
        #: through :meth:`LocalEvaluator.on_batch`, tells provenance once,
        #: and groups outgoing deltas per destination into one message.
        self._queue: Deque[TupleDelta] = deque()
        self._processing = False
        self._drain_scheduled = False
        #: The runtime's :class:`~repro.obs.Observability` bundle, or ``None``
        #: (the default — every instrumentation site below is one branch).
        self.obs = observability
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
        self._enqueue(TupleDelta(+1, fact, BASE_DERIVATION, self._rloc))

    def delete_base(self, fact: Fact) -> None:
        """Delete a base tuple previously inserted at this node."""
        self._check_location(fact)
        self._enqueue(TupleDelta(-1, fact, BASE_DERIVATION, self._rloc))

    def apply_base_batch(
        self, inserts: Sequence[Fact] = (), deletes: Sequence[Fact] = ()
    ) -> None:
        """Enqueue many base-tuple deltas and process them as one batch.

        Deletions are staged before insertions so key-overwrite sequences
        ("delete the old row, insert the new one") behave as expected.  The
        whole set reaches the evaluator as a single
        :meth:`LocalEvaluator.on_batch` call.
        """
        for fact in deletes:
            self._check_location(fact)
            self._queue.append(TupleDelta(-1, fact, BASE_DERIVATION, self._rloc))
        for fact in inserts:
            self._check_location(fact)
            self._queue.append(TupleDelta(+1, fact, BASE_DERIVATION, self._rloc))
        if self._queue and not self._processing:
            self._drain()

    def has_base(self, fact: Fact) -> bool:
        """Whether *fact* is stored here with its base derivation."""
        return (BASE_DERIVATION, self._rloc) in self.store.derivations(fact)

    def apply_external_derivation(self, effect: DerivationEffect) -> None:
        """Apply a derivation produced outside the local evaluator.

        This is how the legacy-application layer injects derivations inferred
        by "maybe" rules: the proxy builds a :class:`DerivationEffect` (with
        an id from this node's evaluator), and the node records it in (or,
        for a retraction, drops its head from) the evaluator's
        :class:`~repro.engine.evaluator.Firings` and ships it exactly as if
        one of its own rules had fired.
        """
        firings = self.evaluator.firings
        if effect.sign > 0:
            firings.add(effect.firing_id, effect.rule_name, effect.head_fact, effect.body_facts)
        else:
            firings.remove(effect.firing_id, effect.head_fact)
        if self.provenance is not None:
            self.provenance.apply_rule_exec_batch(self.id, [effect])
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
            # Defer draining to a zero-delay simulator event: every message
            # delivered to this node at the same virtual instant lands in the
            # queue first, so one evaluation batch absorbs the whole wave
            # instead of one batch per sender.
            self._schedule_drain()
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
        self.network.simulator.schedule(0.0, self._drain_callback, label=self._drain_label)

    def _fire_drain(self) -> None:
        self._drain_scheduled = False
        if not self._processing and self._queue:
            self._drain()

    def _drain(self) -> None:
        self._processing = True
        try:
            while self._queue:
                batch = list(self._queue)
                self._queue.clear()
                self._apply_batch(batch)
        finally:
            self._processing = False

    def _apply_batch(self, updates: List[TupleDelta]) -> None:
        """Apply a batch of pending updates with one evaluator/provenance pass.

        The store absorbs the whole batch first, each delta as its
        ``(derivation id, rloc)`` pair; the evaluator then sees only the
        *net* presence transitions, and the provenance partition is told
        once, under a single version bump.
        """
        token = None if self.obs is None else self._obs_drain_begin()
        self.stats.updates_processed += len(updates)
        self.stats.batches_processed += 1
        newly_present, disappeared, applied = self.store.apply_delta_batch(
            (update.sign, update.fact, (update.derivation_id, update.rloc)) for update in updates
        )
        effects: List[DerivationEffect] = []
        try:
            if newly_present or disappeared:
                effects = self.evaluator.on_batch(newly_present, disappeared)
        finally:
            # Also when the evaluator raises: the store has absorbed the
            # batch, so the vid index must follow it.
            if self.provenance is not None:
                # Insertions always apply; a retraction applies only if the
                # store held the derivation.
                changed = [update.fact for update, was_applied in zip(updates, applied) if was_applied]
                self.provenance.apply_rule_exec_batch(self.id, effects, changed, newly_present, disappeared)
        self._handle_effects(effects)
        if self.obs is not None:
            self._obs_drain_end(token, len(updates))

    def _handle_effects(self, effects: List[DerivationEffect]) -> None:
        if not effects:
            return
        self._dispatch_effects(effects)
        if self._queue and not self._processing:
            self._drain()

    def _dispatch_effects(self, effects: List[DerivationEffect]) -> None:
        """Turn evaluator effects into queue pushes and outgoing deltas."""
        outgoing: Dict[object, List[TupleDelta]] = {}
        destinations: List[object] = []  # deterministic first-seen order
        rloc = self._rloc
        for effect in effects:
            if effect.sign > 0:
                self.stats.rule_firings += 1
            else:
                self.stats.rule_retractions += 1
            delta = TupleDelta(effect.sign, effect.head_fact, effect.firing_id, rloc)
            if effect.head_location == self.id:
                self._queue.append(delta)
                continue
            self.stats.deltas_sent += 1
            if effect.head_location not in outgoing:
                destinations.append(effect.head_location)
            outgoing.setdefault(effect.head_location, []).append(delta)

        for destination in destinations:
            deltas = outgoing[destination]
            self.stats.messages_sent += 1
            self.network.send(
                Message(
                    sender=self.id,
                    receiver=destination,
                    category=CATEGORY_TUPLE,
                    payload=deltas[0] if len(deltas) == 1 else TupleDeltaBatch(tuple(deltas)),
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
        parent = obs.tracer.current()
        if parent is None:
            return None
        return (parent.as_tuple(), time.perf_counter())

    def _obs_drain_end(self, token: Optional[object], updates: int) -> None:
        obs = self.obs
        if obs is None:
            return
        obs.recorder.record("drain", node=self._id_repr, updates=updates)
        if token is None:
            return
        (trace_id, span_id), start = token
        record = (
            "drain", trace_id, span_id, self._id_repr,
            start, time.perf_counter(), (("updates", updates),),
        )
        obs.tracer.defer(record)

    # -- convenience accessors -------------------------------------------------------

    def facts(self, relation: str) -> List[Fact]:
        """All facts of *relation* stored at this node (sorted for determinism)."""
        return sorted(self.store.facts(relation), key=lambda fact: repr(fact.values))
