"""Worker-process side of the process-pool execution backend.

:class:`~repro.engine.backends.ProcessPoolBackend` forks one OS process per
worker and pins every logical node to exactly one worker (a stable seeded
hash of the node id).  The fork happens while the runtime is being
constructed — after the nodes and links exist, before any event has run —
so each worker starts from a byte-identical copy of every store.  From then
on the contract is:

* the **coordinator** (the parent process) keeps running the simulator, the
  network and the provenance engine exactly as the thread backend does;
* a node's ``_drain`` — the CPU-heavy semi-naive cascade — is shipped to the
  owning worker as ``(node_id, pending_updates)`` over a pipe;
* the worker replays the drain against *its* copy of the node (same store
  bytes, same evaluator, same code ⇒ same cascade) while recording an
  ordered **trace** of every store batch it applied and every effect list
  the evaluator produced;
* the coordinator mirrors the trace against the authoritative store and the
  real provenance engine, and performs the network sends the worker skipped
  — in the exact order a local drain would have, so the observable outcome
  stays bit-identical to the serial backend.

Worker-side provenance is the crux: the worker must ship the same
:class:`~repro.engine.messages.ProvenanceTag` objects a local drain would
have attached to each derivation, but it must not (and need not) maintain a
provenance graph.  Because vertex identifiers are content-addressed
(:mod:`repro.core.keys`), the tag of a rule firing is a pure function of the
effect — :class:`TagRecorder` below computes it statelessly, and the
coordinator asserts the worker's tags match the engine's when it mirrors the
trace (a cheap cross-process divergence detector).
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.keys import rid_for, vid_for
from repro.engine.evaluator import DerivationEffect
from repro.engine.messages import ProvenanceTag, TupleDelta
from repro.engine.tuples import Fact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.engine.node import Node


class TagRecorder:
    """A stateless provenance recorder for worker processes.

    Implements the duck-typed recorder protocol of
    :class:`~repro.engine.node.Node` (see the module docstring there) without
    storing anything: support changes are dropped — the coordinator replays
    them against the real :class:`~repro.core.maintenance.ProvenanceEngine` —
    and rule-execution tags are recomputed from the effect alone, which is
    possible because VIDs and RIDs are content-addressed hashes of the facts
    involved (``ProvenanceEngine.record_rule_exec`` derives its rid from
    exactly the same inputs).
    """

    @staticmethod
    def tag_for(exec_node: object, effect: "DerivationEffect") -> ProvenanceTag:
        child_vids = [vid_for(fact) for fact in effect.body_facts]
        return ProvenanceTag(
            rule_name=effect.rule_name,
            program_name=effect.program_name,
            exec_node=exec_node,
            rid=rid_for(effect.rule_name, exec_node, child_vids),
        )

    def record_rule_exec(self, exec_node: object, effect: "DerivationEffect") -> ProvenanceTag:
        return self.tag_for(exec_node, effect)

    def remove_rule_exec(self, exec_node: object, effect: "DerivationEffect") -> None:
        return None

    def record_support(self, node_id: object, fact: object, derivation_id: str, tag: object) -> None:
        return None

    def remove_support(self, node_id: object, fact: object, derivation_id: str) -> None:
        return None

    def apply_support_batch(self, node_id: object, ops: Sequence[object]) -> None:
        return None

    def apply_rule_exec_batch(
        self, exec_node: object, effects: Sequence["DerivationEffect"]
    ) -> List[Optional[ProvenanceTag]]:
        return [
            self.tag_for(exec_node, effect) if effect.sign > 0 else None for effect in effects
        ]


# ---------------------------------------------------------------------------
# Delta-encoded drain traces
# ---------------------------------------------------------------------------


class TraceCodec:
    """Stateful delta encoding for one direction-pair of a worker pipe.

    Drain requests and traces ship the same facts over and over — churn
    toggles the same links, which re-derive the same routes every round — so
    both pipe ends keep a session-lifetime interning table: the first time a
    fact (or a hot string: rule name, node id) crosses the pipe it travels
    inline and both sides append it to their table; every later occurrence
    travels as a small integer index.

    The two tables stay in lockstep because pipe traffic strictly alternates
    under the channel lock: the coordinator encodes a request envelope, the
    worker decodes it (registering the same new entries in the same order),
    the worker encodes the reply, the coordinator decodes it.  Each side owns
    one codec per pipe and uses it for both encoding and decoding, so the
    shared id space never forks.

    The encoding is value-keyed, which is what makes it beat pickle's
    identity memo: pickle dedups repeated *objects* within one message, the
    codec dedups equal facts across every drain of the session (and across
    the distinct-instance facts a dict-mode store produces).
    """

    def __init__(self) -> None:
        self._fact_ids: Dict[Fact, int] = {}
        self._facts: List[Fact] = []
        self._string_ids: Dict[str, int] = {}
        self._strings: List[str] = []

    # -- scalar encoders ------------------------------------------------------

    def _enc_fact(self, fact: Fact) -> object:
        fid = self._fact_ids.get(fact)
        if fid is not None:
            return fid
        self._fact_ids[fact] = len(self._facts)
        self._facts.append(fact)
        return (fact.relation, fact.values)

    def _dec_fact(self, ref: object) -> Fact:
        if type(ref) is int:
            return self._facts[ref]
        relation, values = ref
        fact = Fact(relation, values)
        self._fact_ids[fact] = len(self._facts)
        self._facts.append(fact)
        return fact

    def _enc_str(self, value: object) -> object:
        """Intern strings; anything else passes through under a raw marker."""
        if type(value) is not str:
            return ("!", value)
        sid = self._string_ids.get(value)
        if sid is not None:
            return sid
        self._string_ids[value] = len(self._strings)
        self._strings.append(value)
        return value

    def _dec_str(self, ref: object) -> object:
        if type(ref) is int:
            return self._strings[ref]
        if type(ref) is tuple:
            return ref[1]
        self._string_ids[ref] = len(self._strings)
        self._strings.append(ref)
        return ref

    # -- composite encoders ---------------------------------------------------

    def _enc_tag(self, tag: Optional[ProvenanceTag]) -> object:
        if tag is None:
            return None
        return (
            self._enc_str(tag.rule_name),
            self._enc_str(tag.program_name),
            self._enc_str(tag.exec_node),
            tag.rid,
        )

    def _dec_tag(self, ref: object) -> Optional[ProvenanceTag]:
        if ref is None:
            return None
        rule_ref, prog_ref, exec_ref, rid = ref
        return ProvenanceTag(
            rule_name=self._dec_str(rule_ref),
            program_name=self._dec_str(prog_ref),
            exec_node=self._dec_str(exec_ref),
            rid=rid,
        )

    def _enc_update(self, update: TupleDelta) -> tuple:
        return (
            update.sign,
            self._enc_fact(update.fact),
            update.derivation_id,
            self._enc_tag(update.provenance),
        )

    def _dec_update(self, enc: tuple) -> TupleDelta:
        sign, fact_ref, derivation_id, tag_ref = enc
        return TupleDelta(
            sign, self._dec_fact(fact_ref), derivation_id, self._dec_tag(tag_ref)
        )

    def _enc_effect(self, effect: DerivationEffect) -> tuple:
        return (
            effect.sign,
            effect.firing_id,
            self._enc_str(effect.rule_name),
            self._enc_str(effect.program_name),
            self._enc_fact(effect.head_fact),
            self._enc_str(effect.head_location),
            tuple(self._enc_fact(fact) for fact in effect.body_facts),
        )

    def _dec_effect(self, enc: tuple) -> DerivationEffect:
        sign, firing_id, rule_ref, prog_ref, head_ref, location_ref, body_refs = enc
        return DerivationEffect(
            sign=sign,
            firing_id=firing_id,
            rule_name=self._dec_str(rule_ref),
            program_name=self._dec_str(prog_ref),
            head_fact=self._dec_fact(head_ref),
            head_location=self._dec_str(location_ref),
            body_facts=tuple(self._dec_fact(ref) for ref in body_refs),
        )

    # -- public surface -------------------------------------------------------

    def encode_updates(self, updates: Sequence[TupleDelta]) -> List[tuple]:
        return [self._enc_update(update) for update in updates]

    def decode_updates(self, encoded: Sequence[tuple]) -> List[TupleDelta]:
        return [self._dec_update(enc) for enc in encoded]

    def encode_trace(self, trace: Sequence[tuple]) -> List[tuple]:
        encoded: List[tuple] = []
        for entry in trace:
            kind = entry[0]
            if kind == "batch":
                encoded.append(("batch", self.encode_updates(entry[1])))
            elif kind == "single":
                encoded.append(("single", self._enc_update(entry[1])))
            elif kind == "effects":
                encoded.append(
                    (
                        "effects",
                        [self._enc_effect(effect) for effect in entry[1]],
                        [self._enc_tag(tag) for tag in entry[2]],
                    )
                )
            elif kind == "spans":
                # Worker-side observability spans (repro.obs.tracing.SpanRecord):
                # already primitives-only, so they travel verbatim.
                encoded.append(entry)
            else:  # pragma: no cover - new trace kinds must extend the codec
                raise ValueError(f"unknown trace entry kind {kind!r}")
        return encoded

    def decode_trace(self, encoded: Sequence[tuple]) -> List[tuple]:
        trace: List[tuple] = []
        for entry in encoded:
            kind = entry[0]
            if kind == "batch":
                trace.append(("batch", self.decode_updates(entry[1])))
            elif kind == "single":
                trace.append(("single", self._dec_update(entry[1])))
            elif kind == "effects":
                trace.append(
                    (
                        "effects",
                        [self._dec_effect(enc) for enc in entry[1]],
                        [self._dec_tag(ref) for ref in entry[2]],
                    )
                )
            elif kind == "spans":
                trace.append(entry)
            else:  # pragma: no cover - symmetrical with encode_trace
                raise ValueError(f"unknown trace entry kind {kind!r}")
        return trace


def dump_envelope(envelope: object) -> bytes:
    """Serialise one pipe envelope (explicit so byte counts are observable)."""
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)


def load_envelope(blob: bytes) -> object:
    return pickle.loads(blob)


def bootstrap_worker(nodes: Dict[object, "Node"], owned_ids: Sequence[object]) -> Dict[object, "Node"]:
    """Prepare the forked copy of the runtime for serving drain requests.

    Only the nodes in *owned_ids* are ever drained here.  Their queues are
    cleared (whatever the fork captured in-flight is still queued on the
    coordinator side and arrives with the next drain request), the remote
    hook and scheduling flags are reset so ``_drain`` runs the real local
    cascade, and the provenance recorder is swapped for the stateless
    :class:`TagRecorder`.
    """
    owned: Dict[object, "Node"] = {}
    for node_id in owned_ids:
        node = nodes[node_id]
        node._remote_drain = None
        node._queue.clear()
        node._drain_scheduled = False
        node._processing = False
        if node.provenance is not None:
            node.provenance = TagRecorder()
        owned[node_id] = node
    return owned


def worker_main(conn: "Connection", nodes: Dict[object, "Node"], owned_ids: Sequence[object]) -> None:
    """Serve drain envelopes until the coordinator sends the ``None`` sentinel.

    Each request envelope carries every same-worker drain the coordinator
    had queued when the pipe came free: ``("drains", [(node_id, updates[,
    trace_ctx]), ...])`` with codec-encoded updates (``trace_ctx`` is the
    coordinator's ambient observability context, shipped only while tracing
    is on), or ``("raw", ...)`` with plain pickled updates (the
    ``trace_delta=False`` ablation).  The reply is
    ``("ok", [trace, ...])`` — one trace per drain, in request order — or
    ``("error", message)``, which the coordinator turns into an
    :class:`~repro.errors.EngineError`.

    Codec discipline: every request in the envelope is decoded *before* any
    reply encoding starts, and traces are encoded in drain order — the
    coordinator mirrors this exactly, which is what keeps the two interning
    tables identical.  The worker exits via :func:`os._exit` so the fork's
    inherited file buffers (WAL-less by construction, but e.g. pytest's
    capture pipes) are never double-flushed.
    """
    owned = bootstrap_worker(nodes, owned_ids)
    codec = TraceCodec()

    def run_drain(
        node: "Node",
        updates: List[TupleDelta],
        ctx: Optional[Tuple[str, str]] = None,
    ) -> List[tuple]:
        # ctx is the coordinator's ambient (trace_id, span_id) for this drain;
        # the node's _obs_drain_begin parents its worker-side span to it and
        # ships the span home as a ("spans", ...) trace entry.
        node._queue.extend(updates)
        node._trace = []
        node._obs_drain_ctx = ctx
        try:
            node._drain()
            return node._trace
        finally:
            node._trace = None
            node._obs_drain_ctx = None

    try:
        while True:
            envelope = load_envelope(conn.recv_bytes())
            if envelope is None:
                break
            kind, items = envelope
            try:
                if kind == "drains":
                    requests = [
                        (
                            codec._dec_str(item[0]),
                            codec.decode_updates(item[1]),
                            item[2] if len(item) > 2 else None,
                        )
                        for item in items
                    ]
                    traces = [
                        codec.encode_trace(run_drain(owned[node_id], updates, ctx))
                        for node_id, updates, ctx in requests
                    ]
                else:  # "raw": the trace_delta=False ablation path
                    traces = [
                        run_drain(owned[item[0]], item[1], item[2] if len(item) > 2 else None)
                        for item in items
                    ]
                reply: Tuple[str, object] = ("ok", traces)
            except Exception as exc:  # pragma: no cover - shipped to the coordinator
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send_bytes(dump_envelope(reply))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - coordinator went away
        pass
    finally:
        conn.close()
        os._exit(0)
