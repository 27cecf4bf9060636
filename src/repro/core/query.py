"""ExSPAN distributed provenance query engine.

Provenance is stored as distributed ``prov`` / ``ruleExec`` tables, so
answering a query requires a *distributed traversal* of the provenance graph:
the query starts at the node storing the queried tuple, follows its ``prov``
entries to the nodes where the deriving rules fired, expands the rule
executions' input tuples there, and so on recursively.  Partial results are
combined bottom-up by the query's reducer (see :mod:`repro.core.queries`) and
travel back as reply messages.

Every hop is a real message through the simulated network, so the traffic
statistics reported by :class:`DistributedQueryEngine.query` measure exactly
the "network traffic" the paper's optimisation discussion refers to, and the
optimisations of :mod:`repro.core.optimizations` (caching, traversal order,
threshold pruning) visibly reduce it.  Cache entries are validated against
per-VID reachability versions maintained incrementally by the provenance
engine, so deltas that cannot affect a queried subtree leave its cached
sub-results usable — the point of the incremental-invalidation design.

Parallel traversal (the default) is a true single-round fan-out: all child
requests of a step are issued at once, requests to the same remote node
share one :class:`QueryRequestBatch` message, and their replies return as
one :class:`QueryReplyBatch` — minimising both communication rounds
(:attr:`QueryStats.rounds <repro.core.results.QueryStats>`) and per-peer
message count.  Sequential traversal instead dispatches one alternative at
a time so threshold pruning can skip the rest.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import QueryError
from repro.engine.messages import (
    CATEGORY_PROVENANCE_QUERY,
    CATEGORY_PROVENANCE_REPLY,
)
from repro.engine.node import Node
from repro.engine.tuples import Fact
from repro.core.keys import BASE_RID, vid_for
from repro.core.maintenance import NodeProvenanceStore, ProvenanceEngine
from repro.core.optimizations import (
    DEFAULT_CACHE_CAPACITY,
    NodeQueryCache,
    QueryOptions,
    TRAVERSAL_SEQUENTIAL,
)
from repro.core.queries import (
    BUILTIN_REDUCERS,
    ExecRef,
    QueryReducer,
    QUERY_COUNT,
    QUERY_LINEAGE,
    QUERY_PARTICIPANTS,
    QUERY_SUBGRAPH,
)
from repro.core.results import QueryResult, QueryStats, TupleRef
from repro.obs.tracing import Span, TraceContext

_REQUEST_KIND_TUPLE = "tuple"
_REQUEST_KIND_EXEC = "exec"

_ROOT_MARKER = "__root__"


@dataclass(frozen=True)
class QueryRequest:
    """A traversal step shipped to another node.

    ``trace`` is the requester's observability span context
    (``(trace_id, span_id)``), carried in-band so the responding node's
    frame span parents correctly; it is ``None`` whenever tracing is off
    and is *never* rendered in the repr, so
    :meth:`~repro.engine.messages.Message.size_estimate` — and with it the
    byte statistics of every determinism contract — is identical whether
    observability is enabled or not.
    """

    query_id: str
    request_id: str
    kind: str  # "tuple" (resolve a tuple's provenance) or "exec" (expand a rule execution)
    target: str  # vid or rid
    mode: str
    options: QueryOptions
    depth: int
    reply_to: object
    trace: Optional[Tuple[str, str]] = None

    def __repr__(self) -> str:
        # Byte-identical to the generated dataclass repr before the trace
        # field existed (wire-byte accounting must not see observability).
        return (
            f"QueryRequest(query_id={self.query_id!r}, request_id={self.request_id!r}, "
            f"kind={self.kind!r}, target={self.target!r}, mode={self.mode!r}, "
            f"options={self.options!r}, depth={self.depth!r}, reply_to={self.reply_to!r})"
        )


@dataclass(frozen=True)
class QueryRequestBatch:
    """Every traversal sub-request one node sends to one peer in one round.

    Parallel traversal (``TRAVERSAL_PARALLEL``) expands all alternative
    derivations of a step at once; the requests that target the same remote
    node travel together in a single message, so a fan-out of *k* subtasks to
    one peer costs one message instead of *k* — this is how parallel
    traversal trades network messages for communication rounds.
    """

    requests: Tuple[QueryRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class QueryReply:
    """The combined sub-result for one traversal step.

    ``version`` is the queried vertex's reachability version *captured when
    the responding node started computing* (``None`` for rule-execution
    sub-results).  Carrying it in the reply lets the requesting node cache
    the result soundly: if the subtree changed while the reply was in
    flight, the current version has already moved past the carried one and
    the entry can never be served.
    """

    query_id: str
    request_id: str
    value: object
    truncated: bool
    visited: FrozenSet[object]
    cache_hits: int
    version: Optional[int] = None


@dataclass(frozen=True)
class QueryReplyBatch:
    """The replies to a :class:`QueryRequestBatch`, shipped as one message."""

    replies: Tuple[QueryReply, ...]

    def __len__(self) -> int:
        return len(self.replies)


@dataclass(frozen=True)
class IntervalRequest:
    """One wave of interval-index work for one partition.

    Where the traversal path ships one request per child derivation, the
    interval path ships *one message per partition per wave*, carrying the
    frontier targets of **every** root the batch is answering: ``targets``
    holds ``(root index, tuple vids, exec rids)`` triples.  The partition
    answers each root's targets with a single range-scan closure over its
    label table.
    """

    query_id: str
    request_id: str
    mode: str
    targets: Tuple[Tuple[int, Tuple[str, ...], Tuple[str, ...]], ...]
    reply_to: object
    #: Coordinator span context (see :class:`QueryRequest.trace`); omitted
    #: from the repr so byte accounting is unaffected by observability.
    trace: Optional[Tuple[str, str]] = None

    def __repr__(self) -> str:
        return (
            f"IntervalRequest(query_id={self.query_id!r}, request_id={self.request_id!r}, "
            f"mode={self.mode!r}, targets={self.targets!r}, reply_to={self.reply_to!r})"
        )


@dataclass(frozen=True)
class IntervalRootResult:
    """One root's share of a partition's interval-closure answer.

    ``value`` holds the root's local contributions (base-tuple refs for
    lineage, nothing — the partition id travels implicitly — beyond the
    partition for participants); ``frontier`` lists the remote rule
    executions ``(partition, rid)`` discovered by the scan, which become the
    next wave's targets at their partitions.
    """

    root_index: int
    value: object
    frontier: Tuple[Tuple[object, str], ...]
    truncated: bool


@dataclass(frozen=True)
class IntervalReply:
    """A partition's batched answer to one :class:`IntervalRequest`."""

    query_id: str
    request_id: str
    location: object
    results: Tuple[IntervalRootResult, ...]


@dataclass
class _IntervalRoot:
    """Coordinator-side accumulation state for one root of an interval batch."""

    root_key: str
    value: set = field(default_factory=set)
    visited: set = field(default_factory=set)
    truncated: bool = False
    #: (partition, kind, id) triples ever enqueued, so a frontier entry that
    #: resurfaces (shared sub-DAGs) is expanded at most once per root.
    seen: set = field(default_factory=set)
    #: partition -> (vids to expand, rids to expand) for the next wave.
    pending: Dict[object, Tuple[set, set]] = field(default_factory=dict)


@dataclass
class _IntervalBatch:
    """Coordinator-side state for one batched interval query."""

    query_id: str
    mode: str
    roots: List[_IntervalRoot]
    outstanding: int = 0


@dataclass
class _ReplyCollector:
    """Accumulates the replies for one received request batch.

    The reply batch is sent once every sub-frame spawned by the request batch
    has completed, mirroring the single fan-out message on the request side.
    """

    reply_to: object
    expected: int
    replies: List[QueryReply] = field(default_factory=list)


@dataclass
class _Bundle:
    """A sub-result plus its bookkeeping, as it travels up the traversal."""

    value: object
    truncated: bool = False
    visited: FrozenSet[object] = frozenset()
    cache_hits: int = 0
    #: Reachability version of the sub-result's root vertex at computation
    #: start (tuple sub-results only); what remote caches tag entries with.
    version: Optional[int] = None


@dataclass
class _Subtask:
    kind: str  # "immediate", "local-exec", "local-tuple", "remote-exec", "remote-tuple"
    bundle: Optional[_Bundle] = None
    target: Optional[str] = None      # vid or rid for local/remote subtasks
    remote_node: Optional[object] = None


@dataclass
class _Frame:
    frame_id: str
    kind: str  # "tuple" or "exec"
    target: str
    mode: str
    options: QueryOptions
    depth: int
    tuple_ref: Optional[TupleRef] = None
    exec_ref: Optional[ExecRef] = None
    subtasks: List[_Subtask] = field(default_factory=list)
    collected: List[Optional[_Bundle]] = field(default_factory=list)
    cursor: int = 0
    outstanding: int = 0
    truncated: bool = False
    cached_bundle: Optional[_Bundle] = None
    #: The target vid's reachability version captured at frame creation,
    #: *before* any provenance rows are read.  Completed results are stored
    #: under this version: if churn raced the traversal, the current version
    #: has already advanced and the entry is stillborn — conservative, never
    #: stale.  ``None`` for exec frames (only tuple results are cached).
    version_at_start: Optional[int] = None
    parent: Optional[Tuple[str, int]] = None  # (parent frame id, slot index)
    remote_reply: Optional[Tuple[object, str, str]] = None  # (reply_to, query_id, request_id)
    reply_batch: Optional[Tuple["_ReplyCollector", str, str]] = None  # (collector, query_id, request_id)
    root_key: Optional[str] = None
    query_id: str = ""
    #: Observability span covering this frame's lifetime (``None`` while
    #: tracing is off); finished by ``_complete``.
    span: Optional[Span] = None


class QueryAgent:
    """The per-node part of the distributed query engine.

    One agent runs at every node; it resolves traversal steps against the
    node's partition of the provenance tables, spawns local sub-frames or
    remote sub-requests, and combines the results with the query's reducer.
    """

    def __init__(self, node: Node, engine: "DistributedQueryEngine"):
        self.node = node
        self.engine = engine
        self.obs = getattr(engine.runtime, "obs", None)
        self.cache = NodeQueryCache(
            capacity=engine.cache_capacity,
            version_fn=engine.entry_version,
            clock_fn=engine.global_version,
        )
        self._frames: Dict[str, _Frame] = {}
        self._frame_seq = itertools.count(1)
        self._request_seq = itertools.count(1)
        self._pending_remote: Dict[str, Tuple[str, int]] = {}
        self._root_keys: Dict[str, str] = {}
        #: request id -> (vid, mode, options) of an issued remote root, kept
        #: so the reply — which carries the version it was computed at — can
        #: be cached here at the issuing node.
        self._root_meta: Dict[str, Tuple[str, str, QueryOptions]] = {}
        #: Interval-path coordinator state: query id -> batch, and in-flight
        #: request id -> query id (this agent as the batch's coordinator).
        self._interval_batches: Dict[str, _IntervalBatch] = {}
        self._interval_pending: Dict[str, str] = {}
        node.register_handler(CATEGORY_PROVENANCE_QUERY, self._on_query)
        node.register_handler(CATEGORY_PROVENANCE_REPLY, self._on_reply)

    # -- helpers ---------------------------------------------------------------

    @property
    def _pstore(self) -> NodeProvenanceStore:
        return self.engine.provenance.store(self.node.id)

    def _new_frame_id(self) -> str:
        return f"{self.node.id}/f{next(self._frame_seq)}"

    def _new_request_id(self) -> str:
        return f"{self.node.id}/r{next(self._request_seq)}"

    def _reducer(self, mode: str) -> QueryReducer:
        return self.engine.reducer(mode)

    def _tracing(self) -> bool:
        return self.obs is not None and self.obs.tracing

    def _frame_span(self, frame: _Frame, parent: Union[None, Span, TraceContext]) -> None:
        """Open the observability span for *frame* (no-op while tracing is off).

        *parent* is the requesting side's span or shipped context; ``None``
        falls back to the tracer's ambient context (the engine-level query
        root), and a frame with no resolvable parent stays span-less so a
        trace never contains orphans.
        """
        if not self._tracing():
            return
        tracer = self.obs.tracer
        if parent is None:
            parent = tracer.current()
        if parent is None:
            return
        frame.span = tracer.start_span(
            f"frame.{frame.kind}",
            parent=parent,
            node=repr(self.node.id),
            target=frame.target,
            depth=frame.depth,
        )

    def _request_trace(self, frame: _Frame) -> Optional[Tuple[str, str]]:
        """The span context outgoing requests of *frame* should carry."""
        if not self._tracing():
            return None
        if frame.span is not None:
            return frame.span.context().as_tuple()
        current = self.obs.tracer.current()
        return current.as_tuple() if current is not None else None

    def _tuple_ref(self, vid: str) -> TupleRef:
        store = self._pstore
        if store.knows_tuple(vid):
            relation, values = store.tuple_info(vid)
        else:
            relation, values = "<unknown>", (vid,)
        return TupleRef(relation=relation, values=values, location=self.node.id)

    # -- root entry points --------------------------------------------------------

    def start_root(self, query_id: str, vid: str, mode: str, options: QueryOptions, root_key: str) -> None:
        """Start a query for a tuple stored at this node (no network hop needed)."""
        frame = self._make_tuple_frame(query_id, vid, mode, options, depth=0)
        frame.root_key = root_key
        self._frame_span(frame, None)
        self._activate(frame)

    def start_remote_root(
        self,
        query_id: str,
        vid: str,
        home_node: object,
        mode: str,
        options: QueryOptions,
        root_key: str,
    ) -> None:
        """Issue a query from this node for a tuple stored at *home_node*.

        Replies to earlier issuances are cached locally (tagged with the
        version they were computed at, carried in the reply), so a repeat
        query for an unchanged subtree is answered without any network hop.
        """
        if options.use_cache:
            cached = self.cache.lookup(vid, mode, options, self.engine.entry_version(vid))
            if cached is not None:
                self.engine._finish_root(
                    root_key,
                    _Bundle(
                        value=cached,
                        visited=frozenset({self.node.id}),
                        cache_hits=1,
                    ),
                )
                return
        request_id = self._new_request_id()
        self._pending_remote[request_id] = (_ROOT_MARKER, 0)
        self._root_keys[request_id] = root_key
        self._root_meta[request_id] = (vid, mode, options)
        trace = None
        if self._tracing():
            current = self.obs.tracer.current()
            trace = current.as_tuple() if current is not None else None
        self.node.send(
            home_node,
            CATEGORY_PROVENANCE_QUERY,
            QueryRequest(
                query_id=query_id,
                request_id=request_id,
                kind=_REQUEST_KIND_TUPLE,
                target=vid,
                mode=mode,
                options=options,
                depth=0,
                reply_to=self.node.id,
                trace=trace,
            ),
        )

    # -- message handlers ------------------------------------------------------------

    def _on_query(self, message) -> None:
        payload = message.payload
        if isinstance(payload, IntervalRequest):
            self._on_interval_request(payload)
            return
        if isinstance(payload, QueryRequestBatch):
            requests: Tuple[QueryRequest, ...] = payload.requests
        else:
            requests = (payload,)
        collector: Optional[_ReplyCollector] = None
        if len(requests) > 1:
            collector = _ReplyCollector(reply_to=requests[0].reply_to, expected=len(requests))
        for request in requests:
            if request.kind == _REQUEST_KIND_TUPLE:
                frame = self._make_tuple_frame(
                    request.query_id, request.target, request.mode, request.options, request.depth
                )
            else:
                frame = self._make_exec_frame(
                    request.query_id, request.target, request.mode, request.options, request.depth
                )
            if collector is not None:
                frame.reply_batch = (collector, request.query_id, request.request_id)
            else:
                frame.remote_reply = (request.reply_to, request.query_id, request.request_id)
            self._frame_span(frame, TraceContext.from_tuple(request.trace))
            self._activate(frame)

    def _on_reply(self, message) -> None:
        payload = message.payload
        if isinstance(payload, IntervalReply):
            self._on_interval_reply(payload)
            return
        if isinstance(payload, QueryReplyBatch):
            for reply in payload.replies:
                self._handle_reply(reply)
        else:
            self._handle_reply(payload)

    def _handle_reply(self, reply: QueryReply) -> None:
        pending = self._pending_remote.pop(reply.request_id, None)
        if pending is None:
            return
        bundle = _Bundle(
            value=reply.value,
            truncated=reply.truncated,
            visited=reply.visited,
            cache_hits=reply.cache_hits,
            version=reply.version,
        )
        frame_id, slot = pending
        if frame_id == _ROOT_MARKER:
            root_key = self._root_keys.pop(reply.request_id)
            meta = self._root_meta.pop(reply.request_id, None)
            if (
                meta is not None
                and meta[2].use_cache
                and not reply.truncated
                and reply.version is not None
            ):
                vid, mode, options = meta
                self.cache.store(vid, mode, options, reply.version, reply.value)
            bundle.visited = bundle.visited | frozenset({self.node.id})
            self.engine._finish_root(root_key, bundle)
            return
        frame = self._frames.get(frame_id)
        if frame is None:
            return
        self._deliver(frame, slot, bundle)

    # -- interval-index query path ---------------------------------------------------------
    #
    # This agent acts as the *coordinator* of a batch of roots: it keeps one
    # accumulator per root, repeatedly groups every root's frontier by
    # partition, and ships ONE IntervalRequest per partition per wave — the
    # partitions answer each root with a single range-scan closure over their
    # interval label tables (see repro.core.interval_index).  Targets landing
    # on the coordinator's own partition are drained locally without a
    # message.  Values and truncation flags are always computed from the live
    # store rows, so the answers are bit-identical to the traversal path.

    def start_interval_batch(
        self, query_id: str, mode: str, roots: Sequence[Tuple[str, str, object]]
    ) -> None:
        """Coordinate an interval-path batch of (root_key, vid, home) roots."""
        batch = _IntervalBatch(query_id=query_id, mode=mode, roots=[])
        for root_key, vid, home in roots:
            root = _IntervalRoot(root_key=root_key)
            root.visited.add(self.node.id)
            root.seen.add((home, "t", vid))
            vids, _rids = root.pending.setdefault(home, (set(), set()))
            vids.add(vid)
            batch.roots.append(root)
        self._interval_batches[query_id] = batch
        self._interval_continue(batch)

    def _interval_continue(self, batch: _IntervalBatch) -> None:
        # Drain targets on the coordinator's own partition without a network
        # hop; doing so can surface new local frontier entries, so loop.
        while True:
            local_targets: List[Tuple[int, Tuple[str, ...], Tuple[str, ...]]] = []
            for index, root in enumerate(batch.roots):
                entry = root.pending.pop(self.node.id, None)
                if entry is not None:
                    local_targets.append(
                        (index, tuple(sorted(entry[0])), tuple(sorted(entry[1])))
                    )
            if not local_targets:
                break
            for result in self._interval_partition_results(batch.mode, local_targets):
                self._interval_absorb(batch, result, self.node.id)
        # One message per partition carrying every root's remaining targets.
        by_partition: Dict[object, List[Tuple[int, Tuple[str, ...], Tuple[str, ...]]]] = {}
        for index, root in enumerate(batch.roots):
            pending, root.pending = root.pending, {}
            for partition, (vids, rids) in pending.items():
                by_partition.setdefault(partition, []).append(
                    (index, tuple(sorted(vids)), tuple(sorted(rids)))
                )
        if not by_partition:
            self._interval_finish(batch)
            return
        batch.outstanding = len(by_partition)
        trace = None
        if self._tracing():
            current = self.obs.tracer.current()
            trace = current.as_tuple() if current is not None else None
        for partition in sorted(by_partition, key=repr):
            request_id = self._new_request_id()
            self._interval_pending[request_id] = batch.query_id
            self.node.send(
                partition,
                CATEGORY_PROVENANCE_QUERY,
                IntervalRequest(
                    query_id=batch.query_id,
                    request_id=request_id,
                    mode=batch.mode,
                    targets=tuple(by_partition[partition]),
                    reply_to=self.node.id,
                    trace=trace,
                ),
            )

    def _interval_absorb(
        self, batch: _IntervalBatch, result: IntervalRootResult, partition: object
    ) -> None:
        root = batch.roots[result.root_index]
        root.value |= result.value
        root.truncated = root.truncated or result.truncated
        root.visited.add(partition)
        for rloc, rid in result.frontier:
            token = (rloc, "x", rid)
            if token in root.seen:
                continue
            root.seen.add(token)
            _vids, rids = root.pending.setdefault(rloc, (set(), set()))
            rids.add(rid)

    def _interval_finish(self, batch: _IntervalBatch) -> None:
        self._interval_batches.pop(batch.query_id, None)
        for root in batch.roots:
            self.engine._finish_root(
                root.root_key,
                _Bundle(
                    value=frozenset(root.value),
                    truncated=root.truncated,
                    visited=frozenset(root.visited),
                    cache_hits=0,
                ),
            )

    def _on_interval_request(self, request: IntervalRequest) -> None:
        span = None
        if self._tracing() and request.trace is not None:
            span = self.obs.tracer.start_span(
                "interval.partition",
                parent=TraceContext.from_tuple(request.trace),
                node=repr(self.node.id),
                targets=len(request.targets),
            )
        results = self._interval_partition_results(request.mode, request.targets)
        if span is not None:
            span.finish(results=len(results))
        self.node.send(
            request.reply_to,
            CATEGORY_PROVENANCE_REPLY,
            IntervalReply(
                query_id=request.query_id,
                request_id=request.request_id,
                location=self.node.id,
                results=tuple(results),
            ),
        )

    def _on_interval_reply(self, reply: IntervalReply) -> None:
        query_id = self._interval_pending.pop(reply.request_id, None)
        if query_id is None:
            return
        batch = self._interval_batches.get(query_id)
        if batch is None:
            return
        for result in reply.results:
            self._interval_absorb(batch, result, reply.location)
        batch.outstanding -= 1
        if batch.outstanding == 0:
            self._interval_continue(batch)

    def _interval_partition_results(
        self, mode: str, targets: Sequence[Tuple[int, Tuple[str, ...], Tuple[str, ...]]]
    ) -> List[IntervalRootResult]:
        """Answer one wave of targets against this partition's interval index.

        The index provides only *reachability* (one range-scan closure per
        root); every value and truncation decision is made against the live
        ``prov`` / ``ruleExec`` rows, mirroring the traversal reducers
        exactly:

        * a reached tuple with no prov rows is a leaf (its own ref for
          lineage);
        * a BASE prov row contributes the tuple's ref (lineage);
        * a local non-BASE prov row whose rule execution is gone means the
          firing was retracted mid-flight — empty and truncated, exactly
          like the traversal's retracted-exec frame;
        * a remote prov row becomes a frontier entry for the rid's
          partition;
        * for participants, processing any target here contributes this
          partition (every traversal frame at a node adds that node).
        """
        store = self._pstore
        index = store.interval_index()
        index.ensure_ready()
        results: List[IntervalRootResult] = []
        for root_index, vids, rids in targets:
            keys = [("t", vid) for vid in vids] + [("x", rid) for rid in rids]
            reached, missing = index.closure(keys)
            truncated = False
            items: set = set()
            frontier: set = set()
            for rid in rids:
                if not store.has_rule_exec(rid):
                    truncated = True
            for key in missing:
                kind, ident = key
                if kind == "t" and not store.prov_entries(ident):
                    # Legitimate leaf the index has never needed to see.
                    if mode == QUERY_LINEAGE:
                        items.add(self._tuple_ref(ident))
                elif kind == "t" or store.has_rule_exec(ident):
                    truncated = True  # index raced the store: answer conservatively
            for key in reached:
                kind, ident = key
                if kind != "t":
                    continue
                rows = store.prov_entries(ident)
                if not rows:
                    if mode == QUERY_LINEAGE:
                        items.add(self._tuple_ref(ident))
                    continue
                for rid, rloc in rows:
                    if rid == BASE_RID:
                        if mode == QUERY_LINEAGE:
                            items.add(self._tuple_ref(ident))
                    elif rloc == self.node.id:
                        if not store.has_rule_exec(rid):
                            truncated = True
                    else:
                        frontier.add((rloc, rid))
            if mode == QUERY_PARTICIPANTS:
                items.add(self.node.id)
            results.append(
                IntervalRootResult(
                    root_index=root_index,
                    value=frozenset(items),
                    frontier=tuple(
                        sorted(frontier, key=lambda item: (repr(item[0]), item[1]))
                    ),
                    truncated=truncated,
                )
            )
        return results

    # -- frame construction -------------------------------------------------------------

    def _make_tuple_frame(
        self, query_id: str, vid: str, mode: str, options: QueryOptions, depth: int
    ) -> _Frame:
        frame = _Frame(
            frame_id=self._new_frame_id(),
            kind="tuple",
            target=vid,
            mode=mode,
            options=options,
            depth=depth,
            tuple_ref=self._tuple_ref(vid),
            query_id=query_id,
        )
        self._frames[frame.frame_id] = frame
        reducer = self._reducer(mode)

        # Captured before any provenance rows are read: the completed result
        # is stored under this version, so a concurrent subtree change (which
        # bumps the current version past it) can never be masked.
        frame.version_at_start = self.engine.entry_version(vid)
        if options.use_cache:
            cached = self.cache.lookup(vid, mode, options, frame.version_at_start)
            if cached is not None:
                frame.cached_bundle = _Bundle(
                    value=cached,
                    truncated=False,
                    visited=frozenset({self.node.id}),
                    cache_hits=1,
                    version=frame.version_at_start,
                )
                return frame

        if options.max_depth is not None and depth > options.max_depth:
            frame.truncated = True
            return frame  # no subtasks: treated as a leaf

        for rid, rloc in self._pstore.prov_entries(vid):
            if rid == BASE_RID:
                bundle = _Bundle(
                    value=reducer.base_value(frame.tuple_ref),
                    visited=frozenset({self.node.id}),
                )
                frame.subtasks.append(_Subtask(kind="immediate", bundle=bundle))
            elif rloc == self.node.id:
                frame.subtasks.append(_Subtask(kind="local-exec", target=rid))
            else:
                frame.subtasks.append(_Subtask(kind="remote-exec", target=rid, remote_node=rloc))
        frame.collected = [None] * len(frame.subtasks)
        return frame

    def _make_exec_frame(
        self, query_id: str, rid: str, mode: str, options: QueryOptions, depth: int
    ) -> _Frame:
        frame = _Frame(
            frame_id=self._new_frame_id(),
            kind="exec",
            target=rid,
            mode=mode,
            options=options,
            depth=depth,
            query_id=query_id,
        )
        self._frames[frame.frame_id] = frame
        store = self._pstore
        if not store.has_rule_exec(rid):
            # The firing was retracted while the query was in flight; report an
            # empty, truncated sub-result rather than failing the whole query.
            frame.truncated = True
            frame.exec_ref = ExecRef(rid=rid, rule_name="<retracted>", program_name="", location=self.node.id)
            return frame
        entry = store.rule_exec(rid)
        frame.exec_ref = ExecRef(
            rid=rid,
            rule_name=entry.rule_name,
            program_name=entry.program_name,
            location=self.node.id,
        )
        for child_vid in entry.child_vids:
            frame.subtasks.append(_Subtask(kind="local-tuple", target=child_vid))
        frame.collected = [None] * len(frame.subtasks)
        return frame

    # -- frame execution -------------------------------------------------------------------

    def _activate(self, frame: _Frame) -> None:
        if frame.cached_bundle is not None:
            self._complete(frame, frame.cached_bundle)
            return
        if not frame.subtasks:
            self._complete(frame, self._combine(frame))
            return
        if frame.options.traversal == TRAVERSAL_SEQUENTIAL:
            self._dispatch_next(frame)
            return
        # Parallel traversal: expand every alternative at once.  Remote
        # subtasks targeting the same peer are grouped into one
        # QueryRequestBatch, so the whole fan-out costs one message per
        # distinct destination and one communication round in total.
        frame.outstanding = len(frame.subtasks)
        frame.cursor = len(frame.subtasks)
        remote_groups: Dict[object, List[int]] = {}
        remote_order: List[object] = []
        for index, subtask in enumerate(frame.subtasks):
            if subtask.kind == "remote-exec":
                if subtask.remote_node not in remote_groups:
                    remote_order.append(subtask.remote_node)
                remote_groups.setdefault(subtask.remote_node, []).append(index)
            else:
                self._execute_subtask(frame, index)
        for destination in remote_order:
            self._send_remote_batch(frame, destination, remote_groups[destination])

    def _send_remote_batch(self, frame: _Frame, destination: object, indexes: List[int]) -> None:
        """Ship the given remote subtasks of *frame* to one peer in one message."""
        trace = self._request_trace(frame)
        requests: List[QueryRequest] = []
        for index in indexes:
            subtask = frame.subtasks[index]
            request_id = self._new_request_id()
            self._pending_remote[request_id] = (frame.frame_id, index)
            requests.append(
                QueryRequest(
                    query_id=frame.query_id,
                    request_id=request_id,
                    kind=_REQUEST_KIND_EXEC,
                    target=subtask.target,
                    mode=frame.mode,
                    options=frame.options,
                    depth=frame.depth,
                    reply_to=self.node.id,
                    trace=trace,
                )
            )
        payload: object = requests[0] if len(requests) == 1 else QueryRequestBatch(tuple(requests))
        self.node.send(destination, CATEGORY_PROVENANCE_QUERY, payload)

    def _dispatch_next(self, frame: _Frame) -> None:
        index = frame.cursor
        frame.cursor += 1
        frame.outstanding += 1
        self._execute_subtask(frame, index)

    def _execute_subtask(self, frame: _Frame, index: int) -> None:
        subtask = frame.subtasks[index]
        if subtask.kind == "immediate":
            self._deliver(frame, index, subtask.bundle)
            return
        if subtask.kind == "local-exec":
            child = self._make_exec_frame(
                frame.query_id, subtask.target, frame.mode, frame.options, frame.depth
            )
            child.parent = (frame.frame_id, index)
            self._frame_span(child, frame.span)
            self._activate(child)
            return
        if subtask.kind == "local-tuple":
            child = self._make_tuple_frame(
                frame.query_id, subtask.target, frame.mode, frame.options, frame.depth + 1
            )
            child.parent = (frame.frame_id, index)
            self._frame_span(child, frame.span)
            self._activate(child)
            return
        # remote-exec (rule fired at another node): a singleton batch, which
        # _send_remote_batch ships as a bare QueryRequest.
        self._send_remote_batch(frame, subtask.remote_node, [index])

    def _deliver(self, frame: _Frame, index: int, bundle: _Bundle) -> None:
        frame.collected[index] = bundle
        frame.outstanding -= 1
        if frame.outstanding > 0:
            return
        if self._threshold_met(frame):
            if frame.cursor < len(frame.subtasks):
                frame.truncated = True  # pruning skipped the remaining alternatives
            self._complete(frame, self._combine(frame))
            return
        if frame.cursor < len(frame.subtasks):
            self._dispatch_next(frame)
            return
        self._complete(frame, self._combine(frame))

    def _threshold_met(self, frame: _Frame) -> bool:
        if frame.options.threshold is None:
            return False
        reducer = self._reducer(frame.mode)
        partial = self._combine(frame)
        return reducer.size(partial.value) >= frame.options.threshold

    def _combine(self, frame: _Frame) -> _Bundle:
        reducer = self._reducer(frame.mode)
        bundles = [bundle for bundle in frame.collected if bundle is not None]
        values = [bundle.value for bundle in bundles]
        visited: FrozenSet[object] = frozenset({self.node.id})
        truncated = frame.truncated
        cache_hits = 0
        for bundle in bundles:
            visited |= bundle.visited
            truncated = truncated or bundle.truncated
            cache_hits += bundle.cache_hits
        if frame.kind == "tuple":
            value = reducer.tuple_value(frame.tuple_ref, values)
        else:
            value = reducer.exec_value(frame.exec_ref, values)
        return _Bundle(
            value=value,
            truncated=truncated,
            visited=visited,
            cache_hits=cache_hits,
            version=frame.version_at_start,
        )

    def _complete(self, frame: _Frame, bundle: _Bundle) -> None:
        self._frames.pop(frame.frame_id, None)
        if frame.span is not None:
            frame.span.finish(
                truncated=bundle.truncated,
                cache_hits=bundle.cache_hits,
                subtasks=len(frame.subtasks),
            )
        if (
            frame.kind == "tuple"
            and frame.options.use_cache
            and not bundle.truncated
            and frame.cached_bundle is None
            and frame.version_at_start is not None
        ):
            self.cache.store(
                frame.target,
                frame.mode,
                frame.options,
                frame.version_at_start,
                bundle.value,
            )
        if frame.parent is not None:
            parent_id, slot = frame.parent
            parent = self._frames.get(parent_id)
            if parent is not None:
                self._deliver(parent, slot, bundle)
            return
        if frame.reply_batch is not None:
            collector, query_id, request_id = frame.reply_batch
            collector.replies.append(
                QueryReply(
                    query_id=query_id,
                    request_id=request_id,
                    value=bundle.value,
                    truncated=bundle.truncated,
                    visited=bundle.visited,
                    cache_hits=bundle.cache_hits,
                    version=bundle.version,
                )
            )
            if len(collector.replies) == collector.expected:
                self.node.send(
                    collector.reply_to,
                    CATEGORY_PROVENANCE_REPLY,
                    QueryReplyBatch(tuple(collector.replies)),
                )
            return
        if frame.remote_reply is not None:
            reply_to, query_id, request_id = frame.remote_reply
            self.node.send(
                reply_to,
                CATEGORY_PROVENANCE_REPLY,
                QueryReply(
                    query_id=query_id,
                    request_id=request_id,
                    value=bundle.value,
                    truncated=bundle.truncated,
                    visited=bundle.visited,
                    cache_hits=bundle.cache_hits,
                    version=bundle.version,
                ),
            )
            return
        if frame.root_key is not None:
            self.engine._finish_root(frame.root_key, bundle)


class DistributedQueryEngine:
    """Issue provenance queries against a running :class:`NetTrailsRuntime`.

    The engine installs a :class:`QueryAgent` at every node; queries are
    evaluated by distributed traversal with all inter-node steps travelling
    through the simulated network, and the returned
    :class:`~repro.core.results.QueryResult` reports the traffic and latency
    the query cost.
    """

    def __init__(
        self,
        runtime,
        provenance: Optional[ProvenanceEngine] = None,
        use_interval_index: Optional[bool] = None,
    ):
        self.runtime = runtime
        provenance = provenance if provenance is not None else runtime.provenance
        if provenance is None:
            raise QueryError(
                "the runtime has no provenance engine; construct it with provenance=True"
            )
        self.provenance: ProvenanceEngine = provenance
        #: Per-node query-cache capacity, taken from the runtime
        #: (``NetTrailsRuntime(query_cache_capacity=...)``): ``None`` there
        #: keeps :data:`DEFAULT_CACHE_CAPACITY`, ``0`` disables the cap.
        raw_capacity = getattr(runtime, "query_cache_capacity", None)
        if raw_capacity is None:
            self.cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY
        elif raw_capacity == 0:
            self.cache_capacity = None
        else:
            self.cache_capacity = raw_capacity
        #: Whether eligible queries use the per-partition interval index
        #: (one range-scan request per partition per wave) instead of the
        #: per-edge traversal.  ``None`` inherits the runtime's knob
        #: (``NetTrailsRuntime(use_interval_index=...)`` /
        #: ``NETTRAILS_INTERVAL_INDEX``); an explicit bool overrides it, so
        #: ablation runs can pit both paths against one shared runtime.
        if use_interval_index is None:
            use_interval_index = bool(getattr(runtime, "use_interval_index", False))
        self.use_interval_index = bool(use_interval_index)
        self._reducers: Dict[str, QueryReducer] = dict(BUILTIN_REDUCERS)
        self._agents: Dict[object, QueryAgent] = {}
        for node_id, node in runtime.nodes.items():
            self._agents[node_id] = QueryAgent(node, self)
        self._completions: Dict[str, _Bundle] = {}
        # Client threads may issue queries on one engine concurrently; the
        # lock keeps the completion map coherent without constraining
        # per-node agent state, which only the event loop touches.
        self._completions_lock = threading.Lock()
        self._query_seq = itertools.count(1)
        #: Observability: adopt the runtime's bundle (if any) and expose the
        #: query-cache counters as a registry view plus a per-mode latency
        #: histogram.  Purely observational — absent entirely when the
        #: runtime's ``observability`` knob is off.
        self.obs = getattr(runtime, "obs", None)
        self._latency_histogram = None
        if self.obs is not None:
            self.obs.registry.register_view("cache", self.cache_totals)
            self._latency_histogram = self.obs.registry.histogram(
                "query.latency_seconds",
                "Wall-clock provenance query latency by query mode",
            )

    # -- reducers ---------------------------------------------------------------------

    def register_query(self, reducer: QueryReducer) -> None:
        """Register a custom query type (a :class:`~repro.core.queries.CustomQuery`)."""
        self._reducers[reducer.name] = reducer

    def reducer(self, mode: str) -> QueryReducer:
        if mode not in self._reducers:
            raise QueryError(
                f"unknown query mode {mode!r}; known modes: {sorted(self._reducers)}"
            )
        return self._reducers[mode]

    def global_version(self) -> int:
        """A counter that changes whenever any provenance table changes anywhere.

        Served in O(1) from :meth:`ProvenanceEngine.global_version`'s
        memoized counter; the node caches use it as their clock.
        """
        return self.provenance.global_version()

    def entry_version(self, vid: str) -> int:
        """The version cache entries for *vid* are tagged with and validated against.

        The per-VID reachability version, bumped only when *vid*'s
        downstream provenance subgraph changes, so unrelated deltas keep the
        entry alive.
        """
        return self.provenance.vid_version(vid)

    def agent(self, node_id: object) -> QueryAgent:
        return self._agents[node_id]

    def _finish_root(self, root_key: str, bundle: _Bundle) -> None:
        with self._completions_lock:
            self._completions[root_key] = bundle

    # -- observability helpers -------------------------------------------------------------

    def _begin_query_span(self, query_id: str, mode: str):
        """Open the engine-level root span for one query (or interval batch).

        Returns ``(span, previous_ambient_context, wall_start)``; all three
        are ``None``-ish no-ops while tracing is off.  The span's context is
        installed as the tracer's ambient context so node drains executed
        inside the query's quiescence run parent to the query root instead
        of opening their own window trace.
        """
        if self.obs is None or not self.obs.tracing:
            return None, None, time.perf_counter()
        span = self.obs.tracer.start_span("query", trace_id=query_id, mode=mode)
        previous = self.obs.tracer.set_current(span.context())
        return span, previous, time.perf_counter()

    def _end_query_span(
        self,
        span: Optional[Span],
        wall_start: float,
        mode: str,
        messages: int,
        rounds: int,
        n_roots: int,
    ) -> None:
        """Finish the root span with the exact per-query deltas.

        The ``messages`` / ``rounds`` attributes are the same network-stat
        deltas :class:`~repro.core.results.QueryStats` reports, so summing
        them across every ``query``-named span reconciles exactly with the
        scenario driver's ``MetricsReport`` totals — the completeness
        invariant benchmark E20 gates.
        """
        if self._latency_histogram is not None:
            self._latency_histogram.labels(mode=mode).observe(time.perf_counter() - wall_start)
        if span is not None:
            span.finish(messages=messages, rounds=rounds, n_roots=n_roots)

    # -- query API ---------------------------------------------------------------------------

    def query(
        self,
        relation: str,
        values: Sequence[object],
        mode: str = QUERY_LINEAGE,
        options: Optional[QueryOptions] = None,
        at: Optional[object] = None,
    ) -> QueryResult:
        """Run a provenance query for the tuple ``relation(values)``.

        ``at`` is the node the query is issued from (defaults to the node
        storing the tuple).  The simulator is run to quiescence so the result
        is complete when this method returns.
        """
        options = options or QueryOptions.baseline()
        self.reducer(mode)  # validate the mode before doing any work
        if self._interval_eligible(mode, options):
            return self._run_interval_batch(relation, [values], mode, options, at)[0]
        fact = Fact.make(relation, values)
        vid = vid_for(fact)
        location = self.runtime.compiled.catalog.location_of(fact)
        if location not in self.runtime.nodes:
            raise QueryError(f"tuple {fact} is located at unknown node {location!r}")
        if not self.runtime.node(location).store.contains(fact):
            raise QueryError(f"tuple {fact} is not currently present at node {location!r}")

        query_id = f"query{next(self._query_seq)}"
        root_key = query_id
        stats_before = self.runtime.network.stats.snapshot()
        time_before = self.runtime.simulator.now
        rounds_before = self.runtime.simulator.rounds

        span, previous, wall_start = self._begin_query_span(query_id, mode)
        try:
            if at is None or at == location:
                self._agents[location].start_root(query_id, vid, mode, options, root_key)
            else:
                if at not in self._agents:
                    raise QueryError(f"query issued at unknown node {at!r}")
                self._agents[at].start_remote_root(query_id, vid, location, mode, options, root_key)

            self.runtime.run_to_quiescence()
        finally:
            if span is not None:
                self.obs.tracer.set_current(previous)
        with self._completions_lock:
            bundle = self._completions.pop(root_key, None)
        if bundle is None:
            raise QueryError(f"query {query_id} did not complete")

        stats_after = self.runtime.network.stats.snapshot()
        stats = QueryStats(
            messages=int(stats_after["messages"]) - int(stats_before["messages"]),
            bytes=int(stats_after["bytes"]) - int(stats_before["bytes"]),
            latency=self.runtime.simulator.now - time_before,
            rounds=self.runtime.simulator.rounds - rounds_before,
            nodes_visited=len(bundle.visited),
            cache_hits=bundle.cache_hits,
        )
        self._end_query_span(span, wall_start, mode, stats.messages, stats.rounds, n_roots=1)
        return QueryResult(
            mode=mode,
            root=TupleRef(relation=relation, values=fact.values, location=location),
            root_vid=vid,
            value=bundle.value,
            truncated=bundle.truncated,
            stats=stats,
        )

    def query_batch(
        self,
        relation: str,
        values_list: Sequence[Sequence[object]],
        mode: str = QUERY_LINEAGE,
        options: Optional[QueryOptions] = None,
        at: Optional[object] = None,
    ) -> List[QueryResult]:
        """Run one provenance query per row of *values_list*, batched.

        On the interval path every root shares the per-partition wave
        messages, so a whole wave of deep-lineage queries costs one request
        per partition per wave instead of one per child per root — the
        order-of-magnitude message saving the E16 benchmark measures.  When
        the interval path is off (or the mode/options are ineligible), the
        batch degrades to issuing the queries one by one.
        """
        options = options or QueryOptions.baseline()
        self.reducer(mode)
        rows = list(values_list)
        if not rows:
            return []
        if self._interval_eligible(mode, options):
            return self._run_interval_batch(relation, rows, mode, options, at)
        return [
            self.query(relation, values, mode=mode, options=options, at=at)
            for values in rows
        ]

    def _interval_eligible(self, mode: str, options: QueryOptions) -> bool:
        """Whether the interval index can answer this query bit-identically.

        The index accelerates full-closure set queries; threshold pruning,
        depth bounds and the per-vertex result cache are traversal-shaped
        options, so any of them falls back to the reference path.
        """
        return (
            self.use_interval_index
            and mode in (QUERY_LINEAGE, QUERY_PARTICIPANTS)
            and not options.use_cache
            and options.threshold is None
            and options.max_depth is None
        )

    def _run_interval_batch(
        self,
        relation: str,
        values_list: Sequence[Sequence[object]],
        mode: str,
        options: QueryOptions,
        at: Optional[object],
    ) -> List[QueryResult]:
        roots: List[Tuple[Fact, str, object]] = []
        for values in values_list:
            fact = Fact.make(relation, values)
            vid = vid_for(fact)
            location = self.runtime.compiled.catalog.location_of(fact)
            if location not in self.runtime.nodes:
                raise QueryError(f"tuple {fact} is located at unknown node {location!r}")
            if not self.runtime.node(location).store.contains(fact):
                raise QueryError(
                    f"tuple {fact} is not currently present at node {location!r}"
                )
            roots.append((fact, vid, location))
        coordinator = at if at is not None else roots[0][2]
        if coordinator not in self._agents:
            raise QueryError(f"query issued at unknown node {coordinator!r}")

        query_id = f"query{next(self._query_seq)}"
        root_keys = [f"{query_id}/{index}" for index in range(len(roots))]
        stats_before = self.runtime.network.stats.snapshot()
        time_before = self.runtime.simulator.now
        rounds_before = self.runtime.simulator.rounds

        span, previous, wall_start = self._begin_query_span(query_id, mode)
        try:
            self._agents[coordinator].start_interval_batch(
                query_id,
                mode,
                [
                    (root_keys[index], vid, location)
                    for index, (_fact, vid, location) in enumerate(roots)
                ],
            )
            self.runtime.run_to_quiescence()
        finally:
            if span is not None:
                self.obs.tracer.set_current(previous)

        stats_after = self.runtime.network.stats.snapshot()
        # Wave messages are shared by every root of the batch, so the stats
        # below are whole-batch figures repeated on each result (only
        # nodes_visited is per-root); summing them across a batch would
        # overcount.
        messages = int(stats_after["messages"]) - int(stats_before["messages"])
        octets = int(stats_after["bytes"]) - int(stats_before["bytes"])
        latency = self.runtime.simulator.now - time_before
        rounds = self.runtime.simulator.rounds - rounds_before
        self._end_query_span(span, wall_start, mode, messages, rounds, n_roots=len(roots))

        results: List[QueryResult] = []
        for index, (fact, vid, location) in enumerate(roots):
            with self._completions_lock:
                bundle = self._completions.pop(root_keys[index], None)
            if bundle is None:
                raise QueryError(f"query {query_id} did not complete")
            results.append(
                QueryResult(
                    mode=mode,
                    root=TupleRef(relation=relation, values=fact.values, location=location),
                    root_vid=vid,
                    value=bundle.value,
                    truncated=bundle.truncated,
                    stats=QueryStats(
                        messages=messages,
                        bytes=octets,
                        latency=latency,
                        rounds=rounds,
                        nodes_visited=len(bundle.visited),
                        cache_hits=bundle.cache_hits,
                    ),
                )
            )
        return results

    # -- convenience wrappers -------------------------------------------------------------------

    def lineage(self, relation: str, values: Sequence[object], **kwargs) -> QueryResult:
        """The set of base tuples contributing to the derivation of a tuple."""
        return self.query(relation, values, mode=QUERY_LINEAGE, **kwargs)

    def participants(self, relation: str, values: Sequence[object], **kwargs) -> QueryResult:
        """The set of nodes involved in the derivation of a tuple."""
        return self.query(relation, values, mode=QUERY_PARTICIPANTS, **kwargs)

    def derivation_count(self, relation: str, values: Sequence[object], **kwargs) -> QueryResult:
        """The total number of alternative derivations of a tuple."""
        return self.query(relation, values, mode=QUERY_COUNT, **kwargs)

    def subgraph(self, relation: str, values: Sequence[object], **kwargs) -> QueryResult:
        """The provenance subgraph rooted at a tuple (for visualization)."""
        return self.query(relation, values, mode=QUERY_SUBGRAPH, **kwargs)

    # -- cache statistics -----------------------------------------------------------------------

    def cache_stats(self) -> Dict[object, Dict[str, int]]:
        """Per-node cache hit/miss/store/eviction counters."""
        return {
            node_id: dict(agent.cache.counters())
            for node_id, agent in sorted(self._agents.items(), key=lambda item: repr(item[0]))
        }

    def cache_totals(self) -> Dict[str, int]:
        """System-wide cache counters, summed over every node's cache."""
        totals: Dict[str, int] = {}
        for stats in self.cache_stats().values():
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def interval_totals(self) -> Dict[str, int]:
        """System-wide interval-index counters."""
        return self.provenance.interval_totals()
