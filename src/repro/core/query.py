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

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
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


class _SlotIds:
    """Ids ``prefix + str(n)`` for the smallest ``n >= 1`` not in use.

    Query and request ids are rendered into every request and reply, so a
    counter that only grows would make a long run ship more bytes per query
    than a short one.  Handing out the smallest free slot, released when its
    reply (or its query) completes, keeps their width bounded by the
    in-flight count; a released id only returns once nothing refers to it.
    """

    __slots__ = ("_prefix", "_free", "_next")

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._free: List[int] = []
        self._next = 1

    def take(self) -> str:
        if self._free:
            slot = heapq.heappop(self._free)
        else:
            slot = self._next
            self._next += 1
        return f"{self._prefix}{slot}"

    def release(self, ident: str) -> None:
        heapq.heappush(self._free, int(ident[len(self._prefix):]))


@dataclass(frozen=True)
class QueryRequest:
    """A traversal step shipped to another node.

    ``trace`` is the requester's observability span context
    (``(trace_id, span_id)``), carried in-band so the responding node's
    frame span parents correctly; it is ``None`` whenever observability is
    off and is *never* rendered in the repr, so
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

    def __repr__(self) -> str:
        # The dataclass repr's bytes without its recursion guard (this and
        # the reply classes below are rendered for every message's size).
        return f"QueryRequestBatch(requests={self.requests!r})"


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

    def __repr__(self) -> str:
        return (
            f"QueryReply(query_id={self.query_id!r}, request_id={self.request_id!r}, "
            f"value={self.value!r}, truncated={self.truncated!r}, visited={self.visited!r}, "
            f"cache_hits={self.cache_hits!r}, version={self.version!r})"
        )


@dataclass(frozen=True)
class QueryReplyBatch:
    """The replies to a :class:`QueryRequestBatch`, shipped as one message."""

    replies: Tuple[QueryReply, ...]

    def __repr__(self) -> str:
        return f"QueryReplyBatch(replies={self.replies!r})"


class _ReplyCollector:
    """Gathers the replies to one received request message.

    The reply goes out once every frame the message started has completed:
    a bare :class:`QueryReply` for a bare request, one
    :class:`QueryReplyBatch` for a :class:`QueryRequestBatch`, mirroring the
    single fan-out message on the request side.
    """

    __slots__ = ("reply_to", "expected", "replies")

    def __init__(self, reply_to: object, expected: int) -> None:
        self.reply_to = reply_to
        self.expected = expected
        self.replies: List[QueryReply] = []


@dataclass
class _Bundle:
    """A root's completed result, as the engine collects it."""

    value: object
    truncated: bool = False
    visited: FrozenSet[object] = frozenset()
    cache_hits: int = 0


class _Frame:
    """One traversal step in progress at this node: a tuple vertex or a rule execution.

    A frame's result goes to exactly one sink: its ``parent`` frame (into
    slot ``slot``), the ``reply`` collector of the request it answers (as
    request ``slot``), or, with neither, the engine's completions (as root
    key ``slot``).  ``subtasks`` is a tuple read straight from the
    partition — a tuple frame's ``(rid, rloc)`` prov rows, an exec frame's
    input vids — and ``values`` holds the sub-results by subtask index.
    """

    __slots__ = (
        "parent", "slot", "reply", "target", "depth", "query_id", "mode", "reducer", "options",
        "is_tuple", "ref", "subtasks", "values", "cursor", "outstanding", "truncated",
        "visited", "cache_hits", "version", "span",
    )

    def __init__(
        self, parent: Optional["_Frame"], slot: object, reply: Optional[_ReplyCollector], target: str,
        depth: int, query_id: str, mode: str, reducer: QueryReducer, options: QueryOptions,
    ) -> None:
        self.parent = parent
        self.slot = slot
        self.reply = reply
        self.target = target  # vid or rid
        self.depth = depth
        self.query_id = query_id
        self.mode = mode
        self.reducer = reducer
        self.options = options
        self.is_tuple = True
        self.ref: Union[None, TupleRef, ExecRef] = None
        self.subtasks: tuple = ()
        self.values: List[object] = []
        self.cursor = 0
        self.outstanding = 0
        self.truncated = False
        self.visited: FrozenSet[object] = frozenset()
        self.cache_hits = 0
        #: The target vid's reachability version, captured *before* any
        #: provenance row is read, when something consumes it: the cache
        #: (completed results are stored under it, so a result that raced
        #: churn is stillborn — conservative, never stale) or the reply to a
        #: remote tuple request, which carries it to the issuer's cache.
        self.version: Optional[int] = None
        #: Observability span covering the frame's lifetime (``None`` while
        #: observability is off).
        self.span: Optional[Span] = None


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
        self._node_id = node.id
        #: The sub-result bookkeeping of a frame that visited only this node.
        self._here: FrozenSet[object] = frozenset({node.id})
        #: This node's provenance partition, resolved by the first frame.
        self._store: Optional[NodeProvenanceStore] = None
        #: Whether the handled event has yet to flush the reachability walk
        #: (see :meth:`_tuple_frame`).
        self._unflushed = False
        self._request_ids = _SlotIds(f"{node.id}/r")
        #: request id -> (frame, subtask index) of an in-flight sub-request.
        self._pending_remote: Dict[str, Tuple[_Frame, int]] = {}
        #: request id -> (root key, vid, mode, options) of an issued remote
        #: root, kept so the reply — which carries the version it was
        #: computed at — can be cached here at the issuing node.
        self._remote_roots: Dict[str, Tuple[str, str, str, QueryOptions]] = {}
        node.register_handler(CATEGORY_PROVENANCE_QUERY, self._on_query)
        node.register_handler(CATEGORY_PROVENANCE_REPLY, self._on_reply)

    # -- helpers ---------------------------------------------------------------

    @property
    def _pstore(self) -> NodeProvenanceStore:
        store = self._store
        if store is None:
            store = self._store = self.engine.provenance.store(self._node_id)
        return store

    def _frame_span(self, frame: _Frame, parent: Union[None, Span, TraceContext]) -> None:
        """Open the observability span for *frame* (no-op while observability is off).

        *parent* is the requesting side's span or shipped context; ``None``
        falls back to the tracer's ambient context (the engine-level query
        root), and a frame with no resolvable parent stays span-less so a
        trace never contains orphans.
        """
        obs = self.obs
        if obs is None:
            return
        tracer = obs.tracer
        if parent is None:
            parent = tracer.current()
        if parent is None:
            return
        frame.span = tracer.start_span(
            "frame.tuple" if frame.is_tuple else "frame.exec",
            parent=parent,
            node=repr(self._node_id),
            target=frame.target,
            depth=frame.depth,
        )

    def _request_trace(self, frame: _Frame) -> Optional[Tuple[str, str]]:
        """The span context outgoing requests of *frame* should carry."""
        obs = self.obs
        if obs is None:
            return None
        if frame.span is not None:
            return frame.span.context().as_tuple()
        current = obs.tracer.current()
        return current.as_tuple() if current is not None else None

    def _tuple_ref(self, vid: str) -> TupleRef:
        fact = self._pstore.find_tuple(vid)
        if fact is None:
            return TupleRef(relation="<unknown>", values=(vid,), location=self._node_id)
        ref = TupleRef(relation=fact.relation, values=fact.values, location=self._node_id)
        object.__setattr__(ref, "_vid", vid)
        return ref

    # -- root entry points --------------------------------------------------------

    def start_root(self, query_id: str, vid: str, mode: str, options: QueryOptions, root_key: str) -> None:
        """Start a query for a tuple stored at this node (no network hop needed)."""
        self._unflushed = True
        frame = _Frame(None, root_key, None, vid, 0, query_id, mode, self.engine.reducer(mode), options)
        self._tuple_frame(frame, None)

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
                    root_key, _Bundle(value=cached, visited=self._here, cache_hits=1)
                )
                return
        request_id = self._request_ids.take()
        self._remote_roots[request_id] = (root_key, vid, mode, options)
        trace = None
        if self.obs is not None:
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
                reply_to=self._node_id,
                trace=trace,
            ),
        )

    # -- message handlers ------------------------------------------------------------

    def _on_query(self, message) -> None:
        payload = message.payload
        self._unflushed = True
        requests = payload.requests if isinstance(payload, QueryRequestBatch) else (payload,)
        reply = _ReplyCollector(requests[0].reply_to, len(requests))
        for request in requests:
            reducer = self.engine.reducer(request.mode)
            frame = _Frame(
                None, request.request_id, reply, request.target, request.depth,
                request.query_id, request.mode, reducer, request.options,
            )
            parent_span = TraceContext.from_tuple(request.trace)
            if request.kind == _REQUEST_KIND_TUPLE:
                self._tuple_frame(frame, parent_span)
            else:
                self._exec_frame(frame, parent_span)

    def _on_reply(self, message) -> None:
        payload = message.payload
        self._unflushed = True
        if isinstance(payload, QueryReplyBatch):
            for reply in payload.replies:
                self._handle_reply(reply)
        else:
            self._handle_reply(payload)

    def _handle_reply(self, reply: QueryReply) -> None:
        request_id = reply.request_id
        pending = self._pending_remote.pop(request_id, None)
        if pending is not None:
            self._request_ids.release(request_id)
            frame, slot = pending
            self._deliver(frame, slot, reply.value, reply.truncated, reply.visited, reply.cache_hits)
            return
        root = self._remote_roots.pop(request_id, None)
        if root is None:
            return
        self._request_ids.release(request_id)
        root_key, vid, mode, options = root
        if options.use_cache and not reply.truncated and reply.version is not None:
            self.cache.store(vid, mode, options, reply.version, reply.value)
        self.engine._finish_root(
            root_key,
            _Bundle(
                value=reply.value,
                truncated=reply.truncated,
                visited=reply.visited | self._here,
                cache_hits=reply.cache_hits,
            ),
        )

    # -- the traversal executor ---------------------------------------------------------
    #
    # A frame is opened by _tuple_frame / _exec_frame, which read its
    # subtasks from the partition and run it: in parallel traversal every
    # subtask at once (remote ones grouped into one message per peer, sent
    # after the local ones), in sequential traversal one at a time.  Each
    # sub-result lands in _deliver; once none is outstanding, it either runs
    # the next subtask or combines the values with the reducer and hands the
    # result to the frame's sink (_finish).

    def _tuple_frame(self, frame: _Frame, parent_span: Union[None, Span, TraceContext]) -> None:
        if self._unflushed:
            # Flush points decide vid_versions(): flush once in every handled
            # event that opens a tuple frame, whether or not a version is read.
            self._unflushed = False
            self.engine.provenance.flush_reachability()
        vid = frame.target
        options = frame.options
        frame.ref = self._tuple_ref(vid)
        if options.use_cache or frame.reply is not None:
            frame.version = self.engine.entry_version(vid)
        self._frame_span(frame, parent_span)
        if options.use_cache:
            cached = self.cache.lookup(vid, frame.mode, options, frame.version)
            if cached is not None:
                frame.visited = self._here
                frame.cache_hits = 1
                self._finish(frame, cached, cached=True)
                return
        if options.max_depth is not None and frame.depth > options.max_depth:
            frame.truncated = True  # no subtasks: treated as a leaf
        else:
            frame.subtasks = self._pstore.prov_entries(vid)
        self._run(frame)

    def _exec_frame(self, frame: _Frame, parent_span: Union[None, Span, TraceContext]) -> None:
        frame.is_tuple = False
        rid = frame.target
        row = self._pstore.find_rule_exec(rid)
        if row is None:
            # The firing was retracted while the query was in flight; report an
            # empty, truncated sub-result rather than failing the whole query.
            frame.truncated = True
            frame.ref = ExecRef(rid=rid, rule_name="<retracted>", program_name="", location=self._node_id)
        else:
            rule_name, program_name, child_vids = row
            frame.ref = ExecRef(
                rid=rid, rule_name=rule_name, program_name=program_name, location=self._node_id
            )
            frame.subtasks = child_vids
        self._frame_span(frame, parent_span)
        self._run(frame)

    def _run(self, frame: _Frame) -> None:
        subtasks = frame.subtasks
        count = len(subtasks)
        frame.visited = self._here
        if not count:
            self._finish(frame, self._combine(frame, []))
            return
        frame.values = [None] * count
        if frame.options.traversal == TRAVERSAL_SEQUENTIAL:
            self._dispatch(frame)
            return
        # Parallel traversal: every subtask at once, and the whole fan-out
        # costs one message per distinct peer and one round in total.
        frame.cursor = frame.outstanding = count
        remote: Optional[Dict[object, List[int]]] = None
        for index in range(count):
            peer = self._subtask(frame, index)
            if peer is None:
                continue
            if remote is None:
                remote = {peer: [index]}
            else:
                remote.setdefault(peer, []).append(index)
        if remote is not None:
            for destination, indexes in remote.items():
                self._send(frame, destination, indexes)

    def _dispatch(self, frame: _Frame) -> None:
        """Sequential traversal: run the frame's next subtask."""
        index = frame.cursor
        frame.cursor = index + 1
        frame.outstanding += 1
        peer = self._subtask(frame, index)
        if peer is not None:
            self._send(frame, peer, (index,))

    def _subtask(self, frame: _Frame, index: int) -> object:
        """Run subtask *index* of *frame* at this node, or return the peer it must be sent to."""
        if not frame.is_tuple:
            self._child(frame, index, True, frame.subtasks[index])
            return None
        rid, rloc = frame.subtasks[index]
        if rid == BASE_RID:
            self._deliver(frame, index, frame.reducer.base_value(frame.ref), False, self._here, 0)
        elif rloc == self._node_id:
            self._child(frame, index, False, rid)
        else:
            return rloc  # the rule fired at another node
        return None

    def _child(self, frame: _Frame, index: int, is_tuple: bool, target: str) -> None:
        depth = frame.depth + 1 if is_tuple else frame.depth
        child = _Frame(frame, index, None, target, depth, frame.query_id, frame.mode, frame.reducer, frame.options)
        if is_tuple:
            self._tuple_frame(child, frame.span)
        else:
            self._exec_frame(child, frame.span)

    def _send(self, frame: _Frame, destination: object, indexes: Sequence[int]) -> None:
        """Ship the given remote subtasks of *frame* to one peer in one message."""
        trace = self._request_trace(frame)
        requests: List[QueryRequest] = []
        for index in indexes:
            request_id = self._request_ids.take()
            self._pending_remote[request_id] = (frame, index)
            requests.append(
                QueryRequest(
                    query_id=frame.query_id,
                    request_id=request_id,
                    kind=_REQUEST_KIND_EXEC,
                    target=frame.subtasks[index][0],
                    mode=frame.mode,
                    options=frame.options,
                    depth=frame.depth,
                    reply_to=self._node_id,
                    trace=trace,
                )
            )
        payload: object = requests[0] if len(requests) == 1 else QueryRequestBatch(tuple(requests))
        self.node.send(destination, CATEGORY_PROVENANCE_QUERY, payload)

    def _deliver(
        self,
        frame: _Frame,
        index: int,
        value: object,
        truncated: bool,
        visited: FrozenSet[object],
        cache_hits: int,
    ) -> None:
        frame.values[index] = value
        if truncated:
            frame.truncated = True
        if visited is not self._here:
            frame.visited = frame.visited | visited
        frame.cache_hits += cache_hits
        frame.outstanding -= 1
        if frame.outstanding:
            return
        if frame.cursor == len(frame.subtasks):
            self._finish(frame, self._combine(frame, frame.values))
            return
        # Sequential traversal with alternatives left: prune them once the
        # partial result reaches the threshold, else run the next one.
        threshold = frame.options.threshold
        if threshold is not None:
            partial = self._combine(frame, frame.values[: frame.cursor])
            if frame.reducer.size(partial) >= threshold:
                frame.truncated = True
                self._finish(frame, partial)
                return
        self._dispatch(frame)

    @staticmethod
    def _combine(frame: _Frame, values: List[object]) -> object:
        if frame.is_tuple:
            return frame.reducer.tuple_value(frame.ref, values)
        return frame.reducer.exec_value(frame.ref, values)

    def _finish(self, frame: _Frame, value: object, cached: bool = False) -> None:
        truncated = frame.truncated
        if frame.span is not None:
            frame.span.finish(
                truncated=truncated, cache_hits=frame.cache_hits, subtasks=len(frame.subtasks)
            )
        if frame.is_tuple and frame.options.use_cache and not truncated and not cached:
            self.cache.store(frame.target, frame.mode, frame.options, frame.version, value)
        if frame.parent is not None:
            self._deliver(frame.parent, frame.slot, value, truncated, frame.visited, frame.cache_hits)
            return
        reply = frame.reply
        if reply is None:
            self.engine._finish_root(
                frame.slot,
                _Bundle(value=value, truncated=truncated, visited=frame.visited, cache_hits=frame.cache_hits),
            )
            return
        reply.replies.append(
            QueryReply(
                query_id=frame.query_id,
                request_id=frame.slot,
                value=value,
                truncated=truncated,
                visited=frame.visited,
                cache_hits=frame.cache_hits,
                version=frame.version,
            )
        )
        if len(reply.replies) == reply.expected:
            replies = reply.replies
            payload: object = replies[0] if len(replies) == 1 else QueryReplyBatch(tuple(replies))
            self.node.send(reply.reply_to, CATEGORY_PROVENANCE_REPLY, payload)


class DistributedQueryEngine:
    """Issue provenance queries against a running :class:`NetTrailsRuntime`.

    The engine installs a :class:`QueryAgent` at every node; queries are
    evaluated by distributed traversal with all inter-node steps travelling
    through the simulated network, and the returned
    :class:`~repro.core.results.QueryResult` reports the traffic and latency
    the query cost.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        if runtime.provenance is None:
            raise QueryError(
                "the runtime has no provenance engine; construct it with provenance=True"
            )
        self.provenance: ProvenanceEngine = runtime.provenance
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
        self._reducers: Dict[str, QueryReducer] = dict(BUILTIN_REDUCERS)
        self._agents: Dict[object, QueryAgent] = {}
        for node_id, node in runtime.nodes.items():
            self._agents[node_id] = QueryAgent(node, self)
        self._completions: Dict[str, _Bundle] = {}
        # Client threads may issue queries on one engine concurrently; the
        # lock keeps the completion map coherent without constraining
        # per-node agent state, which only the event loop touches.
        self._completions_lock = threading.Lock()
        #: Root keys and trace ids (``query<n>``) stay unique for the
        #: engine's lifetime; the query id shipped in requests and replies is
        #: a bounded-width slot, released once its query has completed.
        self._query_seq = itertools.count(1)
        self._query_ids = _SlotIds("query")
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

    def _take_query_id(self) -> str:
        with self._completions_lock:
            return self._query_ids.take()

    def _release_query_id(self, query_id: str) -> None:
        with self._completions_lock:
            self._query_ids.release(query_id)

    # -- observability helpers -------------------------------------------------------------

    def _begin_query_span(self, query_id: str, mode: str):
        """Open the engine-level root span for one query.

        Returns ``(span, previous_ambient_context, wall_start)``; all three
        are ``None``-ish no-ops while observability is off.  The span's
        context is installed as the tracer's ambient context so node drains
        executed inside the query's quiescence run parent to the query root
        instead of opening their own window trace.
        """
        if self.obs is None:
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
    ) -> None:
        """Finish the root span with the exact per-query deltas.

        The ``messages`` / ``rounds`` attributes are the same network-stat
        deltas :class:`~repro.core.results.QueryStats` reports, so summing
        them across every ``query``-named span reconciles exactly with the
        query messages and rounds a caller counts around its queries — the
        completeness invariant benchmark E20 gates.  ``n_roots`` counts the
        queried tuples the span answers: always one.
        """
        if self._latency_histogram is not None:
            self._latency_histogram.labels(mode=mode).observe(time.perf_counter() - wall_start)
        if span is not None:
            span.finish(messages=messages, rounds=rounds, n_roots=1)

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
        fact = Fact.make(relation, values)
        vid = vid_for(fact)
        location = self.runtime.compiled.catalog.location_of(fact)
        if location not in self.runtime.nodes:
            raise QueryError(f"tuple {fact} is located at unknown node {location!r}")
        if not self.runtime.node(location).store.contains(fact):
            raise QueryError(f"tuple {fact} is not currently present at node {location!r}")

        root_key = f"query{next(self._query_seq)}"
        stats_before = self.runtime.network.stats.snapshot()
        time_before = self.runtime.simulator.now
        rounds_before = self.runtime.simulator.rounds

        span, previous, wall_start = self._begin_query_span(root_key, mode)
        try:
            if at is None or at == location:
                query_id = self._take_query_id()
                self._agents[location].start_root(query_id, vid, mode, options, root_key)
            else:
                if at not in self._agents:
                    raise QueryError(f"query issued at unknown node {at!r}")
                query_id = self._take_query_id()
                self._agents[at].start_remote_root(query_id, vid, location, mode, options, root_key)

            self.runtime.run_to_quiescence()
        finally:
            if span is not None:
                self.obs.tracer.set_current(previous)
        with self._completions_lock:
            bundle = self._completions.pop(root_key, None)
        if bundle is None:
            raise QueryError(f"query {root_key} did not complete")
        self._release_query_id(query_id)

        stats_after = self.runtime.network.stats.snapshot()
        stats = QueryStats(
            messages=int(stats_after["messages"]) - int(stats_before["messages"]),
            bytes=int(stats_after["bytes"]) - int(stats_before["bytes"]),
            latency=self.runtime.simulator.now - time_before,
            rounds=self.runtime.simulator.rounds - rounds_before,
            nodes_visited=len(bundle.visited),
            cache_hits=bundle.cache_hits,
        )
        self._end_query_span(span, wall_start, mode, stats.messages, stats.rounds)
        return QueryResult(
            mode=mode,
            root=TupleRef(relation=relation, values=fact.values, location=location),
            root_vid=vid,
            value=bundle.value,
            truncated=bundle.truncated,
            stats=stats,
        )

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
