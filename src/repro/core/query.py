"""ExSPAN distributed provenance query engine.

Provenance is stored as distributed ``prov`` / ``ruleExec`` tables, so
answering a query requires a *distributed traversal* of the provenance graph:
the query starts at the node storing the queried tuple, follows its ``prov``
entries to the nodes where the deriving rules fired, expands the rule
executions' input tuples there, and so on recursively.  Partial results are
combined bottom-up by the query's reducer (see :mod:`repro.core.queries`) and
travel back as reply messages.  Every hop is a real message through the
simulated network, so :class:`QueryStats <repro.core.results.QueryStats>`
measures the "network traffic" the paper's optimisations of
:mod:`repro.core.optimizations` (caching, traversal order, threshold
pruning) reduce.  Cache entries are validated against per-VID reachability
versions, so deltas that cannot affect a queried subtree leave its cached
sub-results usable.  A cached query consults the issuing node's cache
first, once, before a query id or a frame exists: a hit there is the
answer, with no message and no simulator run.

Within one query a node expands each vertex once (*query-scoped sharing*):
a second request for a tuple vertex (keyed by vid) or a rule execution
(keyed by rid) — and, under ``max_depth``, at the same depth — attaches to
the frame already open for it or takes its finished result, so a query
pays per distinct vertex, not per path through a DAG of equal-cost
derivations.  Reducers are pure functions of the subtree, so the answer
is the one every path would have computed.  Sequential traversal with a
threshold is the exception: its pruning depends on visit order, so it
keeps one frame per path.

Parallel traversal (the default) is a single-round fan-out: requests of a
step to the same peer share one :class:`QueryRequestBatch` message and
their replies return as one :class:`QueryReplyBatch`.  Sequential traversal
dispatches one alternative at a time so threshold pruning can skip the rest.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.errors import QueryError
from repro.engine.messages import (
    CATEGORY_PROVENANCE_QUERY,
    CATEGORY_PROVENANCE_REPLY,
)
from repro.engine.node import Node
from repro.engine.tuples import Fact
from repro.core.keys import BASE_RID, vid_for
from repro.core.maintenance import NodeProvenanceStore, ProvenanceEngine
from repro.core.optimizations import NodeQueryCache, QueryOptions, TRAVERSAL_SEQUENTIAL
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


class QueryRequest(NamedTuple):
    """A traversal step shipped to another node.

    ``trace`` is the requester's observability span context
    (``(trace_id, span_id)``), carried in-band so the responding node's
    frame span parents correctly; it is ``None`` whenever observability is
    off and is *never* rendered in the repr, so
    :meth:`~repro.engine.messages.Message.size_estimate` — and with it the
    byte statistics of every determinism contract — is identical whether
    observability is enabled or not.

    Requests, replies and their batches are named tuples: one is built per
    query hop and lives until it is handled, so construction runs in C.
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
        # ``Name(field=value, ...)`` without the trace field (wire-byte
        # accounting must not see observability).
        return (
            f"QueryRequest(query_id={self.query_id!r}, request_id={self.request_id!r}, "
            f"kind={self.kind!r}, target={self.target!r}, mode={self.mode!r}, "
            f"options={self.options!r}, depth={self.depth!r}, reply_to={self.reply_to!r})"
        )


class QueryRequestBatch(NamedTuple):
    """Every traversal sub-request one node sends to one peer in one round.

    Parallel traversal (``TRAVERSAL_PARALLEL``) expands all alternative
    derivations of a step at once; the requests that target the same remote
    node travel together in a single message, so a fan-out of *k* subtasks to
    one peer costs one message instead of *k* — this is how parallel
    traversal trades network messages for communication rounds.
    """

    requests: Tuple[QueryRequest, ...]

    def __repr__(self) -> str:
        # Hand-written, as below: every message's size renders it, and an
        # f-string beats the named tuple's %-formatted repr.
        return f"QueryRequestBatch(requests={self.requests!r})"


class QueryReply(NamedTuple):
    """The combined sub-result for one traversal step.

    It carries no version: a node that caches the answer to a remote root
    read the version itself, for its cache lookup, before it sent the
    request (see :meth:`DistributedQueryEngine._answer`).
    """

    query_id: str
    request_id: str
    value: object
    truncated: bool
    visited: FrozenSet[object]
    cache_hits: int

    def __repr__(self) -> str:
        return (
            f"QueryReply(query_id={self.query_id!r}, request_id={self.request_id!r}, "
            f"value={self.value!r}, truncated={self.truncated!r}, visited={self.visited!r}, "
            f"cache_hits={self.cache_hits!r})"
        )


class QueryReplyBatch(NamedTuple):
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


#: A frame's ``result`` until it has finished.
_OPEN = object()


class _Frame:
    """One traversal step in progress at this node: a tuple vertex or a rule execution.

    A frame's result goes to its sink: its ``parent`` frame (into slot
    ``slot``), the ``reply`` collector of the request it answers (as request
    ``slot``), or, with neither, the engine's completions (as query id
    ``slot``); later requests for the same key add their sinks to
    ``attached`` (see :meth:`QueryAgent._open`).  ``subtasks`` is a tuple
    read straight from the partition — a tuple frame's ``(rid, rloc)`` prov
    rows, an exec frame's input vids — and ``values`` holds the sub-results
    by subtask index; ``result`` is the combined value once finished.
    """

    __slots__ = (
        "parent", "slot", "reply", "target", "depth", "query_id", "mode", "reducer", "options",
        "is_tuple", "ref", "subtasks", "values", "cursor", "outstanding", "truncated",
        "visited", "cache_hits", "version", "span", "attached", "result",
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
        #: provenance row is read when the cache is on: the completed result
        #: is stored under it, so a result that raced churn is stillborn —
        #: conservative, never stale.
        self.version: Optional[int] = None
        #: Observability span covering the frame's lifetime (``None`` while
        #: observability is off).
        self.span: Optional[Span] = None
        #: The ``(parent, slot, reply)`` sinks of requests that attached.
        self.attached: Optional[List[Tuple[Optional["_Frame"], object, Optional[_ReplyCollector]]]] = None
        self.result: object = _OPEN


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
        self.cache = NodeQueryCache()
        self._node_id = node.id
        #: The sub-result bookkeeping of a frame that visited only this node.
        self._here: FrozenSet[object] = frozenset({node.id})
        #: This node's provenance partition, resolved by the first frame.
        self._store: Optional[NodeProvenanceStore] = None
        self._request_ids = _SlotIds(f"{node.id}/r")
        #: request id -> (frame, subtask index) of an in-flight sub-request.
        self._pending_remote: Dict[str, Tuple[_Frame, int]] = {}
        #: request id -> (vid, mode, options, version) of an issued remote
        #: root; the version, read when the request left (``None`` without
        #: the cache), is the one the reply is cached under here.
        self._remote_roots: Dict[str, Tuple[str, str, QueryOptions, Optional[int]]] = {}

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
            node=self.node._id_repr,
            target=frame.target,
            depth=frame.depth,
        )

    def _request_trace(self, frame: Optional[_Frame]) -> Optional[Tuple[str, str]]:
        """The span context outgoing requests of *frame* (``None``: of a root) should carry."""
        obs = self.obs
        if obs is None:
            return None
        if frame is not None and frame.span is not None:
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

    def start_root(
        self, query_id: str, vid: str, mode: str, options: QueryOptions, version: Optional[int]
    ) -> None:
        """Start a query for a tuple stored at this node (no network hop needed).

        The engine has already looked the tuple up in this node's cache
        under *version* (``None`` without the cache) and missed, so the root
        frame expands it and files its result under that version.
        """
        frame = _Frame(None, query_id, None, vid, 0, query_id, mode, self.engine.reducer(mode), options)
        frame.version = version
        self._expand_tuple(frame, None)

    def start_remote_root(
        self, query_id: str, vid: str, home_node: object, mode: str, options: QueryOptions, version: Optional[int]
    ) -> None:
        """Issue a query from this node for a tuple stored at *home_node*.

        The engine has already looked the tuple up in this node's cache and
        missed.  The reply is cached here under *version*, the one read for
        that lookup before the request left: if the subtree changes while
        the request and its reply are in flight, that version is already
        superseded and the entry is stillborn.  So a repeat query for an
        unchanged subtree is answered without any network hop.
        """
        request_id = self._request_ids.take()
        self._remote_roots[request_id] = (vid, mode, options, version)
        request = QueryRequest(
            query_id, request_id, _REQUEST_KIND_TUPLE, vid, mode, options, 0, self._node_id, self._request_trace(None)
        )
        self.node.send(home_node, CATEGORY_PROVENANCE_QUERY, request)

    def root_hit_span(self, vid: str) -> None:
        """Record the ``frame.tuple`` span of a home root answered from this
        node's cache, as its frame would have (no-op while observability is off)."""
        obs = self.obs
        if obs is None:
            return
        parent = obs.tracer.current()
        if parent is None:
            return
        obs.tracer.start_span(
            "frame.tuple", parent=parent, node=self.node._id_repr, target=vid, depth=0
        ).finish(truncated=False, cache_hits=1, subtasks=0)

    # -- message handlers ------------------------------------------------------------

    def _on_query(self, message) -> None:
        payload = message.payload
        requests = payload.requests if isinstance(payload, QueryRequestBatch) else (payload,)
        reply = _ReplyCollector(requests[0].reply_to, len(requests))
        for request in requests:
            reducer = self.engine.reducer(request.mode)
            parent_span = TraceContext.from_tuple(request.trace)
            if request.kind == _REQUEST_KIND_TUPLE:  # a remote root
                frame = _Frame(
                    None, request.request_id, reply, request.target, request.depth,
                    request.query_id, request.mode, reducer, request.options,
                )
                self._tuple_frame(frame, parent_span)
            else:
                self._open(
                    None, request.request_id, reply, False, request.target, request.depth, request, reducer, parent_span
                )

    def _on_reply(self, message) -> None:
        payload = message.payload
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
        vid, mode, options, version = root
        if version is not None and not reply.truncated:
            self.cache.store(vid, mode, options, version, reply.value)
        self.engine._complete(
            reply.query_id, (reply.value, reply.truncated, reply.visited | self._here, reply.cache_hits)
        )

    # -- the traversal executor ---------------------------------------------------------
    #
    # A frame is opened by _tuple_frame / _exec_frame, which read its
    # subtasks from the partition and run it: in parallel traversal every
    # subtask at once (remote ones grouped into one message per peer, sent
    # after the local ones), in sequential traversal one at a time.  Each
    # sub-result lands in _deliver; once none is outstanding, it either runs
    # the next subtask or combines the values with the reducer and hands the
    # result to the frame's sinks (_finish).  Below the root, _open shares
    # frames: a request for a key this node already has a frame for in the
    # running query attaches to it, or takes its result if it has finished.

    def _open(
        self, parent: Optional[_Frame], slot: object, reply: Optional[_ReplyCollector], is_tuple: bool,
        target: str, depth: int, src: Union[_Frame, QueryRequest], reducer: QueryReducer,
        parent_span: Union[None, Span, TraceContext],
    ) -> None:
        """Open a frame below the root for *target*, or attach this sink to the query's frame for it.

        *src* (the parent frame or the received request) supplies the query
        id, mode and options.  The key is the target — a vid is expanded only
        at its tuple's home and a rid only where it fired, so it names one
        node — plus the depth under ``max_depth``, the only option under
        which depth changes a result.  Sequential traversal with a threshold
        prunes by visit order, so it opens a frame per path, and so does a
        request of any query but the running one (a straggler of a query
        that raised), whose mode and options the running query's need not share.
        """
        options = src.options
        if src.query_id != self.engine._running or (
            options.threshold is not None and options.traversal == TRAVERSAL_SEQUENTIAL
        ):
            key: object = None
        else:
            key = target if options.max_depth is None else (target, depth)
            shared = self.engine._memo.get(key)
            if shared is not None:
                if shared.result is not _OPEN:  # an attached sink counts no cache hit of its own
                    self._emit(parent, slot, reply, shared, shared.result, 0)
                elif shared.attached is None:
                    shared.attached = [(parent, slot, reply)]
                else:
                    shared.attached.append((parent, slot, reply))
                return
        frame = _Frame(parent, slot, reply, target, depth, src.query_id, src.mode, reducer, options)
        if key is not None:
            self.engine._memo[key] = frame
        if is_tuple:
            self._tuple_frame(frame, parent_span)
        else:
            self._exec_frame(frame, parent_span)

    def _tuple_frame(self, frame: _Frame, parent_span: Union[None, Span, TraceContext]) -> None:
        """Answer a tuple frame below the issuer's root from this node's cache, or expand it."""
        options = frame.options
        if options.use_cache:
            vid = frame.target
            frame.version = self.engine.provenance.vid_version(vid)
            cached = self.cache.lookup(vid, frame.mode, options, frame.version)
            if cached is not None:
                self._frame_span(frame, parent_span)
                frame.visited = self._here
                frame.cache_hits = 1
                self._finish(frame, cached, cached=True)
                return
        self._expand_tuple(frame, parent_span)

    def _expand_tuple(self, frame: _Frame, parent_span: Union[None, Span, TraceContext]) -> None:
        """Run a tuple frame over its ``prov`` rows (its version, if any, already read)."""
        vid = frame.target
        options = frame.options
        frame.ref = self._tuple_ref(vid)
        self._frame_span(frame, parent_span)
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
            frame.ref = ExecRef(rid, "<retracted>", "", self._node_id)
        else:
            rule_name, program_name, frame.subtasks = row
            frame.ref = ExecRef(rid, rule_name, program_name, self._node_id)
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
            self._open(
                frame, index, None, True, frame.subtasks[index], frame.depth + 1, frame, frame.reducer, frame.span
            )
            return None
        rid, rloc = frame.subtasks[index]
        if rid == BASE_RID:
            self._deliver(frame, index, frame.reducer.base_value(frame.ref), False, self._here, 0)
        elif rloc == self._node_id:
            self._open(frame, index, None, False, rid, frame.depth, frame, frame.reducer, frame.span)
        else:
            return rloc  # the rule fired at another node
        return None

    def _send(self, frame: _Frame, destination: object, indexes: Sequence[int]) -> None:
        """Ship the given remote subtasks of *frame* to one peer in one message."""
        trace = self._request_trace(frame)
        requests: List[QueryRequest] = []
        for index in indexes:
            request_id = self._request_ids.take()
            self._pending_remote[request_id] = (frame, index)
            requests.append(QueryRequest(
                frame.query_id, request_id, _REQUEST_KIND_EXEC, frame.subtasks[index][0], frame.mode,
                frame.options, frame.depth, self._node_id, trace,
            ))
        payload: object = requests[0] if len(requests) == 1 else QueryRequestBatch(tuple(requests))
        self.node.send(destination, CATEGORY_PROVENANCE_QUERY, payload)

    def _deliver(
        self, frame: _Frame, index: int, value: object, truncated: bool, visited: FrozenSet[object], cache_hits: int
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
        # Set before any sink runs: a request that arrives while they do
        # takes the result instead of attaching.
        frame.result = value
        if frame.parent is not None:
            self._deliver(frame.parent, frame.slot, value, truncated, frame.visited, frame.cache_hits)
        else:
            self._emit(None, frame.slot, frame.reply, frame, value, frame.cache_hits)
        if frame.attached is not None:
            for parent, slot, reply in frame.attached:
                self._emit(parent, slot, reply, frame, value, 0)

    def _emit(
        self, parent: Optional[_Frame], slot: object, reply: Optional[_ReplyCollector],
        frame: _Frame, value: object, cache_hits: int,
    ) -> None:
        """Hand *frame*'s finished result to one sink."""
        if parent is not None:
            self._deliver(parent, slot, value, frame.truncated, frame.visited, cache_hits)
            return
        if reply is None:
            self.engine._complete(slot, (value, frame.truncated, frame.visited, cache_hits))
            return
        reply.replies.append(QueryReply(frame.query_id, slot, value, frame.truncated, frame.visited, cache_hits))
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
        self._reducers: Dict[str, QueryReducer] = dict(BUILTIN_REDUCERS)
        self._agents: Dict[object, QueryAgent] = {}
        for node_id, node in runtime.nodes.items():
            self._agents[node_id] = QueryAgent(node, self)
        self._take_handlers()
        #: Completed roots, ``(value, truncated, visited, cache_hits)`` by
        #: query id: the bounded-width slot shipped in requests and replies,
        #: released once its query has completed.  Trace ids (``query<n>``)
        #: are minted by the runtime's tracer, unique across its engines.
        self._completions: Dict[str, Tuple[object, bool, FrozenSet[object], int]] = {}
        #: Ids of queries that raised before they completed: messages still
        #: in flight carry them, so each is released when its completion lands.
        self._abandoned: Set[str] = set()
        self._query_ids = _SlotIds("query")
        #: The running query's id and its frames below its root, by target
        #: (see :meth:`QueryAgent._open`).
        self._running: Optional[str] = None
        self._memo: Dict[object, _Frame] = {}
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

    def agent(self, node_id: object) -> QueryAgent:
        return self._agents[node_id]

    def _complete(self, query_id: str, completion: Tuple[object, bool, FrozenSet[object], int]) -> None:
        """Record the completion of a root, or drop it and free the id if its query raised."""
        if query_id in self._abandoned:
            self._abandoned.remove(query_id)
            self._query_ids.release(query_id)
        else:
            self._completions[query_id] = completion

    def _take_handlers(self) -> None:
        """Make the agents their nodes' query handlers, recording the owner on the runtime."""
        for agent in self._agents.values():
            agent.node.register_handler(CATEGORY_PROVENANCE_QUERY, agent._on_query)
            agent.node.register_handler(CATEGORY_PROVENANCE_REPLY, agent._on_reply)
        self.runtime.query_engine = self

    # -- observability helpers -------------------------------------------------------------

    def _begin_query_span(self, mode: str):
        """Open the engine-level root span for one query.

        Returns ``(span, previous_ambient_context, wall_start)``; all three
        are ``None``-ish no-ops while observability is off.  The span's
        context is installed as the tracer's ambient context so node drains
        executed inside the query's quiescence run parent to the query root
        instead of opening their own window trace.
        """
        if self.obs is None:
            return None, None, 0.0
        tracer = self.obs.tracer
        span = tracer.start_span("query", trace_id=tracer.mint("query"), mode=mode)
        previous = self.obs.tracer.set_current(span.context())
        return span, previous, time.perf_counter()

    def _end_query_span(self, span: Optional[Span], wall_start: float, mode: str, messages: int, rounds: int) -> None:
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
        location = self.runtime.compiled.catalog.location_of(fact)
        if location not in self.runtime.nodes:
            raise QueryError(f"tuple {fact} is located at unknown node {location!r}")
        if self.runtime.simulator.pending_events:
            # Deliver what is already in flight (churn, a failed query's
            # stragglers) first: the query is billed only for its own traffic
            # and answers over the state that traffic settles into.
            self.runtime.run_to_quiescence()
        if not self.runtime.node(location).store.contains(fact):
            raise QueryError(f"tuple {fact} is not currently present at node {location!r}")

        if at == location:
            at = None
        elif at is not None and at not in self._agents:
            raise QueryError(f"query issued at unknown node {at!r}")
        return self._traverse(fact, location, mode, options, at)

    def _traverse(
        self, fact: Fact, location: object, mode: str, options: QueryOptions, at: Optional[object]
    ) -> QueryResult:
        """Answer the query for *fact* (stored at *location*) issued at *at*,
        or at *location* when ``None``, with the simulator quiescent after.

        Whatever else is in flight is delivered by the query's run and
        billed to the query; :meth:`query` delivers it first.
        """
        runtime = self.runtime
        simulator = runtime.simulator
        traffic = runtime.network.stats
        messages_before, bytes_before = traffic.messages, traffic.bytes
        time_before, rounds_before = simulator.now, simulator.rounds
        vid = vid_for(fact)

        # A node has one set of query handlers, the last registered engine's;
        # an engine whose handlers another engine took takes them back.
        if runtime.query_engine is not self:
            self._take_handlers()
        span, previous, wall_start = self._begin_query_span(mode)
        try:
            value, truncated, visited, cache_hits = self._answer(vid, location, mode, options, at)
        finally:
            if span is not None:
                self.obs.tracer.set_current(previous)

        traffic = runtime.network.stats
        stats = QueryStats(
            messages=traffic.messages - messages_before,
            bytes=traffic.bytes - bytes_before,
            latency=simulator.now - time_before,
            rounds=simulator.rounds - rounds_before,
            nodes_visited=len(visited),
            cache_hits=cache_hits,
        )
        self._end_query_span(span, wall_start, mode, stats.messages, stats.rounds)
        return QueryResult(
            mode=mode,
            root=TupleRef(relation=fact.relation, values=fact.values, location=location),
            root_vid=vid,
            value=value,
            truncated=truncated,
            stats=stats,
        )

    def _answer(
        self, vid: str, location: object, mode: str, options: QueryOptions, at: Optional[object]
    ) -> Tuple[object, bool, FrozenSet[object], int]:
        """The completion of one query: the issuing node's cache entry, or its traversal's.

        The issuer's cache is consulted here, once, before a query id or a
        frame exists.  A hit is the answer; a miss starts the traversal with
        the version the lookup read, so the root frame never looks up again.
        """
        issuer = self._agents[location if at is None else at]
        version: Optional[int] = None
        if options.use_cache:
            version = self.provenance.vid_version(vid)
            cached = issuer.cache.lookup(vid, mode, options, version)
            if cached is not None:
                if at is None:
                    issuer.root_hit_span(vid)
                self._settle()
                return (cached, False, issuer._here, 1)
        query_id = self._running = self._query_ids.take()
        try:
            if at is None:
                issuer.start_root(query_id, vid, mode, options, version)
            else:
                issuer.start_remote_root(query_id, vid, location, mode, options, version)
            self._settle()
        except BaseException:
            if self._completions.pop(query_id, None) is None:
                self._abandoned.add(query_id)
            else:  # it completed before the failure: nothing carries the id any more
                self._query_ids.release(query_id)
            raise
        finally:
            self._running = None
            self._memo = {}
        completion = self._completions.pop(query_id, None)
        if completion is None:
            raise QueryError(f"query {query_id} did not complete")
        self._query_ids.release(query_id)
        return completion

    def _settle(self) -> None:
        """Run the simulator to quiescence, unless no event is queued and no
        durable op waits for its window to commit: then only the window's
        reachability walk is due, which is a truthiness check unless a
        partial run left roots pending."""
        runtime = self.runtime
        if runtime.simulator.pending_events or runtime._pending_ops:
            runtime.run_to_quiescence()
        else:
            self.provenance.flush_reachability()

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

    def cache_totals(self) -> Dict[str, int]:
        """System-wide cache counters, summed over every node's cache."""
        totals: Dict[str, int] = {}
        for agent in self._agents.values():
            for key, value in agent.cache.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals
