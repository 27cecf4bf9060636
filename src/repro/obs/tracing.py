"""Per-query distributed trace spans, assembled into trees on the coordinator.

A *span* is one timed unit of work — an engine-level query, a traversal
frame on some node, a node drain, a service commit — attributed to a trace
(``trace_id``, normally the query id) and optionally to a parent span.
Spans carry node, round and message counts, plus monotonic start/end
timestamps (:func:`time.perf_counter`, never wall-clock).

Trace *context* — the ``(trace_id, span_id)`` pair — propagates in-band,
inside :class:`~repro.core.query.QueryRequest` envelopes (a ``trace``
field that is omitted from their reprs, so wire-byte accounting is
untouched by tracing).  Node drains parent to the ambient context and
record primitive span records on the :meth:`Tracer.defer` lane;
:meth:`Tracer.absorb` rebuilds spans from those records, preserving parent
ids and node attribution.

A tracer keeps the newest :data:`MAX_TRACES` traces whole, finished spans
and deferred records alike, and forgets the oldest trace when a new one
begins, so a long-running service holds a bounded history in which every
retained trace still assembles with :meth:`Tracer.span_tree`.

The tracer never participates in the determinism contract: span ids, span
counts and timings vary from run to run and are excluded from every
bit-identity surface.

>>> tracer = Tracer()
>>> root = tracer.start_span("query", trace_id="query1", node="n0")
>>> child = tracer.start_span("frame", parent=root.context(), node="n1")
>>> child.finish(messages=2)
>>> root.finish(messages=5)
>>> tree = tracer.span_tree("query1")
>>> (tree["name"], [c["name"] for c in tree["children"]])
('query', ['frame'])
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import EngineError

#: The primitive shape of one deferred span record (see
#: :meth:`Tracer.defer` / :meth:`Tracer.absorb`):
#: every element is a plain string/float/tuple, so recording one allocates
#: no :class:`Span`.
SpanRecord = Tuple[str, str, Optional[str], Optional[str], float, float, Tuple[Tuple[str, object], ...]]

#: The most traces a tracer keeps; the first record of a new trace evicts
#: the oldest trace, whole.  Enough for the smoke scenario's 17 traces and
#: for the seven windows and fourteen queries of a churn-harness script.
MAX_TRACES = 24


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of an in-flight span: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    def as_tuple(self) -> Tuple[str, str]:
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_tuple(raw: Optional[Tuple[str, str]]) -> Optional["TraceContext"]:
        if raw is None:
            return None
        return TraceContext(trace_id=raw[0], span_id=raw[1])


class Span:
    """One timed, attributed unit of work inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node", "start", "end", "attrs", "_tracer")

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
        node: Optional[str] = None,
        start: Optional[float] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.node = node
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs or {})

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def finish(self, **attrs: object) -> None:
        """Stamp the end time, merge final attributes, hand to the tracer."""
        if self.end is not None:
            return
        self.attrs.update(attrs)
        self.end = time.perf_counter()
        if self._tracer is not None:
            self._tracer._record(self)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id!r}, id={self.span_id!r}, "
            f"parent={self.parent_id!r}, node={self.node!r}, attrs={self.attrs!r})"
        )


class _Trace:
    """The retained part of one trace: its finished spans, and the records
    deferred since the last inspection."""

    __slots__ = ("spans", "records")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.records: List[SpanRecord] = []


class Tracer:
    """Creates spans, keeps the newest :data:`MAX_TRACES` traces, assembles
    per-trace trees."""

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        #: prefix -> the counter behind :meth:`mint`
        self._trace_seqs: Dict[str, "itertools.count[int]"] = {}
        #: trace id -> its retained spans and records, oldest trace first
        self._traces: Dict[str, _Trace] = {}
        self._current: Optional[TraceContext] = None

    # -- span lifecycle -------------------------------------------------------------------

    def _next_span_id(self) -> str:
        return f"s{next(self._seq)}"

    def mint(self, prefix: str) -> str:
        """A trace id ``prefix<n>`` that this tracer has not minted before."""
        seq = self._trace_seqs.get(prefix)
        if seq is None:
            seq = self._trace_seqs[prefix] = itertools.count(1)
        return f"{prefix}{next(seq)}"

    def start_span(
        self,
        name: str,
        parent: Optional[Union[TraceContext, Span]] = None,
        trace_id: Optional[str] = None,
        node: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """A new span; roots (no parent) may mint a fresh trace id."""
        if isinstance(parent, Span):
            parent = parent.context()
        if parent is not None:
            trace = parent.trace_id if trace_id is None else trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace = trace_id if trace_id is not None else self.mint("trace")
            parent_id = None
        return Span(self, name, trace, self._next_span_id(), parent_id=parent_id, node=node, attrs=attrs)

    def _trace(self, trace_id: str) -> _Trace:
        """The retained trace *trace_id*, opened (evicting the oldest
        trace beyond :data:`MAX_TRACES`) on its first record."""
        trace = self._traces.get(trace_id)
        if trace is None:
            trace = self._traces[trace_id] = _Trace()
            if len(self._traces) > MAX_TRACES:
                del self._traces[next(iter(self._traces))]
        return trace

    def _record(self, span: Span) -> None:
        self._trace(span.trace_id).spans.append(span)

    def defer(self, record: SpanRecord) -> None:
        """The fast path for hot leaf spans (one call per node drain).

        The primitive record (:data:`SpanRecord`) is kept as is and only
        materialised into a :class:`Span` when an inspection API runs.  At
        ~0.3µs this is several times cheaper than ``start_span``/``finish``,
        which is what keeps benchmark E20's enabled-mode overhead bounded.
        """
        self._trace(record[1]).records.append(record)

    def _flush_deferred(self) -> None:
        for trace in self._traces.values():
            if trace.records:
                records, trace.records = trace.records, []
                self.absorb(records)

    def absorb(self, records: Sequence[SpanRecord]) -> List[Span]:
        """Rebuild finished spans from primitive records.

        Fresh span ids are minted (a record carries none of its own), but
        parent ids and node attribution are preserved verbatim.
        """
        absorbed = []
        for name, trace_id, parent_id, node, start, end, attr_items in records:
            span = Span(
                None, name, trace_id, self._next_span_id(),
                parent_id=parent_id, node=node, start=start, attrs=dict(attr_items),
            )
            span.end = end
            self._record(span)
            absorbed.append(span)
        return absorbed

    # -- ambient context ------------------------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """The ambient context drains parent to (set by the coordinator only)."""
        return self._current

    def set_current(self, context: Optional[TraceContext]) -> Optional[TraceContext]:
        previous = self._current
        self._current = context
        return previous

    # -- inspection -----------------------------------------------------------------------

    def finished_spans(self, trace_id: Optional[str] = None, name: Optional[str] = None) -> List[Span]:
        self._flush_deferred()
        if trace_id is None:
            spans = [span for trace in self._traces.values() for span in trace.spans]
        else:
            trace = self._traces.get(trace_id)
            spans = [] if trace is None else list(trace.spans)
        if name is not None:
            spans = [span for span in spans if span.name == name]
        return spans

    def trace_ids(self) -> List[str]:
        """The retained traces, oldest first."""
        return list(self._traces)

    def span_tree(self, trace_id: str) -> Dict[str, object]:
        """The assembled span tree of one trace, rooted at its parentless span.

        Raises :class:`~repro.errors.EngineError` when the trace has no
        spans, no root, several roots, or a span whose parent id resolves to
        no recorded span — the completeness property benchmark E20 gates.
        """
        spans = self.finished_spans(trace_id)
        if not spans:
            raise EngineError(f"trace {trace_id!r} has no finished spans")
        by_id = {span.span_id: span for span in spans}
        children: Dict[Optional[str], List[Span]] = {}
        roots = []
        for span in spans:
            if span.parent_id is None:
                roots.append(span)
            elif span.parent_id not in by_id:
                raise EngineError(
                    f"trace {trace_id!r} is incomplete: span {span.span_id!r} ({span.name}) "
                    f"references missing parent {span.parent_id!r}"
                )
            else:
                children.setdefault(span.parent_id, []).append(span)
        if len(roots) != 1:
            raise EngineError(
                f"trace {trace_id!r} must have exactly one root span, found {len(roots)}"
            )

        def render(span: Span) -> Dict[str, object]:
            rendered = span.to_dict()
            rendered["children"] = [
                render(child)
                for child in sorted(children.get(span.span_id, []), key=lambda s: s.start)
            ]
            return rendered

        return render(roots[0])

    def clear(self) -> None:
        self._traces = {}
