"""Unit coverage for the tracer (span trees, absorb), the flight recorder and
the ``observability=`` switch."""

from __future__ import annotations

import pytest

from repro.errors import EngineError
from repro.engine import topology
from repro.engine.runtime import NetTrailsRuntime
from repro.obs import Observability
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.tracing import TraceContext, Tracer
from repro.protocols import mincost


class TestSpans:
    def test_root_span_mints_a_trace_id(self):
        tracer = Tracer()
        first = tracer.start_span("a")
        second = tracer.start_span("b")
        assert first.trace_id != second.trace_id
        assert first.parent_id is None

    def test_child_inherits_trace_id_from_parent(self):
        tracer = Tracer()
        root = tracer.start_span("query", trace_id="q1")
        child = tracer.start_span("frame", parent=root)
        grandchild = tracer.start_span("frame", parent=child.context())
        assert child.trace_id == "q1"
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_finish_records_once_and_merges_attrs(self):
        tracer = Tracer()
        span = tracer.start_span("query", trace_id="q1", messages=0)
        span.finish(messages=4)
        span.finish(messages=99)  # idempotent: second finish is a no-op
        finished = tracer.finished_spans("q1")
        assert len(finished) == 1
        assert finished[0].attrs["messages"] == 4
        assert finished[0].duration >= 0.0

    def test_finished_spans_filters_by_trace_and_name(self):
        tracer = Tracer()
        tracer.start_span("query", trace_id="q1").finish()
        tracer.start_span("frame", trace_id="q1").finish()
        tracer.start_span("query", trace_id="q2").finish()
        assert len(tracer.finished_spans("q1")) == 2
        assert len(tracer.finished_spans(name="query")) == 2
        assert len(tracer.finished_spans("q1", name="frame")) == 1
        assert tracer.trace_ids() == ["q1", "q2"]


class TestSpanTree:
    def test_tree_assembles_with_children_sorted_by_start(self):
        tracer = Tracer()
        root = tracer.start_span("query", trace_id="q1")
        late = tracer.start_span("frame", parent=root, node="'n1'")
        early = tracer.start_span("frame", parent=root, node="'n0'")
        early.start = root.start + 0.001
        late.start = root.start + 0.002
        early.finish()
        late.finish()
        root.finish()
        tree = tracer.span_tree("q1")
        assert tree["name"] == "query"
        assert [child["node"] for child in tree["children"]] == ["'n0'", "'n1'"]

    def test_no_spans_raises(self):
        with pytest.raises(EngineError, match="no finished spans"):
            Tracer().span_tree("missing")

    def test_missing_parent_raises(self):
        tracer = Tracer()
        root = tracer.start_span("query", trace_id="q1")
        orphan = tracer.start_span("frame", parent=TraceContext("q1", "ghost"))
        orphan.finish()
        root.finish()
        with pytest.raises(EngineError, match="missing parent"):
            tracer.span_tree("q1")

    def test_multiple_roots_raise(self):
        tracer = Tracer()
        tracer.start_span("a", trace_id="q1").finish()
        tracer.start_span("b", trace_id="q1").finish()
        with pytest.raises(EngineError, match="exactly one root"):
            tracer.span_tree("q1")

    def test_clear_forgets_finished_spans(self):
        tracer = Tracer()
        tracer.start_span("query", trace_id="q1").finish()
        tracer.clear()
        assert tracer.finished_spans() == []


class TestAbsorb:
    def test_absorb_preserves_parentage_and_attrs_with_fresh_ids(self):
        # A drain defers a primitive record (as node drains do); the first
        # inspection absorbs it and the tree assembles under the window root.
        tracer = Tracer()
        root = tracer.start_span("window", trace_id="w1")
        tracer.defer(("drain", "w1", root.span_id, "'n3'", 1.0, 1.5, (("updates", 7),)))
        root.finish()

        [span] = tracer.finished_spans(name="drain")
        assert span.parent_id == root.span_id
        assert span.node == "'n3'"
        assert span.attrs == {"updates": 7}
        assert span.duration == 0.5
        assert span.span_id not in (None, root.span_id)  # minted on absorb
        tree = tracer.span_tree("w1")
        assert [child["name"] for child in tree["children"]] == ["drain"]

    def test_ambient_context_is_settable_and_restorable(self):
        tracer = Tracer()
        assert tracer.current() is None
        context = TraceContext("q1", "s1")
        previous = tracer.set_current(context)
        assert previous is None
        assert tracer.current() == context
        tracer.set_current(previous)
        assert tracer.current() is None


class TestFlightRecorder:
    def test_ring_drops_oldest_and_accounts_for_it(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record("a")
        recorder.record("b")
        recorder.record("c")
        dump = recorder.dump()
        assert dump["recorded"] == 3
        assert dump["dropped"] == 1
        assert [event["kind"] for event in dump["events"]] == ["b", "c"]
        assert [event["seq"] for event in dump["events"]] == [2, 3]

    def test_events_filter_by_kind(self):
        recorder = FlightRecorder()
        recorder.record("drain", node="n0")
        recorder.record("checkpoint", window=3)
        recorder.record("drain", node="n1")
        drains = recorder.events("drain")
        assert [event["node"] for event in drains] == ["n0", "n1"]
        assert len(recorder) == 3

    def test_non_positive_capacity_raises(self):
        with pytest.raises(ValueError, match="must be positive"):
            FlightRecorder(capacity=0)


class TestObservabilitySwitch:
    """``observability=`` is one plain switch: ``True`` attaches a fresh
    bundle, ``False`` (the default) attaches nothing, anything else raises,
    as ``provenance=`` does."""

    @staticmethod
    def build(**kwargs):
        return NetTrailsRuntime(mincost.SOURCE, topology.line(2), **kwargs)

    def test_true_attaches_a_fresh_bundle_per_runtime(self):
        first, second = self.build(observability=True), self.build(observability=True)
        assert isinstance(first.obs, Observability)
        assert first.obs is not second.obs

    def test_false_and_the_default_attach_nothing(self):
        assert self.build(observability=False).obs is None
        assert self.build().obs is None

    @pytest.mark.parametrize("value", [None, 1, "yes", Observability()], ids=repr)
    def test_a_non_bool_raises(self, value):
        with pytest.raises(TypeError, match="observability must be True or False"):
            self.build(observability=value)

    def test_the_bundle_takes_no_options(self):
        obs = Observability()
        assert not hasattr(obs, "tracing")
        assert obs.recorder.capacity == DEFAULT_CAPACITY
        with pytest.raises(TypeError):
            Observability(tracing=False)
