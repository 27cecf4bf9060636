"""Unit tests for the process backend's drain-trace wire layer.

The coordinator and each worker keep a :class:`~repro.engine.procpool.TraceCodec`
pair in lockstep over one pipe: the sender encodes with its codec, the
receiver decodes with its twin, and both append to their interning tables in
the same order because the protocol is strict request/reply alternation.
These tests drive an encoder/decoder pair directly — the same discipline,
without forking — and pin the envelope framing and the channel-level
transport accounting the E19 benchmark reads.
"""

from __future__ import annotations

import pytest

from repro.engine import topology
from repro.engine.backends import ProcessPoolBackend
from repro.engine.evaluator import DerivationEffect
from repro.engine.messages import ProvenanceTag, TupleDelta
from repro.engine.procpool import TraceCodec, dump_envelope, load_envelope
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.protocols import mincost


def fact(i=0):
    return Fact.make("link", (f"n{i}", f"n{i + 1}", 1.0))


def tag(i=0):
    return ProvenanceTag("r1", "mincost", f"n{i}", f"rid{i}")


def update(i=0, sign=+1):
    return TupleDelta(sign, fact(i), f"d{i}", tag(i))


def effect(i=0, sign=+1):
    return DerivationEffect(
        sign=sign,
        firing_id=f"n0#{i}",
        rule_name="r1",
        program_name="mincost",
        head_fact=fact(i),
        head_location=f"n{i}",
        body_facts=(fact(i), fact(i + 1)),
    )


def codec_pair():
    return TraceCodec(), TraceCodec()


class TestCodecRoundTrip:
    def test_updates_round_trip(self):
        encoder, decoder = codec_pair()
        updates = [update(0), update(1, sign=-1), TupleDelta(+1, fact(2), "d2", None)]
        decoded = decoder.decode_updates(encoder.encode_updates(updates))
        assert decoded == updates

    def test_trace_round_trips_every_entry_shape(self):
        encoder, decoder = codec_pair()
        trace = [
            ("batch", [update(0), update(1)]),
            ("single", update(2)),
            ("effects", [effect(0), effect(1, sign=-1)], [tag(0), None]),
        ]
        assert decoder.decode_trace(encoder.encode_trace(trace)) == trace

    def test_repeated_facts_shrink_to_int_references(self):
        """The second shipment of an equal fact is an intern id, not a
        (relation, values) payload — including across *separate* calls,
        which is what pickle's per-dump identity memo cannot do."""
        encoder, decoder = codec_pair()
        first = encoder.encode_updates([update(0)])
        again = encoder.encode_updates([update(0)])
        assert isinstance(again[0][1], int), "known fact must ship as an int id"
        assert first[0][1] != again[0][1] or not isinstance(first[0][1], int)
        # The decoder stays in lockstep as long as it sees the same order.
        assert decoder.decode_updates(first) == [update(0)]
        assert decoder.decode_updates(again) == [update(0)]

    def test_non_string_locations_survive(self):
        """Node ids are usually strings but the engine allows any hashable;
        the codec's raw-marker escape must keep ints and tuples intact."""
        encoder, decoder = codec_pair()
        for location in (7, ("as", 3), None):
            original = TupleDelta(
                +1, fact(0), "d0", ProvenanceTag("r", "p", location, "rid")
            )
            decoded = decoder.decode_updates(encoder.encode_updates([original]))[0]
            assert decoded.provenance.exec_node == location

    def test_out_of_lockstep_decoder_fails_loudly(self):
        """A decoder that missed an earlier message cannot resolve the
        sender's intern ids — a protocol bug must crash, not corrupt."""
        encoder, decoder = codec_pair()
        encoder.encode_updates([update(0)])  # decoder never sees this one
        second = encoder.encode_updates([update(0)])  # ships fact as int id
        with pytest.raises((KeyError, IndexError)):
            decoder.decode_updates(second)


class TestEnvelopeFraming:
    def test_round_trip_and_shutdown_sentinel(self):
        envelope = ("drains", [("n0", [("u",)])])
        assert load_envelope(dump_envelope(envelope)) == envelope
        assert load_envelope(dump_envelope(None)) is None

    def test_delta_encoding_is_smaller_on_repeated_traffic(self):
        """Ten drains shipping the same facts: the codec pays the fact bytes
        once, raw pickling pays them every time."""
        encoder = TraceCodec()
        updates = [update(i % 3) for i in range(6)]
        delta_bytes = raw_bytes = 0
        for _ in range(10):
            delta_bytes += len(dump_envelope(encoder.encode_updates(updates)))
            raw_bytes += len(dump_envelope(updates))
        assert delta_bytes < raw_bytes * 0.6


class TestTransportStats:
    def run_churn(self, trace_delta):
        backend = ProcessPoolBackend(workers=2, trace_delta=trace_delta)
        with NetTrailsRuntime(
            mincost.program(), topology.isp_hierarchy(2, 2, 1, seed=5), backend=backend
        ) as runtime:
            runtime.seed_links(run=True)
            edges = sorted(runtime.topology.edges)
            for a, b in edges[:4]:
                cost = runtime.topology.cost(a, b)
                runtime.delete("link", [a, b, cost])
                runtime.run_to_quiescence()
                runtime.insert("link", [a, b, cost])
                runtime.run_to_quiescence()
            stats = backend.transport_stats()
            state = runtime.state("minCost")
        return stats, state

    def test_stats_shape_and_coalescing_bound(self):
        stats, state = self.run_churn(trace_delta=True)
        assert set(stats) == {"drains", "envelopes", "request_bytes", "reply_bytes"}
        assert state, "churn must leave a converged minCost table"
        assert stats["drains"] > 0
        # Coalescing can only merge requests: never more envelopes than
        # drains, and every envelope carries bytes in both directions.
        assert 0 < stats["envelopes"] <= stats["drains"]
        assert stats["request_bytes"] > 0 and stats["reply_bytes"] > 0

    def test_trace_delta_ablation_reduces_bytes_not_state(self):
        delta_stats, delta_state = self.run_churn(trace_delta=True)
        raw_stats, raw_state = self.run_churn(trace_delta=False)
        assert delta_state == raw_state
        assert delta_stats["drains"] == raw_stats["drains"]
        delta_total = delta_stats["request_bytes"] + delta_stats["reply_bytes"]
        raw_total = raw_stats["request_bytes"] + raw_stats["reply_bytes"]
        assert delta_total < raw_total
