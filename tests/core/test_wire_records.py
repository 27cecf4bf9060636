"""The records built per delta, per message and per query hop.

Deltas, messages, evaluator effects and query payloads are named tuples.
They must stay immutable and picklable, and the code that receives them must
tell a batch from a bare record although both are tuples now.
"""

import pickle

import pytest

from repro.errors import EngineError
from repro.core.keys import vid_for
from repro.core.optimizations import QueryOptions
from repro.core.queries import ExecRef
from repro.core.query import (
    DistributedQueryEngine,
    QueryReply,
    QueryReplyBatch,
    QueryRequest,
    QueryRequestBatch,
)
from repro.core.results import TupleRef
from repro.engine import topology
from repro.engine.evaluator import DerivationEffect
from repro.engine.messages import (
    CATEGORY_PROVENANCE_QUERY,
    CATEGORY_PROVENANCE_REPLY,
    CATEGORY_TUPLE,
    Message,
    TupleDelta,
    TupleDeltaBatch,
)
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.protocols import mincost

FACT = Fact.make("link", ["n0", "n1", 1])
DELTA = TupleDelta(+1, FACT, "rid_1", "n0")
REF = TupleRef("link", ("n0", "n1", 1), "n0")
REQUEST = QueryRequest("query1", "n0/r1", "exec", "rid_1", "lineage", QueryOptions(), 0, "n0", ("query1", "s1"))
REPLY = QueryReply("query1", "n0/r1", frozenset({REF}), False, frozenset({"n0"}), 0)
RECORDS = [
    DELTA,
    TupleDeltaBatch((DELTA, DELTA._replace(sign=-1))),
    Message("n0", "n1", CATEGORY_TUPLE, DELTA),
    DerivationEffect(+1, "rid_1", "r1", FACT, "n0", (FACT,)),
    REQUEST,
    QueryRequestBatch((REQUEST, REQUEST._replace(request_id="n0/r2"))),
    REPLY,
    QueryReplyBatch((REPLY, REPLY._replace(request_id="n0/r2"))),
    ExecRef("rid_1", "r1", "p", "n0"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
class TestRecordSemantics:
    def test_fields_cannot_be_assigned(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict to put it in

    def test_pickle_round_trip_gives_an_equal_record(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)


class TestNodeReceive:
    def runtime(self):
        return NetTrailsRuntime("r1 reach(@D, S) :- edge(@S, D).", topology.line(2), provenance=False)

    def test_a_batch_queues_its_deltas_and_a_bare_delta_queues_itself(self):
        runtime = self.runtime()
        node = runtime.node("n1")
        first = TupleDelta(+1, Fact.make("reach", ["n1", "n0"]), "n0#00000001", None)
        second = TupleDelta(+1, Fact.make("reach", ["n1", "n2"]), "n0#00000002", None)
        node.receive(Message("n0", "n1", CATEGORY_TUPLE, TupleDeltaBatch((first, second))))
        assert list(node._queue) == [first, second] and node.stats.deltas_received == 2
        node.receive(Message("n0", "n1", CATEGORY_TUPLE, first))
        assert list(node._queue) == [first, second, first] and node.stats.deltas_received == 3

    def test_a_plain_tuple_with_a_deltas_items_is_malformed(self):
        node = self.runtime().node("n1")
        plain = tuple(TupleDelta(+1, Fact.make("reach", ["n1", "n0"]), "n0#00000001", None))
        with pytest.raises(EngineError, match="malformed"):
            node.receive(Message("n0", "n1", CATEGORY_TUPLE, plain))
        with pytest.raises(EngineError, match="malformed"):
            node.receive(Message("n0", "n1", CATEGORY_TUPLE, (plain,)))


class TestQueryAgentReceive:
    def test_a_request_batch_is_answered_by_a_reply_batch_and_a_bare_request_by_a_bare_reply(self):
        runtime = mincost.setup(topology.ring(4))
        engine = DistributedQueryEngine(runtime)
        vid = vid_for(Fact.make("minCost", ["n0", "n2", 2.0]))
        sent = []
        send = runtime.network.send

        def record(message):
            payload = message.payload
            first = payload.replies[0] if type(payload) is QueryReplyBatch else payload
            if message.category == CATEGORY_PROVENANCE_REPLY and first.request_id.startswith("root"):
                sent.append(payload)  # an answer to one of the requests below
            send(message)

        runtime.network.send = record
        agent = engine.agent("n0")

        def root(request_id):
            return QueryRequest("query9", request_id, "tuple", vid, "lineage", QueryOptions(), 0, "n1")

        agent._on_query(Message("n1", "n0", CATEGORY_PROVENANCE_QUERY, root("root1")))
        runtime.run_to_quiescence()
        batch = QueryRequestBatch((root("root2"), root("root3")))
        agent._on_query(Message("n1", "n0", CATEGORY_PROVENANCE_QUERY, batch))
        runtime.run_to_quiescence()
        bare, batch = sent
        assert type(bare) is QueryReply and bare.request_id == "root1"
        assert type(batch) is QueryReplyBatch and [reply.request_id for reply in batch.replies] == ["root2", "root3"]
        assert bare.value == batch.replies[0].value == batch.replies[1].value

    def test_a_reply_batch_is_handled_reply_by_reply_and_a_bare_reply_whole(self):
        runtime = mincost.setup(topology.ring(4))
        agent = DistributedQueryEngine(runtime).agent("n0")
        handled = []
        agent._handle_reply = handled.append
        second = REPLY._replace(request_id="n0/r2")
        agent._on_reply(Message("n1", "n0", CATEGORY_PROVENANCE_REPLY, QueryReplyBatch((REPLY, second))))
        assert handled == [REPLY, second]
        agent._on_reply(Message("n1", "n0", CATEGORY_PROVENANCE_REPLY, REPLY))
        assert handled == [REPLY, second, REPLY] and type(handled[-1]) is QueryReply
