"""Tests for content-addressed provenance identifiers."""

import hashlib
import pickle

from repro.core.keys import BASE_RID, rid_for, vid_for, vid_for_values
from repro.engine.tuples import Fact


class TestVids:
    def test_vid_is_deterministic(self):
        fact = Fact.make("link", ["n0", "n1", 1])
        assert vid_for(fact) == vid_for(Fact.make("link", ["n0", "n1", 1]))

    def test_vid_distinguishes_values_and_relations(self):
        assert vid_for(Fact.make("link", ["n0", "n1", 1])) != vid_for(Fact.make("link", ["n0", "n1", 2]))
        assert vid_for(Fact.make("link", ["n0", "n1", 1])) != vid_for(Fact.make("edge", ["n0", "n1", 1]))

    def test_vid_for_values_matches_vid_for(self):
        fact = Fact.make("path", ["n0", "n2", (1, 2)])
        assert vid_for_values("path", ["n0", "n2", (1, 2)]) == vid_for(fact)

    def test_vid_prefix(self):
        assert vid_for(Fact.make("x", [1])).startswith("vid_")


class TestVidMemo:
    """The VID is hashed once per ``Fact`` instance and kept in its ``_vid`` slot."""

    @staticmethod
    def digest(fact):
        payload = repr((fact.relation, fact.values)).encode("utf-8")
        return "vid_" + hashlib.sha1(payload).hexdigest()[:16]

    def test_memoised_vid_equals_the_plain_digest(self):
        fact = Fact.make("path", ["n0", "n2", (1, 2), 2.5])
        assert not hasattr(fact, "_vid")
        assert vid_for(fact) == self.digest(fact)
        assert fact._vid == self.digest(fact)
        assert vid_for(fact) is vid_for(fact)  # served from the memo

    def test_pickle_drops_the_memo_and_recomputes_it(self):
        fact = Fact.make("link", ["n0", "n1", 1])
        vid = vid_for(fact)
        clone = pickle.loads(pickle.dumps(fact))
        assert not hasattr(clone, "_vid")
        assert vid_for(clone) == vid

    def test_equality_hash_and_repr_ignore_the_memo(self):
        hashed, plain = Fact.make("link", ["n0", "n1", 1]), Fact.make("link", ["n0", "n1", 1])
        plain_repr = repr(plain)
        vid_for(hashed)
        assert hashed == plain
        assert hash(hashed) == hash(plain)
        assert repr(hashed) == plain_repr
        assert "_vid" not in repr(hashed)


class TestRids:
    def test_rid_is_deterministic(self):
        assert rid_for("r1", "n0", ["vid_a", "vid_b"]) == rid_for("r1", "n0", ["vid_a", "vid_b"])

    def test_rid_depends_on_rule_node_and_children(self):
        base = rid_for("r1", "n0", ["vid_a"])
        assert base != rid_for("r2", "n0", ["vid_a"])
        assert base != rid_for("r1", "n1", ["vid_a"])
        assert base != rid_for("r1", "n0", ["vid_b"])

    def test_rid_depends_on_child_order(self):
        assert rid_for("r1", "n0", ["a", "b"]) != rid_for("r1", "n0", ["b", "a"])

    def test_base_marker_is_not_a_hash(self):
        assert BASE_RID == "BASE"
