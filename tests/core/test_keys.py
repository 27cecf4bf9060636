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


class TestIdentifierBytes:
    """Literal identifiers: checkpoints, WAL records and golden files persist them,
    so the digest input must never change, however it is built."""

    VIDS = [
        (("link", ["n0", "n1", 1]), "vid_04f12f6761db55e2"),
        (("path", ["n0", "n2", ("n0", "n1", "n2"), 2]), "vid_ed6e7a807e88c4ca"),
        (("path", ["n0", ("n1",), ()]), "vid_a95a7aef80fe4ae5"),
        (("path", ["n0", (-1, 2.5, True, "q'\"")]), "vid_7faef7f5835d1245"),
        (("cost", ["n0", -7, -2.5]), "vid_c678898970c23035"),
        (("cost", ["n0", 0.1, 1e100, float("inf")]), "vid_1b976cc7bdb25a9c"),
        (("flag", ["n0", True]), "vid_f1126f08ff19606b"),
        (("flag", ["n0", 1]), "vid_6f0cdad98aae901f"),
        (("flag", ["n0", 1.0]), "vid_7e6626aaaa13391b"),
        (("name", ["n0", "it's", 'say "hi"']), "vid_e0b3234af6bb312f"),
        (("name", ["n0", "naïve", "日本", "back\\slash"]), "vid_e7805791467cdfad"),
        (("unit", []), "vid_0403db41c90ab72c"),
        (("one", ["x"]), "vid_2064f37362cf1f26"),
    ]

    def test_vids(self):
        for (relation, values), expected in self.VIDS:
            assert vid_for(Fact.make(relation, values)) == expected, (relation, values)
            assert vid_for_values(relation, values) == expected

    def test_equal_twins_keep_their_own_vids(self):
        """``True == 1 == 1.0``, yet each fact is named by its own ``repr``."""
        facts = [Fact.make("flag", ["n0", value]) for value in (True, 1, 1.0)]
        assert facts[0] == facts[1] == facts[2]
        assert [vid_for(fact) for fact in facts] == [
            "vid_f1126f08ff19606b", "vid_6f0cdad98aae901f", "vid_7e6626aaaa13391b"
        ]

    def test_rids(self):
        one = "vid_0123456789abcdef"
        three = [one, "vid_fedcba9876543210", "vid_00000000000000ff"]
        assert rid_for("r1", "n0", []) == "rid_178327c83f05ba47"
        assert rid_for("r1", "n0", [one]) == "rid_89ce27e31a293418"
        assert rid_for("r1", "n0", iter([one])) == "rid_89ce27e31a293418"
        assert rid_for("r1", "n0", three) == "rid_af0753ed925defcf"
        assert rid_for("r2", ("n", 3), (one,)) == "rid_c4dc070d22716a18"
        assert rid_for("r2", 7, ("vid_a", "it's")) == "rid_e0b191e54c56024f"
