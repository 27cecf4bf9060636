"""Tests for Fact and Schema."""

import pytest

from repro.errors import SchemaError
from repro.engine.tuples import Fact, Schema


class TestFact:
    def test_make_normalises_lists_to_tuples(self):
        fact = Fact.make("path", ["n0", "n1", [1, 2]])
        assert fact.values == ("n0", "n1", (1, 2))

    def test_facts_are_hashable_and_value_equal(self):
        a = Fact.make("link", ["n0", "n1", 1])
        b = Fact.make("link", ["n0", "n1", 1])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unsupported_value_type_rejected(self):
        with pytest.raises(SchemaError):
            Fact.make("bad", [object()])

    def test_unsupported_nested_type_rejected(self):
        with pytest.raises(SchemaError):
            Fact.make("bad", [({"a": 1},)])

    def test_rendering(self):
        fact = Fact.make("link", ["n0", "n1", 1.5])
        assert str(fact) == 'link("n0", "n1", 1.5)'

    def test_arity_and_value_access(self):
        fact = Fact.make("p", [1, 2, 3])
        assert fact.arity == 3
        assert fact.value(1) == 2


class TestSchema:
    def test_key_projection(self):
        schema = Schema(relation="link", arity=3, key_positions=(0, 1))
        fact = Fact.make("link", ["a", "b", 4])
        assert schema.key_of(fact) == ("a", "b")

    def test_location_projection(self):
        schema = Schema(relation="p", arity=2, location_index=1)
        assert schema.location_of(Fact.make("p", ["x", "home"])) == "home"

    def test_check_rejects_wrong_relation_and_arity(self):
        schema = Schema(relation="p", arity=2)
        with pytest.raises(SchemaError):
            schema.check(Fact.make("q", [1, 2]))
        with pytest.raises(SchemaError):
            schema.check(Fact.make("p", [1]))

    def test_invalid_key_position_rejected(self):
        with pytest.raises(SchemaError):
            Schema(relation="p", arity=2, key_positions=(5,))

    def test_invalid_attribute_name_count_rejected(self):
        with pytest.raises(SchemaError):
            Schema(relation="p", arity=2, attribute_names=("only_one",))


class TestFactHotPathCaches:
    """The message-size and sort-key hot paths lean on Fact's cached
    repr/hash; the caches must be invisible (same bytes, same pickles)."""

    def test_repr_matches_dataclass_format_and_is_cached(self):
        fact = Fact.make("link", ["n0", "n1", 1.5])
        expected = "Fact(relation='link', values=('n0', 'n1', 1.5))"
        assert repr(fact) == expected
        assert repr(fact) is repr(fact), "second call must reuse the cached string"

    def test_pickle_round_trip_drops_caches(self):
        import pickle

        fact = Fact.make("path", ["a", "b", ("c", 2)])
        repr(fact), hash(fact)  # populate both caches
        clone = pickle.loads(pickle.dumps(fact))
        assert clone == fact and hash(clone) == hash(fact)
        assert repr(clone) == repr(fact)

    def test_slotted_message_dataclasses_pickle(self):
        """The wire records carry no __dict__; pickling must still round-trip."""
        import pickle

        from repro.engine.messages import TupleDelta, TupleDeltaBatch

        derived = TupleDelta(+1, Fact.make("link", ["a", "b", 1]), "rid0", "n0")
        base = TupleDelta(-1, Fact.make("link", ["a", "b", 1]), "__base__")
        batch = TupleDeltaBatch((derived, base))
        for original in (derived, base, batch):
            clone = pickle.loads(pickle.dumps(original))
            assert clone == original and not hasattr(clone, "__dict__")
        assert base.rloc is None

    def test_message_payload_reprs_match_dataclass_bytes(self):
        """Message.size_estimate reprs every payload, so the payload reprs are
        wire bytes: these literals are the dataclass-format bytes the
        records rendered before they became named tuples."""
        from repro.engine.messages import Message, TupleDelta, TupleDeltaBatch

        fact = Fact.make("link", ["a", "b", 1])
        derived = TupleDelta(+1, fact, "rid0", "n0")
        base = TupleDelta(-1, fact, "__base__")
        derived_bytes = (
            "TupleDelta(sign=1, fact=Fact(relation='link', values=('a', 'b', 1)), "
            "derivation_id='rid0', rloc='n0')"
        )
        base_bytes = (
            "TupleDelta(sign=-1, fact=Fact(relation='link', values=('a', 'b', 1)), "
            "derivation_id='__base__', rloc=None)"
        )
        assert repr(derived) == derived_bytes
        assert repr(base) == base_bytes
        batch = TupleDeltaBatch((derived, base))
        assert repr(batch) == f"TupleDeltaBatch(deltas=({derived_bytes}, {base_bytes}))"
        assert repr(TupleDeltaBatch((derived,))) == f"TupleDeltaBatch(deltas=({derived_bytes},))"
        assert Message("n0", "n1", "tuple", batch).size_estimate() == 259
        # the delta is the prov row: exactly these four fields, in this order
        assert TupleDelta._fields == ("sign", "fact", "derivation_id", "rloc")
        assert TupleDeltaBatch._fields == ("deltas",)
        assert Message._fields == ("sender", "receiver", "category", "payload")
