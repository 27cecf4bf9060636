"""Property-based tests for the tuple store's derivation-counting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import vid_for
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact

fact_strategy = st.builds(
    lambda relation, values: Fact.make(relation, values),
    st.sampled_from(["link", "path", "minCost"]),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=3),
)

operation = st.tuples(
    st.sampled_from(["add", "remove"]),
    fact_strategy,
    st.sampled_from(["d1", "d2", "d3"]),
)


class TestStoreInvariants:
    @given(st.lists(operation, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fact_present_iff_it_has_derivations(self, operations):
        store = TupleStore()
        reference = {}
        for action, fact, derivation in operations:
            if action == "add":
                store.apply_delta_batch([(+1, fact, derivation)])
                reference.setdefault(fact, set()).add(derivation)
            else:
                store.apply_delta_batch([(-1, fact, derivation)])
                reference.get(fact, set()).discard(derivation)
        for fact, derivations in reference.items():
            assert store.contains(fact) == bool(derivations)
            assert store.derivations(fact) == derivations
        assert store.count() == sum(1 for d in reference.values() if d)

    @given(st.lists(operation, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_index_scans_agree_with_full_scans(self, operations):
        store = TupleStore()
        # Force index creation early so that it is maintained through the whole run.
        list(store.matching("link", {0: 0}))
        for action, fact, derivation in operations:
            store.apply_delta_batch([(+1 if action == "add" else -1, fact, derivation)])
        for value in range(4):
            indexed = set(store.matching("link", {0: value}))
            scanned = {fact for fact in store.facts("link") if fact.values[0] == value}
            assert indexed == scanned


class TestVidProperties:
    @given(st.lists(fact_strategy, min_size=2, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_vids_are_injective_on_distinct_facts(self, facts):
        vids = {vid_for(fact) for fact in facts}
        assert len(vids) == len(set(facts))

    @given(fact_strategy)
    def test_vid_stable_across_calls(self, fact):
        assert vid_for(fact) == vid_for(Fact.make(fact.relation, list(fact.values)))
