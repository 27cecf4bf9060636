"""Tests for the per-node tuple store."""

import random

import pytest

from repro.engine.store import BASE_DERIVATION, TupleStore
from repro.engine.tuples import Fact
from repro.errors import EngineError


@pytest.fixture
def store():
    return TupleStore()


def link(a, b, c=1):
    return Fact.make("link", [a, b, c])


class TestDerivationCounting:
    def test_add_first_derivation_reports_new(self, store):
        assert store.add_derivation(link("a", "b"), "d1") is True
        assert store.contains(link("a", "b"))

    def test_second_derivation_not_new(self, store):
        store.add_derivation(link("a", "b"), "d1")
        assert store.add_derivation(link("a", "b"), "d2") is False
        assert store.derivation_count(link("a", "b")) == 2

    def test_fact_survives_until_last_derivation_removed(self, store):
        fact = link("a", "b")
        store.add_derivation(fact, "d1")
        store.add_derivation(fact, "d2")
        assert store.remove_derivation(fact, "d1") is False
        assert store.contains(fact)
        assert store.remove_derivation(fact, "d2") is True
        assert not store.contains(fact)

    def test_removing_unknown_derivation_is_noop(self, store):
        fact = link("a", "b")
        assert store.remove_derivation(fact, "ghost") is False
        store.add_derivation(fact, "d1")
        assert store.remove_derivation(fact, "ghost") is False
        assert store.contains(fact)

    def test_base_derivation_constant(self, store):
        fact = link("a", "b")
        store.add_derivation(fact, BASE_DERIVATION)
        assert BASE_DERIVATION in store.derivations(fact)

    def test_remove_fact_returns_derivations(self, store):
        fact = link("a", "b")
        store.add_derivation(fact, "d1")
        store.add_derivation(fact, "d2")
        assert store.remove_fact(fact) == {"d1", "d2"}
        assert not store.contains(fact)
        assert store.remove_fact(fact) == set()

    def test_same_derivation_added_twice_counts_once(self, store):
        fact = link("a", "b")
        store.add_derivation(fact, "d1")
        assert store.add_derivation(fact, "d1") is False
        assert store.derivation_count(fact) == 1
        assert store.remove_derivation(fact, "d1") is True
        assert not store.contains(fact)

    def test_dropping_back_to_one_derivation_keeps_the_survivor(self, store):
        fact = link("a", "b")
        for derivation_id in ("d1", "d2", "d3"):
            store.add_derivation(fact, derivation_id)
        store.remove_derivation(fact, "d1")
        store.remove_derivation(fact, "d3")
        assert store.derivations(fact) == {"d2"}
        assert store.derivation_count(fact) == 1
        # The survivor alone keeps the fact; a stale id does not remove it.
        assert store.remove_derivation(fact, "d1") is False
        assert store.remove_derivation(fact, "d2") is True
        assert store.derivations(fact) == set()


class TestScansAndIndexes:
    def test_facts_by_relation(self, store):
        store.add_derivation(link("a", "b"), "d1")
        store.add_derivation(link("a", "c"), "d2")
        store.add_derivation(Fact.make("path", ["a", "c", 2]), "d3")
        assert len(list(store.facts("link"))) == 2
        assert store.count("link") == 2
        assert store.count() == 3
        assert store.relations() == ["link", "path"]

    def test_matching_uses_and_maintains_index(self, store):
        store.add_derivation(link("a", "b"), "d1")
        store.add_derivation(link("a", "c"), "d2")
        store.add_derivation(link("b", "c"), "d3")
        matched = list(store.matching("link", {0: "a"}))
        assert {fact.values[1] for fact in matched} == {"b", "c"}
        # Index maintained incrementally after insertion and deletion.
        store.add_derivation(link("a", "d"), "d4")
        assert len(list(store.matching("link", {0: "a"}))) == 3
        store.remove_derivation(link("a", "b"), "d1")
        assert len(list(store.matching("link", {0: "a"}))) == 2

    def test_matching_on_multiple_positions(self, store):
        store.add_derivation(link("a", "b", 1), "d1")
        store.add_derivation(link("a", "b", 2), "d2")
        matched = list(store.matching("link", {0: "a", 1: "b"}))
        assert len(matched) == 2
        assert list(store.matching("link", {0: "a", 2: 2})) == [link("a", "b", 2)]

    def test_matching_empty_bound_scans_everything(self, store):
        store.add_derivation(link("a", "b"), "d1")
        assert list(store.matching("link", {})) == [link("a", "b")]

    def test_matching_unknown_relation_is_empty(self, store):
        assert list(store.matching("nothing", {0: "a"})) == []

    def test_prepared_index_agrees_with_full_scan(self, store):
        rng = random.Random(5)
        for n in range(60):
            store.add_derivation(link(f"a{rng.randrange(4)}", f"b{n}", rng.randrange(3)), "d1")
        store.prepare_index("link", (2, 0))
        for n in range(0, 60, 3):  # maintained after the build, too
            store.remove_fact(next(iter(store.matching("link", {1: f"b{n}"}))))
        for bound in ({0: "a1"}, {0: "a2", 2: 1}, {2: 0}):
            expected = {
                fact
                for fact in store.facts("link")
                if all(fact.values[position] == value for position, value in bound.items())
            }
            assert set(store.matching("link", bound)) == expected

    def test_fact_too_short_for_an_index_rejected(self, store):
        store.prepare_index("link", (3,))
        with pytest.raises(EngineError, match="arity"):
            store.add_derivation(link("a", "b"), "d1")


class TestDeltaBatchTransitions:
    """``apply_delta_batch`` reports net presence changes over a whole batch."""

    def test_overwrite_batch_reports_old_row_gone_and_new_row_new(self, store):
        old_row, new_row = link("a", "b", 1), link("a", "b", 2)
        assert store.apply_delta_batch([(+1, old_row, "d1"), (+1, old_row, "d2")]) == (
            [old_row],
            [],
            [True, True],
        )
        # The first delete drops one derivation only; the replacement and the
        # last delete land in the same batch.
        newly, gone, applied = store.apply_delta_batch(
            [(-1, old_row, "d1"), (+1, new_row, "d3"), (-1, old_row, "d2")]
        )
        assert (newly, gone, applied) == ([new_row], [old_row], [True, True, True])
        assert not store.contains(old_row)
        assert store.derivation_count(new_row) == 1

    def test_re_delete_is_reported_as_not_applied(self, store):
        fact = link("a", "b")
        store.apply_delta_batch([(+1, fact, "d1")])
        assert store.apply_delta_batch([(-1, fact, "d1"), (-1, fact, "d1")]) == (
            [],
            [fact],
            [True, False],
        )
        assert store.apply_delta_batch([(-1, fact, "ghost")]) == ([], [], [False])

    def test_insert_then_delete_within_a_batch_nets_out(self, store):
        fact = link("a", "b")
        assert store.apply_delta_batch([(+1, fact, "d1"), (-1, fact, "d1")]) == (
            [],
            [],
            [True, True],
        )
        assert not store.contains(fact)
        assert list(store.matching("link", {0: "a"})) == []

    def test_delete_then_reinsert_within_a_batch_nets_out(self, store):
        fact = link("a", "b")
        store.add_derivation(fact, "d1")
        assert store.apply_delta_batch([(-1, fact, "d1"), (+1, fact, "d2")]) == (
            [],
            [],
            [True, True],
        )
        assert store.derivations(fact) == {"d2"}

    def test_transitions_follow_first_touch_order(self, store):
        first, second, third = link("a", "b"), link("c", "d"), link("e", "f")
        store.add_derivation(second, "d0")
        newly, gone, _ = store.apply_delta_batch(
            [(+1, third, "d1"), (-1, second, "d0"), (+1, first, "d2"), (+1, third, "d3")]
        )
        assert newly == [third, first]
        assert gone == [second]


class TestSnapshot:
    def test_snapshot_contains_counts(self, store):
        fact = link("a", "b")
        store.add_derivation(fact, "d1")
        store.add_derivation(fact, "d2")
        snapshot = store.snapshot()
        assert snapshot["link"] == [(("a", "b", 1), 2)]

    def test_snapshot_independent_of_arrival_order(self):
        rows = [(link(f"a{n % 3}", f"b{n}", n % 2), f"d{n % 4}") for n in range(20)]
        rows += [(Fact.make("path", ["a0", f"b{n}", n]), "d0") for n in range(5)]
        forward, backward = TupleStore(), TupleStore()
        for fact, derivation_id in rows:
            forward.add_derivation(fact, derivation_id)
        for fact, derivation_id in reversed(rows):
            backward.add_derivation(fact, derivation_id)
        assert forward.snapshot() == backward.snapshot()


class TestRelationsMemoization:
    """relations() is memoized; its sorted order drives the deterministic merge."""

    def test_iteration_order_is_sorted_and_stable(self, store):
        for relation in ("path", "link", "minCost", "bestHop"):
            store.add_derivation(Fact.make(relation, ["a", "b"]), "d1")
        expected = ["bestHop", "link", "minCost", "path"]
        assert store.relations() == expected
        # Memoized call returns the same content, and the caller mutating the
        # returned list must not corrupt later calls.
        first = store.relations()
        first.append("bogus")
        assert store.relations() == expected

    def test_cache_tracks_empty_transitions(self, store):
        store.add_derivation(link("a", "b"), "d1")
        store.add_derivation(Fact.make("path", ["a", "b", 2]), "d2")
        assert store.relations() == ["link", "path"]
        # Adding more facts to a non-empty relation keeps the cached answer.
        store.add_derivation(link("a", "c"), "d3")
        assert store.relations() == ["link", "path"]
        # Draining a relation removes it; re-populating restores it.
        store.remove_derivation(link("a", "b"), "d1")
        store.remove_derivation(link("a", "c"), "d3")
        assert store.relations() == ["path"]
        store.add_derivation(link("x", "y"), "d4")
        assert store.relations() == ["link", "path"]
        store.remove_fact(Fact.make("path", ["a", "b", 2]))
        assert store.relations() == ["link"]

    def test_empty_store_short_circuits(self):
        assert TupleStore().relations() == []


# ---------------------------------------------------------------------------
# Randomized differential oracle
# ---------------------------------------------------------------------------


class NaiveStore:
    """The store contract as one ``{fact: set of derivation ids}`` dict."""

    def __init__(self):
        self.ids = {}

    def apply_delta_batch(self, deltas):
        before = {}  # insertion order = first-seen order
        applied = []
        for sign, fact, derivation_id in deltas:
            before.setdefault(fact, fact in self.ids)
            ids = self.ids.setdefault(fact, set())
            if sign > 0:
                ids.add(derivation_id)
                applied.append(True)
            else:
                applied.append(derivation_id in ids)
                ids.discard(derivation_id)
            if not ids:
                del self.ids[fact]
        newly = [fact for fact, was in before.items() if not was and fact in self.ids]
        gone = [fact for fact, was in before.items() if was and fact not in self.ids]
        return newly, gone, applied

    def matching(self, relation, bound):
        return [
            fact
            for fact in self.ids
            if fact.relation == relation
            and all(fact.values[position] == value for position, value in bound.items())
        ]

    def snapshot(self):
        rows = {}
        for fact, ids in self.ids.items():
            rows.setdefault(fact.relation, []).append((fact.values, len(ids)))
        return {relation: sorted(found, key=lambda row: repr(row[0])) for relation, found in rows.items()}


def observed(store, probes):
    """What a store client can see: snapshot plus index-backed probes."""
    return {
        "snapshot": store.snapshot(),
        "matching": [sorted(store.matching(relation, bound), key=repr) for relation, bound in probes],
    }


class TestDeltaBatchesAgainstNaiveModel:
    """Random batches with overlapping inserts/deletes, duplicate derivations,
    idempotent re-deletes and in-batch flicker: after every batch the store
    must return the model's result and show the model's contents."""

    @pytest.mark.parametrize("seed", range(6), ids=lambda s: f"seed{s}")
    def test_random_batches_match_model(self, seed):
        rng = random.Random(seed * 7919 + 13)
        store, model = TupleStore(), NaiveStore()
        nodes = [f"n{i}" for i in range(5)]
        probes = [
            ("link", {0: nodes[0]}),
            ("link", {0: nodes[1], 1: nodes[2]}),
            ("path", {2: nodes[3]}),
            ("path", {}),
        ]
        live = []  # (fact, derivation id) pairs believed present

        def random_fact():
            if rng.random() < 0.5:
                return Fact.make("link", (rng.choice(nodes), rng.choice(nodes), rng.randint(1, 3)))
            return Fact.make("path", (rng.choice(nodes), rng.choice(nodes), rng.choice(nodes)))

        for step in range(12):
            batch = []
            for _ in range(rng.randint(1, 8)):
                # Facts already present are picked often, so many hold
                # several derivations and deletes of absent ids hit them.
                known = rng.choice(live)[0] if live and rng.random() < 0.4 else random_fact()
                if rng.random() < 0.15:  # a derivation id that is probably absent
                    batch.append((-1, known, f"d{rng.randint(0, 9)}"))
                elif live and rng.random() < 0.45:
                    fact, derivation_id = rng.choice(live)
                    if rng.random() < 0.8:  # otherwise re-delete it later
                        live.remove((fact, derivation_id))
                    batch.append((-1, fact, derivation_id))
                else:
                    fact, derivation_id = known, f"d{rng.randint(0, 9)}"
                    if (fact, derivation_id) not in live:
                        live.append((fact, derivation_id))
                    batch.append((+1, fact, derivation_id))
            if rng.random() < 0.5:
                fact = random_fact()  # flicker: must net out
                batch += [(+1, fact, "flicker"), (-1, fact, "flicker")]
            where = f"seed={seed} step={step} batch={batch}"
            assert store.apply_delta_batch(batch) == model.apply_delta_batch(batch), where
            assert observed(store, probes) == observed(model, probes), where
            for fact, ids in model.ids.items():
                assert store.derivations(fact) == ids, where
