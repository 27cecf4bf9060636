"""Per-node tuple store with derivation counting and lazy secondary indexes.

Each node of the distributed system holds the horizontal partition of every
relation whose location attribute names that node.  The store implements
*set semantics with derivation counting*: a fact is present as long as it has
at least one derivation (a base insertion counts as the ``__base__``
derivation).  Incremental deletion removes derivations; only when the last
derivation disappears does the fact itself disappear, which is exactly the
behaviour the ExSPAN maintenance engine relies on.

One store per node: facts live in Python dicts and secondary indexes are
``{key -> set of facts}``, built lazily on first probe and maintained
incrementally afterwards.  Hash-partitioning a node's store across worker
threads, and interning facts into ids with array-backed indexes, were both
measured against this store on the benchmark's churn workloads and could not
become the default; ``docs/performance.md`` (§ One store per node) has the
numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import EngineError
from repro.engine.tuples import Fact

#: Synthetic derivation id used for base-tuple insertions.
BASE_DERIVATION = "__base__"


class TupleStore:
    """Facts grouped by relation, each with its derivation ids.

    A fact's derivation ids are stored as the bare id string while there is
    one (the common case by far) and as a ``set`` from the second on, so the
    cyclic garbage collector has no per-fact container to scan.
    """

    def __init__(self) -> None:
        self._facts: Dict[str, Dict[Fact, Union[str, Set[str]]]] = {}
        # (relation, positions) -> {projected values -> set of facts}
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[Tuple[object, ...], Set[Fact]]] = {}
        # Memoized sorted non-empty relation names; invalidated only when a
        # relation transitions between empty and non-empty, so the common
        # relations() call is allocation- and sort-free.
        self._relations_cache: Optional[List[str]] = None

    # -- basic accessors --------------------------------------------------------

    def relations(self) -> List[str]:
        """Sorted names of the non-empty relations.

        The sorted order is load-bearing: it is the deterministic iteration
        order used by :meth:`snapshot`.  The result is memoized across calls
        and recomputed only when a relation becomes (non-)empty.
        """
        if not self._facts:
            return []
        if self._relations_cache is None:
            self._relations_cache = sorted(
                relation for relation, facts in self._facts.items() if facts
            )
        return list(self._relations_cache)

    def facts(self, relation: str) -> Iterator[Fact]:
        yield from self._facts.get(relation, {})

    def all_facts(self) -> Iterator[Fact]:
        for facts in self._facts.values():
            yield from facts

    def contains(self, fact: Fact) -> bool:
        return fact in self._facts.get(fact.relation, {})

    def count(self, relation: Optional[str] = None) -> int:
        if relation is not None:
            return len(self._facts.get(relation, {}))
        return sum(len(facts) for facts in self._facts.values())

    def content_key(self) -> FrozenSet[str]:
        """The node's fact set, each fact by its ``repr``: equal keys mean equal contents.

        ``repr`` tells ``1``, ``1.0`` and ``True`` apart where fact equality
        does not, so a fact replaced by an equal one of another type still
        moves the key.  The key sees a fact arrive or leave, not a
        derivation arrive or leave.
        """
        return frozenset(map(repr, self.all_facts()))

    def derivations(self, fact: Fact) -> Set[str]:
        """Return the derivation ids currently supporting *fact* (empty if absent)."""
        derivations = self._facts.get(fact.relation, {}).get(fact)
        if derivations is None:
            return set()
        if type(derivations) is str:
            return {derivations}
        return set(derivations)

    def derivation_count(self, fact: Fact) -> int:
        derivations = self._facts.get(fact.relation, {}).get(fact)
        if derivations is None:
            return 0
        return 1 if type(derivations) is str else len(derivations)

    # -- mutation ----------------------------------------------------------------

    def add_derivation(self, fact: Fact, derivation_id: str) -> bool:
        """Add one derivation of *fact*; return True when the fact is newly present."""
        by_fact = self._facts.setdefault(fact.relation, {})
        existing = by_fact.get(fact)
        if existing is None:
            if not by_fact:
                self._relations_cache = None
            by_fact[fact] = derivation_id
            self._index_add(fact)
            return True
        if type(existing) is str:
            if existing != derivation_id:
                by_fact[fact] = {existing, derivation_id}
        else:
            existing.add(derivation_id)
        return False

    def remove_derivation(self, fact: Fact, derivation_id: str) -> bool:
        """Remove one derivation of *fact*; return True when the fact disappears.

        Removing a derivation that is not present is a no-op returning False,
        which makes retraction idempotent (retraction messages may race with
        the derivations they cancel).
        """
        by_fact = self._facts.get(fact.relation)
        if not by_fact or fact not in by_fact:
            return False
        derivations = by_fact[fact]
        if type(derivations) is not str:
            derivations.discard(derivation_id)
            if len(derivations) == 1:
                (by_fact[fact],) = derivations
            return False
        if derivations != derivation_id:
            return False
        del by_fact[fact]
        if not by_fact:
            self._relations_cache = None
        self._index_remove(fact)
        return True

    def apply_delta_batch(
        self, deltas: Iterable[Tuple[int, Fact, str]]
    ) -> Tuple[List[Fact], List[Fact], List[bool]]:
        """Apply an ordered batch of ``(sign, fact, derivation_id)`` deltas.

        Returns ``(newly_present, disappeared, applied)``:

        * *newly_present* / *disappeared* are the facts whose *net* presence
          changed over the whole batch, in first-transition order.  A fact
          that flickers (appears and disappears within the batch, or vice
          versa) is reported in neither list — its net effect on the
          evaluator is nil, which is exactly what lets
          :meth:`repro.engine.evaluator.LocalEvaluator.on_batch` skip the
          derive-then-retract churn a one-at-a-time replay would produce.
        * *applied* has one flag per input delta: for insertions it is always
          True, for deletions it is True iff the derivation was actually
          present (callers mirror it into their provenance support records,
          keeping retraction idempotent).
        """
        before: Dict[Fact, bool] = {}
        order: List[Fact] = []
        applied: List[bool] = []
        for sign, fact, derivation_id in deltas:
            if fact not in before:
                before[fact] = self.contains(fact)
                order.append(fact)
            if sign > 0:
                self.add_derivation(fact, derivation_id)
                applied.append(True)
            else:
                derivations = self._facts.get(fact.relation, {}).get(fact)
                if type(derivations) is str:
                    had = derivations == derivation_id
                else:
                    had = derivations is not None and derivation_id in derivations
                self.remove_derivation(fact, derivation_id)
                applied.append(had)
        newly_present: List[Fact] = []
        disappeared: List[Fact] = []
        for fact in order:
            now = self.contains(fact)
            if now and not before[fact]:
                newly_present.append(fact)
            elif before[fact] and not now:
                disappeared.append(fact)
        return newly_present, disappeared, applied

    def remove_fact(self, fact: Fact) -> Set[str]:
        """Forcibly remove *fact*, returning the derivation ids it had."""
        by_fact = self._facts.get(fact.relation)
        if not by_fact or fact not in by_fact:
            return set()
        derivations = by_fact.pop(fact)
        if not by_fact:
            self._relations_cache = None
        self._index_remove(fact)
        return {derivations} if type(derivations) is str else derivations

    # -- scans and indexes ---------------------------------------------------------

    def matching(self, relation: str, bound: Dict[int, object]) -> Iterator[Fact]:
        """Iterate facts of *relation* whose attributes match the *bound* positions.

        When *bound* is non-empty a hash index on those positions is created
        lazily and maintained incrementally afterwards.
        """
        if not bound:
            yield from self.facts(relation)
            return
        positions = tuple(sorted(bound))
        key = tuple(bound[position] for position in positions)
        index = self._ensure_index(relation, positions)
        yield from index.get(key, ())

    def prepare_index(self, relation: str, positions: Tuple[int, ...]) -> None:
        """Build (or reuse) the secondary index on *positions* of *relation*.

        Batch evaluation calls this up front so index construction is paid
        once per (relation, positions) pair rather than being interleaved
        with the first matching scan of a join pass.
        """
        if positions:
            self._ensure_index(relation, tuple(sorted(positions)))

    def join_tables(self) -> Tuple[Dict[str, Dict[Fact, object]], Callable]:
        """The live fact map and the index getter, for generated joins.

        The joins of :mod:`repro.engine.joins` probe the store through these
        directly: a probe is one dict lookup, not a :meth:`matching`
        generator.  The map is never rebound, so callers may keep the tuple;
        they must only read it and the indexes.  The getter takes a relation
        and sorted positions and returns the index, building it on first
        use.
        """
        return self._facts, self._ensure_index

    def _ensure_index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple[object, ...], Set[Fact]]:
        index_key = (relation, positions)
        if index_key not in self._indexes:
            index: Dict[Tuple[object, ...], Set[Fact]] = {}
            for fact in self.facts(relation):
                projected = tuple(fact.values[position] for position in positions)
                index.setdefault(projected, set()).add(fact)
            self._indexes[index_key] = index
        return self._indexes[index_key]

    def _index_add(self, fact: Fact) -> None:
        for (relation, positions), index in self._indexes.items():
            if relation != fact.relation:
                continue
            if any(position >= fact.arity for position in positions):
                raise EngineError(
                    f"fact {fact} has arity {fact.arity}, too small for index on {positions}"
                )
            projected = tuple(fact.values[position] for position in positions)
            index.setdefault(projected, set()).add(fact)

    def _index_remove(self, fact: Fact) -> None:
        for (relation, positions), index in self._indexes.items():
            if relation != fact.relation:
                continue
            projected = tuple(fact.values[position] for position in positions)
            bucket = index.get(projected)
            if bucket is not None:
                bucket.discard(fact)
                if not bucket:
                    del index[projected]

    # -- snapshots -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, List[Tuple[Tuple[object, ...], int]]]:
        """Return a serialisable snapshot: relation -> [(values, derivation count)].

        The row order is fully determined by the store *contents* (sorted
        relations, then facts sorted by value repr), so two stores holding
        the same facts produce bit-identical snapshots whatever order the
        facts arrived in.
        """
        result: Dict[str, List[Tuple[Tuple[object, ...], int]]] = {}
        for relation in self.relations():
            rows = []
            for fact in sorted(self.facts(relation), key=lambda f: repr(f.values)):
                rows.append((fact.values, self.derivation_count(fact)))
            result[relation] = rows
        return result
