"""Per-node tuple store with derivation counting and lazy secondary indexes.

Each node of the distributed system holds the horizontal partition of every
relation whose location attribute names that node.  The store implements
*set semantics with derivation counting*: a fact is present as long as it has
at least one derivation (a base insertion counts as the ``__base__``
derivation).  Incremental deletion removes derivations; only when the last
derivation disappears does the fact itself disappear, which is exactly the
behaviour the ExSPAN maintenance engine relies on.

Three store implementations share this contract:

* :class:`TupleStore` — the flat single-partition store, facts in Python
  dicts and secondary indexes as ``{key -> set of facts}`` (the reference /
  ablation representation);
* :class:`ColumnarTupleStore` — the same API with a dictionary-encoded
  columnar core: every fact of a relation is interned once into a dense
  integer id by a per-relation :class:`FactInterner`, and secondary indexes
  hold sorted ``array('q')`` id lists instead of fact sets.  Joins probe the
  id arrays directly (:meth:`ColumnarTupleStore.probe_columns`), the delta
  batch path operates on interned ids, and the evaluator's batch exclusion
  sets become per-relation id sets (:meth:`ColumnarTupleStore.begin_batch_probe`).
  Selected with ``NetTrailsRuntime(columnar=True)`` / ``NETTRAILS_COLUMNAR``;
  the dict-based store remains the default and the equivalence baseline.
* :class:`ShardedTupleStore` — a second horizontal partitioning *inside* one
  logical node: facts are hash-partitioned by their key columns across K
  worker shards (each shard is a private :class:`TupleStore` with its own
  secondary indexes), while the sharded store itself presents the merged
  single-store API.  Delta batches are split into per-shard sub-batches and
  absorbed through a pluggable :class:`ShardExecutor` — serially in the
  deterministic reference mode, or on a thread pool when a node is configured
  with ``shard_workers=N``.  Because every fact hashes to exactly one shard,
  the per-fact delta sub-sequences are preserved verbatim and the merged
  result of :meth:`ShardedTupleStore.apply_delta_batch` is bit-identical to
  the unsharded store's, whatever K and whichever executor.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left, insort
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import EngineError
from repro.engine.tuples import Fact

#: Synthetic derivation id used for base-tuple insertions.
BASE_DERIVATION = "__base__"


# ---------------------------------------------------------------------------
# Shard executors
# ---------------------------------------------------------------------------


class ShardExecutor:
    """Strategy for running independent per-shard jobs.

    Implementations must return results in submission order — that order is
    what makes the cross-shard merges of :class:`ShardedTupleStore` and
    :meth:`repro.engine.evaluator.LocalEvaluator.on_batch` deterministic.
    """

    def map(self, fn: Callable, items: Sequence) -> List:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any worker resources (threads); idempotent."""


class SerialShardExecutor(ShardExecutor):
    """The deterministic reference mode: shards are processed one by one."""

    def map(self, fn: Callable, items: Sequence) -> List:
        return [fn(item) for item in items]


class ThreadShardExecutor(ShardExecutor):
    """Run per-shard jobs on a lazily-created thread pool.

    Each shard's private store is only ever touched by the one job working on
    that shard, so jobs share no mutable state; results are collected in
    submission order, keeping the merge deterministic regardless of thread
    scheduling.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise EngineError(f"ThreadShardExecutor needs >= 1 worker, got {workers}")
        self.workers = workers
        self._pool = None

    def map(self, fn: Callable, items: Sequence) -> List:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="shard"
            )
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def shard_hash(relation: str, key_values: Tuple[object, ...]) -> int:
    """A process-independent hash of a fact's partitioning key.

    Python's built-in ``hash`` is salted per process for strings, so it would
    scatter the same fact to different shards across runs; CRC32 of the
    canonical repr is stable, which is what makes shard assignment (and hence
    sharded execution traces) reproducible.
    """
    return zlib.crc32(repr((relation, key_values)).encode("utf-8"))


class TupleStore:
    """Facts grouped by relation, each with its derivation ids.

    A fact's derivation ids are stored as the bare id string while there is
    one (the common case by far) and as a ``set`` from the second on, so the
    cyclic garbage collector has no per-fact container to scan.
    """

    #: True for the dictionary-encoded columnar implementation; consumers
    #: (the evaluator's batch join) feature-test this instead of the class.
    columnar = False

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
        order used by :meth:`snapshot` and by the cross-shard merges of
        :class:`ShardedTupleStore`.  The result is memoized across calls and
        recomputed only when a relation becomes (non-)empty.
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
        """Return a serialisable snapshot: relation -> [(values, derivation count)]."""
        return _snapshot_of(self)


def _snapshot_of(store) -> Dict[str, List[Tuple[Tuple[object, ...], int]]]:
    """Canonical snapshot of any store implementing the TupleStore contract.

    The row order is fully determined by the store *contents* (sorted
    relations, then facts sorted by value repr), so sharded and unsharded
    stores holding the same facts produce bit-identical snapshots.
    """
    result: Dict[str, List[Tuple[Tuple[object, ...], int]]] = {}
    for relation in store.relations():
        rows = []
        for fact in sorted(store.facts(relation), key=lambda f: repr(f.values)):
            rows.append((fact.values, store.derivation_count(fact)))
        result[relation] = rows
    return result


# ---------------------------------------------------------------------------
# Columnar store (fact interning + array-backed indexes)
# ---------------------------------------------------------------------------


class FactInterner:
    """Dense integer ids for the facts of one relation.

    Ids are assigned in first-appearance order and never reused: a fact that
    disappears and later reappears keeps its id, so index maintenance under
    churn never invalidates previously-built id arrays.  ``facts`` is the
    id -> fact column (a plain list, indexed directly on the join hot path).
    """

    __slots__ = ("facts", "_ids")

    def __init__(self) -> None:
        self.facts: List[Fact] = []
        self._ids: Dict[Fact, int] = {}

    def __len__(self) -> int:
        return len(self.facts)

    def intern(self, fact: Fact) -> int:
        """The id of *fact*, assigning the next dense id on first sight."""
        fid = self._ids.get(fact)
        if fid is None:
            fid = len(self.facts)
            self._ids[fact] = fid
            self.facts.append(fact)
        return fid

    def id_of(self, fact: Fact) -> Optional[int]:
        """The id of *fact* if it has ever been interned, else ``None``."""
        return self._ids.get(fact)


def _sorted_id_remove(ids: array, fid: int) -> None:
    """Remove *fid* from a sorted id array (no-op when absent)."""
    position = bisect_left(ids, fid)
    if position < len(ids) and ids[position] == fid:
        ids.pop(position)


class ColumnarTupleStore(TupleStore):
    """A :class:`TupleStore` with an interned, column-oriented join core.

    The public contract — presence, derivation counting, delta-batch
    semantics, snapshots — is byte-identical to the base class; what changes
    is the physical representation behind scans:

    * every fact is interned once per relation (:class:`FactInterner`);
    * secondary indexes map a key tuple to a *sorted* ``array('q')`` of fact
      ids instead of a set of fact objects, so a join probe walks a compact
      machine-typed array in ascending-id (deterministic) order;
    * :meth:`apply_delta_batch` tracks net presence transitions by interned
      id rather than by fact hashing;
    * :meth:`probe_columns` exposes the raw (facts column, id array) pair to
      the evaluator's compiled join plans, and
      :meth:`begin_batch_probe` / :meth:`end_batch_probe` turn the current
      batch's delta facts into per-relation id sets — the batch-level probe
      tables the semi-naive exclusion rule checks against.

    Enumeration order of a bound :meth:`matching` scan is ascending intern
    id, which differs from the dict store's set order; every compared
    observable (sorted snapshots, content-addressed provenance, counts,
    query answers) is insensitive to within-batch enumeration order, and
    the columnar × dict property matrix pins that equivalence.
    """

    columnar = True

    def __init__(self) -> None:
        super().__init__()
        self._interners: Dict[str, FactInterner] = {}
        # (relation, positions) -> {projected values -> sorted id array}.
        # ``positions == ()`` is the whole-relation index (one bucket under
        # the empty key), serving unconstrained join probes.
        self._col_indexes: Dict[
            Tuple[str, Tuple[int, ...]], Dict[Tuple[object, ...], array]
        ] = {}
        # relation -> [(positions, max position, bucket dict)] — the per-add
        # maintenance registry, so mutating one fact touches only its own
        # relation's indexes (with the arity guard precomputed).
        self._col_by_relation: Dict[
            str, List[Tuple[Tuple[int, ...], int, Dict[Tuple[object, ...], array]]]
        ] = {}
        # relation -> interned ids of the current batch's delta facts; only
        # populated between begin_batch_probe/end_batch_probe.
        self._delta_ids: Dict[str, Set[int]] = {}

    # -- interning ---------------------------------------------------------------

    def interner(self, relation: str) -> FactInterner:
        interner = self._interners.get(relation)
        if interner is None:
            interner = self._interners[relation] = FactInterner()
        return interner

    # -- batch probe tables --------------------------------------------------------

    def begin_batch_probe(self, delta_facts: Iterable[Fact]) -> None:
        """Build the per-relation id sets of the current batch's delta facts.

        The evaluator calls this once per :meth:`on_batch` insert pass; the
        ids feed the batch exclusion rule (body positions before the delta
        position skip every delta fact of that relation) as O(1) integer-set
        probes instead of fact-hash lookups.
        """
        interners = self._interners
        tables: Dict[str, Set[int]] = {}
        for fact in delta_facts:
            relation = fact.relation
            interner = interners.get(relation)
            if interner is None:
                interner = interners[relation] = FactInterner()
            fid = interner.intern(fact)
            table = tables.get(relation)
            if table is None:
                table = tables[relation] = set()
            table.add(fid)
        self._delta_ids = tables

    def end_batch_probe(self) -> None:
        self._delta_ids = {}

    # -- columnar scans ------------------------------------------------------------

    _NO_BUCKETS: List[Tuple[List[Fact], Sequence[int], Optional[Set[int]]]] = []

    def probe_columns(
        self, relation: str, positions: Tuple[int, ...], key: Tuple[object, ...]
    ) -> List[Tuple[List[Fact], Sequence[int], Optional[Set[int]]]]:
        """Return ``(facts column, sorted id array, delta id set)`` buckets.

        One bucket per store partition (a flat store returns at most one; the
        sharded wrapper concatenates its shards').  ``positions`` empty means
        the whole relation.  The delta id set is ``None`` outside a batch
        probe or when the batch has no deltas of *relation*.  A plain list —
        not a generator — because this is the innermost allocation of the
        join hot loop.
        """
        interner = self._interners.get(relation)
        if interner is None:
            return self._NO_BUCKETS
        ids = self._ensure_col_index(relation, positions).get(key)
        if ids:
            return [(interner.facts, ids, self._delta_ids.get(relation))]
        return self._NO_BUCKETS

    def matching(self, relation: str, bound: Dict[int, object]) -> Iterator[Fact]:
        """Iterate matching facts via the id arrays (ascending intern id)."""
        if not bound:
            yield from self.facts(relation)
            return
        positions = tuple(sorted(bound))
        key = tuple(bound[position] for position in positions)
        ids = self._ensure_col_index(relation, positions).get(key)
        if ids:
            facts_column = self._interners[relation].facts
            for fid in ids:
                yield facts_column[fid]

    def prepare_index(self, relation: str, positions: Tuple[int, ...]) -> None:
        # Unlike the base class, the empty-positions (whole relation) index
        # is a real index here — prewarming it keeps the batch enumeration
        # stage free of index construction even for unconstrained probes.
        self._ensure_col_index(relation, tuple(sorted(positions)))

    def _ensure_col_index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple[object, ...], array]:
        index_key = (relation, positions)
        index = self._col_indexes.get(index_key)
        if index is None:
            index = {}
            interner = self.interner(relation)
            for fact in self.facts(relation):
                fid = interner.intern(fact)
                projected = tuple(fact.values[position] for position in positions)
                bucket = index.get(projected)
                if bucket is None:
                    bucket = index[projected] = array("q")
                insort(bucket, fid)
            self._col_indexes[index_key] = index
            self._col_by_relation.setdefault(relation, []).append(
                (positions, max(positions, default=-1), index)
            )
        return index

    # -- index maintenance ---------------------------------------------------------

    def _index_add(self, fact: Fact) -> None:
        indexes = self._col_by_relation.get(fact.relation)
        if not indexes:
            return
        fid = self.interner(fact.relation).intern(fact)
        self._index_add_interned(indexes, fid, fact)

    def _index_add_interned(
        self,
        indexes: List[Tuple[Tuple[int, ...], int, Dict[Tuple[object, ...], array]]],
        fid: int,
        fact: Fact,
    ) -> None:
        values = fact.values
        arity = len(values)
        for positions, max_position, index in indexes:
            if max_position >= arity:
                raise EngineError(
                    f"fact {fact} has arity {arity}, too small for index on {positions}"
                )
            projected = tuple([values[position] for position in positions])
            bucket = index.get(projected)
            if bucket is None:
                bucket = index[projected] = array("q")
                bucket.append(fid)
            elif fid > bucket[-1]:
                # Fresh ids are assigned densely, so an id larger than the
                # current tail appends in O(1); only a re-appearing fact
                # pays the insort.
                bucket.append(fid)
            else:
                insort(bucket, fid)

    def _index_remove(self, fact: Fact) -> None:
        indexes = self._col_by_relation.get(fact.relation)
        if not indexes:
            return
        fid = self.interner(fact.relation).id_of(fact)
        if fid is None:
            return
        self._index_remove_interned(indexes, fid, fact)

    def _index_remove_interned(
        self,
        indexes: List[Tuple[Tuple[int, ...], int, Dict[Tuple[object, ...], array]]],
        fid: int,
        fact: Fact,
    ) -> None:
        values = fact.values
        for positions, _max_position, index in indexes:
            projected = tuple([values[position] for position in positions])
            bucket = index.get(projected)
            if bucket is not None:
                _sorted_id_remove(bucket, fid)
                if not bucket:
                    del index[projected]

    # -- id-based delta batch --------------------------------------------------------

    def apply_delta_batch(
        self, deltas: Iterable[Tuple[int, Fact, str]]
    ) -> Tuple[List[Fact], List[Fact], List[bool]]:
        """The :meth:`TupleStore.apply_delta_batch` contract, tracked by id.

        Each delta's fact is interned exactly once up front; the first-seen /
        net-transition bookkeeping then runs on per-relation integer maps
        instead of hashing fact objects per delta.
        """
        interners = self._interners
        facts_by_relation = self._facts
        col_by_relation = self._col_by_relation
        before: Dict[str, Dict[int, bool]] = {}
        order: List[Tuple[str, int, Fact]] = []
        applied: List[bool] = []
        # Deltas arrive in long same-relation runs (a batch is grouped by the
        # effects that produced it), so the per-relation lookups are hoisted
        # behind a one-entry cache instead of being repeated per delta.
        last_relation: Optional[str] = None
        interner = by_fact = seen = indexes = None
        for sign, fact, derivation_id in deltas:
            relation = fact.relation
            if relation != last_relation:
                last_relation = relation
                interner = interners.get(relation)
                if interner is None:
                    interner = interners[relation] = FactInterner()
                by_fact = facts_by_relation.get(relation)
                if by_fact is None:
                    by_fact = facts_by_relation[relation] = {}
                seen = before.get(relation)
                if seen is None:
                    seen = before[relation] = {}
                indexes = col_by_relation.get(relation)
            fid = interner.intern(fact)
            # Swap in the canonical interned instance: every downstream
            # fact-keyed dict/set operation (presence, derivation sets,
            # aggregate memberships, effect routing) then hits CPython's
            # identity fast path instead of comparing value tuples.
            fact = interner.facts[fid]
            derivs = by_fact.get(fact)
            if fid not in seen:
                seen[fid] = derivs is not None
                order.append((relation, fid, fact))
            # The derivation bookkeeping below inlines add_derivation /
            # remove_derivation with the relation's presence dict and the
            # fact's derivation ids already in hand — the batch loop touches
            # each dict once per delta instead of once per helper call.
            if sign > 0:
                if derivs is None:
                    if not by_fact:
                        self._relations_cache = None
                    by_fact[fact] = derivation_id
                    if indexes:
                        self._index_add_interned(indexes, fid, fact)
                elif type(derivs) is str:
                    if derivs != derivation_id:
                        by_fact[fact] = {derivs, derivation_id}
                else:
                    derivs.add(derivation_id)
                applied.append(True)
            elif derivs is None:
                applied.append(False)
            elif type(derivs) is str:
                last = derivs == derivation_id
                applied.append(last)
                if last:
                    del by_fact[fact]
                    if not by_fact:
                        self._relations_cache = None
                    if indexes:
                        self._index_remove_interned(indexes, fid, fact)
            else:
                applied.append(derivation_id in derivs)
                derivs.discard(derivation_id)
                if len(derivs) == 1:
                    (by_fact[fact],) = derivs
        newly_present: List[Fact] = []
        disappeared: List[Fact] = []
        for relation, fid, fact in order:
            now = fact in facts_by_relation.get(relation, ())
            was = before[relation][fid]
            if now and not was:
                newly_present.append(fact)
            elif was and not now:
                disappeared.append(fact)
        return newly_present, disappeared, applied


# ---------------------------------------------------------------------------
# Sharded store
# ---------------------------------------------------------------------------


class ShardedTupleStore:
    """A logical node's relations hash-partitioned across K worker shards.

    Facts are routed by a stable hash of their partitioning key — by default
    the full value tuple, but callers that know the relation catalog pass a
    ``key_fn`` projecting the primary-key columns, so all versions of a keyed
    row stay on one shard.  Each shard is a private :class:`TupleStore` with
    its own lazily-built secondary indexes; the sharded store presents the
    merged single-store API on top (scans and index lookups chain the shards
    in shard order), so evaluators and queries are oblivious to K.

    ``apply_delta_batch`` is the parallel entry point: the ordered batch is
    split into per-shard sub-batches (each fact's deltas all land on its one
    shard, preserving their relative order), the sub-batches are absorbed
    through the configured :class:`ShardExecutor`, and the per-shard results
    are merged back into the global batch order — the net-transition lists
    and per-delta applied flags are bit-identical to a flat
    :class:`TupleStore` absorbing the same batch.
    """

    def __init__(
        self,
        num_shards: int,
        key_fn: Optional[Callable[[Fact], Tuple[object, ...]]] = None,
        executor: Optional[ShardExecutor] = None,
        columnar: bool = False,
    ):
        if num_shards < 1:
            raise EngineError(f"a sharded store needs >= 1 shard, got {num_shards}")
        self.num_shards = num_shards
        self.columnar = columnar
        store_cls = ColumnarTupleStore if columnar else TupleStore
        self.shards: List[TupleStore] = [store_cls() for _ in range(num_shards)]
        self._key_fn = key_fn if key_fn is not None else (lambda fact: fact.values)
        self._executor: ShardExecutor = executor if executor is not None else SerialShardExecutor()
        # Fact -> shard number.  shard_hash serialises the partitioning key
        # with repr() on every call; under churn the same facts are routed
        # over and over (every delta, scan merge, and provenance lookup), so
        # the canonical-bytes hash is computed once per distinct fact and
        # memoized here.  Ids never change (the hash is content-based), so
        # the cache needs no invalidation.
        self._shard_cache: Dict[Fact, int] = {}

    # -- partitioning ------------------------------------------------------------

    def shard_index(self, fact: Fact) -> int:
        """The shard number *fact* is assigned to (stable across processes)."""
        shard = self._shard_cache.get(fact)
        if shard is None:
            shard = shard_hash(fact.relation, self._key_fn(fact)) % self.num_shards
            self._shard_cache[fact] = shard
        return shard

    def shard_of(self, fact: Fact) -> TupleStore:
        return self.shards[self.shard_index(fact)]

    def split_delta_batch(
        self, deltas: Iterable[Tuple[int, Fact, str]]
    ) -> List[List[Tuple[int, int, Fact, str]]]:
        """Split an ordered delta batch into per-shard sub-batches.

        Each sub-batch entry carries the delta's position in the original
        batch (``(original_index, sign, fact, derivation_id)``) so the merge
        can restore global ordering for applied flags and first-transition
        reporting.
        """
        per_shard: List[List[Tuple[int, int, Fact, str]]] = [
            [] for _ in range(self.num_shards)
        ]
        for position, (sign, fact, derivation_id) in enumerate(deltas):
            per_shard[self.shard_index(fact)].append((position, sign, fact, derivation_id))
        return per_shard

    # -- basic accessors ----------------------------------------------------------

    def relations(self) -> List[str]:
        merged: Set[str] = set()
        for shard in self.shards:
            merged.update(shard.relations())
        return sorted(merged)

    def facts(self, relation: str) -> Iterator[Fact]:
        for shard in self.shards:
            yield from shard.facts(relation)

    def all_facts(self) -> Iterator[Fact]:
        for shard in self.shards:
            yield from shard.all_facts()

    def contains(self, fact: Fact) -> bool:
        return self.shard_of(fact).contains(fact)

    def count(self, relation: Optional[str] = None) -> int:
        return sum(shard.count(relation) for shard in self.shards)

    def derivations(self, fact: Fact) -> Set[str]:
        return self.shard_of(fact).derivations(fact)

    def derivation_count(self, fact: Fact) -> int:
        return self.shard_of(fact).derivation_count(fact)

    # -- mutation -----------------------------------------------------------------

    def add_derivation(self, fact: Fact, derivation_id: str) -> bool:
        return self.shard_of(fact).add_derivation(fact, derivation_id)

    def remove_derivation(self, fact: Fact, derivation_id: str) -> bool:
        return self.shard_of(fact).remove_derivation(fact, derivation_id)

    def remove_fact(self, fact: Fact) -> Set[str]:
        return self.shard_of(fact).remove_fact(fact)

    def apply_delta_batch(
        self, deltas: Iterable[Tuple[int, Fact, str]]
    ) -> Tuple[List[Fact], List[Fact], List[bool]]:
        """Absorb a batch shard-parallel; results match the flat store exactly.

        See :meth:`TupleStore.apply_delta_batch` for the contract.  All of a
        fact's deltas share its shard, so every per-fact delta sub-sequence is
        replayed verbatim by exactly one shard; the merge orders net
        transitions by each fact's first occurrence in the *global* batch and
        scatters the applied flags back to their original positions, making
        the result independent of both K and the executor.
        """
        per_shard = self.split_delta_batch(deltas)
        jobs = [
            (shard_number, sub_batch)
            for shard_number, sub_batch in enumerate(per_shard)
            if sub_batch
        ]

        def absorb(job):
            shard_number, sub_batch = job
            newly, gone, applied = self.shards[shard_number].apply_delta_batch(
                (sign, fact, derivation_id) for _, sign, fact, derivation_id in sub_batch
            )
            return sub_batch, newly, gone, applied

        total = sum(len(sub_batch) for _, sub_batch in jobs)
        applied_flags: List[bool] = [False] * total
        transitions: List[Tuple[int, int, Fact]] = []  # (first position, sign, fact)
        for sub_batch, newly, gone, applied in self._executor.map(absorb, jobs):
            for (position, _, _, _), flag in zip(sub_batch, applied):
                applied_flags[position] = flag
            first_seen: Dict[Fact, int] = {}
            for position, _, fact, _ in sub_batch:
                if fact not in first_seen:
                    first_seen[fact] = position
            transitions.extend((first_seen[fact], +1, fact) for fact in newly)
            transitions.extend((first_seen[fact], -1, fact) for fact in gone)
        transitions.sort(key=lambda item: item[0])
        newly_present = [fact for _, sign, fact in transitions if sign > 0]
        disappeared = [fact for _, sign, fact in transitions if sign < 0]
        return newly_present, disappeared, applied_flags

    # -- scans and indexes ----------------------------------------------------------

    def matching(self, relation: str, bound: Dict[int, object]) -> Iterator[Fact]:
        """Chain the shards' (index-accelerated) scans, in shard order."""
        for shard in self.shards:
            yield from shard.matching(relation, bound)

    def prepare_index(self, relation: str, positions: Tuple[int, ...]) -> None:
        for shard in self.shards:
            shard.prepare_index(relation, positions)

    # -- columnar delegation ---------------------------------------------------------

    def probe_columns(
        self, relation: str, positions: Tuple[int, ...], key: Tuple[object, ...]
    ) -> List[Tuple[List[Fact], Sequence[int], Optional[Set[int]]]]:
        """Concatenate the shards' columnar probe buckets, in shard order.

        Intern ids are shard-local, so each bucket pairs a shard's id array
        with *that shard's* facts column and delta-id set; consumers never
        mix ids across buckets.
        """
        buckets: List[Tuple[List[Fact], Sequence[int], Optional[Set[int]]]] = []
        for shard in self.shards:
            buckets.extend(shard.probe_columns(relation, positions, key))  # type: ignore[attr-defined]
        return buckets

    def begin_batch_probe(self, delta_facts: Iterable[Fact]) -> None:
        """Route each delta fact to its shard's batch probe table."""
        per_shard: List[List[Fact]] = [[] for _ in range(self.num_shards)]
        for fact in delta_facts:
            per_shard[self.shard_index(fact)].append(fact)
        for shard, facts in zip(self.shards, per_shard):
            shard.begin_batch_probe(facts)  # type: ignore[attr-defined]

    def end_batch_probe(self) -> None:
        for shard in self.shards:
            shard.end_batch_probe()  # type: ignore[attr-defined]

    # -- snapshots -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, List[Tuple[Tuple[object, ...], int]]]:
        """Return the canonical snapshot (bit-identical to an unsharded store's)."""
        return _snapshot_of(self)
