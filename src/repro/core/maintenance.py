"""ExSPAN maintenance engine: incremental, distributed provenance tables.

The provenance graph is stored as two relational tables partitioned across
the nodes of the system, exactly as in ExSPAN / the paper:

* ``prov(@Loc, VID, RID, RLoc)`` — stored at the node ``Loc`` where the tuple
  identified by ``VID`` resides; one entry per derivation of the tuple.  The
  derivation is the rule execution ``RID`` which happened at node ``RLoc``
  (``RID = BASE`` and ``RLoc = Loc`` for base tuples).
* ``ruleExec(@RLoc, RID, Rule, Program, ChildVIDs)`` — stored at the node
  ``RLoc`` where the rule fired; ``ChildVIDs`` are the input tuples of the
  firing, which are always local to ``RLoc`` because rule bodies are
  localized before execution.

A derivation has one identity in both tables and in the execution engine:
the RID.  The evaluator computes it once, when the rule fires, through
:meth:`ProvenanceEngine.derivation_id`; it is the ``ruleExec`` key here,
the derivation id in the head node's tuple store, and, shipped as
``TupleDelta(sign, fact, RID, RLoc)``, the receiver's ``prov`` row as is.

The engine is *incremental*: entries are added when the execution engine
reports a rule firing / derivation and removed when the corresponding
derivation is retracted, so the tables always reflect the provenance of the
current network state — which is what lets NetTrails answer provenance
queries while the protocols keep running.

The :class:`ProvenanceEngine` object is shared by all nodes of a runtime, but
its data is strictly partitioned into per-node :class:`NodeProvenanceStore`
instances; the distributed query engine only ever reads the partition of the
node a query step executes on, preserving the distribution semantics.

Beyond the per-partition version counters, the engine maintains **per-VID
reachability versions** for incremental query-cache invalidation:
:meth:`ProvenanceEngine.vid_version` reports a counter that advances exactly
when the tuple's *downstream provenance subgraph* — its ``prov`` /
``ruleExec`` descendants, the set a lineage or derivation traversal visits —
changes.  The versions serve one consumer, the query cache, so they are paid
for where it reads them, not on every event: a mutation only marks the
directly-affected vertex as a pending root, and one upward walk over all
pending roots (:meth:`ProvenanceEngine.flush_reachability`) runs at the end
of each quiescence window or before a read of the versions.  The walk
follows the support index (``child vid -> consuming rule execs -> head
vids``, hopping partitions through each rule execution's recorded head
location), so an unrelated delta leaves unrelated vertices' versions — and
their cached query results — untouched.  Walking the *current* index is
sound because every added or removed ``ruleExec`` edge marks its own head; a
version counts the windows (or mid-window reads) that changed the subgraph.

Stored rows are plain tuples of strings and node ids, never objects: a
``prov`` row is ``(rid, rloc)`` under its vid and a ``ruleExec`` row is
``(rid, rule_name, program_name, child_vids, head_vid, head_location)``.
An exact tuple whose members are all atoms is untracked by CPython's cyclic
garbage collector, so the tables (hundreds of thousands of rows at scale)
add nothing to the heap a full collection has to scan.  For the same reason
the one-member common case of the consumer index is a bare rid string that
becomes a ``set`` only at the second consumer, and a string again when it
drops back to one.  ``tests/core/test_gc_footprint.py`` pins both.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.errors import ProvenanceError, UnknownVertexError
from repro.engine.compiler import CompiledProgram
from repro.engine.evaluator import DerivationEffect
from repro.engine.tuples import Fact
from repro.core.graph import ProvenanceGraph, RuleExecVertex, TupleVertex
from repro.core.keys import BASE_RID, rid_for, vid_for


#: A stored ``prov`` row of one tuple: ``(rid, rloc)`` (the tuple's vid is
#: the key it is stored under, ``@Loc`` the store's node).
ProvRow = Tuple[str, object]

#: A stored ``ruleExec`` row: ``(rid, rule_name, program_name, child_vids,
#: head_vid, head_location)`` (``@RLoc`` is the store's node).  Only this
#: module reads it; everyone else goes through :class:`RuleExecEntry`.
RuleExecRow = Tuple[str, str, str, Tuple[str, ...], str, object]

#: Positions in a stored ``ruleExec`` row read by the reachability walk and
#: the version sweep.
_EXEC_CHILD_VIDS = 3
_EXEC_HEAD_VID = 4
_EXEC_HEAD_LOCATION = 5


class RuleExecEntry(NamedTuple):
    """A read-only view of one ``ruleExec`` row (``@RLoc`` is the store's node).

    Built on demand from the stored plain tuple, which has the same fields in
    the same order; the store never keeps a view, since a ``NamedTuple``
    instance stays tracked by the cyclic garbage collector.
    """

    rid: str
    rule_name: str
    program_name: str
    child_vids: Tuple[str, ...]
    head_vid: str
    head_location: object


def _prov_order(row: ProvRow) -> Tuple[str, str]:
    """The order :meth:`NodeProvenanceStore.prov_entries` reports rows in."""
    return (row[0], repr(row[1]))


class NodeProvenanceStore:
    """The partition of the provenance tables stored at one node.

    When the store belongs to a :class:`ProvenanceEngine` (*engine* is set),
    every mutation additionally marks the directly-affected vertex — the
    tuple whose derivations changed, or the head tuple of an added/removed
    rule execution — as a pending root of the engine's next reachability
    walk; standalone stores skip that bookkeeping entirely.
    """

    def __init__(self, node_id: object, engine: Optional["ProvenanceEngine"] = None):
        self.node_id = node_id
        self._engine = engine
        #: vid -> the tuple's prov rows, in :func:`_prov_order` (derivations
        #: of the tuple stored here)
        self._prov: Dict[str, Tuple[ProvRow, ...]] = {}
        #: rid -> ruleExec row for rules that fired here
        self._rule_execs: Dict[str, RuleExecRow] = {}
        #: vid -> tuple descriptor for tuples this node has seen locally
        self._tuple_info: Dict[str, Tuple[str, Tuple[object, ...]]] = {}
        #: child vid -> the rid of the one local rule exec that consumed it,
        #: or the set of rids once there are two or more
        self._uses: Dict[str, Union[str, Set[str]]] = {}
        #: bumped on every mutation; used by the query cache for invalidation
        self.version = 0
        self._bumps_suspended = 0
        self._pending_bump = False
        # Guards _rule_execs/_uses and the engine's pending-root marks against
        # its cross-partition reachability walk; standalone stores get a
        # private lock.
        self._exec_lock = engine._graph_lock if engine is not None else threading.Lock()

    # -- mutation -----------------------------------------------------------------

    def _bump(self) -> None:
        if self._bumps_suspended:
            self._pending_bump = True
            return
        self.version += 1
        if self._engine is not None:
            self._engine._note_store_bump()

    def _mark_dirty(self, home: object, vid: str) -> None:
        """Mark ``(home, vid)`` as a root of the engine's next reachability walk.

        Caller holds ``_exec_lock``, as the walk does: a ``ruleExec`` edge
        change and its mark share one critical section, so a concurrent walk
        sees both or neither and never loses a mark.  Callers mark *before*
        advancing the store version, and every read of a vid version walks
        the pending roots first, so the cache sweep's "vid versions moved
        only if the global clock did" holds: new clock seen, bumps seen.
        """
        if self._engine is not None:
            self._engine._pending_roots.add((home, vid))

    @contextmanager
    def batched(self) -> Iterator["NodeProvenanceStore"]:
        """Coalesce all version bumps inside the block into (at most) one.

        Batch-first execution applies a whole delta batch under this context
        manager, so the provenance store advances its version once per batch
        instead of once per row, whatever the row count.
        Per-VID reachability versions are not touched here: the rows only
        mark pending roots, which the engine walks once per quiescence
        window (or on the next read of a version).
        """
        self._bumps_suspended += 1
        try:
            yield self
        finally:
            self._bumps_suspended -= 1
            if self._bumps_suspended == 0 and self._pending_bump:
                self._pending_bump = False
                self._bump()

    def record_tuple(self, fact: Fact) -> str:
        vid = vid_for(fact)
        if vid not in self._tuple_info:
            self._tuple_info[vid] = (fact.relation, fact.values)
        return vid

    def add_prov(self, vid: str, rid: str, rloc: object) -> None:
        """Record the prov row ``(vid, rid, rloc)`` (idempotent)."""
        row = (rid, rloc)
        rows = self._prov.get(vid)
        if rows is None:
            self._prov[vid] = (row,)
        elif row not in rows:
            self._prov[vid] = tuple(sorted(rows + (row,), key=_prov_order))
        with self._exec_lock:
            self._mark_dirty(self.node_id, vid)
        self._bump()

    def remove_prov(self, vid: str, rid: str, rloc: object) -> None:
        """Remove the prov row ``(vid, rid, rloc)``; an absent row is a no-op."""
        rows = self._prov.get(vid)
        if rows is None:
            return
        row = (rid, rloc)
        if row in rows:
            if len(rows) == 1:
                del self._prov[vid]
            else:
                self._prov[vid] = tuple([kept for kept in rows if kept != row])
        with self._exec_lock:
            self._mark_dirty(self.node_id, vid)
        self._bump()

    def add_rule_exec(
        self,
        rid: str,
        rule_name: str,
        program_name: str,
        child_vids: Tuple[str, ...],
        head_vid: str,
        head_location: object,
    ) -> None:
        """Record the ``ruleExec`` row of one firing at this node."""
        uses = self._uses
        with self._exec_lock:
            self._rule_execs[rid] = (rid, rule_name, program_name, child_vids, head_vid, head_location)
            for child in child_vids:
                consumers = uses.get(child)
                if consumers is None:
                    uses[child] = rid
                elif type(consumers) is str:
                    if consumers != rid:
                        uses[child] = {consumers, rid}
                else:
                    consumers.add(rid)
            self._mark_dirty(head_location, head_vid)
        self._bump()

    def remove_rule_exec(self, rid: str) -> None:
        uses = self._uses
        with self._exec_lock:
            row = self._rule_execs.pop(rid, None)
            if row is None:
                return
            for child in row[_EXEC_CHILD_VIDS]:
                consumers = uses.get(child)
                if consumers is None:
                    continue
                if type(consumers) is str:
                    if consumers == rid:
                        del uses[child]
                    continue
                consumers.discard(rid)
                if len(consumers) == 1:
                    (uses[child],) = consumers
            self._mark_dirty(row[_EXEC_HEAD_LOCATION], row[_EXEC_HEAD_VID])
        self._bump()

    # -- queries ------------------------------------------------------------------

    def prov_entries(self, vid: str) -> Tuple[ProvRow, ...]:
        """The ``(rid, rloc)`` prov rows of tuple *vid*, ordered by ``(rid, repr(rloc))``."""
        return self._prov.get(vid, ())

    def rule_exec(self, rid: str) -> RuleExecEntry:
        """The ``ruleExec`` row of *rid*."""
        return RuleExecEntry._make(self._rule_exec_row(rid))

    def _rule_exec_row(self, rid: str) -> RuleExecRow:
        row = self._rule_execs.get(rid)
        if row is None:
            raise UnknownVertexError(
                f"rule execution {rid!r} is not recorded at node {self.node_id!r}"
            )
        return row

    def find_rule_exec(self, rid: str) -> Optional[RuleExecRow]:
        """The stored ``ruleExec`` row of *rid* (fields in :class:`RuleExecEntry`
        order) or ``None``: one lookup and no view, for the query traversal."""
        return self._rule_execs.get(rid)

    def has_rule_exec(self, rid: str) -> bool:
        return rid in self._rule_execs

    def tuple_info(self, vid: str) -> Tuple[str, Tuple[object, ...]]:
        if vid not in self._tuple_info:
            raise UnknownVertexError(f"tuple {vid!r} is not known at node {self.node_id!r}")
        return self._tuple_info[vid]

    def knows_tuple(self, vid: str) -> bool:
        return vid in self._tuple_info

    def find_tuple(self, vid: str) -> Optional[Tuple[str, Tuple[object, ...]]]:
        """``(relation, values)`` of tuple *vid*, or ``None`` if it is not known here."""
        return self._tuple_info.get(vid)

    def uses_of(self, vid: str) -> List[str]:
        """RIDs of local rule executions that consumed tuple *vid*, sorted."""
        consumers = self._uses.get(vid)
        if consumers is None:
            return []
        if type(consumers) is str:
            return [consumers]
        return sorted(consumers)

    def rule_execs(self) -> List[RuleExecEntry]:
        """Every ``ruleExec`` row (see :meth:`rule_exec`), sorted by rid."""
        return [RuleExecEntry._make(self._rule_execs[rid]) for rid in sorted(self._rule_execs)]

    def prov_table(self) -> List[Tuple[object, ...]]:
        """The full local ``prov`` relation as rows ``(Loc, VID, RID, RLoc)``."""
        location = self.node_id
        return [
            (location, vid, rid, rloc)
            for vid in sorted(self._prov)
            for rid, rloc in self._prov[vid]
        ]

    def rule_exec_table(self) -> List[Tuple[object, ...]]:
        """The full local ``ruleExec`` relation as rows ``(RLoc, RID, Rule, Program, ChildVIDs)``."""
        location = self.node_id
        return [
            (location, entry.rid, entry.rule_name, entry.program_name, entry.child_vids)
            for entry in self.rule_execs()
        ]

    def content_key(self) -> Tuple[object, ...]:
        """An exact key of this partition's ``prov``, ``ruleExec`` and tuple tables.

        Shallow copies of the ``prov`` and ``ruleExec`` maps (their values
        are immutable tuples) plus the size of the tuple map, which only
        ever grows and never rebinds a vid: equal keys mean equal tables.
        Unlike :attr:`version`, the key is unchanged by a row that is
        removed and re-added.
        """
        return (dict(self._prov), dict(self._rule_execs), len(self._tuple_info))

    @property
    def prov_count(self) -> int:
        return sum(len(rows) for rows in self._prov.values())

    @property
    def rule_exec_count(self) -> int:
        return len(self._rule_execs)


class ProvenanceEngine:
    """The system-wide (but per-node partitioned) provenance maintenance engine.

    Each :class:`repro.engine.node.Node` takes its evaluator's derivation-id
    function, :meth:`derivation_id`, and calls the engine once per drain:

    * :meth:`apply_rule_exec_batch` at the node where rules fired (or
      firings were retracted);
    * :meth:`apply_support_batch` at the node where derived (or base)
      tuples are stored, when derivations are added or removed.
    """

    def __init__(self, compiled: Optional[CompiledProgram] = None):
        self.compiled = compiled
        self._stores: Dict[object, NodeProvenanceStore] = {}
        self.events_processed = 0
        # Guards the shared registry (lazy store creation, node enumeration)
        # and the events_processed counter; the per-node stores themselves
        # need no locking because each is only ever written by its node's
        # (serialized) events.
        self._registry_lock = threading.Lock()
        # Guards the cross-partition reachability metadata, which per-node
        # event serialization does not cover: the per-VID version map, the
        # pending roots, the memoized global version counter, and the
        # _rule_execs/_uses maps while the upward walk reads them.
        self._graph_lock = threading.Lock()
        #: ``(home location, vid)`` roots marked since the last walk.
        self._pending_roots: Set[Tuple[object, str]] = set()
        self._reachability_flushes = 0
        self._reachability_visited = 0
        #: vid -> reachability version; bumped (under _graph_lock) by the
        #: walk that finds the vertex's downstream subgraph changed.  Missing
        #: entries read as 0.  Entries for *dead* vids (no live consumer and
        #: no live rule execution heading them) are pruned by a capped sweep
        #: once the map exceeds ``_vid_version_sweep_threshold``; soundness
        #: is preserved by **rebirth-epoch stamping**: the sweep folds every
        #: pruned counter into ``_rebirth_epoch``, and any later bump of any
        #: vid starts from at least that epoch — so a re-derivation of a
        #: pruned vid can never climb back to a version some cache still
        #: holds an entry for.  (A pruned-but-unchanged vid reads version 0,
        #: which at worst costs one conservative cache miss.)
        self._vid_versions: Dict[str, int] = {}
        #: Floor folded in from pruned counters (see above); bumps resume
        #: from max(current, epoch) + 1 so pruned versions are never reused.
        self._rebirth_epoch = 0
        #: Sweep trigger: map size above which a reachability walk prunes
        #: dead vids.  Instance attribute so long-churn tests can lower it.
        self._vid_version_sweep_threshold = 65536
        #: Raised to 2x the post-sweep size after each sweep so a
        #: large-but-fully-live map costs amortized O(1) per walk instead
        #: of one full liveness scan each; the trigger is the max of this
        #: and the threshold, so lowering the threshold (tests) still works.
        self._vid_version_next_sweep = 0
        self._vid_version_sweeps = 0
        self._vid_versions_pruned = 0
        #: Memoized sum of all per-partition versions, so the query caches'
        #: clock is O(1) instead of a scan over every node's partition.
        self._global_version = 0

    def _count_events(self, count: int) -> None:
        with self._registry_lock:
            self.events_processed += count

    # -- store access -------------------------------------------------------------

    def store(self, node_id: object) -> NodeProvenanceStore:
        store = self._stores.get(node_id)
        if store is None:
            with self._registry_lock:
                store = self._stores.get(node_id)
                if store is None:
                    store = NodeProvenanceStore(node_id, engine=self)
                    self._stores[node_id] = store
        return store

    def node_ids(self) -> List[object]:
        with self._registry_lock:
            known = list(self._stores)
        return sorted(known, key=repr)

    # -- the execution engine's interface: one call per node drain ------------------

    @staticmethod
    def derivation_id(rule_name: str, exec_node: object, body_facts: Tuple[Fact, ...]) -> str:
        """The derivation id of a firing: its RID.

        Every node's evaluator calls it once per firing and keeps the result;
        the same string is then the ``ruleExec`` key here, the derivation id
        in the head node's store and the RID of the head's ``prov`` row, so
        neither a retraction nor a receiver ever hashes again.
        """
        return rid_for(rule_name, exec_node, tuple([vid_for(fact) for fact in body_facts]))

    def apply_support_batch(
        self,
        node_id: object,
        ops: Sequence[Tuple[int, Fact, str, object]],
    ) -> None:
        """Apply an ordered batch of support changes with one version bump.

        Each op is ``(sign, fact, derivation_id, rloc)``: apart from the sign,
        the ``prov`` row itself.  ``rloc`` is ``None`` for a base derivation,
        whose row is ``(BASE, node_id)``.  ``sign > 0`` records the row and
        ``sign < 0`` removes it (an absent row is a no-op).  The whole batch
        bumps the node's provenance version at most once.
        """
        if not ops:
            return
        store = self.store(node_id)
        with store.batched():
            for sign, fact, rid, rloc in ops:
                if rloc is None:
                    rid, rloc = BASE_RID, node_id
                if sign > 0:
                    store.add_prov(store.record_tuple(fact), rid, rloc)
                else:
                    store.remove_prov(vid_for(fact), rid, rloc)
        self._count_events(len(ops))

    def apply_rule_exec_batch(self, exec_node: object, effects: Sequence[DerivationEffect]) -> None:
        """Record/remove a batch of rule executions with one version bump.

        An effect's firing id is its RID (:meth:`derivation_id`): a firing
        records the ``ruleExec`` row under it, a retraction removes that row.
        """
        if not effects:
            return
        store = self.store(exec_node)
        with store.batched():
            for effect in effects:
                if effect.sign > 0:
                    store.add_rule_exec(
                        effect.firing_id,
                        effect.rule_name,
                        effect.program_name,
                        tuple([store.record_tuple(fact) for fact in effect.body_facts]),
                        vid_for(effect.head_fact),
                        effect.head_location,
                    )
                else:
                    store.remove_rule_exec(effect.firing_id)
        self._count_events(len(effects))

    # -- per-VID reachability versions ----------------------------------------------------

    def _note_store_bump(self) -> None:
        """Advance the memoized global version; one call per partition bump."""
        with self._graph_lock:
            self._global_version += 1

    def flush_reachability(self) -> None:
        """Bump the reachability version of every ancestor of the pending roots.

        A change to a vertex's subgraph is a change to every ancestor's too,
        so the walk follows the support index upward from the marked
        vertices — local consuming rule executions, then their head tuples
        at the heads' recorded home partitions — bumping each visited vertex
        exactly once, whatever the order; the visited set handles cyclic
        support (possible mid-retraction).  With nothing pending this is a
        truthiness check; the roots are cleared only after the walk, so a
        concurrent reader waits on the lock, not reads a version too early.
        """
        roots = self._pending_roots
        if not roots:
            return
        with self._graph_lock:
            versions = self._vid_versions
            epoch = self._rebirth_epoch
            seen: Set[str] = set()
            stack = list(roots)  # empty if another thread walked them meanwhile
            while stack:
                home, vid = stack.pop()
                if vid in seen:
                    continue
                seen.add(vid)
                versions[vid] = max(versions.get(vid, 0), epoch) + 1
                store = self._stores.get(home)
                if store is None:
                    continue
                consumers = store._uses.get(vid)
                if consumers is None:
                    continue
                rule_execs = store._rule_execs
                for rid in (consumers,) if type(consumers) is str else consumers:
                    row = rule_execs.get(rid)
                    if row is not None:
                        stack.append((row[_EXEC_HEAD_LOCATION], row[_EXEC_HEAD_VID]))
            if not seen:
                return
            roots.clear()
            self._reachability_flushes += 1
            self._reachability_visited += len(seen)
            if len(versions) > max(
                self._vid_version_sweep_threshold, self._vid_version_next_sweep
            ):
                self._sweep_vid_versions()

    def _sweep_vid_versions(self) -> None:
        """Prune version counters of dead vids, folding them into the epoch.

        Caller holds ``_graph_lock``.  Liveness is judged only from state
        that same lock guards (the per-store ``_uses`` keys and live rule
        executions' head vids) — deliberately *not* from the unlocked
        ``_prov`` / ``_tuple_info`` maps, which concurrent node events may
        be mutating.  That makes the live set an under-approximation (a
        base tuple nothing consumes yet counts as dead), which is sound:
        pruning such a vid merely downgrades cache validation to a miss.
        """
        live: Set[str] = set()
        for store in self._stores.values():
            live.update(store._uses)
            live.update([row[_EXEC_HEAD_VID] for row in store._rule_execs.values()])
        dead = [vid for vid in self._vid_versions if vid not in live]
        for vid in dead:
            self._rebirth_epoch = max(self._rebirth_epoch, self._vid_versions.pop(vid))
        self._vid_version_sweeps += 1
        self._vid_versions_pruned += len(dead)
        self._vid_version_next_sweep = 2 * len(self._vid_versions)

    def vid_version(self, vid: str) -> int:
        """The reachability version of one tuple vertex (0 if never touched).

        The counter advances exactly when the vertex's downstream provenance
        subgraph — what a lineage/derivation traversal from it would visit —
        changes; deltas elsewhere leave it alone.  The query cache validates
        entries against this, so unrelated churn no longer flushes them.
        """
        self.flush_reachability()
        return self._vid_versions.get(vid, 0)

    def vid_versions(self) -> Dict[str, int]:
        """A snapshot of every non-zero per-VID reachability version."""
        self.flush_reachability()
        with self._graph_lock:
            return dict(self._vid_versions)

    def vid_version_stats(self) -> Dict[str, int]:
        """Statistics of the per-VID version map and of the walk that feeds it.

        ``flushes`` counts reachability walks, ``visited`` the vertices they
        bumped and ``pending`` the roots this read found waiting (mid-window
        only) and walked before taking the other figures.
        """
        pending = len(self._pending_roots)
        self.flush_reachability()
        with self._graph_lock:
            return {
                "entries": len(self._vid_versions),
                "epoch": self._rebirth_epoch,
                "sweeps": self._vid_version_sweeps,
                "pruned": self._vid_versions_pruned,
                "flushes": self._reachability_flushes,
                "visited": self._reachability_visited,
                "pending": pending,
            }

    def global_version(self) -> int:
        """The sum of all per-partition versions, memoized to O(1).

        The query caches' clock; equal, by construction, to
        ``sum(self.versions().values())``.
        """
        return self._global_version

    # -- statistics ----------------------------------------------------------------------

    def version_of(self, node_id: object) -> int:
        """The provenance version of one node's partition.

        The version advances at most once per applied batch
        (:meth:`NodeProvenanceStore.batched`), so two executions that absorb
        the same logical batches — e.g. two runs of the same workload —
        report identical versions here; tests use this to pin
        the one-bump-per-batch invariant.

        Purely a read accessor: asking about a node without a partition
        raises instead of materialising an empty one.
        """
        store = self._stores.get(node_id)
        if store is None:
            raise ProvenanceError(f"no provenance partition recorded for node {node_id!r}")
        return store.version

    def versions(self) -> Dict[object, int]:
        """Provenance versions of every known partition (sorted by node repr)."""
        return {
            node_id: store.version
            for node_id, store in sorted(self._stores.items(), key=lambda item: repr(item[0]))
        }

    def table_sizes(self) -> Dict[str, int]:
        """Total sizes of the distributed provenance tables."""
        prov = sum(store.prov_count for store in self._stores.values())
        rule_execs = sum(store.rule_exec_count for store in self._stores.values())
        return {"prov": prov, "ruleExec": rule_execs}

    def per_node_sizes(self) -> Dict[object, Dict[str, int]]:
        return {
            node_id: {"prov": store.prov_count, "ruleExec": store.rule_exec_count}
            for node_id, store in sorted(self._stores.items(), key=lambda item: repr(item[0]))
        }

    # -- graph assembly (centralized view for visualization / analysis) ---------------------

    def vid_of(self, relation: str, values: Iterable[object]) -> str:
        return vid_for(Fact.make(relation, list(values)))

    def resolve_tuple(self, vid: str) -> Tuple[str, Tuple[object, ...], object]:
        """Find (relation, values, location) of a tuple vertex by searching all partitions."""
        for node_id, store in self._stores.items():
            if store.knows_tuple(vid) and store.prov_entries(vid):
                relation, values = store.tuple_info(vid)
                return relation, values, node_id
        # Fall back to any node that has seen the tuple (e.g. as a rule input).
        for node_id, store in self._stores.items():
            if store.knows_tuple(vid):
                relation, values = store.tuple_info(vid)
                return relation, values, node_id
        raise UnknownVertexError(f"tuple vertex {vid!r} is unknown to every node")

    def build_graph(self) -> ProvenanceGraph:
        """Assemble the full provenance graph from the distributed tables.

        This is a *centralized* convenience used by the log store, the
        visualizer and the offline analysis helpers; the distributed query
        engine never calls it.
        """
        graph = ProvenanceGraph()
        # Tuple vertices, with base-ness from prov entries.
        for node_id, store in self._stores.items():
            for vid in sorted(store._prov):
                relation, values = store.tuple_info(vid)
                is_base = any(rid == BASE_RID for rid, _ in store.prov_entries(vid))
                graph.add_tuple(
                    TupleVertex(
                        vid=vid,
                        relation=relation,
                        values=values,
                        location=node_id,
                        is_base=is_base,
                    )
                )
        # Rule-execution vertices and their dataflow edges; input tuples are
        # local to the executing node, so their descriptors are available.
        for node_id, store in self._stores.items():
            for entry in store.rule_execs():
                for child_vid in entry.child_vids:
                    if not graph.has_tuple(child_vid):
                        relation, values, location = self.resolve_tuple(child_vid)
                        graph.add_tuple(
                            TupleVertex(
                                vid=child_vid,
                                relation=relation,
                                values=values,
                                location=location,
                                is_base=False,
                            )
                        )
                if not graph.has_tuple(entry.head_vid):
                    try:
                        relation, values, location = self.resolve_tuple(entry.head_vid)
                    except UnknownVertexError:
                        continue
                    graph.add_tuple(
                        TupleVertex(
                            vid=entry.head_vid,
                            relation=relation,
                            values=values,
                            location=location,
                            is_base=False,
                        )
                    )
                graph.add_rule_exec(
                    RuleExecVertex(
                        rid=entry.rid,
                        rule_name=entry.rule_name,
                        program_name=entry.program_name,
                        location=node_id,
                    ),
                    entry.child_vids,
                    entry.head_vid,
                )
        return graph
