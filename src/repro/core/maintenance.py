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
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ProvenanceError, UnknownVertexError
from repro.engine.compiler import CompiledProgram
from repro.engine.evaluator import DerivationEffect
from repro.engine.messages import ProvenanceTag
from repro.engine.store import BASE_DERIVATION
from repro.engine.tuples import Fact
from repro.core.graph import ProvenanceGraph, RuleExecVertex, TupleVertex
from repro.core.interval_index import PartitionIntervalIndex
from repro.core.keys import BASE_RID, rid_for, vid_for


@dataclass(frozen=True)
class ProvEntry:
    """One row of the ``prov`` table (the ``@Loc`` column is the store's node)."""

    vid: str
    rid: str
    rloc: object

    def as_row(self, location: object) -> Tuple[object, ...]:
        return (location, self.vid, self.rid, self.rloc)


@dataclass(frozen=True)
class RuleExecEntry:
    """One row of the ``ruleExec`` table (the ``@RLoc`` column is the store's node)."""

    rid: str
    rule_name: str
    program_name: str
    child_vids: Tuple[str, ...]
    head_vid: str
    head_location: object

    def as_row(self, location: object) -> Tuple[object, ...]:
        return (location, self.rid, self.rule_name, self.program_name, self.child_vids)


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
        #: vid -> set of ProvEntry (derivations of the tuple stored here)
        self._prov: Dict[str, Set[ProvEntry]] = {}
        #: rid -> RuleExecEntry for rules that fired here
        self._rule_execs: Dict[str, RuleExecEntry] = {}
        #: vid -> tuple descriptor for tuples this node has seen locally
        self._tuple_info: Dict[str, Tuple[str, Tuple[object, ...]]] = {}
        #: child vid -> set of rids (local rule execs that consumed it)
        self._uses: Dict[str, Set[str]] = {}
        #: bumped on every mutation; used by the query cache for invalidation
        self.version = 0
        self._bumps_suspended = 0
        self._pending_bump = False
        # Guards _rule_execs/_uses and the engine's pending-root marks against
        # its cross-partition reachability walk; standalone stores get a
        # private lock.
        self._exec_lock = engine._graph_lock if engine is not None else threading.Lock()
        #: Lazily-created interval index over this partition's provenance DAG
        #: (see :mod:`repro.core.interval_index`).  ``None`` until a query
        #: first asks for it, so runs that never use the interval path pay
        #: nothing beyond a no-op attribute check per mutation.
        self._interval_index: Optional[PartitionIntervalIndex] = None

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
        instead of once per row, whatever the row count or shard layout.
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
        self._tuple_info[vid] = (fact.relation, fact.values)
        return vid

    def interval_index(self) -> PartitionIntervalIndex:
        """This partition's interval index, created (cold) on first use."""
        if self._interval_index is None:
            self._interval_index = PartitionIntervalIndex(self)
        return self._interval_index

    def add_prov(self, vid: str, rid: str, rloc: object) -> ProvEntry:
        entry = ProvEntry(vid=vid, rid=rid, rloc=rloc)
        self._prov.setdefault(vid, set()).add(entry)
        if self._interval_index is not None:
            self._interval_index.note_prov_added(vid, rid, rloc)
        with self._exec_lock:
            self._mark_dirty(self.node_id, vid)
        self._bump()
        return entry

    def remove_prov(self, entry: ProvEntry) -> None:
        entries = self._prov.get(entry.vid)
        if entries is None:
            return
        if self._interval_index is not None and entry in entries:
            self._interval_index.note_prov_removed(entry.vid, entry.rid, entry.rloc)
        entries.discard(entry)
        if not entries:
            del self._prov[entry.vid]
        with self._exec_lock:
            self._mark_dirty(self.node_id, entry.vid)
        self._bump()

    def add_rule_exec(self, entry: RuleExecEntry) -> None:
        with self._exec_lock:
            self._rule_execs[entry.rid] = entry
            for child in entry.child_vids:
                self._uses.setdefault(child, set()).add(entry.rid)
            self._mark_dirty(entry.head_location, entry.head_vid)
        if self._interval_index is not None:
            self._interval_index.note_exec_added(entry.rid, entry.child_vids)
        self._bump()

    def remove_rule_exec(self, rid: str) -> None:
        with self._exec_lock:
            entry = self._rule_execs.pop(rid, None)
            if entry is None:
                return
            for child in entry.child_vids:
                uses = self._uses.get(child)
                if uses is not None:
                    uses.discard(rid)
                    if not uses:
                        del self._uses[child]
            self._mark_dirty(entry.head_location, entry.head_vid)
        if self._interval_index is not None:
            self._interval_index.note_exec_removed(rid, entry.child_vids)
        self._bump()

    # -- queries ------------------------------------------------------------------

    def prov_entries(self, vid: str) -> List[ProvEntry]:
        return sorted(self._prov.get(vid, set()), key=lambda e: (e.rid, repr(e.rloc)))

    def rule_exec(self, rid: str) -> RuleExecEntry:
        if rid not in self._rule_execs:
            raise UnknownVertexError(
                f"rule execution {rid!r} is not recorded at node {self.node_id!r}"
            )
        return self._rule_execs[rid]

    def has_rule_exec(self, rid: str) -> bool:
        return rid in self._rule_execs

    def tuple_info(self, vid: str) -> Tuple[str, Tuple[object, ...]]:
        if vid not in self._tuple_info:
            raise UnknownVertexError(f"tuple {vid!r} is not known at node {self.node_id!r}")
        return self._tuple_info[vid]

    def knows_tuple(self, vid: str) -> bool:
        return vid in self._tuple_info

    def uses_of(self, vid: str) -> List[str]:
        """RIDs of local rule executions that consumed tuple *vid*."""
        return sorted(self._uses.get(vid, set()))

    def prov_table(self) -> List[Tuple[object, ...]]:
        """The full local ``prov`` relation as rows ``(Loc, VID, RID, RLoc)``."""
        rows = []
        for vid in sorted(self._prov):
            for entry in self.prov_entries(vid):
                rows.append(entry.as_row(self.node_id))
        return rows

    def rule_exec_table(self) -> List[Tuple[object, ...]]:
        """The full local ``ruleExec`` relation as rows ``(RLoc, RID, Rule, Program, ChildVIDs)``."""
        return [self._rule_execs[rid].as_row(self.node_id) for rid in sorted(self._rule_execs)]

    @property
    def prov_count(self) -> int:
        return sum(len(entries) for entries in self._prov.values())

    @property
    def rule_exec_count(self) -> int:
        return len(self._rule_execs)


class ProvenanceEngine:
    """The system-wide (but per-node partitioned) provenance maintenance engine.

    Instances implement the recorder protocol expected by
    :class:`repro.engine.node.Node`:

    * :meth:`record_rule_exec` / :meth:`remove_rule_exec` are called at the
      node where a rule fires (or a firing is retracted);
    * :meth:`record_support` / :meth:`remove_support` are called at the node
      where a derived (or base) tuple is stored when a derivation is added or
      removed.
    """

    def __init__(self, compiled: Optional[CompiledProgram] = None):
        self.compiled = compiled
        self._stores: Dict[object, NodeProvenanceStore] = {}
        #: node -> (fact, derivation_id) -> ProvEntry, so retractions can find
        #: exactly the prov row that the corresponding insertion created.  The
        #: index is partitioned per node (like the stores themselves) so the
        #: recorder protocol stays single-writer per node when a concurrent
        #: execution backend drains distinct nodes in parallel.
        self._support_index: Dict[object, Dict[Tuple[Fact, str], ProvEntry]] = {}
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
        #: Memoized sum of all per-partition versions, so query-cache hot
        #: paths that still consult the global fallback stay O(1) instead of
        #: re-scanning every node's partition.
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
                    self._support_index[node_id] = {}
        return store

    def node_ids(self) -> List[object]:
        with self._registry_lock:
            known = list(self._stores)
        return sorted(known, key=repr)

    # -- recorder protocol (called by the execution engine; a row = a one-row batch) ---

    def record_rule_exec(self, exec_node: object, effect: DerivationEffect) -> ProvenanceTag:
        """Record one rule firing (``effect.sign > 0``) at *exec_node*; return its tag."""
        return self.apply_rule_exec_batch(exec_node, (effect,))[0]

    def remove_rule_exec(self, exec_node: object, effect: DerivationEffect) -> None:
        """Remove the rule-execution entry for a retracted firing (``effect.sign < 0``)."""
        self.apply_rule_exec_batch(exec_node, (effect,))

    def record_support(
        self,
        node_id: object,
        fact: Fact,
        derivation_id: str,
        tag: Optional[ProvenanceTag],
    ) -> None:
        """Record one derivation (prov entry) of *fact* at its home node."""
        self.apply_support_batch(node_id, ((+1, fact, derivation_id, tag),))

    def remove_support(self, node_id: object, fact: Fact, derivation_id: str) -> None:
        """Remove the prov entry created for (*fact*, *derivation_id*) at *node_id*."""
        self.apply_support_batch(node_id, ((-1, fact, derivation_id, None),))

    def apply_support_batch(
        self,
        node_id: object,
        ops: Sequence[Tuple[int, Fact, str, Optional[ProvenanceTag]]],
    ) -> None:
        """Apply an ordered batch of support changes with one version bump.

        Each op is ``(sign, fact, derivation_id, tag)``; ``sign > 0`` records
        a prov entry of *fact* (a ``BASE`` one without a tag or for the base
        derivation), ``sign < 0`` removes the entry the matching insertion
        created (the tag is ignored; an absent entry is a no-op).  The whole
        batch bumps the node's provenance version at most once.

        The batch is always the *logical node's* whole delta batch: when the
        node's store is sharded, the per-shard sub-batches are merged back
        before the support ops are built, so the provenance partition sees
        one batch — and at most one version bump — per logical-node batch
        regardless of the shard count (asserted by the sharding equivalence
        suite via :meth:`version_of`).
        """
        if not ops:
            return
        store = self.store(node_id)
        index = self._support_index[node_id]
        with store.batched():
            for sign, fact, derivation_id, tag in ops:
                if sign > 0:
                    vid = store.record_tuple(fact)
                    if tag is None or derivation_id == BASE_DERIVATION:
                        entry = store.add_prov(vid, BASE_RID, node_id)
                    else:
                        entry = store.add_prov(vid, tag.rid, tag.exec_node)
                    index[(fact, derivation_id)] = entry
                else:
                    entry = index.pop((fact, derivation_id), None)
                    if entry is not None:
                        store.remove_prov(entry)
        self._count_events(len(ops))

    def apply_rule_exec_batch(
        self, exec_node: object, effects: Sequence[DerivationEffect]
    ) -> List[Optional[ProvenanceTag]]:
        """Record/remove a batch of rule executions with one version bump.

        Returns one entry per effect: the :class:`ProvenanceTag` to ship with
        a firing (``sign > 0``), or ``None`` for a retraction.
        """
        if not effects:
            return []
        tags: List[Optional[ProvenanceTag]] = []
        store = self.store(exec_node)
        with store.batched():
            for effect in effects:
                if effect.sign > 0:
                    child_vids = tuple([store.record_tuple(fact) for fact in effect.body_facts])
                    rid = rid_for(effect.rule_name, exec_node, child_vids)
                    store.add_rule_exec(
                        RuleExecEntry(
                            rid=rid,
                            rule_name=effect.rule_name,
                            program_name=effect.program_name,
                            child_vids=child_vids,
                            head_vid=vid_for(effect.head_fact),
                            head_location=effect.head_location,
                        )
                    )
                    tags.append(ProvenanceTag(effect.rule_name, effect.program_name, exec_node, rid))
                else:
                    child_vids = tuple([vid_for(fact) for fact in effect.body_facts])
                    store.remove_rule_exec(rid_for(effect.rule_name, exec_node, child_vids))
                    tags.append(None)
        self._count_events(len(effects))
        return tags

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
                for rid in store._uses.get(vid, ()):
                    entry = store._rule_execs.get(rid)
                    if entry is not None:
                        stack.append((entry.head_location, entry.head_vid))
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
            for entry in store._rule_execs.values():
                live.add(entry.head_vid)
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

    # -- interval-index statistics --------------------------------------------------------

    def interval_stats(self) -> Dict[object, Dict[str, int]]:
        """Per-partition interval-index counters (partitions that have one)."""
        stats = {}
        for node_id, store in sorted(self._stores.items(), key=lambda item: repr(item[0])):
            index = store._interval_index
            if index is not None:
                stats[node_id] = index.counters()
        return stats

    def interval_totals(self) -> Dict[str, int]:
        """Interval-index counters summed across all partitions."""
        totals: Dict[str, int] = {}
        for counters in self.interval_stats().values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def global_version(self) -> int:
        """The sum of all per-partition versions, memoized to O(1).

        Kept as the coarse fallback for cache validation against recorders
        that predate per-VID versions; equal, by construction, to
        ``sum(self.versions().values())``.
        """
        return self._global_version

    # -- statistics ----------------------------------------------------------------------

    def version_of(self, node_id: object) -> int:
        """The provenance version of one node's partition.

        The version advances at most once per applied batch
        (:meth:`NodeProvenanceStore.batched`), so two executions that absorb
        the same logical batches — e.g. a sharded and an unsharded run of the
        same workload — report identical versions here; tests use this to pin
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
                is_base = any(entry.rid == BASE_RID for entry in store.prov_entries(vid))
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
            for rid in sorted(store._rule_execs):
                entry = store.rule_exec(rid)
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
                        rid=rid,
                        rule_name=entry.rule_name,
                        program_name=entry.program_name,
                        location=node_id,
                    ),
                    entry.child_vids,
                    entry.head_vid,
                )
        return graph
