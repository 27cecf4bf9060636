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
:meth:`ProvenanceEngine.derivation_id`; it is the ``ruleExec`` key, the
derivation id in the head node's tuple store, and, shipped as
``TupleDelta(sign, fact, RID, RLoc)``, the receiver's ``prov`` row as is.

A derivation is also stored once at each end, and neither table is a table
of its own.  The ``prov`` partition of a node is its
:class:`~repro.engine.store.TupleStore`: the receiver stores each delta's
``(RID, RLoc)`` pair as the fact's derivation, which is the row (a node
stores a base insertion as ``(BASE, Loc)``), and
:class:`NodeProvenanceStore` finds a tuple's rows there through the engine's
one index of the facts present by vid (a fact is stored only at the node
its location attribute names).  The ``ruleExec`` partition is the node
evaluator's :class:`~repro.engine.evaluator.Firings`, the RID-keyed record
of every live firing there (rule name, head fact, body facts), which the
evaluator keeps anyway to retract firings; the partition derives a row's
``ChildVIDs`` from the body facts when asked.  A RID
can name two live heads (an aggregate whose contributing facts serve two
groups, one maybe-rule body explaining two outputs); its row lives until
the last of them is retracted.

The tables are *incremental* because the records they read are: a
derivation enters the store and the firing record when the rule fires and
leaves them when it is retracted, so the tables always reflect the
provenance of the current network state — which is what lets NetTrails
answer provenance queries while the protocols keep running.  A node tells
the engine once per applied batch
(:meth:`ProvenanceEngine.apply_rule_exec_batch`), which keeps the vid index
and the versions below.

The :class:`ProvenanceEngine` object is shared by all nodes of a runtime, but
its data is strictly partitioned into per-node :class:`NodeProvenanceStore`
instances (the vid index is shared, but a partition answers only from its
own node's store); the distributed query engine only ever reads the
partition of the node a query step executes on, preserving the distribution
semantics.

The engine also maintains **per-VID reachability versions** for
incremental query-cache invalidation: :meth:`ProvenanceEngine.vid_version`
hands out the number of the last reachability walk that found the tuple's
*downstream provenance subgraph* — its ``prov`` / ``ruleExec``
descendants, the set a lineage or derivation traversal visits — changed,
counting from the first version handed out.  The versions serve one
consumer, the query cache, so only it pays: before the first handout a
mutation marks nothing, and after it only the directly-affected vertex, as
a pending root; one upward walk over all pending roots
(:meth:`ProvenanceEngine.flush_reachability`) runs at the end of each
quiescence window or before a handout, and stamps every vertex it reaches
with its own number.  The walk follows the firings' consumer index
(``child fact -> consuming RIDs -> head facts``, hopping partitions to each
head's home node), so an unrelated delta leaves unrelated vertices'
versions — and their cached query results — untouched.  Walking the
*current* index is sound because every added or removed ``ruleExec`` edge
marks its own head, and starting late is sound because no cache holds an
entry from before the first handout.  Walk numbers never repeat, so neither
does a version.  The map holds only stamped vids and is bounded by
clearing, not by scanning for live ones: a walk that leaves it above a
threshold empties it and raises a *floor* to its own number, which every
unstamped vid then reads.  Each tag a cache holds predates that walk, so it
is below the floor and misses once; nothing is served stale.

A stored ``prov`` row is a plain tuple ``(rid, rloc)`` in the tuple store,
never an object: an exact tuple whose members are all atoms is untracked by
CPython's cyclic garbage collector, so the table (hundreds of thousands of
rows at scale) adds nothing to the heap a full collection has to scan.
``tests/core/test_gc_footprint.py`` pins it, and the shapes of the firings
record.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import UnknownVertexError
from repro.engine.catalog import Catalog
from repro.engine.compiler import CompiledProgram
from repro.engine.evaluator import DerivationEffect, Firings
from repro.engine.store import TupleStore
from repro.engine.tuples import Fact
from repro.core.graph import ProvenanceGraph, RuleExecVertex, TupleVertex
from repro.core.keys import BASE_RID, rid_for, vid_for


#: A ``prov`` row of one tuple: ``(rid, rloc)``, stored as the fact's
#: derivation in its node's tuple store (the tuple's vid is the fact's,
#: ``@Loc`` the store's node).
ProvRow = Tuple[str, object]

class RuleExecEntry(NamedTuple):
    """A read-only view of one head of a ``ruleExec`` row (``@RLoc`` is the store's node).

    Built on demand from the node's firing record; the store never keeps
    one.
    """

    rid: str
    rule_name: str
    program_name: str
    child_vids: Tuple[str, ...]
    head_vid: str
    head_location: object


class NodeProvenanceStore:
    """The partition of the provenance tables stored at one node.

    The store keeps no rows of its own.  The ``prov`` rows are the
    derivations in :attr:`tuples`, the node's tuple store, found by vid
    through the engine's index of present facts
    (:attr:`ProvenanceEngine.facts`); the ``ruleExec`` rows are read from
    :attr:`firings`, the node evaluator's record of its live firings.  A
    store built with no node's records reads an empty tuple store and an
    empty record of its own.
    """

    def __init__(
        self,
        node_id: object,
        engine: Optional["ProvenanceEngine"] = None,
        firings: Optional[Firings] = None,
        tuples: Optional[TupleStore] = None,
    ):
        self.node_id = node_id
        #: the live firings at this node, the ``ruleExec`` partition
        self.firings = Firings("") if firings is None else firings
        #: the node's tuple store, whose derivations are the ``prov`` rows
        self.tuples = TupleStore() if tuples is None else tuples
        self._facts: Dict[str, Fact] = {} if engine is None else engine.facts
        #: the node a head fact is stored at: the engine's, shared by every store
        self._location_of = Catalog().location_of if engine is None else engine._location_of

    # -- queries ------------------------------------------------------------------

    def prov_entries(self, vid: str) -> Tuple[ProvRow, ...]:
        """The ``(rid, rloc)`` prov rows of tuple *vid*, ordered by RID.

        A RID names the node its rule ran at, so no two rows of a tuple
        share one and sorting the rows sorts their RIDs.
        """
        fact = self._facts.get(vid)
        if fact is None:
            return ()
        return self.tuples.derivation_rows(fact)

    def present(self) -> List[Tuple[str, Fact]]:
        """``(vid, fact)`` of every fact present at this node, sorted by vid."""
        return sorted([(vid_for(fact), fact) for fact in self.tuples.all_facts()], key=itemgetter(0))

    def rule_exec(self, rid: str) -> RuleExecEntry:
        """The ``ruleExec`` row of *rid* (its first head in ``repr`` order)."""
        heads = self.firings.heads_of(rid)
        if not heads:
            raise UnknownVertexError(
                f"rule execution {rid!r} is not recorded at node {self.node_id!r}"
            )
        return self._entry(rid, heads[0])

    def _entry(self, rid: str, head: Fact) -> RuleExecEntry:
        firings = self.firings
        return RuleExecEntry(
            rid,
            firings.rules[rid],
            firings.program_name,
            tuple([vid_for(fact) for fact in firings.bodies[rid]]),
            vid_for(head),
            self._location_of(head),
        )

    def find_rule_exec(self, rid: str) -> Optional[Tuple[str, str, Tuple[str, ...]]]:
        """``(rule_name, program_name, child_vids)`` of *rid*, or ``None``:
        one lookup and no view, for the query traversal."""
        firings = self.firings
        rule_name = firings.rules.get(rid)
        if rule_name is None:
            return None
        return (rule_name, firings.program_name, tuple([vid_for(fact) for fact in firings.bodies[rid]]))

    def has_rule_exec(self, rid: str) -> bool:
        return rid in self.firings.rules

    def find_tuple(self, vid: str) -> Optional[Fact]:
        """The fact present here under *vid*, or ``None``."""
        fact = self._facts.get(vid)
        return fact if fact is not None and self.tuples.contains(fact) else None

    def rule_execs(self) -> List[RuleExecEntry]:
        """One entry per head of every ``ruleExec`` row (see :meth:`rule_exec`),
        sorted by rid and then head vid."""
        entries = [
            self._entry(rid, head)
            for rid in self.firings.rules
            for head in self.firings.heads_of(rid)
        ]
        entries.sort(key=lambda entry: (entry.rid, entry.head_vid))
        return entries

    def prov_table(self) -> List[Tuple[object, ...]]:
        """The full local ``prov`` relation as rows ``(Loc, VID, RID, RLoc)``."""
        location = self.node_id
        rows = self.tuples.derivation_rows
        return [
            (location, vid, rid, rloc)
            for vid, fact in self.present()
            for rid, rloc in rows(fact)
        ]

    def rule_exec_table(self) -> List[Tuple[object, ...]]:
        """The full local ``ruleExec`` relation as rows ``(RLoc, RID, Rule, Program, ChildVIDs)``."""
        location = self.node_id
        return [
            (location, rid) + self.find_rule_exec(rid)
            for rid in sorted(self.firings.rules)
        ]

    def content_key(self) -> Tuple[object, ...]:
        """An exact key of this partition's ``prov`` and ``ruleExec`` tables.

        Each present vid's prov rows and each live RID's head vid(s): equal
        keys mean equal tables.  The rows are copied out of the tuple
        store, which grows and shrinks a fact's derivations in place.  A
        RID names its rule and body facts, so with its heads it covers the
        whole ``ruleExec`` row.  The key holds tuples of strings and node
        ids only, which the garbage collector untracks, and a kept key keeps
        no retracted fact alive.  The key is unchanged by a row that is
        removed and re-added.
        """
        rows = self.tuples.derivation_rows
        prov = {vid_for(fact): rows(fact) for fact in self.tuples.all_facts()}
        heads = {
            rid: vid_for(head) if type(head) is not frozenset else tuple(sorted(map(vid_for, head)))
            for rid, head in self.firings.heads.items()
        }
        return (prov, heads)

    @property
    def prov_count(self) -> int:
        return sum(map(self.tuples.derivation_count, self.tuples.all_facts()))

    @property
    def rule_exec_count(self) -> int:
        return len(self.firings.rules)


class ProvenanceEngine:
    """The system-wide (but per-node partitioned) provenance maintenance engine.

    Each :class:`repro.engine.node.Node` takes its evaluator's derivation-id
    function, :meth:`derivation_id`, hands the engine its tuple store and
    its evaluator's firings record (:meth:`attach`), and calls
    :meth:`apply_rule_exec_batch` once per applied batch.
    """

    def __init__(self, compiled: Optional[CompiledProgram] = None):
        self.compiled = compiled
        self._location_of = (Catalog() if compiled is None else compiled.catalog).location_of
        self._stores: Dict[object, NodeProvenanceStore] = {}
        #: vid -> the fact present under that vid, at its home node: one
        #: index for every partition, since a fact is stored only at the
        #: node its location attribute names.
        self.facts: Dict[str, Fact] = {}
        #: Whether versions are kept: not until :meth:`vid_version` hands one out.
        self._versioned = False
        #: vid -> ``(home location, fact)`` of the roots marked since the
        #: last walk.
        self._pending_roots: Dict[str, Tuple[object, Fact]] = {}
        #: The number of reachability walks so far; each walk stamps the
        #: vertices it visits with its own number.
        self._reachability_flushes = 0
        self._reachability_visited = 0
        #: vid -> reachability version: the number of the last walk that
        #: found the vertex's downstream subgraph changed, for the vids
        #: stamped since the map was last cleared.  Missing entries read as
        #: ``_vid_version_floor``.
        self._vid_versions: Dict[str, int] = {}
        #: The number of the walk that last cleared the map (0 before any
        #: clear).  Every tag a cache holds was handed out before that walk
        #: ran, so it is below the floor, and every later read is the floor
        #: or a newer stamp: a clear costs each cached entry one miss and
        #: never serves one stale.
        self._vid_version_floor = 0
        #: Map size above which a walk clears the map and raises the floor
        #: to its own number.  Instance attribute so long-churn tests can
        #: lower it.
        self._vid_version_sweep_threshold = 65536
        self._vid_version_sweeps = 0
        self._vid_versions_pruned = 0

    # -- store access -------------------------------------------------------------

    def store(self, node_id: object) -> NodeProvenanceStore:
        store = self._stores.get(node_id)
        if store is None:
            store = self._stores[node_id] = NodeProvenanceStore(node_id, engine=self)
        return store

    def attach(self, node_id: object, firings: Firings, tuples: TupleStore) -> None:
        """Make a node's *tuples* store and its evaluator's *firings* record
        the node's ``prov`` and ``ruleExec`` partition.

        The node attaches them when it is built, empty, and the partition
        is built around them; the vid index (:attr:`facts`) then follows
        every batch (:meth:`apply_rule_exec_batch`).
        """
        self._stores[node_id] = NodeProvenanceStore(node_id, self, firings, tuples)

    def node_ids(self) -> List[object]:
        return sorted(self._stores, key=repr)

    # -- the execution engine's interface: one call per node drain ------------------

    @staticmethod
    def derivation_id(rule_name: str, exec_node: object, body_facts: Tuple[Fact, ...]) -> str:
        """The derivation id of a firing: its RID.

        Every node's evaluator calls it once per firing and keeps the result;
        the same string is then the ``ruleExec`` key, the derivation id in
        the head node's store and the RID of the head's ``prov`` row, so
        neither a retraction nor a receiver ever hashes again.
        """
        return rid_for(rule_name, exec_node, tuple([vid_for(fact) for fact in body_facts]))

    def apply_rule_exec_batch(
        self,
        node_id: object,
        effects: Sequence[DerivationEffect],
        changed: Sequence[Fact] = (),
        present: Sequence[Fact] = (),
        gone: Sequence[Fact] = (),
    ) -> None:
        """Note one batch the node at *node_id* applied: the node's one call per batch.

        The rows themselves are the node's tuple store and firings record,
        which the batch has already updated.  *present* and *gone* are the
        facts that appeared at or left the node, which the vid index
        (:attr:`facts`) follows.  *changed* are the facts whose derivations an applied
        delta touched, and *effects* the rule executions added or removed
        at the node (by its evaluator, or by
        :meth:`repro.engine.node.Node.apply_external_derivation`).  Once a
        version has been handed out, both kinds of facts, each effect's by
        its head, become roots of the next reachability walk.

        ``bench/tracing.py`` wraps this method by name as the
        ``core.maintenance`` layer, which is why it keeps its name.
        """
        facts = self.facts
        for fact in present:
            facts[vid_for(fact)] = fact
        for fact in gone:
            facts.pop(vid_for(fact), None)
        if not self._versioned:
            return
        roots = self._pending_roots
        for fact in changed:
            roots[vid_for(fact)] = (node_id, fact)
        for effect in effects:
            roots[vid_for(effect.head_fact)] = (effect.head_location, effect.head_fact)

    # -- per-VID reachability versions ----------------------------------------------------

    def flush_reachability(self) -> None:
        """Stamp every ancestor of the pending roots with this walk's number.

        A change to a vertex's subgraph is a change to every ancestor's too,
        so the walk follows the firings' consumer index upward from the
        marked vertices — local consuming rule executions, then their head
        tuples at the heads' home partitions — and stamps each visited
        vertex, whatever the order; the visited set handles cyclic support
        (possible mid-retraction).  With nothing pending this is a
        truthiness check, and the walk count stays where it is.
        """
        roots = self._pending_roots
        if not roots:
            return
        versions = self._vid_versions
        walk = self._reachability_flushes + 1
        location_of = self._location_of
        seen: Set[str] = set()
        stack = [(home, fact, vid) for vid, (home, fact) in roots.items()]
        while stack:
            home, fact, vid = stack.pop()
            if vid in seen:
                continue
            seen.add(vid)
            versions[vid] = walk
            store = self._stores.get(home)
            if store is None:
                continue
            firings = store.firings
            consumers = firings.consumers.get(fact)
            if consumers is None:
                continue
            for rid in (consumers,) if type(consumers) is str else consumers:
                heads = firings.heads.get(rid)
                if heads is None:
                    continue
                for head in heads if type(heads) is frozenset else (heads,):
                    head_vid = vid_for(head)
                    if head_vid not in seen:
                        stack.append((location_of(head), head, head_vid))
        roots.clear()
        self._reachability_flushes = walk
        self._reachability_visited += len(seen)
        if len(versions) > self._vid_version_sweep_threshold:
            self._vid_version_sweeps += 1
            self._vid_versions_pruned += len(versions)
            versions.clear()
            self._vid_version_floor = walk

    def vid_version(self, vid: str) -> int:
        """Hand out the reachability version of one tuple vertex (the floor if unstamped).

        The version is the number of the last walk that found the vertex's
        downstream provenance subgraph — what a traversal from it would
        visit — changed, from the first version handed out (the first call
        switches version keeping on for good); deltas elsewhere leave it
        alone.  The query cache validates entries against this, so
        unrelated churn no longer flushes them.  A vertex no walk has
        stamped since the map was last cleared reads the clearing walk's
        number (0 before any clear).
        """
        self._versioned = True
        self.flush_reachability()
        return self._vid_versions.get(vid, self._vid_version_floor)

    def vid_versions(self) -> Dict[str, int]:
        """A snapshot of the versions stamped since the map was last cleared (observes, switches nothing on)."""
        self.flush_reachability()
        return dict(self._vid_versions)

    def vid_version_stats(self) -> Dict[str, int]:
        """Statistics of the per-VID version map and of the walk that feeds it.

        ``flushes`` counts reachability walks (0 while no version has been
        handed out: no walk is paid), ``visited`` the vertices they stamped and
        ``pending`` the roots this read found waiting (mid-window only) and walked first.
        ``sweeps`` counts the walks that cleared the map and ``pruned`` the
        entries they cleared.
        """
        pending = len(self._pending_roots)
        self.flush_reachability()
        return {
            "entries": len(self._vid_versions),
            "sweeps": self._vid_version_sweeps,
            "pruned": self._vid_versions_pruned,
            "flushes": self._reachability_flushes,
            "visited": self._reachability_visited,
            "pending": pending,
        }

    # -- statistics ----------------------------------------------------------------------

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
        """Find (relation, values, location) of a tuple vertex present at some node."""
        fact = self.facts.get(vid)
        if fact is None:
            raise UnknownVertexError(f"tuple vertex {vid!r} is unknown to every node")
        return fact.relation, fact.values, self._location_of(fact)

    def build_graph(self) -> ProvenanceGraph:
        """Assemble the full provenance graph from the distributed tables.

        This is a *centralized* convenience used by the log store, the
        visualizer and the offline analysis helpers; the distributed query
        engine never calls it.
        """
        graph = ProvenanceGraph()
        # Tuple vertices, with base-ness from prov entries.
        for node_id, store in self._stores.items():
            for vid, fact in store.present():
                is_base = any(rid == BASE_RID for rid, _ in store.prov_entries(vid))
                graph.add_tuple(
                    TupleVertex(
                        vid=vid,
                        relation=fact.relation,
                        values=fact.values,
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
