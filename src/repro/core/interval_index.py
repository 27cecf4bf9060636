"""Per-partition interval index over the provenance DAG.

The distributed query engine's traversal path answers "all supporting
descendants of this vertex" by recursive message passing over ``prov`` /
``ruleExec`` rows — one frame per vertex, one request per remote child.
This module implements the classic XPath/GRIPP-style acceleration the
ROADMAP names: DAG-ify each partition's provenance graph via a
deterministic spanning forest, label every vertex with a pre/post-order
integer interval ``[start, end)``, and keep the non-tree edges in
per-vertex *exception lists*.  A local descendant query then becomes one
binary search plus a contiguous range scan over the partition's label
table (following exception edges into other ranges), and a distributed
query ships **one batched request per partition** instead of one request
per child.

Vertices are keyed ``("t", vid)`` for tuples and ``("x", rid)`` for rule
executions.  Edges mirror the store's set semantics exactly:

* ``t:vid -> x:rid`` iff a *local*, non-BASE ``prov`` row of ``vid``
  names ``rid`` (remote entries are the query-time frontier, not edges);
* ``x:rid -> t:child`` for every child VID of a registered rule
  execution (children are always partition-local — rule bodies are
  localized before evaluation).

Labels are allocated with *gap-preserving slack*: every subtree gets an
interval ``slack`` times its size, so single-vertex inserts usually land
in an existing gap without touching any other label.  When a gap
exhausts, the smallest enclosing ancestor whose interval still fits its
grown subtree is relabeled in place; when even the forest root is too
small the subtree moves to a fresh top-level interval; and when the
label space itself is exhausted the partition index is rebuilt from
scratch.  This escalation never fails — the capacity is a soft bound
that triggers compaction, not an error.

Maintenance is incremental and piggybacks on the per-VID dirty
propagation hooks in :mod:`repro.core.maintenance`: the store notes
every ``prov`` / ``ruleExec`` mutation on its index as a self-contained
pending op, and :meth:`PartitionIntervalIndex.ensure_ready` drains the
backlog at the next query.  A cold index (or one whose backlog overflowed
``pending_limit``) is rebuilt directly from the store tables instead.

The index is an *accelerator*, never an oracle: query-time value and
truncation decisions are always made against the live store rows, so the
interval path is bit-identical to the traversal path by construction —
the differential property suite (``tests/property/test_property_interval``)
enforces exactly that under randomized churn.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.keys import BASE_RID

#: Vertex keys: ("t", vid) for tuples, ("x", rid) for rule executions.
Key = Tuple[str, object]

#: Default slack multiplier: each subtree's interval is this many times its
#: size, leaving gaps for future single-vertex inserts.
DEFAULT_SLACK = 8

#: Default label-space capacity.  Far beyond any realistic partition; the
#: escalation path treats it as a soft compaction trigger, never an error.
DEFAULT_CAPACITY = 2**40

#: Pending-op backlog bound.  Beyond this the incremental drain would cost
#: more than a rebuild, so the index deactivates and rebuilds lazily.
DEFAULT_PENDING_LIMIT = 4096


class PartitionIntervalIndex:
    """Interval-labeled spanning forest over one partition's provenance DAG.

    The index is owned by a :class:`~repro.core.maintenance.NodeProvenanceStore`
    and is lazy: it stays cold (``active == False``) until the first
    :meth:`ensure_ready`, which builds it from the store tables.  While
    active, the store feeds it mutation notes (``note_*``); each note is a
    self-contained pending op so the drain never has to consult future
    store state.
    """

    def __init__(
        self,
        store,
        slack: int = DEFAULT_SLACK,
        capacity: int = DEFAULT_CAPACITY,
        pending_limit: int = DEFAULT_PENDING_LIMIT,
    ) -> None:
        if slack < 1:
            raise ValueError("slack must be >= 1")
        self._store = store
        self._slack = slack
        self._capacity = capacity
        self._pending_limit = pending_limit
        self._active = False
        self._pending: List[Tuple] = []
        # Forest + labels (reset together; _succ/_pred are the edge source
        # of truth that survives relabels and feeds rebuilds).
        self._parent: Dict[Key, Optional[Key]] = {}
        self._children: Dict[Key, List[Key]] = {}
        self._start: Dict[Key, int] = {}
        self._end: Dict[Key, int] = {}
        self._exceptions: Dict[Key, Set[Key]] = {}
        self._succ: Dict[Key, Set[Key]] = {}
        self._pred: Dict[Key, Set[Key]] = {}
        self._top_cursor = 0
        # Sorted-by-start view of the label table, rebuilt lazily.
        self._order_starts: List[int] = []
        self._order_keys: List[Key] = []
        self._order_dirty = False
        # Observability counters (surfaced through ProvenanceEngine).
        self._builds = 0
        self._rebuilds = 0
        self._subtree_relabels = 0
        self._range_scans = 0
        self._closures = 0
        self._pending_applied = 0
        self._overflows = 0

    # -- public surface ----------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def counters(self) -> Dict[str, int]:
        return {
            "builds": self._builds,
            "rebuilds": self._rebuilds,
            "subtree_relabels": self._subtree_relabels,
            "range_scans": self._range_scans,
            "closures": self._closures,
            "pending_applied": self._pending_applied,
            "overflows": self._overflows,
        }

    def ensure_ready(self) -> None:
        """Bring the index up to date with the store before a query."""
        if not self._active:
            self._build_from_store()
            self._active = True
            return
        if self._pending:
            pending, self._pending = self._pending, []
            for op in pending:
                self._apply(op)
            self._pending_applied += len(pending)

    def closure(self, targets: Iterable[Key]) -> Tuple[Set[Key], List[Key]]:
        """All descendants (inclusive) of *targets*; unlabeled ones returned
        separately so the caller can resolve them against the store."""
        self._closures += 1
        if self._order_dirty:
            self._refresh_order()
        reached: Set[Key] = set()
        missing: List[Key] = []
        stack: List[Key] = []
        for key in targets:
            if key in self._start:
                stack.append(key)
            else:
                missing.append(key)
        starts = self._order_starts
        keys = self._order_keys
        while stack:
            key = stack.pop()
            if key in reached:
                continue
            self._range_scans += 1
            index = bisect_left(starts, self._start[key])
            bound = self._end[key]
            while index < len(starts) and starts[index] < bound:
                member = keys[index]
                index += 1
                reached.add(member)
                for target in self._exceptions.get(member, ()):
                    if target not in reached:
                        stack.append(target)
        return reached, missing

    def labels(self) -> Dict[Key, Tuple[int, int]]:
        """Snapshot of the label table (tests assert determinism on this)."""
        return {key: (self._start[key], self._end[key]) for key in self._start}

    # -- store-side mutation notes ----------------------------------------

    def note_prov_added(self, vid, rid, rloc) -> None:
        if self._active:
            self._pending.append(("ap", vid, rid, rloc))
            self._check_overflow()

    def note_prov_removed(self, vid, rid, rloc) -> None:
        if self._active:
            self._pending.append(("rp", vid, rid, rloc))
            self._check_overflow()

    def note_exec_added(self, rid, child_vids: Sequence) -> None:
        if self._active:
            self._pending.append(("ax", rid, tuple(child_vids)))
            self._check_overflow()

    def note_exec_removed(self, rid, child_vids: Sequence) -> None:
        if self._active:
            self._pending.append(("rx", rid, tuple(child_vids)))
            self._check_overflow()

    # -- lifecycle ---------------------------------------------------------

    def _check_overflow(self) -> None:
        if len(self._pending) > self._pending_limit:
            # Draining would cost more than a rebuild: drop the backlog and
            # go cold; the next ensure_ready() rebuilds from the store.
            self._pending.clear()
            self._active = False
            self._overflows += 1
            self._reset_structures()

    def _reset_structures(self) -> None:
        self._parent = {}
        self._children = {}
        self._start = {}
        self._end = {}
        self._exceptions = {}
        self._succ = {}
        self._pred = {}
        self._top_cursor = 0
        self._order_starts = []
        self._order_keys = []
        self._order_dirty = False

    def _build_from_store(self) -> None:
        self._builds += 1
        self._reset_structures()
        store = self._store
        node_id = store.node_id
        for vid in sorted(store._prov, key=repr):
            key = ("t", vid)
            self._parent.setdefault(key, None)
            for rid, rloc in store.prov_entries(vid):
                if rid != BASE_RID and rloc == node_id:
                    xkey = ("x", rid)
                    self._parent.setdefault(xkey, None)
                    self._succ.setdefault(key, set()).add(xkey)
                    self._pred.setdefault(xkey, set()).add(key)
        for rid in sorted(store._rule_execs, key=repr):
            xkey = ("x", rid)
            self._parent.setdefault(xkey, None)
            for child in store.child_vids(rid):
                ckey = ("t", child)
                self._parent.setdefault(ckey, None)
                self._succ.setdefault(xkey, set()).add(ckey)
                self._pred.setdefault(ckey, set()).add(xkey)
        self._rebuild()

    def _apply(self, op: Tuple) -> None:
        kind = op[0]
        if kind == "ap":
            _, vid, rid, rloc = op
            self._ensure_vertex(("t", vid))
            if rid != BASE_RID and rloc == self._store.node_id:
                self._add_edge(("t", vid), ("x", rid))
        elif kind == "rp":
            _, vid, rid, rloc = op
            if rid != BASE_RID and rloc == self._store.node_id:
                self._remove_edge(("t", vid), ("x", rid))
        elif kind == "ax":
            _, rid, children = op
            self._ensure_vertex(("x", rid))
            for child in children:
                self._add_edge(("x", rid), ("t", child))
        elif kind == "rx":
            _, rid, children = op
            for child in children:
                self._remove_edge(("x", rid), ("t", child))

    # -- forest maintenance ------------------------------------------------

    def _register(self, key: Key) -> None:
        self._parent[key] = None

    def _ensure_vertex(self, key: Key) -> None:
        if key in self._parent:
            return
        self._register(key)
        width = self._slack
        if self._top_cursor + width > self._capacity:
            self._escalated_rebuild()
            return
        self._start[key] = self._top_cursor
        self._end[key] = self._top_cursor + width
        self._top_cursor += width
        self._order_dirty = True

    def _in_subtree(self, root: Key, key: Key) -> bool:
        """Is *key* inside *root*'s subtree, per the current labels?"""
        return self._start[root] <= self._start[key] < self._end[root]

    def _add_edge(self, u: Key, v: Key) -> None:
        self._ensure_vertex(u)
        fresh = v not in self._parent
        if fresh:
            self._register(v)
        succ = self._succ.setdefault(u, set())
        if v in succ:
            return
        succ.add(v)
        self._pred.setdefault(v, set()).add(u)
        if fresh:
            self._parent[v] = u
            self._children.setdefault(u, []).append(v)
            self._place_subtree(v, u)
        elif self._parent.get(v) == u:
            pass
        elif self._parent.get(v) is None and not self._in_subtree(v, u):
            # Adopt the forest root v as a tree child of u.  The
            # _in_subtree guard keeps the forest acyclic even when the
            # pending backlog replays through transiently cyclic states.
            self._parent[v] = u
            self._children.setdefault(u, []).append(v)
            self._place_subtree(v, u)
        else:
            self._exceptions.setdefault(u, set()).add(v)

    def _remove_edge(self, u: Key, v: Key) -> None:
        succ = self._succ.get(u)
        if not succ or v not in succ:
            return
        succ.discard(v)
        preds = self._pred.get(v)
        if preds is not None:
            preds.discard(u)
        exceptions = self._exceptions.get(u)
        if exceptions is not None and v in exceptions:
            exceptions.discard(v)
            return
        # Keys are value-compared: pending ops rebuild equal-but-distinct
        # tuples, so identity comparison here would silently skip the detach.
        if self._parent.get(v) != u:
            return
        # Detach the tree child and try to promote a remaining
        # predecessor's exception edge into the new tree edge.
        self._children[u].remove(v)
        self._parent[v] = None
        for candidate in sorted(self._pred.get(v, ()), key=repr):
            if self._in_subtree(v, candidate):
                continue
            candidate_exceptions = self._exceptions.get(candidate)
            if candidate_exceptions is not None:
                candidate_exceptions.discard(v)
            self._parent[v] = candidate
            self._children.setdefault(candidate, []).append(v)
            self._place_subtree(v, candidate)
            return
        # v stays a forest root.  Its labels still sit inside the old
        # ancestors' ranges, which would corrupt their scans — move the
        # subtree to a fresh top-level interval.
        sizes = self._subtree_sizes(v)
        width = sizes[v] * self._slack
        if self._top_cursor + width > self._capacity:
            self._escalated_rebuild()
            return
        self._relabel_subtree(v, self._top_cursor, self._top_cursor + width)
        self._top_cursor += width
        self._order_dirty = True

    def _place_subtree(self, v: Key, parent: Key) -> None:
        """Label v's subtree inside *parent*'s interval, escalating from
        gap-fit to ancestor relabel to fresh top interval to rebuild."""
        sizes = self._subtree_sizes(v)
        need = sizes[v]
        gap = self._find_gap(parent, need, v)
        if gap is not None:
            lo, hi = gap
            width = min(hi - lo, need * self._slack)
            self._relabel_subtree(v, lo, lo + width)
            self._order_dirty = True
            return
        node: Optional[Key] = parent
        while node is not None:
            size = self._subtree_sizes(node)[node]
            if self._end[node] - self._start[node] >= size:
                self._subtree_relabels += 1
                self._relabel_subtree(node, self._start[node], self._end[node])
                self._order_dirty = True
                return
            if self._parent.get(node) is None:
                width = size * self._slack
                if self._top_cursor + width > self._capacity:
                    self._escalated_rebuild()
                    return
                self._subtree_relabels += 1
                self._relabel_subtree(node, self._top_cursor, self._top_cursor + width)
                self._top_cursor += width
                self._order_dirty = True
                return
            node = self._parent[node]

    def _find_gap(self, parent: Key, need: int, exclude: Key):
        """First interior gap of *parent* with room for *need* slots, skipping
        *exclude* (the child being placed, whose labels are stale)."""
        cursor = self._start[parent] + 1
        bound = self._end[parent]
        spans = sorted(
            (self._start[child], self._end[child])
            for child in self._children.get(parent, ())
            if child != exclude and child in self._start
        )
        for lo, hi in spans:
            if lo - cursor >= need:
                return cursor, lo
            cursor = max(cursor, hi)
        if bound - cursor >= need:
            return cursor, bound
        return None

    def _subtree_sizes(self, root: Key) -> Dict[Key, int]:
        sizes: Dict[Key, int] = {}
        stack: List[Tuple[Key, bool]] = [(root, False)]
        while stack:
            key, expanded = stack.pop()
            if expanded:
                sizes[key] = 1 + sum(
                    sizes[child] for child in self._children.get(key, ())
                )
            else:
                stack.append((key, True))
                for child in self._children.get(key, ()):
                    stack.append((child, False))
        return sizes

    def _relabel_subtree(self, root: Key, lo: int, hi: int) -> None:
        """Assign [lo, hi) to *root*'s subtree, spreading the slack evenly.

        Requires ``hi - lo >= subtree size``; every subtree then receives an
        interval at least as wide as its size, so recursion never starves.
        """
        sizes = self._subtree_sizes(root)
        stack: List[Tuple[Key, int, int]] = [(root, lo, hi)]
        while stack:
            key, start, end = stack.pop()
            self._start[key] = start
            self._end[key] = end
            kids = self._children.get(key)
            if not kids:
                continue
            total = sizes[key] - 1
            per = (end - start - 1) // total
            cursor = start + 1
            for child in kids:
                # Cap each child at slack-proportional width so every level
                # of the tree keeps a tail gap: single-vertex inserts (e.g.
                # transient aggregate losers) then land in the parent's gap
                # without perturbing the labels of sibling subtrees.
                width = min(sizes[child] * per, sizes[child] * self._slack)
                stack.append((child, cursor, cursor + width))
                cursor += width

    def _escalated_rebuild(self) -> None:
        self._rebuilds += 1
        self._rebuild()

    def _rebuild(self) -> None:
        """Recompute forest, exceptions and labels from the edge mirror.

        Deterministic: vertices and successors are visited in sorted order,
        so two runs with identical mutation histories produce identical
        label tables (the property suite asserts this).
        """
        vertices = sorted(self._parent, key=repr)
        self._parent = {key: None for key in vertices}
        self._children = {}
        self._exceptions = {}
        self._start = {}
        self._end = {}
        visited: Set[Key] = set()
        roots: List[Key] = []
        seeds = [key for key in vertices if not self._pred.get(key)]
        seeds += [key for key in vertices if self._pred.get(key)]
        for seed in seeds:
            if seed in visited:
                continue
            visited.add(seed)
            roots.append(seed)
            stack = [seed]
            while stack:
                u = stack.pop()
                fresh: List[Key] = []
                for v in sorted(self._succ.get(u, ()), key=repr):
                    if v in visited:
                        self._exceptions.setdefault(u, set()).add(v)
                    else:
                        visited.add(v)
                        self._parent[v] = u
                        self._children.setdefault(u, []).append(v)
                        fresh.append(v)
                stack.extend(reversed(fresh))
        total = len(vertices)
        slack = self._slack
        if total and total * slack > self._capacity:
            slack = max(1, self._capacity // total)
        cursor = 0
        for root in roots:
            width = self._subtree_sizes(root)[root] * slack
            self._relabel_subtree(root, cursor, cursor + width)
            cursor += width
        self._top_cursor = cursor
        self._order_dirty = True

    def _refresh_order(self) -> None:
        # Starts are unique (intervals are nested-or-disjoint and every
        # vertex owns its start slot), so sorting by start alone is total.
        pairs = sorted(self._start.items(), key=lambda item: item[1])
        self._order_keys = [key for key, _ in pairs]
        self._order_starts = [start for _, start in pairs]
        self._order_dirty = False
