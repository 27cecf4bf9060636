"""Per-node incremental NDlog evaluator.

The :class:`LocalEvaluator` maintains, for one node, the consequences of the
compiled program over the node's local tuple store.  It is *purely local*:
it never touches the network.  Given a fact that has just appeared in (or
disappeared from) the local store, it computes the set of rule firings and
retractions this causes — the :class:`DerivationEffect` objects — and leaves
it to the :class:`repro.engine.node.Node` to apply local effects and to ship
remote ones as messages.

The evaluator implements:

* semi-naive (delta) evaluation, either one update at a time
  (:meth:`LocalEvaluator.on_fact_inserted` / ``on_fact_deleted``) or — the
  batch-first hot path — over a whole set of deltas at once
  (:meth:`LocalEvaluator.on_batch`), which groups same-relation deltas,
  runs one semi-naive join pass per (rule, delta position) over the whole
  delta set and defers aggregate recomputation so each touched group is
  recomputed exactly once per batch,
* derivation tracking (one firing record per distinct rule firing), which
  both drives incremental deletion and feeds the provenance engine,
* aggregates (``min``/``max``/``count``/``sum``/``avg``) maintained per
  group with correct retract-and-replace behaviour when the aggregate value
  changes, and
* stratum-free negation: firings are retracted when a fact matching one of
  their negative literals appears, and re-derived when it disappears.

Deletion semantics: incremental deletion uses derivation counting — a derived
fact disappears when its last recorded derivation is retracted.  This is
exact for programs whose derivations cannot cyclically support each other
(every protocol shipped in :mod:`repro.protocols` has this property: costs
strictly increase along MINCOST/distance-vector derivations and paths
strictly extend in path-vector/DSR).  For programs with genuinely cyclic
support — e.g. plain symmetric transitive closure — counting can retain
tuples whose only remaining support is a derivation cycle, the classic
limitation that DRed-style maintenance addresses; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import EngineError
from repro.ndlog.ast import (
    Aggregate,
    Assignment,
    Condition,
    Constant,
    Expression,
    Literal,
    Rule,
    Variable,
)
from repro.engine.compiler import CompiledProgram
from repro.engine.dataflow import (
    _ARITHMETIC,
    _COMPARISON,
    Bindings,
    bound_positions,
    evaluate_term,
    group_key_of,
    instantiate_head,
    match_atom,
    satisfies,
)
from repro.engine.store import SerialShardExecutor, ShardExecutor, TupleStore
from repro.engine.tuples import SLOTTED, Fact


@dataclass(frozen=True, **SLOTTED)
class DerivationEffect:
    """One rule firing (+1) or retraction (-1) produced by the evaluator.

    ``firing_id`` identifies the derivation; the node that stores the head
    fact uses it as the derivation id in its store, and the provenance engine
    uses it to connect the rule-execution vertex with the derived tuple
    vertex.
    """

    sign: int
    firing_id: str
    rule_name: str
    program_name: str
    head_fact: Fact
    head_location: object
    body_facts: Tuple[Fact, ...]

    def __str__(self) -> str:
        symbol = "+" if self.sign > 0 else "-"
        return f"{symbol}{self.head_fact} via {self.rule_name} [{self.firing_id}]"


@dataclass(frozen=True)
class _ColumnarStep:
    """One join step of a compiled columnar plan (one non-delta body atom).

    ``key_ops`` builds the probe-key tuple for ``key_positions``: each entry
    is ``(is_slot, payload)`` — a bound variable's slot number or a constant
    value.  ``bind_ops``/``check_ops`` are ``(attribute position, slot)``
    pairs: binds copy candidate values into slots (first occurrence of a
    variable new to this step), checks compare against already-written slots
    (repeated occurrences).  Checks run after binds so within-atom repeats
    read the value the same candidate just wrote.
    """

    body_index: int
    relation: str
    arity: int
    key_positions: Tuple[int, ...]
    key_ops: Tuple[Tuple[bool, object], ...]
    bind_ops: Tuple[Tuple[int, int], ...]
    check_ops: Tuple[Tuple[int, int], ...]
    excluded: bool


@dataclass(frozen=True)
class _ColumnarPlan:
    """Compiled join program for one (rule, delta position) trigger.

    Variables live in a flat slot array instead of per-candidate dict
    copies; ``delta_slots`` seeds the slots from the delta fact's
    ``match_atom`` bindings, and each step probes the store's columnar
    id arrays.  ``None`` is cached for ineligible triggers (a non-delta
    body atom with expression terms), which fall back to the generic
    dict-based join.
    """

    delta_index: int
    slot_names: Tuple[str, ...]
    delta_slots: Tuple[Tuple[str, int], ...]
    steps: Tuple[_ColumnarStep, ...]
    #: Compiled assignments/conditions in rule-body order, or ``None`` when
    #: some body element is not slot-compilable (the join then finalizes
    #: through the generic dict-based path).  Entries are
    #: ``("assign", slot, fn)`` / ("cond", None, fn)`` with ``fn(slots)``.
    post_ops: Optional[Tuple[Tuple[str, Optional[int], object], ...]] = None
    #: Non-aggregate heads: ``(relation, ((is_slot, payload), ...))`` building
    #: the head fact straight from the slots — no bindings dict, no
    #: ``instantiate_head``.  ``None`` -> dict fallback (or aggregate rule).
    head_build: Optional[Tuple[str, Tuple[Tuple[bool, object], ...]]] = None
    #: Aggregate rules: ``((is_slot, payload), ...)`` group-key ops plus the
    #: aggregate input's slot (``None`` = count-style value 1).
    agg_group_ops: Optional[Tuple[Tuple[bool, object], ...]] = None
    agg_value_slot: Optional[int] = None
    #: Compiled delta-atom seed: the trigger fact's values are written
    #: straight into the slots — ``("bind", position, slot)`` /
    #: ``("check_slot", position, slot)`` (repeated variable) /
    #: ``("check_const", position, value)`` — replacing the per-trigger
    #: ``match_atom`` call and its bindings dict.  ``None`` when the delta
    #: atom carries expression terms (those keep the ``match_atom`` seed).
    delta_ops: Optional[Tuple[Tuple[str, int, object], ...]] = None
    delta_arity: int = -1


def _compile_expr(term, slot_of: Dict[str, int]):
    """Compile a ground expression term into ``fn(slots) -> value``.

    Mirrors :func:`repro.engine.dataflow.evaluate_term` over the compilable
    core — constants, slot-bound variables, and arithmetic/comparison
    operator trees.  Returns ``None`` for anything else (function calls,
    aggregates, unbound variables); the caller then keeps the generic
    dict-based evaluation for the whole rule.
    """
    if isinstance(term, Constant):
        value = term.value
        return lambda slots: value
    if isinstance(term, Variable):
        slot = slot_of.get(term.name)
        if slot is None:
            return None
        return lambda slots: slots[slot]
    if isinstance(term, Expression):
        operator = _ARITHMETIC.get(term.op) or _COMPARISON.get(term.op)
        if operator is None:
            return None
        # Flatten the two overwhelmingly common shapes — ``Var op Const``
        # and ``Var op Var`` — into a single closure so evaluating a
        # condition costs one call instead of three.
        left_term, right_term = term.left, term.right
        if isinstance(left_term, Variable):
            left_slot = slot_of.get(left_term.name)
            if left_slot is None:
                return None
            if isinstance(right_term, Constant):
                right_value = right_term.value
                return lambda slots: operator(slots[left_slot], right_value)
            if isinstance(right_term, Variable):
                right_slot = slot_of.get(right_term.name)
                if right_slot is None:
                    return None
                return lambda slots: operator(slots[left_slot], slots[right_slot])
        left = _compile_expr(left_term, slot_of)
        right = _compile_expr(right_term, slot_of)
        if left is None or right is None:
            return None
        return lambda slots: operator(left(slots), right(slots))
    return None


#: An aggregate membership: (repr sort key, rule name, group key, body facts).
_Membership = Tuple[str, str, Tuple, Tuple[Fact, ...]]


def _sorted_members(members):
    """A per-fact index value — one bare member, or a set of two or more — sorted."""
    return sorted(members) if type(members) is set else (members,)


class LocalEvaluator:
    """Incremental evaluation of a compiled program over one node's store."""

    def __init__(
        self,
        compiled: CompiledProgram,
        store: TupleStore,
        node_id: object,
        aggregate_retract_first: bool = False,
        shard_executor: Optional[ShardExecutor] = None,
    ):
        self._compiled = compiled
        self._store = store
        self._node = node_id
        self._registry = compiled.registry
        self._firing_seq = 0
        #: Executor for the per-shard join passes of :meth:`on_batch`; only
        #: consulted when the store is sharded (``store.num_shards > 1``).
        self._shard_executor: ShardExecutor = (
            shard_executor if shard_executor is not None else SerialShardExecutor()
        )
        #: Ablation switch (see DESIGN.md §5): when True, aggregate changes are
        #: propagated as retract-then-insert instead of the default
        #: insert-then-retract ordering.  Only benchmarks should enable it.
        self.aggregate_retract_first = aggregate_retract_first

        #: firing id -> rule name, head fact and body facts of each live
        #: non-aggregate firing: three flat maps, not a record object per
        #: firing.  The rule-name map holds only strings, so the cyclic
        #: collector never scans it; the other two reference objects that
        #: exist anyway.
        self._firing_rules: Dict[str, str] = {}
        self._firing_heads: Dict[str, Fact] = {}
        self._firing_bodies: Dict[str, Tuple[Fact, ...]] = {}
        #: rule name -> body facts -> firing id; keyed by the firing's own
        #: body tuple, so no per-firing key object exists
        self._firing_by_body: Dict[str, Dict[Tuple[Fact, ...], str]] = {
            rule.name: {} for rule in compiled.rules
        }
        #: fact -> id of the one live firing that used it positively, or the
        #: set of ids from the second such firing on (no per-fact container
        #: for the collector to scan in the common one-firing case)
        self._fact_firings: Dict[Fact, Union[str, Set[str]]] = {}

        # Aggregate state: rule name -> group key -> {body_facts -> value}
        self._agg_entries: Dict[str, Dict[Tuple, Dict[Tuple[Fact, ...], object]]] = {}
        # Live aggregate heads, (rule name, group key) -> the head's firing id
        # and aggregate value, its head fact, and its contributing body facts:
        # flat maps like the firing maps, no record object per group.  The
        # id/value map holds atoms only, so the collector never scans it.
        self._agg_heads: Dict[Tuple[str, Tuple], Tuple[str, object]] = {}
        self._agg_head_facts: Dict[Tuple[str, Tuple], Fact] = {}
        self._agg_head_bodies: Dict[Tuple[str, Tuple], Tuple[Fact, ...]] = {}
        # Fact -> memberships, each (repr sort key, rule name, group key,
        # body facts) — the sort key is computed once here so deletion-time
        # ordering (phase 1) is a plain tuple sort.  Like _fact_firings, a
        # fact in one membership maps to the bare membership tuple and only
        # a fact in two or more to a set of them.
        self._fact_agg_entries: Dict[Fact, Union[_Membership, Set[_Membership]]] = {}
        self._agg_rules: Dict[str, Rule] = {
            rule.name: rule for rule in compiled.rules if rule.has_aggregate
        }
        # When not None, the evaluator is inside an on_batch call: aggregate
        # recomputation is deferred and touched groups accumulate here as
        # (sort key, rule name, group key) so each group is recomputed
        # exactly once per batch, in precomputed-key order.
        self._dirty_agg_groups: Optional[Set[Tuple[str, str, Tuple]]] = None
        # (rule name, delta position) -> the (relation, index positions) each
        # non-delta literal will probe during the join, computed statically.
        self._prewarm_plans: Dict[Tuple[str, int], List[Tuple[str, Tuple[int, ...]]]] = {}
        # (rule name, delta position) -> compiled columnar join plan, or None
        # for triggers the fast path cannot handle (expression body terms).
        self._columnar_plans: Dict[Tuple[str, int], Optional[_ColumnarPlan]] = {}
        # True while on_batch's insert pass runs against a columnar store
        # whose batch probe tables are populated; gates the fast path.
        self._batch_probe_active = False
        # (rule name, group key) -> cached repr sort key for phase-3 ordering.
        self._group_sort_keys: Dict[Tuple[str, Tuple], str] = {}
        # Columnar stores intern facts, so repr-derived sort keys can be
        # memoized by identity-hashing dict lookups: membership keys by
        # (rule, group, body) and fact reprs for contributing-set ordering.
        # The dict reference path recomputes both every time (the ablation
        # baseline stays allocation-faithful to the original implementation).
        self._columnar_store = bool(getattr(store, "columnar", False))
        # (rule, group, body) -> (membership tuple, distinct body facts).
        self._membership_reprs: Dict[
            Tuple[str, Tuple, Tuple[Fact, ...]],
            Tuple[Tuple[str, str, Tuple, Tuple[Fact, ...]], Tuple[Fact, ...]],
        ] = {}
        self._fact_reprs: Dict[Fact, str] = {}

    # -- public statistics -------------------------------------------------------

    @property
    def firing_count(self) -> int:
        """Number of currently-live rule firings recorded at this node."""
        return len(self._firing_rules) + len(self._agg_heads)

    # -- entry points --------------------------------------------------------------

    def on_fact_inserted(self, fact: Fact) -> List[DerivationEffect]:
        """React to *fact* having just become present in the local store."""
        effects: List[DerivationEffect] = []
        for rule, delta_index in self._compiled.delta_index.get(fact.relation, []):
            for bindings, body_facts in self._delta_bindings(rule, delta_index, fact):
                effects.extend(self._apply_firing(rule, bindings, body_facts))
        for rule in self._compiled.negation_index.get(fact.relation, []):
            effects.extend(self._retract_blocked_firings(rule, fact))
        return effects

    def on_fact_deleted(self, fact: Fact) -> List[DerivationEffect]:
        """React to *fact* having just disappeared from the local store."""
        effects: List[DerivationEffect] = []

        # Retraction of ordinary firings that used the fact positively.
        firings = self._fact_firings.pop(fact, None)
        if firings:
            for firing_id in _sorted_members(firings):
                if firing_id in self._firing_rules:
                    effects.append(self._retract_firing(firing_id))

        # Removal of aggregate entries that used the fact.  Memberships carry
        # their repr sort key as element 0 (computed once at entry creation),
        # so ordering them is a plain tuple sort with no repr() calls.
        memberships = self._fact_agg_entries.pop(fact, None)
        if memberships:
            for membership in _sorted_members(memberships):
                effects.extend(self._agg_remove_entry(membership))

        # Firings newly enabled because a negative literal stopped matching.
        for rule in self._compiled.negation_index.get(fact.relation, []):
            effects.extend(self._enable_unblocked_firings(rule, fact))
        return effects

    def on_batch(
        self, inserts: Sequence[Fact], deletes: Sequence[Fact]
    ) -> List[DerivationEffect]:
        """React to a whole batch of store changes at once (the hot path).

        *inserts* are facts that newly became present and *deletes* facts that
        disappeared since the last evaluator call; the local store must
        already reflect the entire batch, and the two sequences must be
        disjoint (callers collapse flickering facts to their net transition).

        The batch pass is equivalent to replaying the deltas one at a time —
        incremental maintenance is confluent, so the final store and
        provenance state are identical — but does strictly less work:

        * same-relation deltas are grouped and each (rule, delta position)
          trigger runs one semi-naive join pass over the whole delta set,
          with the classic batch exclusion rule (body positions *before* the
          delta position skip every delta fact of that relation, so each new
          binding is found exactly once);
        * aggregate recomputation is deferred: each touched (rule, group)
          pair is recomputed once at the end of the batch, so a group hit by
          many deltas emits one consolidated retract/insert pair instead of
          an intermediate effect per delta;
        * the secondary-index lookups in :meth:`TupleStore.matching` are
          amortised over the whole delta set instead of being interleaved
          with per-fact bookkeeping.
        """
        if self._dirty_agg_groups is not None:
            raise EngineError("on_batch is not re-entrant")
        effects: List[DerivationEffect] = []
        self._dirty_agg_groups = set()
        try:
            # Phase 1 — deletions: retract firings and aggregate entries that
            # used a deleted fact (pure bookkeeping, driven by the reverse
            # indexes, no store scans).
            for fact in deletes:
                firings = self._fact_firings.pop(fact, None)
                if firings:
                    for firing_id in _sorted_members(firings):
                        if firing_id in self._firing_rules:
                            effects.append(self._retract_firing(firing_id))
                memberships = self._fact_agg_entries.pop(fact, None)
                if memberships:
                    for membership in _sorted_members(memberships):
                        effects.extend(self._agg_remove_entry(membership))
            # Firings newly enabled because a negative literal stopped
            # matching; runs after all retractions so the store and firing
            # tables are settled.
            for fact in deletes:
                for rule in self._compiled.negation_index.get(fact.relation, []):
                    effects.extend(self._enable_unblocked_firings(rule, fact))

            # Phase 2 — insertions: one batch semi-naive pass per trigger.
            # On a sharded store the join passes run per shard (possibly on a
            # thread pool) and their firings are merged in shard order.
            by_relation: Dict[str, List[Fact]] = {}
            for fact in inserts:
                by_relation.setdefault(fact.relation, []).append(fact)
            exclusions: Dict[str, Set[Fact]] = {
                relation: set(facts) for relation, facts in by_relation.items()
            }
            # On a columnar store, publish the batch's delta facts as
            # per-relation interned-id sets; _delta_bindings then dispatches
            # to the compiled columnar join, whose exclusion checks are
            # integer-set probes over those tables.
            columnar_probe = bool(inserts) and getattr(self._store, "columnar", False)
            if columnar_probe:
                self._store.begin_batch_probe(inserts)
                self._batch_probe_active = True
            try:
                if getattr(self._store, "num_shards", 1) > 1 and inserts:
                    effects.extend(self._sharded_insert_pass(inserts, by_relation, exclusions))
                else:
                    for relation, delta_facts in by_relation.items():
                        for rule, delta_index in self._compiled.delta_index.get(relation, []):
                            self._prewarm_join_indexes(rule, delta_index)
                            for fact in delta_facts:
                                for bindings, body_facts in self._delta_bindings(
                                    rule, delta_index, fact, exclusions
                                ):
                                    effects.extend(self._apply_firing(rule, bindings, body_facts))
            finally:
                if columnar_probe:
                    self._batch_probe_active = False
                    self._store.end_batch_probe()
            for relation, delta_facts in by_relation.items():
                for rule in self._compiled.negation_index.get(relation, []):
                    for fact in delta_facts:
                        effects.extend(self._retract_blocked_firings(rule, fact))

            # Phase 3 — flush deferred aggregates: one recomputation per
            # touched group, in a deterministic order.  Dirty entries are
            # (sort key, rule name, group key) with the repr key memoized per
            # group, so the sort itself never calls repr().
            dirty = sorted(self._dirty_agg_groups)
            self._dirty_agg_groups = None
            for _, rule_name, group_key in dirty:
                rule = self._agg_rules.get(rule_name)
                if rule is not None:
                    effects.extend(self._agg_recompute(rule, group_key))
        finally:
            self._dirty_agg_groups = None
        return effects

    def recompute_effects_for_existing(self, fact: Fact) -> List[DerivationEffect]:
        """Alias of :meth:`on_fact_inserted`, used when replaying a store."""
        return self.on_fact_inserted(fact)

    def _sharded_insert_pass(
        self,
        inserts: Sequence[Fact],
        by_relation: Dict[str, List[Fact]],
        exclusions: Dict[str, Set[Fact]],
    ) -> List[DerivationEffect]:
        """Run the batch semi-naive insert pass per shard, merging deterministically.

        Applying a firing never changes the tuple store (only evaluator
        bookkeeping), so the set of complete bindings triggered by a batch is
        independent of the order firings are recorded in — which is what
        allows the pass to be split into a read-only *enumeration* stage and
        a serial *apply* stage:

        1. every secondary index any trigger will probe is built up front
           (index construction is the one store mutation joins would
           otherwise race on);
        2. each shard's share of the delta facts is joined against the whole
           (cross-shard) store concurrently via the shard executor — the
           enumeration only reads the store, the compiled program and the
           shared exclusion sets;
        3. the discovered bindings are turned into firings serially, shard by
           shard in shard-index order, so firing ids, duplicate suppression
           and deferred aggregate bookkeeping behave exactly as in a serial
           pass over the same delta order.
        """
        for relation in by_relation:
            for rule, delta_index in self._compiled.delta_index.get(relation, []):
                self._prewarm_join_indexes(rule, delta_index)

        num_shards = self._store.num_shards
        shard_deltas: List[List[Fact]] = [[] for _ in range(num_shards)]
        for fact in inserts:
            shard_deltas[self._store.shard_index(fact)].append(fact)

        def enumerate_shard(delta_facts: List[Fact]):
            found = []
            local_by_relation: Dict[str, List[Fact]] = {}
            for fact in delta_facts:
                local_by_relation.setdefault(fact.relation, []).append(fact)
            for relation, facts in local_by_relation.items():
                for rule, delta_index in self._compiled.delta_index.get(relation, []):
                    for fact in facts:
                        for bindings, body_facts in self._delta_bindings(
                            rule, delta_index, fact, exclusions
                        ):
                            found.append((rule, bindings, body_facts))
            return found

        effects: List[DerivationEffect] = []
        jobs = [delta_facts for delta_facts in shard_deltas if delta_facts]
        for found in self._shard_executor.map(enumerate_shard, jobs):
            for rule, bindings, body_facts in found:
                effects.extend(self._apply_firing(rule, bindings, body_facts))
        return effects

    # -- firing management ----------------------------------------------------------

    def _next_firing_id(self) -> str:
        self._firing_seq += 1
        return f"{self._node}#{self._firing_seq}"

    def _apply_firing(
        self, rule: Rule, bindings: object, body_facts: Tuple[Fact, ...]
    ) -> List[DerivationEffect]:
        """Record one rule firing.

        *bindings* is normally the complete bindings dict; a compiled
        columnar join passes its precomputed payload instead — the head fact
        itself (non-aggregate rules) or a ``(group key, value)`` pair
        (aggregate rules) — so no bindings dict ever exists on that path.
        """
        # The compiled payload's type decides the path outright — a tuple is
        # an aggregate (group key, value) pair, a Fact is a prebuilt head —
        # so neither consults the ``has_aggregate`` head scan per firing.
        kind = type(bindings)
        if kind is tuple:
            group_key, value = bindings
            return self._agg_add_entry_direct(rule, group_key, value, body_facts)
        if kind is not Fact and rule.has_aggregate:
            return self._agg_add_entry(rule, bindings, body_facts)

        by_body = self._firing_by_body[rule.name]
        if body_facts in by_body:
            # The same combination of body facts can be rediscovered when a
            # fact is re-inserted concurrently with unprocessed retractions;
            # a firing must not be duplicated.
            return []

        if kind is Fact:
            head_fact = bindings
            # Compiled-path bodies hold canonical (interned) facts, so the
            # one-or-two-fact common case dedups by identity without
            # allocating a set.
            if len(body_facts) == 1 or (
                len(body_facts) == 2 and body_facts[0] is not body_facts[1]
            ):
                distinct_facts: Iterable[Fact] = body_facts
            else:
                distinct_facts = set(body_facts)
        else:
            head_fact = instantiate_head(rule.head, bindings, self._registry)
            distinct_facts = set(body_facts)
        head_location = self._compiled.catalog.location_of(head_fact)
        firing_id = self._next_firing_id()
        self._firing_rules[firing_id] = rule.name
        self._firing_heads[firing_id] = head_fact
        self._firing_bodies[firing_id] = body_facts
        by_body[body_facts] = firing_id
        fact_firings = self._fact_firings
        for fact in distinct_facts:
            firings = fact_firings.get(fact)
            if firings is None:
                fact_firings[fact] = firing_id
            elif type(firings) is str:
                if firings != firing_id:
                    fact_firings[fact] = {firings, firing_id}
            else:
                firings.add(firing_id)
        return [
            DerivationEffect(
                sign=+1,
                firing_id=firing_id,
                rule_name=rule.name,
                program_name=self._compiled.name,
                head_fact=head_fact,
                head_location=head_location,
                body_facts=body_facts,
            )
        ]

    def _retract_firing(self, firing_id: str) -> DerivationEffect:
        """Retract the live firing *firing_id* and return its -1 effect."""
        rule_name = self._firing_rules.pop(firing_id)
        head_fact = self._firing_heads.pop(firing_id)
        body_facts = self._firing_bodies.pop(firing_id)
        self._firing_by_body[rule_name].pop(body_facts, None)
        # Duplicate body facts are harmless here: the first occurrence removes
        # the id, so later ones find another firing's id or nothing at all.
        fact_firings = self._fact_firings
        for fact in body_facts:
            firings = fact_firings.get(fact)
            if firings is None:
                continue
            if type(firings) is str:
                if firings == firing_id:
                    del fact_firings[fact]
                continue
            firings.discard(firing_id)
            if len(firings) == 1:
                (fact_firings[fact],) = firings
        return DerivationEffect(
            sign=-1,
            firing_id=firing_id,
            rule_name=rule_name,
            program_name=self._compiled.name,
            head_fact=head_fact,
            head_location=self._compiled.catalog.location_of(head_fact),
            body_facts=body_facts,
        )

    # -- join enumeration --------------------------------------------------------------

    def _prewarm_join_indexes(self, rule: Rule, delta_index: int) -> None:
        """Build the secondary indexes the (rule, delta position) join will probe.

        The set of bound attribute positions at each join step is static: a
        position is bound iff its term is a constant or a variable introduced
        by the delta literal or an earlier-joined literal.  Computing the plan
        once and pre-building the indexes up front means a batch pays index
        construction once per (relation, positions) pair instead of lazily
        inside the first :meth:`TupleStore.matching` scan of every join.

        The plan also covers the rule's *negative* literals (probed by
        :meth:`_finalize_binding` with every positive-join and assignment
        variable bound), which keeps the whole join enumeration free of index
        construction — the property the sharded batch pass relies on to run
        enumeration concurrently over a store it only reads.
        """
        plan_key = (rule.name, delta_index)
        plan = self._prewarm_plans.get(plan_key)
        if plan is None:
            plan = []
            positives = rule.positive_literals

            def atom_variables(atom) -> Set[str]:
                return {term.name for term in atom.terms if isinstance(term, Variable)}

            def bound_index_positions(atom, bound_vars: Set[str]) -> Tuple[int, ...]:
                return tuple(
                    sorted(
                        index
                        for index, term in enumerate(atom.terms)
                        if isinstance(term, Constant)
                        or (isinstance(term, Variable) and term.name in bound_vars)
                    )
                )

            bound_vars = atom_variables(positives[delta_index].atom)
            for position in range(len(positives)):
                if position == delta_index:
                    continue
                atom = positives[position].atom
                plan.append((atom.relation, bound_index_positions(atom, bound_vars)))
                bound_vars |= atom_variables(atom)
            for element in rule.body:
                if isinstance(element, Assignment):
                    bound_vars.add(element.variable)
            for literal in rule.negative_literals:
                atom = literal.atom
                plan.append((atom.relation, bound_index_positions(atom, bound_vars)))
            self._prewarm_plans[plan_key] = plan
        columnar_plan = (
            self._columnar_plan(rule, delta_index)
            if getattr(self._store, "columnar", False)
            else None
        )
        if columnar_plan is not None:
            # The columnar join probes its own key positions (it never treats
            # the wildcard as bound, unlike the generic plan), so only the
            # negative-literal tail of the generic plan still needs
            # preparing — building the generic positive-literal indexes too
            # would double index maintenance without a probe to serve.
            for step in columnar_plan.steps:
                self._store.prepare_index(step.relation, step.key_positions)
            for relation, positions in plan[len(rule.positive_literals) - 1:]:
                self._store.prepare_index(relation, positions)
        else:
            for relation, positions in plan:
                self._store.prepare_index(relation, positions)

    def _delta_bindings(
        self,
        rule: Rule,
        delta_index: int,
        fact: Fact,
        exclusions: Optional[Dict[str, Set[Fact]]] = None,
    ) -> Iterable[Tuple[Bindings, Tuple[Fact, ...]]]:
        """Enumerate complete rule bindings in which *fact* plays body position *delta_index*.

        *exclusions* maps relation names to the delta facts of the current
        batch; body positions before *delta_index* skip those facts (batch
        semi-naive de-duplication).  When omitted, the singleton batch
        ``{fact}`` is assumed, which is the classic per-fact rule.

        Returns a plain list on the compiled columnar path (no generator
        suspension per binding) and a generator on the reference path.
        """
        positives = rule.positive_literals
        delta_literal = positives[delta_index]

        if exclusions is not None and self._batch_probe_active:
            # Batch pass over a columnar store: run the compiled slot-based
            # join against the interned id arrays (exclusion checks become
            # integer-set probes).  Triggers the plan cannot express fall
            # through to the generic dict-based join below.
            plan = self._columnar_plan(rule, delta_index)
            if plan is not None:
                if plan.delta_ops is not None:
                    return self._columnar_join(rule, plan, fact, None)
                initial = match_atom(delta_literal.atom, fact, {}, self._registry)
                if initial is None:
                    return []
                return self._columnar_join(rule, plan, fact, initial)

        initial = match_atom(delta_literal.atom, fact, {}, self._registry)
        if initial is None:
            return []
        return self._delta_bindings_generic(
            rule, positives, delta_index, fact, exclusions, initial
        )

    def _delta_bindings_generic(
        self,
        rule: Rule,
        positives: Sequence[Literal],
        delta_index: int,
        fact: Fact,
        exclusions: Optional[Dict[str, Set[Fact]]],
        initial: Bindings,
    ) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
        slots: List[Optional[Fact]] = [None] * len(positives)
        slots[delta_index] = fact
        if exclusions is None:
            exclusions = {fact.relation: {fact}}

        remaining = [index for index in range(len(positives)) if index != delta_index]
        yield from self._join_remaining(
            rule, positives, remaining, 0, initial, slots, exclusions, delta_index
        )

    def _join_remaining(
        self,
        rule: Rule,
        positives: Sequence[Literal],
        remaining: List[int],
        cursor: int,
        bindings: Bindings,
        slots: List[Optional[Fact]],
        exclusions: Dict[str, Set[Fact]],
        delta_index: int,
    ) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
        if cursor == len(remaining):
            final = self._finalize_binding(rule, bindings)
            if final is not None:
                body_facts = tuple(slot for slot in slots if slot is not None)
                yield final, body_facts
            return

        position = remaining[cursor]
        literal = positives[position]
        bound = bound_positions(literal.atom, bindings)
        excluded = exclusions.get(literal.atom.relation) if position < delta_index else None
        for candidate in list(self._store.matching(literal.atom.relation, bound)):
            # Semi-naive de-duplication: positions *before* the delta position
            # must not use any delta fact of the current batch, otherwise each
            # binding using several delta facts would be produced once per
            # delta occurrence instead of exactly once (for the first one).
            if excluded is not None and candidate in excluded:
                continue
            extended = match_atom(literal.atom, candidate, bindings, self._registry)
            if extended is None:
                continue
            slots[position] = candidate
            yield from self._join_remaining(
                rule, positives, remaining, cursor + 1, extended, slots, exclusions, delta_index
            )
            slots[position] = None

    # -- columnar join (compiled slot programs over interned id arrays) ---------------

    def _columnar_plan(self, rule: Rule, delta_index: int) -> Optional[_ColumnarPlan]:
        plan_key = (rule.name, delta_index)
        if plan_key in self._columnar_plans:
            return self._columnar_plans[plan_key]
        plan = self._compile_columnar_plan(rule, delta_index)
        self._columnar_plans[plan_key] = plan
        return plan

    def _compile_columnar_plan(self, rule: Rule, delta_index: int) -> Optional[_ColumnarPlan]:
        """Compile the (rule, delta position) trigger into a slot program.

        Returns ``None`` when some non-delta body atom carries expression
        terms — those need per-candidate evaluation and keep the generic
        join.  The delta atom itself is always matched by ``match_atom``, so
        its terms are unconstrained.
        """
        positives = rule.positive_literals
        slot_of: Dict[str, int] = {}
        slot_names: List[str] = []

        def slot_for(name: str) -> int:
            slot = slot_of.get(name)
            if slot is None:
                slot = slot_of[name] = len(slot_names)
                slot_names.append(name)
            return slot

        for term in positives[delta_index].atom.terms:
            if isinstance(term, Variable) and term.name != "_":
                slot_for(term.name)
        delta_slots = tuple((name, slot_of[name]) for name in list(slot_names))

        delta_terms = positives[delta_index].atom.terms
        delta_ops: Optional[Tuple[Tuple[str, int, object], ...]] = None
        if all(isinstance(term, (Variable, Constant)) for term in delta_terms):
            seed_ops: List[Tuple[str, int, object]] = []
            seeded: Set[str] = set()
            for position, term in enumerate(delta_terms):
                if isinstance(term, Constant):
                    seed_ops.append(("check_const", position, term.value))
                elif term.name == "_":
                    continue
                elif term.name in seeded:
                    seed_ops.append(("check_slot", position, slot_of[term.name]))
                else:
                    seeded.add(term.name)
                    seed_ops.append(("bind", position, slot_of[term.name]))
            delta_ops = tuple(seed_ops)

        steps: List[_ColumnarStep] = []
        for position in range(len(positives)):
            if position == delta_index:
                continue
            atom = positives[position].atom
            if not all(isinstance(term, (Variable, Constant)) for term in atom.terms):
                return None
            key_items: List[Tuple[int, bool, object]] = []
            bind_ops: List[Tuple[int, int]] = []
            check_ops: List[Tuple[int, int]] = []
            step_new: Dict[str, int] = {}
            for attribute, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    key_items.append((attribute, False, term.value))
                elif term.name == "_":
                    continue
                elif term.name in step_new:
                    check_ops.append((attribute, step_new[term.name]))
                elif term.name in slot_of:
                    key_items.append((attribute, True, slot_of[term.name]))
                else:
                    slot = slot_for(term.name)
                    step_new[term.name] = slot
                    bind_ops.append((attribute, slot))
            steps.append(
                _ColumnarStep(
                    body_index=position,
                    relation=atom.relation,
                    arity=len(atom.terms),
                    key_positions=tuple(item[0] for item in key_items),
                    key_ops=tuple((item[1], item[2]) for item in key_items),
                    bind_ops=tuple(bind_ops),
                    check_ops=tuple(check_ops),
                    excluded=position < delta_index,
                )
            )
        post_ops = self._compile_post_ops(rule, slot_of, slot_for)
        head_build: Optional[Tuple[str, Tuple[Tuple[bool, object], ...]]] = None
        agg_group_ops: Optional[Tuple[Tuple[bool, object], ...]] = None
        agg_value_slot: Optional[int] = None
        if post_ops is not None:
            if rule.has_aggregate:
                aggregate = rule.aggregate
                group_items: List[Tuple[bool, object]] = []
                compiled = True
                for term in rule.head.terms:
                    if isinstance(term, Aggregate):
                        continue
                    if isinstance(term, Constant):
                        group_items.append((False, term.value))
                    elif isinstance(term, Variable) and term.name in slot_of:
                        group_items.append((True, slot_of[term.name]))
                    else:
                        compiled = False
                        break
                if compiled and aggregate is not None and aggregate.variable is not None:
                    if aggregate.variable in slot_of:
                        agg_value_slot = slot_of[aggregate.variable]
                    else:
                        compiled = False
                if compiled:
                    agg_group_ops = tuple(group_items)
            else:
                head_items: List[Tuple[bool, object]] = []
                compiled = True
                for term in rule.head.terms:
                    if isinstance(term, Constant):
                        head_items.append((False, term.value))
                    elif isinstance(term, Variable) and term.name in slot_of:
                        head_items.append((True, slot_of[term.name]))
                    else:
                        compiled = False
                        break
                if compiled:
                    head_build = (rule.head.relation, tuple(head_items))
            if head_build is None and agg_group_ops is None:
                post_ops = None
        return _ColumnarPlan(
            delta_index=delta_index,
            slot_names=tuple(slot_names),
            delta_slots=delta_slots,
            steps=tuple(steps),
            post_ops=post_ops,
            head_build=head_build,
            agg_group_ops=agg_group_ops,
            agg_value_slot=agg_value_slot,
            delta_ops=delta_ops,
            delta_arity=len(delta_terms),
        )

    def _compile_post_ops(
        self, rule: Rule, slot_of: Dict[str, int], slot_for
    ) -> Optional[Tuple[Tuple[str, Optional[int], object], ...]]:
        """Compile the rule's assignments and conditions into slot programs.

        Returns ``None`` when any body element falls outside the compilable
        core — a negative literal, a non-comparison condition (whose
        truthiness convention :func:`satisfies` owns), or an expression with
        function calls / unbound variables — in which case the join keeps
        the generic dict-based finalize.  Assignments allocate (or reuse)
        the target variable's slot, matching the reference semantics of
        overwriting an already-bound name.
        """
        if rule.negative_literals:
            return None
        ops: List[Tuple[str, Optional[int], object]] = []
        for element in rule.body:
            if isinstance(element, Assignment):
                fn = _compile_expr(element.expression, slot_of)
                if fn is None or element.variable in slot_of:
                    # Assigning over an already-bound name has per-path
                    # overwrite semantics the shared slot array cannot give
                    # (join steps would re-read the overwritten slot on the
                    # next candidate); those rules keep the dict finalize.
                    return None
                ops.append(("assign", slot_for(element.variable), fn))
            elif isinstance(element, Condition):
                expression = element.expression
                if not (
                    isinstance(expression, Expression) and expression.op in _COMPARISON
                ):
                    return None
                fn = _compile_expr(expression, slot_of)
                if fn is None:
                    return None
                ops.append(("cond", None, fn))
        return tuple(ops)

    def _columnar_join(
        self, rule: Rule, plan: _ColumnarPlan, fact: Fact, initial: Optional[Bindings]
    ) -> List[Tuple[Bindings, Tuple[Fact, ...]]]:
        """Enumerate complete bindings by walking the store's id arrays.

        Semantically identical to :meth:`_join_remaining` under the batch
        exclusion rule; enumeration order within one store partition is
        ascending intern id (the compared runtime observables are invariant
        to within-batch enumeration order).  Firing application never
        mutates the tuple store, so iterating the live arrays is safe.
        Returns a list rather than yielding — the recursion then runs in
        plain frames with no generator suspension per binding.

        *initial* is ``None`` when the plan carries a compiled delta seed
        (``delta_ops``): the trigger fact's values are then written straight
        into the slots, mirroring ``match_atom`` against the delta atom.
        """
        slot_names = plan.slot_names
        slots: List[object] = [None] * len(slot_names)
        if initial is None:
            values = fact.values
            if len(values) != plan.delta_arity:
                return []
            for kind, position, payload in plan.delta_ops:
                if kind == "bind":
                    slots[payload] = values[position]
                elif values[position] != (
                    slots[payload] if kind == "check_slot" else payload
                ):
                    return []
        else:
            for name, slot in plan.delta_slots:
                slots[slot] = initial[name]
        body: List[Optional[Fact]] = [None] * (len(plan.steps) + 1)
        body[plan.delta_index] = fact
        out: List[Tuple[object, Tuple[Fact, ...]]] = []
        store = self._store
        steps = plan.steps
        last = len(steps)
        finalize = self._finalize_into
        post_ops = plan.post_ops
        head_build = plan.head_build
        agg_group_ops = plan.agg_group_ops
        agg_value_slot = plan.agg_value_slot

        if post_ops is not None and last <= 1:
            # Fully-compiled plans with zero or one join step — the
            # overwhelming share of triggers in practice — run as flat loops:
            # no recursion closure is created and no Python call is made per
            # candidate.
            if last == 0:
                ok = True
                for kind, slot, fn in post_ops:
                    if kind == "assign":
                        slots[slot] = fn(slots)
                    elif not fn(slots):
                        ok = False
                        break
                if ok:
                    if head_build is not None:
                        relation, head_ops = head_build
                        head_values = []
                        for is_slot, item in head_ops:
                            head_values.append(slots[item] if is_slot else item)
                        payload: object = Fact(relation, tuple(head_values))
                    else:
                        group_values = []
                        for is_slot, item in agg_group_ops:
                            group_values.append(slots[item] if is_slot else item)
                        value = 1 if agg_value_slot is None else slots[agg_value_slot]
                        payload = (tuple(group_values), value)
                    out.append((payload, (fact,)))
                return out
            step = steps[0]
            key_items = []
            for is_slot, payload_item in step.key_ops:
                key_items.append(slots[payload_item] if is_slot else payload_item)
            arity = step.arity
            bind_ops = step.bind_ops
            check_ops = step.check_ops
            delta_first = plan.delta_index < step.body_index
            for facts_column, ids, delta_ids in store.probe_columns(
                step.relation, step.key_positions, tuple(key_items)
            ):
                skip = delta_ids if (step.excluded and delta_ids) else None
                for fid in ids:
                    if skip is not None and fid in skip:
                        continue
                    candidate = facts_column[fid]
                    values = candidate.values
                    if len(values) != arity:
                        continue
                    for attribute, slot in bind_ops:
                        slots[slot] = values[attribute]
                    ok = True
                    if check_ops:
                        for attribute, slot in check_ops:
                            if values[attribute] != slots[slot]:
                                ok = False
                                break
                    if ok:
                        for kind, slot, fn in post_ops:
                            if kind == "assign":
                                slots[slot] = fn(slots)
                            elif not fn(slots):
                                ok = False
                                break
                    if not ok:
                        continue
                    if head_build is not None:
                        relation, head_ops = head_build
                        head_values = []
                        for is_slot, item in head_ops:
                            head_values.append(slots[item] if is_slot else item)
                        payload: object = Fact(relation, tuple(head_values))
                    else:
                        group_values = []
                        for is_slot, item in agg_group_ops:
                            group_values.append(slots[item] if is_slot else item)
                        value = 1 if agg_value_slot is None else slots[agg_value_slot]
                        payload = (tuple(group_values), value)
                    out.append(
                        (payload, (fact, candidate) if delta_first else (candidate, fact))
                    )
            return out

        def walk(step_index: int) -> None:
            # Every tuple here is built from a plain list — no generator
            # expressions; this is the innermost loop of batch evaluation.
            if step_index == last:
                if post_ops is None:
                    # Uncompilable tail (negation, function calls, ...):
                    # materialise the bindings dict and run the reference
                    # finalize.
                    final = finalize(rule, dict(zip(slot_names, slots)))
                    if final is not None:
                        out.append((final, tuple(body)))
                    return
                for kind, slot, fn in post_ops:
                    if kind == "assign":
                        slots[slot] = fn(slots)
                    elif not fn(slots):
                        return
                if head_build is not None:
                    relation, head_ops = head_build
                    head_values = []
                    for is_slot, item in head_ops:
                        head_values.append(slots[item] if is_slot else item)
                    payload: object = Fact(relation, tuple(head_values))
                else:
                    group_values = []
                    for is_slot, item in agg_group_ops:
                        group_values.append(slots[item] if is_slot else item)
                    value = 1 if agg_value_slot is None else slots[agg_value_slot]
                    payload = (tuple(group_values), value)
                out.append((payload, tuple(body)))
                return
            step = steps[step_index]
            key_items = []
            for is_slot, payload_item in step.key_ops:
                key_items.append(slots[payload_item] if is_slot else payload_item)
            arity = step.arity
            bind_ops = step.bind_ops
            check_ops = step.check_ops
            body_index = step.body_index
            next_index = step_index + 1
            for facts_column, ids, delta_ids in store.probe_columns(
                step.relation, step.key_positions, tuple(key_items)
            ):
                skip = delta_ids if (step.excluded and delta_ids) else None
                for fid in ids:
                    if skip is not None and fid in skip:
                        continue
                    candidate = facts_column[fid]
                    values = candidate.values
                    if len(values) != arity:
                        continue
                    for attribute, slot in bind_ops:
                        slots[slot] = values[attribute]
                    if check_ops:
                        matched = True
                        for attribute, slot in check_ops:
                            if values[attribute] != slots[slot]:
                                matched = False
                                break
                        if not matched:
                            continue
                    body[body_index] = candidate
                    walk(next_index)

        walk(0)
        return out

    def _full_bindings(
        self, rule: Rule
    ) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
        """Enumerate all complete bindings of *rule* against the current store."""
        positives = rule.positive_literals
        if not positives:
            return
        slots: List[Optional[Fact]] = [None] * len(positives)

        def recurse(index: int, bindings: Bindings) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
            if index == len(positives):
                final = self._finalize_binding(rule, bindings)
                if final is not None:
                    yield final, tuple(slot for slot in slots if slot is not None)
                return
            literal = positives[index]
            bound = bound_positions(literal.atom, bindings)
            for candidate in list(self._store.matching(literal.atom.relation, bound)):
                extended = match_atom(literal.atom, candidate, bindings, self._registry)
                if extended is None:
                    continue
                slots[index] = candidate
                yield from recurse(index + 1, extended)
                slots[index] = None

        yield from recurse(0, {})

    def _finalize_binding(self, rule: Rule, bindings: Bindings) -> Optional[Bindings]:
        """Apply assignments, check conditions and negative literals.

        Returns the extended bindings when the rule body is fully satisfied,
        or ``None`` otherwise.
        """
        return self._finalize_into(rule, dict(bindings))

    def _finalize_into(self, rule: Rule, extended: Bindings) -> Optional[Bindings]:
        """:meth:`_finalize_binding` over a caller-owned dict (no copy).

        The columnar join builds a fresh bindings dict per complete path, so
        it finalizes in place; the generic join shares its dict across
        candidates and goes through the copying wrapper.
        """
        for element in rule.body:
            if isinstance(element, Assignment):
                extended[element.variable] = evaluate_term(
                    element.expression, extended, self._registry
                )
            elif isinstance(element, Condition):
                if not satisfies(element, extended, self._registry):
                    return None
        for literal in rule.negative_literals:
            if self._negated_literal_matches(literal, extended):
                return None
        return extended

    def _negated_literal_matches(self, literal: Literal, bindings: Bindings) -> bool:
        bound = bound_positions(literal.atom, bindings)
        for candidate in self._store.matching(literal.atom.relation, bound):
            if match_atom(literal.atom, candidate, bindings, self._registry) is not None:
                return True
        return False

    # -- negation maintenance ------------------------------------------------------------

    def _retract_blocked_firings(self, rule: Rule, fact: Fact) -> List[DerivationEffect]:
        """Retract firings of *rule* whose negative literal now matches *fact*."""
        effects: List[DerivationEffect] = []
        negated_on_relation = [
            literal for literal in rule.negative_literals if literal.atom.relation == fact.relation
        ]
        if not negated_on_relation:
            return effects
        by_body = self._firing_by_body[rule.name]
        for bindings, body_facts in self._positive_bindings_matching_negation(rule, fact):
            firing_id = by_body.get(body_facts)
            if firing_id is not None:
                effects.append(self._retract_firing(firing_id))
        return effects

    def _enable_unblocked_firings(self, rule: Rule, fact: Fact) -> List[DerivationEffect]:
        """Fire *rule* for bindings whose only blocker was the now-deleted *fact*."""
        effects: List[DerivationEffect] = []
        for bindings, body_facts in self._positive_bindings_matching_negation(rule, fact):
            final = self._finalize_binding(rule, bindings)
            if final is None:
                continue
            effects.extend(self._apply_firing(rule, final, body_facts))
        return effects

    def _positive_bindings_matching_negation(
        self, rule: Rule, fact: Fact
    ) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
        """Bindings of the positive body for which a negative literal unifies with *fact*.

        Assignments are applied and conditions checked, but the negative
        literals themselves are NOT checked here (callers decide whether they
        are looking for blocked or unblocked bindings).
        """
        positives = rule.positive_literals
        slots: List[Optional[Fact]] = [None] * len(positives)
        negated = [
            literal for literal in rule.negative_literals if literal.atom.relation == fact.relation
        ]

        def recurse(index: int, bindings: Bindings) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
            if index == len(positives):
                extended = dict(bindings)
                try:
                    for element in rule.body:
                        if isinstance(element, Assignment):
                            extended[element.variable] = evaluate_term(
                                element.expression, extended, self._registry
                            )
                        elif isinstance(element, Condition):
                            if not satisfies(element, extended, self._registry):
                                return
                except EngineError:
                    return
                for literal in negated:
                    if match_atom(literal.atom, fact, extended, self._registry) is not None:
                        yield extended, tuple(slot for slot in slots if slot is not None)
                        return
                return
            literal = positives[index]
            bound = bound_positions(literal.atom, bindings)
            for candidate in list(self._store.matching(literal.atom.relation, bound)):
                extended = match_atom(literal.atom, candidate, bindings, self._registry)
                if extended is None:
                    continue
                slots[index] = candidate
                yield from recurse(index + 1, extended)
                slots[index] = None

        yield from recurse(0, {})

    # -- aggregates -----------------------------------------------------------------------

    def _agg_add_entry(
        self, rule: Rule, bindings: Bindings, body_facts: Tuple[Fact, ...]
    ) -> List[DerivationEffect]:
        aggregate = rule.aggregate
        assert aggregate is not None
        group_key = group_key_of(rule.head, bindings, self._registry)
        if aggregate.variable is None:
            value: object = 1
        else:
            if aggregate.variable not in bindings:
                raise EngineError(
                    f"aggregate variable {aggregate.variable!r} is unbound in rule {rule.name!r}"
                )
            value = bindings[aggregate.variable]
        return self._agg_add_entry_direct(rule, group_key, value, body_facts)

    def _agg_add_entry_direct(
        self,
        rule: Rule,
        group_key: Tuple[object, ...],
        value: object,
        body_facts: Tuple[Fact, ...],
    ) -> List[DerivationEffect]:
        groups = self._agg_entries.setdefault(rule.name, {})
        entries = groups.setdefault(group_key, {})
        if body_facts in entries:
            return []
        entries[body_facts] = value
        # The membership's repr sort key is computed once here; every later
        # deletion-time ordering of the memberships is then repr-free.  The
        # key reprs the (rule, group, body) triple, matching the historical
        # ``sorted(..., key=repr)`` order exactly.  Columnar stores hand the
        # evaluator canonical fact instances, so the key is memoized across
        # re-derivations of the same membership (churn that toggles a link
        # re-adds the same bodies every round); the dict reference path
        # recomputes it each time.
        identity = (rule.name, group_key, body_facts)
        if self._columnar_store:
            cached = self._membership_reprs.get(identity)
            if cached is None:
                cached = self._membership_reprs[identity] = (
                    (repr(identity), rule.name, group_key, body_facts),
                    tuple(set(body_facts)),
                )
            membership, distinct_facts = cached
        else:
            membership = (repr(identity), rule.name, group_key, body_facts)
            distinct_facts = tuple(set(body_facts))
        fact_agg_entries = self._fact_agg_entries
        for fact in distinct_facts:
            memberships = fact_agg_entries.get(fact)
            if memberships is None:
                fact_agg_entries[fact] = membership
            elif type(memberships) is tuple:
                if memberships != membership:
                    fact_agg_entries[fact] = {memberships, membership}
            else:
                memberships.add(membership)
        if self._dirty_agg_groups is not None:
            self._dirty_agg_groups.add(self._dirty_group_key(rule.name, group_key))
            return []
        return self._agg_recompute(rule, group_key)

    def _dirty_group_key(self, rule_name: str, group_key: Tuple) -> Tuple[str, str, Tuple]:
        """The (repr sort key, rule, group) dirty-set entry, repr memoized per group."""
        group = (rule_name, group_key)
        sort_key = self._group_sort_keys.get(group)
        if sort_key is None:
            sort_key = self._group_sort_keys[group] = repr(group)
        return (sort_key, rule_name, group_key)

    def _agg_remove_entry(
        self, membership: _Membership
    ) -> List[DerivationEffect]:
        _, rule_name, group_key, body_facts = membership
        rule = self._agg_rules.get(rule_name)
        if rule is None:
            return []
        groups = self._agg_entries.get(rule_name, {})
        entries = groups.get(group_key)
        if not entries or body_facts not in entries:
            return []
        del entries[body_facts]
        # As in _retract_firing, iterating duplicate body facts is safe: the
        # first occurrence removes the membership, later ones find another
        # membership or nothing at all.
        fact_agg_entries = self._fact_agg_entries
        for fact in body_facts:
            memberships = fact_agg_entries.get(fact)
            if memberships is None:
                continue
            if type(memberships) is tuple:
                if memberships == membership:
                    del fact_agg_entries[fact]
                continue
            memberships.discard(membership)
            if len(memberships) == 1:
                (fact_agg_entries[fact],) = memberships
        if not entries:
            del groups[group_key]
        if self._dirty_agg_groups is not None:
            self._dirty_agg_groups.add(self._dirty_group_key(rule_name, group_key))
            return []
        return self._agg_recompute(rule, group_key)

    def _agg_recompute(self, rule: Rule, group_key: Tuple) -> List[DerivationEffect]:
        aggregate = rule.aggregate
        assert aggregate is not None
        groups = self._agg_entries.get(rule.name)
        entries = groups.get(group_key) if groups else None
        head_key = (rule.name, group_key)
        current = self._agg_heads.get(head_key)

        effects: List[DerivationEffect] = []
        if not entries:
            if current is not None:
                effects.append(self._retract_agg_head(rule, head_key))
            return effects

        new_value = _aggregate_value(aggregate.func, list(entries.values()))
        if self._columnar_store:
            contributing = self._contributing_facts_cached(
                aggregate.func, entries, new_value
            )
            # The head is a pure function of (rule, group key, value), so an
            # unchanged value plus an unchanged contributing set means the
            # recomputed head would equal the current one — skip rebuilding it.
            if (
                current is not None
                and current[1] == new_value
                and self._agg_head_bodies[head_key] == contributing
            ):
                return effects
        else:
            contributing = _contributing_facts(aggregate.func, entries, new_value)
        head_fact = _agg_head_fact(rule, group_key, new_value)

        previous = None
        if current is not None:
            if (
                self._agg_head_facts[head_key] == head_fact
                and self._agg_head_bodies[head_key] == contributing
            ):
                return effects
            if self.aggregate_retract_first:
                # Ablation mode: propagate the retraction first (the naive
                # ordering), exposing the intermediate group state downstream.
                effects.append(self._retract_agg_head(rule, head_key))
            else:
                previous = self._agg_retraction(rule, head_key)

        head_location = self._compiled.catalog.location_of(head_fact)
        firing_id = self._next_firing_id()
        self._agg_heads[head_key] = (firing_id, new_value)
        self._agg_head_facts[head_key] = head_fact
        self._agg_head_bodies[head_key] = contributing
        effects.append(
            DerivationEffect(
                sign=+1,
                firing_id=firing_id,
                rule_name=rule.name,
                program_name=self._compiled.name,
                head_fact=head_fact,
                head_location=head_location,
                body_facts=contributing,
            )
        )
        if previous is not None:
            # Emit the replacement *before* the retraction: downstream nodes
            # then see "new value arrives, old value leaves", which changes
            # their own aggregates exactly once.  The opposite order would
            # expose an intermediate state (group without either value) whose
            # consequences would be derived, shipped, and immediately undone —
            # a cascade that blows up deletion processing on cyclic topologies.
            effects.append(previous)
        return effects

    def _contributing_facts_cached(
        self,
        func: str,
        entries: Dict[Tuple[Fact, ...], object],
        value: object,
    ) -> Tuple[Fact, ...]:
        """:func:`_contributing_facts` with the per-fact repr sort keys memoized.

        Columnar stores hand the evaluator canonical fact instances, so the
        memo dict hits on identity and each fact's repr is rendered at most
        once per evaluator lifetime.  The ordering is byte-identical to the
        reference path's ``sorted(..., key=repr)``.
        """
        contributing: Set[Fact] = set()
        minmax = func in ("min", "max")
        for body_facts, entry_value in entries.items():
            if minmax and entry_value != value:
                continue
            contributing.update(body_facts)
        reprs = self._fact_reprs
        keyed = []
        for fact in contributing:
            sort_key = reprs.get(fact)
            if sort_key is None:
                sort_key = reprs[fact] = repr(fact)
            keyed.append((sort_key, fact))
        keyed.sort()
        return tuple([fact for _, fact in keyed])

    def _retract_agg_head(self, rule: Rule, head_key: Tuple[str, Tuple]) -> DerivationEffect:
        """Drop the live head of *head_key* and return its -1 effect."""
        effect = self._agg_retraction(rule, head_key)
        del self._agg_heads[head_key]
        del self._agg_head_facts[head_key]
        del self._agg_head_bodies[head_key]
        return effect

    def _agg_retraction(self, rule: Rule, head_key: Tuple[str, Tuple]) -> DerivationEffect:
        """The -1 effect of the live head of *head_key* (the maps are untouched)."""
        head_fact = self._agg_head_facts[head_key]
        return DerivationEffect(
            sign=-1,
            firing_id=self._agg_heads[head_key][0],
            rule_name=rule.name,
            program_name=self._compiled.name,
            head_fact=head_fact,
            head_location=self._compiled.catalog.location_of(head_fact),
            body_facts=self._agg_head_bodies[head_key],
        )


# ---------------------------------------------------------------------------
# Aggregate helpers
# ---------------------------------------------------------------------------


def _aggregate_value(func: str, values: List[object]) -> object:
    if func == "min":
        return min(values)  # type: ignore[type-var]
    if func == "max":
        return max(values)  # type: ignore[type-var]
    if func == "count":
        return len(values)
    if func == "sum":
        return sum(values)  # type: ignore[arg-type]
    if func == "avg":
        return sum(values) / len(values)  # type: ignore[arg-type]
    raise EngineError(f"unsupported aggregate function {func!r}")


def _contributing_facts(
    func: str, entries: Dict[Tuple[Fact, ...], object], value: object
) -> Tuple[Fact, ...]:
    """The body facts that justify the aggregate value (provenance children).

    The result is sorted so that the rule-execution identifier derived from it
    is independent of the order in which the group's entries were discovered
    (incremental and from-scratch runs must produce identical provenance).
    """
    contributing: Set[Fact] = set()
    for body_facts, entry_value in entries.items():
        if func in ("min", "max") and entry_value != value:
            continue
        contributing.update(body_facts)
    return tuple(sorted(contributing, key=repr))


def _agg_head_fact(rule: Rule, group_key: Tuple, value: object) -> Fact:
    values: List[object] = []
    key_iter = iter(group_key)
    for term in rule.head.terms:
        if isinstance(term, Aggregate):
            values.append(value)
        else:
            values.append(next(key_iter))
    return Fact.make(rule.head.relation, values)
