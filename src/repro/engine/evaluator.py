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
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import EngineError
from repro.ndlog.ast import (
    Aggregate,
    Assignment,
    Condition,
    Constant,
    Literal,
    Rule,
    Variable,
)
from repro.engine.compiler import CompiledProgram
from repro.engine.dataflow import (
    Bindings,
    bound_positions,
    evaluate_term,
    group_key_of,
    instantiate_head,
    match_atom,
    satisfies,
)
from repro.engine.store import TupleStore
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
    ):
        self._compiled = compiled
        self._store = store
        self._node = node_id
        self._registry = compiled.registry
        self._firing_seq = 0
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
        # (rule name, group key) -> cached repr sort key for phase-3 ordering.
        self._group_sort_keys: Dict[Tuple[str, Tuple], str] = {}

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
            by_relation: Dict[str, List[Fact]] = {}
            for fact in inserts:
                by_relation.setdefault(fact.relation, []).append(fact)
            exclusions: Dict[str, Set[Fact]] = {
                relation: set(facts) for relation, facts in by_relation.items()
            }
            for relation, delta_facts in by_relation.items():
                for rule, delta_index in self._compiled.delta_index.get(relation, []):
                    self._prewarm_join_indexes(rule, delta_index)
                    for fact in delta_facts:
                        for bindings, body_facts in self._delta_bindings(
                            rule, delta_index, fact, exclusions
                        ):
                            effects.extend(self._apply_firing(rule, bindings, body_facts))
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

    # -- firing management ----------------------------------------------------------

    def _next_firing_id(self) -> str:
        self._firing_seq += 1
        return f"{self._node}#{self._firing_seq}"

    def _apply_firing(
        self, rule: Rule, bindings: Bindings, body_facts: Tuple[Fact, ...]
    ) -> List[DerivationEffect]:
        """Record one rule firing from its complete *bindings*."""
        if rule.has_aggregate:
            return self._agg_add_entry(rule, bindings, body_facts)

        by_body = self._firing_by_body[rule.name]
        if body_facts in by_body:
            # The same combination of body facts can be rediscovered when a
            # fact is re-inserted concurrently with unprocessed retractions;
            # a firing must not be duplicated.
            return []

        head_fact = instantiate_head(rule.head, bindings, self._registry)
        head_location = self._compiled.catalog.location_of(head_fact)
        firing_id = self._next_firing_id()
        self._firing_rules[firing_id] = rule.name
        self._firing_heads[firing_id] = head_fact
        self._firing_bodies[firing_id] = body_facts
        by_body[body_facts] = firing_id
        fact_firings = self._fact_firings
        for fact in set(body_facts):
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
        construction.
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
        for relation, positions in plan:
            self._store.prepare_index(relation, positions)

    def _delta_bindings(
        self,
        rule: Rule,
        delta_index: int,
        fact: Fact,
        exclusions: Optional[Dict[str, Set[Fact]]] = None,
    ) -> Iterator[Tuple[Bindings, Tuple[Fact, ...]]]:
        """Enumerate complete rule bindings in which *fact* plays body position *delta_index*.

        *exclusions* maps relation names to the delta facts of the current
        batch; body positions before *delta_index* skip those facts (batch
        semi-naive de-duplication).  When omitted, the singleton batch
        ``{fact}`` is assumed, which is the classic per-fact rule.
        """
        positives = rule.positive_literals
        initial = match_atom(positives[delta_index].atom, fact, {}, self._registry)
        if initial is None:
            return
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

    def _finalize_binding(self, rule: Rule, bindings: Bindings) -> Optional[Bindings]:
        """Apply assignments, check conditions and negative literals.

        Returns the extended bindings when the rule body is fully satisfied,
        or ``None`` otherwise.
        """
        extended = dict(bindings)
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
        groups = self._agg_entries.setdefault(rule.name, {})
        entries = groups.setdefault(group_key, {})
        if body_facts in entries:
            return []
        entries[body_facts] = value
        # The membership's repr sort key is computed once here; every later
        # deletion-time ordering of the memberships is then repr-free.  The
        # key reprs the (rule, group, body) triple, matching the historical
        # ``sorted(..., key=repr)`` order exactly.
        membership = (repr((rule.name, group_key, body_facts)), rule.name, group_key, body_facts)
        fact_agg_entries = self._fact_agg_entries
        for fact in set(body_facts):
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
