"""Per-node incremental NDlog evaluator.

The :class:`LocalEvaluator` maintains, for one node, the consequences of the
compiled program over the node's local tuple store.  It is *purely local*:
it never touches the network.  Given a fact that has just appeared in (or
disappeared from) the local store, it computes the set of rule firings and
retractions this causes — the :class:`DerivationEffect` objects — and leaves
it to the :class:`repro.engine.node.Node` to apply local effects and to ship
remote ones as messages.

The evaluator interprets no rule body:
:func:`~repro.engine.compiler.compile_program` generates one Python function
per (rule, delta position) and per (rule, negated relation)
(:mod:`repro.engine.joins`), shared by every node, and the evaluator calls
them with its store's tables and records the firings they yield.  It
implements:

* semi-naive (delta) evaluation over a whole set of deltas at once
  (:meth:`LocalEvaluator.on_batch`), which groups same-relation deltas, runs
  each (rule, delta position) join once over the whole delta set and defers
  aggregate recomputation so each touched group is recomputed exactly once
  per batch,
* derivation tracking (one firing record per distinct rule firing), which
  both drives incremental deletion and feeds the provenance engine,
* aggregates (``min``/``max``/``count``/``sum``/``avg``) maintained per
  group; when the aggregate value changes the replacement head is emitted
  before the retraction of the old one, and
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import EngineError
from repro.ndlog.ast import Aggregate, Rule
from repro.engine.compiler import CompiledProgram
from repro.engine.joins import CompiledJoin
from repro.engine.store import TupleStore
from repro.engine.tuples import SLOTTED, Fact


@dataclass(frozen=True, **SLOTTED)
class DerivationEffect:
    """One rule firing (+1) or retraction (-1) produced by the evaluator.

    ``firing_id`` identifies the derivation.  It is made once, when the rule
    fires, by :meth:`LocalEvaluator.derivation_id` (the firing's RID when the
    runtime keeps provenance), and the same string is the ``ruleExec`` key
    at the executing node, the derivation id in the head node's store and
    the RID of the head's ``prov`` row.
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


#: Makes the id of one firing from its rule name, exec node and body facts.
DerivationIds = Callable[[str, object, Tuple[Fact, ...]], str]


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
        derivation_ids: Optional[DerivationIds] = None,
    ):
        self._compiled = compiled
        self._store = store
        self._node = node_id
        #: The store's fact map and index getter, handed to every generated
        #: join.
        self._tables = store.join_tables()
        #: The RID function when the runtime keeps provenance, else ``None``
        #: (see :meth:`derivation_id`); one function shared by every node.
        self._derivation_ids = derivation_ids
        self._firing_seq = 0

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
        # (rule name, group key) -> cached repr sort key for phase-3 ordering.
        self._group_sort_keys: Dict[Tuple[str, Tuple], str] = {}

    # -- public statistics -------------------------------------------------------

    @property
    def firing_count(self) -> int:
        """Number of currently-live rule firings recorded at this node."""
        return len(self._firing_rules) + len(self._agg_heads)

    # -- entry points --------------------------------------------------------------

    def on_batch(
        self, inserts: Sequence[Fact], deletes: Sequence[Fact]
    ) -> List[DerivationEffect]:
        """React to a whole batch of store changes at once (the hot path).

        *inserts* are facts that newly became present and *deletes* facts that
        disappeared since the last evaluator call; the local store must
        already reflect the entire batch, and the two sequences must be
        disjoint (callers collapse flickering facts to their net transition).

        The batch pass is equivalent to passing the deltas in one at a
        time as singleton batches — incremental maintenance is confluent, so
        the final store and provenance state are identical — but does
        strictly less work:

        * same-relation deltas are grouped and each (rule, delta position)
          join runs once over the whole delta set, with the classic batch
          exclusion rule (body positions *before* the delta position skip
          every delta fact of that relation, so each new binding is found
          exactly once);
        * aggregate recomputation is deferred: each touched (rule, group)
          pair is recomputed once at the end of the batch, so a group hit by
          many deltas emits one consolidated retract/insert pair instead of
          an intermediate effect per delta;
        * the secondary indexes a join probes are built before it runs, not
          inside its first probe.
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
                        self._agg_remove_entry(membership)
            # Firings newly enabled because a negative literal stopped
            # matching; runs after all retractions so the store and firing
            # tables are settled.
            for fact in deletes:
                for _, unblocked in self._compiled.negation_joins.get(fact.relation, ()):
                    self._fire(unblocked, (fact,), effects)

            # Phase 2 — insertions: one batch semi-naive pass per trigger.
            by_relation: Dict[str, List[Fact]] = {}
            for fact in inserts:
                by_relation.setdefault(fact.relation, []).append(fact)
            exclusions: Dict[str, Set[Fact]] = {
                relation: set(facts) for relation, facts in by_relation.items()
            }
            for relation, delta_facts in by_relation.items():
                for join in self._compiled.joins.get(relation, ()):
                    for probed, positions in join.probes:
                        self._store.prepare_index(probed, positions)
                    self._fire(join, (delta_facts, exclusions), effects)
            for relation, delta_facts in by_relation.items():
                for blocked, _ in self._compiled.negation_joins.get(relation, ()):
                    for fact in delta_facts:
                        self._retract_blocked_firings(blocked, fact, effects)

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

    # -- firing management ----------------------------------------------------------

    def derivation_id(self, rule_name: str, body_facts: Tuple[Fact, ...]) -> str:
        """The id of a new firing of *rule_name* over *body_facts* at this node.

        Called once per firing; the id is kept in the firing record and read
        back on retraction.  With provenance it is the firing's RID (at most
        one firing per rule and body is live, so a RID is unique among live
        firings).  Without, nothing reads a RID, so nothing is hashed: the id
        is a per-node counter, fixed-width so that the size of a shipped
        delta does not depend on how long the node has run.
        """
        if self._derivation_ids is not None:
            return self._derivation_ids(rule_name, self._node, body_facts)
        self._firing_seq += 1
        return f"{self._node}#{self._firing_seq:08x}"

    def _fire(self, join: CompiledJoin, args: tuple, effects: List[DerivationEffect]) -> None:
        """Run *join* on *args* and record every firing it yields into *effects*.

        A non-aggregate join skips bodies that already have a live firing:
        the same body facts can be rediscovered when a fact is re-inserted
        concurrently with unprocessed retractions, and a firing must not be
        duplicated.
        """
        rule = join.rule
        if join.aggregate:
            for group_key, value, body_facts in join.run(*args, None, *self._tables):
                self._agg_add_entry(rule.name, group_key, value, body_facts)
            return
        seen = self._firing_by_body[rule.name]
        for head_values, body_facts in join.run(*args, seen, *self._tables):
            effects.append(self._apply_firing(rule, head_values, body_facts))

    def _apply_firing(
        self, rule: Rule, head_values: Tuple[object, ...], body_facts: Tuple[Fact, ...]
    ) -> DerivationEffect:
        """Record one firing of the non-aggregate *rule* and return its +1 effect."""
        head_fact = Fact.make(rule.head.relation, head_values)
        head_location = self._compiled.catalog.location_of(head_fact)
        firing_id = self.derivation_id(rule.name, body_facts)
        self._firing_rules[firing_id] = rule.name
        self._firing_heads[firing_id] = head_fact
        self._firing_bodies[firing_id] = body_facts
        self._firing_by_body[rule.name][body_facts] = firing_id
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
        return DerivationEffect(
            sign=+1,
            firing_id=firing_id,
            rule_name=rule.name,
            program_name=self._compiled.name,
            head_fact=head_fact,
            head_location=head_location,
            body_facts=body_facts,
        )

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

    # -- negation maintenance ------------------------------------------------------------

    def _retract_blocked_firings(
        self, join: CompiledJoin, fact: Fact, effects: List[DerivationEffect]
    ) -> None:
        """Retract the firings of ``join.rule`` that the new *fact* blocks.

        For an aggregate rule these are group entries, which drop out of
        their group as a deleted body fact would drop them.
        """
        rule_name = join.rule.name
        if join.aggregate:
            for body_facts in join.run(fact, None, *self._tables):
                membership = self._agg_membership(rule_name, body_facts)
                if membership is not None:
                    self._agg_remove_entry(membership)
            return
        by_body = self._firing_by_body[rule_name]
        for body_facts in join.run(fact, None, *self._tables):
            firing_id = by_body.get(body_facts)
            if firing_id is not None:
                effects.append(self._retract_firing(firing_id))

    # -- aggregates -----------------------------------------------------------------------

    def _agg_add_entry(
        self, rule_name: str, group_key: Tuple, value: object, body_facts: Tuple[Fact, ...]
    ) -> None:
        """Add one entry to its group and mark the group dirty (see on_batch)."""
        groups = self._agg_entries.setdefault(rule_name, {})
        entries = groups.setdefault(group_key, {})
        if body_facts in entries:
            return
        entries[body_facts] = value
        # The membership's repr sort key is computed once here; every later
        # deletion-time ordering of the memberships is then repr-free.  The
        # key reprs the (rule, group, body) triple, matching the historical
        # ``sorted(..., key=repr)`` order exactly.
        membership = (repr((rule_name, group_key, body_facts)), rule_name, group_key, body_facts)
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
        self._dirty_agg_groups.add(self._dirty_group_key(rule_name, group_key))

    def _dirty_group_key(self, rule_name: str, group_key: Tuple) -> Tuple[str, str, Tuple]:
        """The (repr sort key, rule, group) dirty-set entry, repr memoized per group."""
        group = (rule_name, group_key)
        sort_key = self._group_sort_keys.get(group)
        if sort_key is None:
            sort_key = self._group_sort_keys[group] = repr(group)
        return (sort_key, rule_name, group_key)

    def _agg_membership(self, rule_name: str, body_facts: Tuple[Fact, ...]) -> Optional[_Membership]:
        """The membership of the live *rule_name* entry with *body_facts*, if any.

        No live entry has an empty body: an aggregate rule's head location
        is a variable, which only a positive literal can bind.
        """
        memberships = self._fact_agg_entries.get(body_facts[0]) if body_facts else None
        if memberships is None:
            return None
        for membership in memberships if type(memberships) is set else (memberships,):
            if membership[1] == rule_name and membership[3] == body_facts:
                return membership
        return None

    def _agg_remove_entry(self, membership: _Membership) -> None:
        """Remove one entry from its group and mark the group dirty (see on_batch)."""
        _, rule_name, group_key, body_facts = membership
        groups = self._agg_entries.get(rule_name, {})
        entries = groups.get(group_key)
        if not entries or body_facts not in entries:
            return
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
        self._dirty_agg_groups.add(self._dirty_group_key(rule_name, group_key))

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
            previous = self._agg_retraction(rule, head_key)

        head_location = self._compiled.catalog.location_of(head_fact)
        firing_id = self.derivation_id(rule.name, contributing)
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
