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
* derivation tracking: every live firing is recorded once, in the node's
  :class:`Firings`, which drives incremental deletion and is the node's
  ``ruleExec`` partition for the provenance engine,
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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import EngineError
from repro.ndlog.ast import Aggregate, Rule
from repro.engine.compiler import CompiledProgram
from repro.engine.joins import CompiledJoin
from repro.engine.store import TupleStore
from repro.engine.tuples import SLOTTED, Fact, _check_value


@dataclass(frozen=True, **SLOTTED)
class DerivationEffect:
    """One rule firing (+1) or retraction (-1) produced by the evaluator.

    ``firing_id`` identifies the derivation.  It is made once, when the rule
    fires, by :meth:`LocalEvaluator.derivation_id` (the firing's RID when the
    runtime keeps provenance), and the same string is the key of the
    firing's record in :class:`Firings` (the ``ruleExec`` row at the
    executing node), the derivation id in the head node's store and the RID
    of the head's ``prov`` row.
    """

    sign: int
    firing_id: str
    rule_name: str
    head_fact: Fact
    head_location: object
    body_facts: Tuple[Fact, ...]


#: Makes the id of one firing from its rule name, exec node and body facts.
DerivationIds = Callable[[str, object, Tuple[Fact, ...]], str]


class Firings:
    """The live firings of one node, each recorded once under its firing id.

    A record is the rule name, the head fact and the body facts, in flat
    maps keyed by the firing id: plain firings, aggregate heads and the
    derivations the legacy layer injects alike.  The evaluator keeps it
    because it retracts firings with or without provenance; with provenance
    it is also the node's ``ruleExec`` partition, which
    :class:`repro.core.maintenance.NodeProvenanceStore` reads in place.

    A firing id can have two live heads: an aggregate whose contributing
    facts are the same for two groups, or one maybe-rule body that explains
    two outputs.  Its head is then a ``frozenset`` of the heads, and the
    record lives until its last head goes.  Head sets are replaced, never
    mutated, so a shallow copy of the maps is an exact snapshot.
    """

    __slots__ = ("program_name", "location_of", "rules", "heads", "bodies", "consumers")

    def __init__(self, program_name: str, location_of: Callable[[Fact], object]):
        #: the program every recorded rule belongs to
        self.program_name = program_name
        #: the node a head fact is stored at (the catalog's location)
        self.location_of = location_of
        #: firing id -> rule name; holds only strings, so the cyclic
        #: collector never scans it
        self.rules: Dict[str, str] = {}
        #: firing id -> the head fact, or a frozenset of two or more heads
        self.heads: Dict[str, Union[Fact, FrozenSet[Fact]]] = {}
        #: firing id -> body facts (an aggregate head's contributing facts)
        self.bodies: Dict[str, Tuple[Fact, ...]] = {}
        #: fact -> id of the one live firing whose body holds it, or the set
        #: of ids from the second such firing on (no per-fact container for
        #: the collector to scan in the common one-firing case)
        self.consumers: Dict[Fact, Union[str, Set[str]]] = {}

    def add(self, firing_id: str, rule_name: str, head: Fact, body: Tuple[Fact, ...]) -> None:
        """Record *head* as derived by firing *firing_id* (idempotent)."""
        heads = self.heads.get(firing_id)
        if heads is not None:
            if type(heads) is frozenset:
                self.heads[firing_id] = heads | {head}
            elif heads != head:
                self.heads[firing_id] = frozenset((heads, head))
            return
        self.rules[firing_id] = rule_name
        self.heads[firing_id] = head
        self.bodies[firing_id] = body
        # A body fact that occurs twice finds its id already indexed.
        for fact in body:
            _index_add(self.consumers, fact, firing_id)

    def remove(self, firing_id: str, head: Fact) -> None:
        """Drop *head* from firing *firing_id*; the record goes with its last head."""
        heads = self.heads.get(firing_id)
        if type(heads) is frozenset:
            rest = heads - {head}
            self.heads[firing_id] = next(iter(rest)) if len(rest) == 1 else rest
            return
        if heads is None or heads != head:
            return
        del self.rules[firing_id]
        del self.heads[firing_id]
        # Duplicate body facts are harmless here: the first occurrence removes
        # the id, so later ones find another firing's id or nothing at all.
        for fact in self.bodies.pop(firing_id):
            _index_discard(self.consumers, fact, firing_id)

    def heads_of(self, firing_id: str) -> Tuple[Fact, ...]:
        """The live heads of *firing_id* (none once it is retracted), in ``repr`` order."""
        heads = self.heads.get(firing_id)
        if heads is None:
            return ()
        if type(heads) is frozenset:
            return tuple(sorted(heads, key=repr))
        return (heads,)

    def consumers_of(self, fact: Fact) -> List[str]:
        """The ids of the live firings whose body holds *fact*, sorted."""
        members = self.consumers.get(fact)
        return [] if members is None else list(_sorted_members(members))


#: An aggregate membership: (repr sort key, rule name, group key, body facts).
_Membership = Tuple[str, str, Tuple, Tuple[Fact, ...]]


def _sorted_members(members):
    """A per-fact index value — one bare member, or a set of two or more — sorted."""
    return sorted(members) if type(members) is set else (members,)


def _index_add(index: dict, key: object, member: object) -> None:
    """Add *member* under *key* of a per-fact index: bare at first, a set from the second on."""
    members = index.get(key)
    if members is None:
        index[key] = member
    elif type(members) is set:
        members.add(member)
    elif members != member:
        index[key] = {members, member}


def _index_discard(index: dict, key: object, member: object) -> None:
    """Remove *member* from *key* of a per-fact index; a set of one turns bare again."""
    members = index.get(key)
    if type(members) is set:
        members.discard(member)
        if len(members) == 1:
            (index[key],) = members
    elif members == member:
        del index[key]


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

        #: Every live firing at this node, plain or aggregate (see
        #: :class:`Firings`).
        self.firings = Firings(compiled.name, compiled.catalog.location_of)
        #: non-aggregate rule name -> body facts -> firing id; keyed by the
        #: firing's own body tuple, so no per-firing key object exists
        self._firing_by_body: Dict[str, Dict[Tuple[Fact, ...], str]] = {
            rule.name: {} for rule in compiled.rules if not rule.has_aggregate
        }

        # Aggregate state: rule name -> group key -> {body_facts -> value}
        self._agg_entries: Dict[str, Dict[Tuple, Dict[Tuple[Fact, ...], object]]] = {}
        # Live aggregate heads, (rule name, group key) -> the head's firing id
        # and aggregate value; the head fact and contributing facts are the
        # firing's record.  The map holds atoms only, so the collector never
        # scans it.
        self._agg_heads: Dict[Tuple[str, Tuple], Tuple[str, object]] = {}
        # Fact -> memberships, each (repr sort key, rule name, group key,
        # body facts) — the sort key is computed once here so deletion-time
        # ordering (phase 1) is a plain tuple sort.  Like the firings' consumer
        # index, a fact in one membership maps to the bare membership tuple
        # and only a fact in two or more to a set of them.
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
        return len(self.firings.rules)

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
            # indexes, no store scans).  An aggregate head that used the fact
            # goes in phase 3, with its group; an injected derivation goes
            # when its injector retracts it.
            rules = self.firings.rules
            consumers = self.firings.consumers
            by_rule = self._firing_by_body
            for fact in deletes:
                firings = consumers.get(fact)
                if firings:
                    for firing_id in _sorted_members(firings):
                        if rules.get(firing_id) in by_rule:
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

        Called once per firing; the id keys the firing's record in
        :attr:`firings` and is read back on retraction.  With provenance it
        is the firing's RID, a hash of rule, node and body: at most one
        plain firing per rule and body is live, but an aggregate head or an
        injected derivation can share its RID with another live head, and
        the record then holds both heads.  Without provenance nothing reads
        a RID, so nothing is hashed: the id is a per-node counter,
        fixed-width so that the size of a shipped delta does not depend on
        how long the node has run.
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
        """Record one firing of the non-aggregate *rule*, whose join checked *head_values*; return its +1 effect."""
        head_fact = Fact(rule.head.relation, head_values)
        head_location = self._compiled.catalog.location_of(head_fact)
        firing_id = self.derivation_id(rule.name, body_facts)
        self.firings.add(firing_id, rule.name, head_fact, body_facts)
        self._firing_by_body[rule.name][body_facts] = firing_id
        return DerivationEffect(
            sign=+1,
            firing_id=firing_id,
            rule_name=rule.name,
            head_fact=head_fact,
            head_location=head_location,
            body_facts=body_facts,
        )

    def _retract_firing(self, firing_id: str) -> DerivationEffect:
        """Retract the live plain firing *firing_id* and return its -1 effect."""
        firings = self.firings
        rule_name = firings.rules[firing_id]
        head_fact = firings.heads[firing_id]
        body_facts = firings.bodies[firing_id]
        firings.remove(firing_id, head_fact)
        self._firing_by_body[rule_name].pop(body_facts, None)
        return DerivationEffect(
            sign=-1,
            firing_id=firing_id,
            rule_name=rule_name,
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
        for fact in body_facts:
            _index_add(self._fact_agg_entries, fact, membership)
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
        # As in Firings.remove, iterating duplicate body facts is safe.
        for fact in body_facts:
            _index_discard(self._fact_agg_entries, fact, membership)
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
                del self._agg_heads[head_key]
                effects.append(self._retract_agg_head(rule, group_key, current))
            return effects

        new_value = _aggregate_value(aggregate.func, list(entries.values()))
        contributing = _contributing_facts(aggregate.func, entries, new_value)
        if (
            current is not None
            and current[1] == new_value
            and self.firings.bodies[current[0]] == contributing
        ):
            return effects  # the same head from the same facts

        head_fact = _agg_head_fact(rule, group_key, new_value)
        firing_id = self.derivation_id(rule.name, contributing)
        self._agg_heads[head_key] = (firing_id, new_value)
        # The new head is recorded before the old one is dropped, so a firing
        # id the two share keeps its record (and its consumer index entries).
        self.firings.add(firing_id, rule.name, head_fact, contributing)
        effects.append(
            DerivationEffect(
                sign=+1,
                firing_id=firing_id,
                rule_name=rule.name,
                head_fact=head_fact,
                head_location=self._compiled.catalog.location_of(head_fact),
                body_facts=contributing,
            )
        )
        if current is not None:
            # Emit the replacement *before* the retraction: downstream nodes
            # then see "new value arrives, old value leaves", which changes
            # their own aggregates exactly once.  The opposite order would
            # expose an intermediate state (group without either value) whose
            # consequences would be derived, shipped, and immediately undone —
            # a cascade that blows up deletion processing on cyclic topologies.
            effects.append(self._retract_agg_head(rule, group_key, current))
        return effects

    def _retract_agg_head(
        self, rule: Rule, group_key: Tuple, current: Tuple[str, object]
    ) -> DerivationEffect:
        """Drop the head *current* (its firing id and value) of a group and return its -1 effect."""
        firing_id, value = current
        heads = self.firings.heads[firing_id]
        # A firing id with one head holds this group's; one shared with
        # another group's head holds both, and the group's is rebuilt.
        head_fact = _agg_head_fact(rule, group_key, value) if type(heads) is frozenset else heads
        body_facts = self.firings.bodies[firing_id]
        self.firings.remove(firing_id, head_fact)
        return DerivationEffect(
            sign=-1,
            firing_id=firing_id,
            rule_name=rule.name,
            head_fact=head_fact,
            head_location=self._compiled.catalog.location_of(head_fact),
            body_facts=body_facts,
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
            values.append(_check_value(value))
        else:
            values.append(next(key_iter))
    return Fact(rule.head.relation, tuple(values))
