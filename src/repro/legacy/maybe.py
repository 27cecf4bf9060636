"""Evaluation of NDlog "maybe" rules over observed tuples.

The paper (§2.2): *"we utilize NDlog's concept of 'maybe' rules, which
describe possible causal relationships between messages entering and leaving
the legacy application.  In contrast to ordinary derivation rules, the output
tuple of a 'maybe' rule is not necessarily always derived (depending on
internal decisions in the legacy application)."*

A :class:`MaybeRuleEvaluator` is attached to the node of one legacy
application instance.  When the proxy observes an *output* tuple (e.g. an
``outputRoute``), the evaluator unifies it with the heads of the installed
"maybe" rules, matches the rule bodies against the tuples previously observed
at that node, checks the conditions (e.g. ``f_isExtend``) and, for every
match, fabricates a derivation linking the output tuple to its probable
inputs.  The derivation is then injected into the node through
:meth:`repro.engine.node.Node.apply_external_derivation`, so it lands in the
same provenance tables as ordinary rule firings.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import LegacyIntegrationError
from repro.ndlog.ast import Assignment, Condition, Rule
from repro.ndlog.functions import FunctionRegistry
from repro.engine.dataflow import (
    Bindings,
    bound_positions,
    evaluate_term,
    match_atom,
    satisfies,
)
from repro.engine.evaluator import DerivationEffect
from repro.engine.node import Node
from repro.engine.tuples import Fact


class MaybeRuleEvaluator:
    """Matches observed output tuples against "maybe" rules at one node.

    It keeps no firings of its own: a maybe derivation is recorded in the
    node evaluator's :class:`~repro.engine.evaluator.Firings`, as an
    ordinary firing is, and read back from there to be retracted.  Its id
    comes from the node's evaluator too (its RID when the runtime keeps
    provenance, a hash of rule, node and body facts); unlike an ordinary
    rule, a maybe rule's body does not determine its head, so one body can
    explain several outputs under one id, and the record holds each of them.
    """

    def __init__(self, node: Node, rules: List[Rule], registry: FunctionRegistry, program_name: str):
        for rule in rules:
            if not rule.is_maybe:
                raise LegacyIntegrationError(
                    f"rule {rule.name!r} is not a maybe rule; only '?-' rules belong here"
                )
        if program_name != node.compiled.name:
            raise LegacyIntegrationError(
                f"maybe rules of program {program_name!r} cannot be recorded at a node "
                f"running {node.compiled.name!r}"
            )
        self.node = node
        self.rules = list(rules)
        self.registry = registry
        self.program_name = program_name
        self._rule_names = {rule.name for rule in rules}

    # -- observation entry points --------------------------------------------------------

    def observe_input(self, fact: Fact) -> None:
        """Record an observed input tuple (stored as a base tuple at the node)."""
        self.node.insert_base(fact)

    def retract_input(self, fact: Fact) -> None:
        """Retract an observed input tuple and every maybe-derivation that used it."""
        firings = self.node.evaluator.firings
        for firing_id in firings.consumers_of(fact):
            if firings.rules.get(firing_id) in self._rule_names:
                for head in firings.heads_of(firing_id):
                    self._retract_firing(firing_id, head)
        self.node.delete_base(fact)

    def observe_output(self, fact: Fact) -> int:
        """Record an observed output tuple, inferring its provenance via maybe rules.

        Returns the number of inferred derivations.  When no maybe rule
        matches, the tuple is recorded as a base tuple (the legacy application
        produced it for reasons the rules cannot explain — e.g. a locally
        originated route).  A derivation's id is made as an ordinary rule
        firing's is (its RID), so observing the same output again adds no
        derivation that is already recorded.
        """
        matches = self._match(fact)
        if not matches:
            self.node.insert_base(fact)
            return 0
        firings = self.node.evaluator.firings
        for rule, body_facts in matches:
            firing_id = self.node.evaluator.derivation_id(rule.name, body_facts)
            if fact in firings.heads_of(firing_id):
                continue
            self.node.apply_external_derivation(
                self._effect(+1, firing_id, rule.name, fact, body_facts)
            )
        return len(matches)

    def retract_output(self, fact: Fact) -> None:
        """Retract an observed output tuple and all its inferred derivations."""
        firings = self.node.evaluator.firings
        firing_ids = [
            firing_id
            for firing_id in sorted(self.node.store.derivations(fact))
            if firings.rules.get(firing_id) in self._rule_names
            and fact in firings.heads_of(firing_id)
        ]
        if not firing_ids:
            # It was recorded as an unexplained base tuple.
            if self.node.store.contains(fact):
                self.node.delete_base(fact)
            return
        for firing_id in firing_ids:
            self._retract_firing(firing_id, fact)

    # -- internals -------------------------------------------------------------------------

    def _retract_firing(self, firing_id: str, head: Fact) -> None:
        firings = self.node.evaluator.firings
        self.node.apply_external_derivation(
            self._effect(-1, firing_id, firings.rules[firing_id], head, firings.bodies[firing_id])
        )

    def _effect(
        self, sign: int, firing_id: str, rule_name: str, head: Fact, body_facts: Tuple[Fact, ...]
    ) -> DerivationEffect:
        return DerivationEffect(
            sign=sign,
            firing_id=firing_id,
            rule_name=rule_name,
            head_fact=head,
            head_location=self.node.id,
            body_facts=body_facts,
        )

    def _match(self, output: Fact) -> List[Tuple[Rule, Tuple[Fact, ...]]]:
        """Find every (rule, body facts) combination explaining *output*."""
        matches: List[Tuple[Rule, Tuple[Fact, ...]]] = []
        for rule in self.rules:
            head_bindings = match_atom(rule.head, output, {}, self.registry)
            if head_bindings is None:
                continue
            for bindings, body_facts in self._enumerate_body(rule, head_bindings):
                matches.append((rule, body_facts))
        return matches

    def _enumerate_body(
        self, rule: Rule, bindings: Bindings
    ) -> List[Tuple[Bindings, Tuple[Fact, ...]]]:
        positives = rule.positive_literals
        results: List[Tuple[Bindings, Tuple[Fact, ...]]] = []
        store = self.node.store

        def recurse(index: int, current: Bindings, facts: Tuple[Fact, ...]) -> None:
            if index == len(positives):
                final = dict(current)
                for element in rule.body:
                    if isinstance(element, Assignment):
                        final[element.variable] = evaluate_term(
                            element.expression, final, self.registry
                        )
                    elif isinstance(element, Condition):
                        if not satisfies(element, final, self.registry):
                            return
                results.append((final, facts))
                return
            literal = positives[index]
            bound = bound_positions(literal.atom, current)
            for candidate in sorted(
                store.matching(literal.atom.relation, bound), key=lambda fact: repr(fact.values)
            ):
                extended = match_atom(literal.atom, candidate, current, self.registry)
                if extended is None:
                    continue
                recurse(index + 1, extended, facts + (candidate,))

        recurse(0, dict(bindings), ())
        return results
