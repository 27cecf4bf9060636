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

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

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


@dataclass
class _MaybeFiring:
    firing_id: str
    rule_name: str
    head_fact: Fact
    body_facts: Tuple[Fact, ...]


#: A maybe firing's key, ``(derivation id, head fact)``.  The id comes from
#: the node's evaluator, as an ordinary firing's does (its RID when the
#: runtime keeps provenance, a hash of rule, node and body facts); unlike an
#: ordinary rule, a maybe rule's body does not determine its head, so one
#: body can explain several outputs under one id.
_FiringKey = Tuple[str, Fact]


def _key_order(key: _FiringKey) -> Tuple[str, str]:
    return (key[0], repr(key[1]))


class MaybeRuleEvaluator:
    """Matches observed output tuples against "maybe" rules at one node."""

    def __init__(self, node: Node, rules: List[Rule], registry: FunctionRegistry, program_name: str):
        for rule in rules:
            if not rule.is_maybe:
                raise LegacyIntegrationError(
                    f"rule {rule.name!r} is not a maybe rule; only '?-' rules belong here"
                )
        self.node = node
        self.rules = list(rules)
        self.registry = registry
        self.program_name = program_name
        self._firings: Dict[_FiringKey, _MaybeFiring] = {}
        self._by_body_fact: Dict[Fact, Set[_FiringKey]] = {}
        self._by_head_fact: Dict[Fact, Set[_FiringKey]] = {}

    # -- observation entry points --------------------------------------------------------

    def observe_input(self, fact: Fact) -> None:
        """Record an observed input tuple (stored as a base tuple at the node)."""
        self.node.insert_base(fact)

    def retract_input(self, fact: Fact) -> None:
        """Retract an observed input tuple and every maybe-derivation that used it."""
        for key in sorted(self._by_body_fact.get(fact, set()), key=_key_order):
            self._retract_firing(key)
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
        for rule, body_facts in matches:
            firing_id = self.node.evaluator.derivation_id(rule.name, body_facts)
            key = (firing_id, fact)
            if key in self._firings:
                continue
            firing = _MaybeFiring(
                firing_id=firing_id,
                rule_name=rule.name,
                head_fact=fact,
                body_facts=body_facts,
            )
            self._firings[key] = firing
            self._by_head_fact.setdefault(fact, set()).add(key)
            for body_fact in set(body_facts):
                self._by_body_fact.setdefault(body_fact, set()).add(key)
            self.node.apply_external_derivation(self._effect(firing, sign=+1))
        return len(matches)

    def retract_output(self, fact: Fact) -> None:
        """Retract an observed output tuple and all its inferred derivations."""
        keys = sorted(self._by_head_fact.get(fact, set()), key=_key_order)
        if not keys:
            # It was recorded as an unexplained base tuple.
            if self.node.store.contains(fact):
                self.node.delete_base(fact)
            return
        for key in keys:
            self._retract_firing(key)

    # -- internals -------------------------------------------------------------------------

    def _retract_firing(self, key: _FiringKey) -> None:
        firing = self._firings.pop(key, None)
        if firing is None:
            return
        heads = self._by_head_fact.get(firing.head_fact)
        if heads is not None:
            heads.discard(key)
            if not heads:
                del self._by_head_fact[firing.head_fact]
        for body_fact in set(firing.body_facts):
            bodies = self._by_body_fact.get(body_fact)
            if bodies is not None:
                bodies.discard(key)
                if not bodies:
                    del self._by_body_fact[body_fact]
        self.node.apply_external_derivation(self._effect(firing, sign=-1))

    def _effect(self, firing: _MaybeFiring, sign: int) -> DerivationEffect:
        return DerivationEffect(
            sign=sign,
            firing_id=firing.firing_id,
            rule_name=firing.rule_name,
            program_name=self.program_name,
            head_fact=firing.head_fact,
            head_location=self.node.id,
            body_facts=firing.body_facts,
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
