"""The NetTrails proxy for legacy applications.

The proxy sits on the wire between legacy application instances (here: the
BGP daemons of :mod:`repro.legacy.bgp`).  It turns every intercepted message
and every observed routing-table change into NDlog tuples located at the node
of the corresponding application instance:

* ``outputRoute(@AS, ToNeighbor, Prefix, Path)`` — an advertisement leaving
  ``AS`` towards ``ToNeighbor`` (recorded as the message is intercepted);
* ``inputRoute(@AS, FromNeighbor, Prefix, Path)`` — the same advertisement as
  it arrives at its receiver; it is *derived* from the sender's
  ``outputRoute`` by the ordinary rule ``tr1`` below, which gives the
  provenance graph its cross-AS edges;
* ``routeEntry(@AS, Prefix, Path)`` — the route ``AS`` currently installs for
  ``Prefix`` (recorded when the proxy observes a RIB change).

Dependencies *inside* the black box are inferred by the "maybe" rules of
:data:`LEGACY_PROGRAM_SOURCE` — rule ``br1`` is taken verbatim from the paper
— evaluated by :class:`repro.legacy.maybe.MaybeRuleEvaluator`.  The result is
that provenance of the legacy application's state lands in the very same
distributed ``prov`` / ``ruleExec`` tables as provenance of declarative
networks, and can be queried with the same distributed query engine.

AS paths inside tuples use NetTrails node identifiers (``"as104"``), so the
``f_isExtend(Route2, Route1, AS)`` check of rule ``br1`` compares like with
like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import LegacyIntegrationError
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.tuples import Fact
from repro.legacy.bgp import BgpNetwork, BgpUpdate, Route
from repro.legacy.maybe import MaybeRuleEvaluator

#: The NDlog program installed for the Quagga/BGP use case.  Rule ``br1`` is
#: the "maybe" rule shown in the paper (Section 2.2); ``br2`` additionally
#: explains installed routing entries by the advertisements that carried
#: them, and the ordinary rule ``tr1`` models the transmission of an
#: advertisement from the sending AS to the receiving AS.
LEGACY_PROGRAM_SOURCE = """
materialize(outputRoute, infinity, infinity, keys(1, 2, 3)).
materialize(inputRoute, infinity, infinity, keys(1, 2, 3)).
materialize(routeEntry, infinity, infinity, keys(1, 2)).

tr1 inputRoute(@Receiver, Sender, Prefix, Path) :-
    outputRoute(@Sender, Receiver, Prefix, Path).

br1 outputRoute(@AS, R2, Prefix, Route2) ?-
    inputRoute(@AS, R1, Prefix, Route1),
    f_isExtend(Route2, Route1, AS) == 1.

br2 routeEntry(@AS, Prefix, Route) ?-
    inputRoute(@AS, R1, Prefix, Route).
"""

INPUT_ROUTE = "inputRoute"
OUTPUT_ROUTE = "outputRoute"
ROUTE_ENTRY = "routeEntry"


def as_node_id(asn: int) -> str:
    """The NetTrails node identifier used for one AS."""
    return f"as{asn}"


def as_path_values(as_path: Tuple[int, ...]) -> Tuple[str, ...]:
    """An AS path rendered with node identifiers (``(104, 105)`` -> ``("as104", "as105")``)."""
    return tuple(as_node_id(asn) for asn in as_path)


@dataclass
class ProxyStats:
    """Counters describing what the proxy has observed and inferred."""

    messages_observed: int = 0
    outputs_recorded: int = 0
    outputs_explained: int = 0
    outputs_unexplained: int = 0
    route_entries_recorded: int = 0
    withdrawals_processed: int = 0


class LegacyProxy:
    """Observes a :class:`BgpNetwork` and feeds a NetTrails runtime."""

    def __init__(self, runtime: NetTrailsRuntime, bgp_network: BgpNetwork):
        self.runtime = runtime
        self.bgp = bgp_network
        self.stats = ProxyStats()

        maybe_rules = runtime.compiled.maybe_rules
        if not maybe_rules:
            raise LegacyIntegrationError(
                "the runtime's program has no maybe rules; the proxy cannot infer dependencies"
            )
        self._evaluators: Dict[object, MaybeRuleEvaluator] = {}
        for node_id, node in runtime.nodes.items():
            self._evaluators[node_id] = MaybeRuleEvaluator(
                node, maybe_rules, runtime.compiled.registry, runtime.compiled.name
            )

        # Currently-live facts keyed by their logical identity, so that
        # replacements and withdrawals retract exactly what was recorded.
        self._outputs: Dict[Tuple[int, int, str], Fact] = {}
        self._route_entries: Dict[Tuple[int, str], Fact] = {}

        bgp_network.add_message_observer(self.on_message)
        bgp_network.add_rib_observer(self.on_rib_change)

    # -- helpers -----------------------------------------------------------------------

    def _evaluator(self, asn: int) -> MaybeRuleEvaluator:
        node_id = as_node_id(asn)
        if node_id not in self._evaluators:
            raise LegacyIntegrationError(f"no NetTrails node registered for AS {asn}")
        return self._evaluators[node_id]

    # -- observation callbacks ------------------------------------------------------------

    def on_message(self, update: BgpUpdate) -> None:
        """Intercept one BGP update message (called by the BGP network)."""
        self.stats.messages_observed += 1
        evaluator = self._evaluator(update.sender)
        key = (update.sender, update.receiver, update.prefix)
        previous = self._outputs.pop(key, None)
        if previous is not None:
            evaluator.retract_output(previous)
        if update.announce:
            fact = Fact.make(
                OUTPUT_ROUTE,
                [
                    as_node_id(update.sender),
                    as_node_id(update.receiver),
                    update.prefix,
                    as_path_values(update.as_path),
                ],
            )
            self._outputs[key] = fact
            explained = evaluator.observe_output(fact)
            self.stats.outputs_recorded += 1
            if explained:
                self.stats.outputs_explained += 1
            else:
                self.stats.outputs_unexplained += 1
        else:
            self.stats.withdrawals_processed += 1
        # Deliver the derived inputRoute (rule tr1) before the receiving
        # daemon processes the message, mirroring the fact that the real
        # message reaches the receiver at that point.
        self.runtime.run_to_quiescence()

    def on_rib_change(
        self, asn: int, prefix: str, before: Optional[Route], after: Optional[Route]
    ) -> None:
        """Observe a change of the route an AS installs for a prefix."""
        evaluator = self._evaluator(asn)
        key = (asn, prefix)
        previous = self._route_entries.pop(key, None)
        if previous is not None:
            evaluator.retract_output(previous)
        if after is not None:
            fact = Fact.make(
                ROUTE_ENTRY, [as_node_id(asn), prefix, as_path_values(after.as_path)]
            )
            self._route_entries[key] = fact
            evaluator.observe_output(fact)
            self.stats.route_entries_recorded += 1
        self.runtime.run_to_quiescence()

    # -- inspection ------------------------------------------------------------------------------

    def current_route_entry(self, asn: int, prefix: str) -> Optional[Fact]:
        return self._route_entries.get((asn, prefix))
