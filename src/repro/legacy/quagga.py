"""The Quagga/BGP use case, end to end.

:class:`QuaggaDeployment` wires together everything the paper's second
demonstration use case needs: an AS-level topology of large and small ISPs
with customer/provider/peer relationships, one simulated BGP daemon per AS
(the Quagga substitute), the NetTrails proxy intercepting their messages, a
NetTrails runtime holding the captured tuples and their provenance, and the
distributed query engine for asking where routing entries came from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.runtime import NetTrailsRuntime
from repro.engine.topology import Topology
from repro.core.query import DistributedQueryEngine
from repro.core.results import QueryResult
from repro.legacy import relationships
from repro.legacy.bgp import BgpNetwork
from repro.legacy.proxy import LEGACY_PROGRAM_SOURCE, LegacyProxy, ROUTE_ENTRY, as_node_id
from repro.legacy.relationships import ASTopology
from repro.legacy.routeviews import TraceEvent, generate_trace


def _node_topology(as_topology: ASTopology) -> Topology:
    """One NetTrails node per AS, linked along the AS-level adjacencies."""
    topology = Topology(name=f"{as_topology.name}-nodes")
    for asn in sorted(as_topology.ases):
        topology.add_node(as_node_id(asn))
    for a, b, _relationship in as_topology.links():
        topology.add_edge(as_node_id(a), as_node_id(b), 1.0)
    return topology


class QuaggaDeployment:
    """A complete legacy-application deployment with provenance tracking."""

    def __init__(
        self,
        as_topology: Optional[ASTopology] = None,
        tier1_count: int = 3,
        tier2_per_tier1: int = 2,
        stubs_per_tier2: int = 2,
        seed: int = 0,
    ):
        self.as_topology = as_topology or relationships.hierarchy(
            tier1_count=tier1_count,
            tier2_per_tier1=tier2_per_tier1,
            stubs_per_tier2=stubs_per_tier2,
            seed=seed,
        )
        self.node_topology = _node_topology(self.as_topology)
        self.runtime = NetTrailsRuntime(
            LEGACY_PROGRAM_SOURCE,
            self.node_topology,
            provenance=True,
            program_name="quagga_bgp",
        )
        self.bgp = BgpNetwork(self.as_topology)
        self.proxy = LegacyProxy(self.runtime, self.bgp)
        self.queries = DistributedQueryEngine(self.runtime)
        self.events_played: List[TraceEvent] = []

    # -- driving the deployment ---------------------------------------------------------

    def play_event(self, event: TraceEvent) -> None:
        """Apply one trace event (origination or withdrawal) and converge BGP."""
        if event.announce:
            self.bgp.originate(event.asn, event.prefix)
        else:
            self.bgp.withdraw(event.asn, event.prefix)
        self.bgp.run()
        self.runtime.run_to_quiescence()
        self.events_played.append(event)

    def play_trace(self, events: Sequence[TraceEvent]) -> int:
        """Apply a whole trace in order; return the number of events played."""
        for event in events:
            self.play_event(event)
        return len(events)

    def play_generated_trace(self, prefixes_per_stub: int = 1, seed: int = 0, **kwargs) -> int:
        """Generate a RouteViews-style trace for this topology and play it."""
        events = generate_trace(
            self.as_topology, prefixes_per_stub=prefixes_per_stub, seed=seed, **kwargs
        )
        return self.play_trace(events)

    # -- inspection -----------------------------------------------------------------------

    @property
    def provenance(self):
        return self.runtime.provenance

    def route_entries(self, prefix: str) -> Dict[int, Tuple[int, ...]]:
        """AS -> installed AS path for *prefix*, across the whole deployment."""
        result: Dict[int, Tuple[int, ...]] = {}
        for asn in sorted(self.as_topology.ases):
            entry = self.proxy.current_route_entry(asn, prefix)
            if entry is not None:
                result[asn] = entry.values[2]  # type: ignore[assignment]
        return result

    # -- provenance queries ------------------------------------------------------------------

    def derivation_of_route(self, asn: int, prefix: str, **kwargs) -> QueryResult:
        """Lineage of the routing entry *asn* installs for *prefix*.

        The returned base tuples are the intercepted advertisements (and the
        origin AS's own announcements) that the entry ultimately derives from
        — "derivation histories and origins of routing entries" in the
        paper's words.
        """
        fact = self.proxy.current_route_entry(asn, prefix)
        if fact is None:
            raise KeyError(f"AS {asn} has no installed route for {prefix}")
        return self.queries.lineage(ROUTE_ENTRY, list(fact.values), **kwargs)

    def participants_of_route(self, asn: int, prefix: str, **kwargs) -> QueryResult:
        """The set of ASes involved in the derivation of a routing entry."""
        fact = self.proxy.current_route_entry(asn, prefix)
        if fact is None:
            raise KeyError(f"AS {asn} has no installed route for {prefix}")
        return self.queries.participants(ROUTE_ENTRY, list(fact.values), **kwargs)
