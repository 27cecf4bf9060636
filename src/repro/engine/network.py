"""Simulated network: links, latencies and per-category traffic accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import UnknownNodeError
from repro.engine.messages import Message
from repro.engine.simulator import Simulator


@dataclass
class Link:
    """A (directed) link between two nodes."""

    source: object
    target: object
    cost: float = 1.0
    latency: float = 0.01
    up: bool = True


@dataclass
class TrafficStats:
    """Message and byte counts, total and per category."""

    messages: int = 0
    bytes: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    bytes_by_category: Dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        size = message.size_estimate()
        self.messages += 1
        self.bytes += size
        self.by_category[message.category] = self.by_category.get(message.category, 0) + 1
        self.bytes_by_category[message.category] = (
            self.bytes_by_category.get(message.category, 0) + size
        )

    def category_count(self, category: str) -> int:
        return self.by_category.get(category, 0)

    def snapshot(self) -> Dict[str, object]:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_category": dict(self.by_category),
            "bytes_by_category": dict(self.bytes_by_category),
        }


class Network:
    """Point-to-point message delivery between registered nodes."""

    def __init__(self, simulator: Simulator, default_latency: float = 0.01):
        #: The discrete-event simulator this network schedules deliveries on
        #: (also used by nodes to coalesce same-instant deliveries).
        self.simulator = simulator
        self._default_latency = default_latency
        self._receivers: Dict[object, object] = {}
        self._links: Dict[Tuple[object, object], Link] = {}
        self.stats = TrafficStats()

    # -- membership -----------------------------------------------------------

    def register(self, node_id: object, receiver: object) -> None:
        """Register *receiver* (anything with a ``receive(message)`` method)."""
        self._receivers[node_id] = receiver

    def node_ids(self) -> List[object]:
        return sorted(self._receivers, key=repr)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._receivers

    # -- links ------------------------------------------------------------------

    def add_link(self, source: object, target: object, cost: float = 1.0, latency: float = 0.01) -> Link:
        link = Link(source=source, target=target, cost=cost, latency=latency, up=True)
        self._links[(source, target)] = link
        return link

    def remove_link(self, source: object, target: object) -> None:
        self._links.pop((source, target), None)

    def link(self, source: object, target: object) -> Optional[Link]:
        return self._links.get((source, target))

    def links(self) -> Iterable[Link]:
        return list(self._links.values())

    def neighbors(self, node_id: object) -> List[object]:
        return sorted(
            (target for (source, target), link in self._links.items() if source == node_id and link.up),
            key=repr,
        )

    # -- message delivery ---------------------------------------------------------

    def send(self, message: Message) -> None:
        """Deliver *message* to its receiver after the link (or default) latency.

        When called from an event that a concurrent backend is executing, the
        dispatch (traffic accounting + delivery scheduling) is routed through
        the simulator's per-event effect queue and merged after the wave in
        event-sequence order — the thread-safe network funnel that keeps
        traffic statistics and delivery order identical to serial execution.
        """
        if message.receiver not in self._receivers:
            raise UnknownNodeError(f"message addressed to unknown node {message.receiver!r}")
        buffer = self.simulator.deferred_buffer()
        if buffer is not None:
            buffer.append(lambda: self._dispatch(message))
            return
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        self.stats.record(message)
        link = self._links.get((message.sender, message.receiver))
        latency = link.latency if link is not None and link.up else self._default_latency
        receiver = self._receivers[message.receiver]

        # Deliveries are serialized per receiving node (the event key): two
        # messages delivered to one node at the same instant keep their order,
        # while deliveries to distinct nodes may be absorbed concurrently.
        self.simulator.schedule(
            latency,
            lambda: receiver.receive(message),
            label=f"deliver:{message.category}",
            key=message.receiver,
        )

    def reset_stats(self) -> TrafficStats:
        """Reset traffic statistics, returning the statistics collected so far."""
        old = self.stats
        self.stats = TrafficStats()
        return old
