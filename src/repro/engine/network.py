"""Simulated network: links, latencies and per-category traffic accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

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
        #: The callback of every delivery event, bound once: the message
        #: rides on the event as its argument.
        self._deliver = self._deliver_message
        #: category -> ``"deliver:<category>"`` event label, formatted once
        self._deliver_labels: Dict[str, str] = {}
        self._links: Dict[Tuple[object, object], Link] = {}
        self.stats = TrafficStats()

    # -- membership -----------------------------------------------------------

    def register(self, node_id: object, receiver: object) -> None:
        """Register *receiver* (anything with a ``receive(message)`` method)."""
        self._receivers[node_id] = receiver

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._receivers

    # -- links ------------------------------------------------------------------

    def add_link(self, source: object, target: object, cost: float = 1.0, latency: float = 0.01) -> Link:
        link = Link(source=source, target=target, cost=cost, latency=latency, up=True)
        self._links[(source, target)] = link
        return link

    def remove_link(self, source: object, target: object) -> None:
        self._links.pop((source, target), None)

    # -- message delivery ---------------------------------------------------------

    def send(self, message: Message) -> None:
        """Deliver *message* to its receiver after the link (or default) latency."""
        receiver = message.receiver
        if receiver not in self._receivers:
            raise UnknownNodeError(f"message addressed to unknown node {receiver!r}")
        self.stats.record(message)
        link = self._links.get((message.sender, receiver))
        latency = link.latency if link is not None and link.up else self._default_latency
        label = self._deliver_labels.get(message.category)
        if label is None:
            label = self._deliver_labels[message.category] = f"deliver:{message.category}"
        # The message rides on the event, whose callback is bound once per
        # network: a delivery allocates no closure or method object.
        self.simulator.schedule_call(latency, self._deliver, message, label)

    def _deliver_message(self, message: Message) -> None:
        self._receivers[message.receiver].receive(message)

    def reset_stats(self) -> TrafficStats:
        """Reset traffic statistics, returning the statistics collected so far."""
        old = self.stats
        self.stats = TrafficStats()
        return old
