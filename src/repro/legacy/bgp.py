"""A BGP decision-process simulator (the Quagga substitute).

The paper's demonstration instantiates Quagga BGP daemons for several ASes on
one machine and intercepts their messages with a proxy.  NetTrails only cares
about the *message-level behaviour* of that black box: which route
advertisements enter a daemon, which leave it, and which routes it installs.
This module provides a faithful-enough substitute: per-AS daemons with
Adj-RIB-In, the standard decision process (local preference from business
relationships, then shortest AS path, then lowest neighbor ASN), AS-path loop
rejection and Gao-Rexford export filtering.

The simulator is deliberately observable: every message sent between daemons
and every RIB change can be intercepted through callbacks, which is what the
NetTrails proxy (:mod:`repro.legacy.proxy`) hooks into — without the daemons
knowing anything about provenance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import LegacyIntegrationError
from repro.legacy.relationships import ASTopology


@dataclass(frozen=True)
class Route:
    """One BGP route: a prefix plus the AS path used to reach it."""

    prefix: str
    as_path: Tuple[int, ...]
    local_pref: int = 100


@dataclass(frozen=True)
class BgpUpdate:
    """A BGP UPDATE message: an announcement or a withdrawal."""

    sender: int
    receiver: int
    prefix: str
    announce: bool
    as_path: Tuple[int, ...] = ()


@dataclass
class BgpStats:
    updates_sent: int = 0
    announcements: int = 0
    withdrawals: int = 0
    best_route_changes: int = 0


class BgpDaemon:
    """One AS's BGP speaker."""

    def __init__(self, asn: int, topology: ASTopology):
        self.asn = asn
        self.topology = topology
        #: prefixes originated locally
        self.originated: Set[str] = set()
        #: Adj-RIB-In: (neighbor, prefix) -> Route
        self.adj_rib_in: Dict[Tuple[int, str], Route] = {}
        #: Loc-RIB: prefix -> (Route, learned_from or None for local origination)
        self.loc_rib: Dict[str, Tuple[Route, Optional[int]]] = {}
        #: what was last advertised to each neighbor: (neighbor, prefix) -> as_path
        self._advertised: Dict[Tuple[int, str], Tuple[int, ...]] = {}

    # -- local events --------------------------------------------------------------

    def originate(self, prefix: str) -> List[BgpUpdate]:
        """Originate *prefix* locally; returns the updates to send."""
        self.originated.add(prefix)
        return self._run_decision(prefix)

    def withdraw_origin(self, prefix: str) -> List[BgpUpdate]:
        """Stop originating *prefix*; returns the updates to send."""
        self.originated.discard(prefix)
        return self._run_decision(prefix)

    # -- message processing ------------------------------------------------------------

    def process(self, update: BgpUpdate) -> List[BgpUpdate]:
        """Process one incoming update; returns the updates to send in response."""
        if update.receiver != self.asn:
            raise LegacyIntegrationError(
                f"update for AS {update.receiver} delivered to AS {self.asn}"
            )
        key = (update.sender, update.prefix)
        if update.announce:
            if self.asn in update.as_path:
                # AS-path loop: reject, and forget any previous route from that neighbor.
                self.adj_rib_in.pop(key, None)
            else:
                self.adj_rib_in[key] = Route(
                    prefix=update.prefix,
                    as_path=update.as_path,
                    local_pref=self.topology.local_preference(self.asn, update.sender),
                )
        else:
            self.adj_rib_in.pop(key, None)
        return self._run_decision(update.prefix)

    # -- decision process -----------------------------------------------------------------

    def _candidates(self, prefix: str) -> List[Tuple[Route, Optional[int]]]:
        candidates: List[Tuple[Route, Optional[int]]] = []
        if prefix in self.originated:
            candidates.append((Route(prefix=prefix, as_path=(self.asn,), local_pref=1000), None))
        for (neighbor, candidate_prefix), route in self.adj_rib_in.items():
            if candidate_prefix == prefix:
                candidates.append((route, neighbor))
        return candidates

    @staticmethod
    def _preference_key(entry: Tuple[Route, Optional[int]]) -> Tuple[int, int, int]:
        route, learned_from = entry
        neighbor = learned_from if learned_from is not None else -1
        return (-route.local_pref, len(route.as_path), neighbor)

    def _run_decision(self, prefix: str) -> List[BgpUpdate]:
        """Re-run the decision process for *prefix*; return the resulting exports."""
        candidates = self._candidates(prefix)
        previous = self.loc_rib.get(prefix)
        if candidates:
            best = min(candidates, key=self._preference_key)
            self.loc_rib[prefix] = best
        else:
            best = None
            self.loc_rib.pop(prefix, None)
        if best == previous:
            return []
        return self._export(prefix, best)

    def _export(self, prefix: str, best: Optional[Tuple[Route, Optional[int]]]) -> List[BgpUpdate]:
        updates: List[BgpUpdate] = []
        for neighbor in self.topology.neighbors(self.asn):
            key = (neighbor, prefix)
            previously_advertised = self._advertised.get(key)
            should_advertise = False
            exported_path: Tuple[int, ...] = ()
            if best is not None:
                route, learned_from = best
                # Never advertise a route back to the neighbor it was learned from,
                # and apply the Gao-Rexford export policy.
                if learned_from != neighbor and self.topology.should_export(
                    self.asn, learned_from, neighbor
                ):
                    should_advertise = True
                    exported_path = (self.asn,) + route.as_path if learned_from is not None else (self.asn,)
            if should_advertise:
                if previously_advertised != exported_path:
                    self._advertised[key] = exported_path
                    updates.append(
                        BgpUpdate(
                            sender=self.asn,
                            receiver=neighbor,
                            prefix=prefix,
                            announce=True,
                            as_path=exported_path,
                        )
                    )
            else:
                if previously_advertised is not None:
                    del self._advertised[key]
                    updates.append(
                        BgpUpdate(
                            sender=self.asn,
                            receiver=neighbor,
                            prefix=prefix,
                            announce=False,
                        )
                    )
        return updates

    # -- inspection ---------------------------------------------------------------------------

    def best_route(self, prefix: str) -> Optional[Route]:
        entry = self.loc_rib.get(prefix)
        return entry[0] if entry is not None else None


#: Observer signatures used by the proxy.
MessageObserver = Callable[[BgpUpdate], None]
RibObserver = Callable[[int, str, Optional[Route], Optional[Route]], None]


class BgpNetwork:
    """A set of BGP daemons exchanging updates over the AS topology.

    Message processing is deterministic: updates are queued FIFO and processed
    one at a time.  Observers see every message *before* it is processed by
    the receiving daemon (this is where the NetTrails proxy taps the wire) and
    every local-RIB change after it happens.
    """

    def __init__(self, topology: ASTopology):
        self.topology = topology
        self.daemons: Dict[int, BgpDaemon] = {
            asn: BgpDaemon(asn, topology) for asn in sorted(topology.ases)
        }
        self._queue: Deque[BgpUpdate] = deque()
        self._message_observers: List[MessageObserver] = []
        self._rib_observers: List[RibObserver] = []
        self.stats = BgpStats()

    # -- observers ----------------------------------------------------------------

    def add_message_observer(self, observer: MessageObserver) -> None:
        self._message_observers.append(observer)

    def add_rib_observer(self, observer: RibObserver) -> None:
        self._rib_observers.append(observer)

    # -- events --------------------------------------------------------------------

    def originate(self, asn: int, prefix: str) -> None:
        """AS *asn* starts originating *prefix*."""
        daemon = self._daemon(asn)
        before = daemon.best_route(prefix)
        updates = daemon.originate(prefix)
        self._notify_rib(asn, prefix, before, daemon.best_route(prefix))
        self._enqueue(updates)

    def withdraw(self, asn: int, prefix: str) -> None:
        """AS *asn* stops originating *prefix*."""
        daemon = self._daemon(asn)
        before = daemon.best_route(prefix)
        updates = daemon.withdraw_origin(prefix)
        self._notify_rib(asn, prefix, before, daemon.best_route(prefix))
        self._enqueue(updates)

    def run(self, max_messages: int = 1_000_000) -> int:
        """Deliver queued updates until quiescence; return messages processed."""
        processed = 0
        while self._queue:
            if processed >= max_messages:
                raise LegacyIntegrationError(
                    f"BGP network did not converge within {max_messages} messages"
                )
            update = self._queue.popleft()
            processed += 1
            for observer in self._message_observers:
                observer(update)
            daemon = self._daemon(update.receiver)
            before = daemon.best_route(update.prefix)
            responses = daemon.process(update)
            after = daemon.best_route(update.prefix)
            self._notify_rib(update.receiver, update.prefix, before, after)
            self._enqueue(responses)
        return processed

    # -- helpers ---------------------------------------------------------------------

    def _daemon(self, asn: int) -> BgpDaemon:
        if asn not in self.daemons:
            raise LegacyIntegrationError(f"unknown AS {asn}")
        return self.daemons[asn]

    def _enqueue(self, updates: Iterable[BgpUpdate]) -> None:
        for update in updates:
            self.stats.updates_sent += 1
            if update.announce:
                self.stats.announcements += 1
            else:
                self.stats.withdrawals += 1
            self._queue.append(update)

    def _notify_rib(
        self, asn: int, prefix: str, before: Optional[Route], after: Optional[Route]
    ) -> None:
        if before == after:
            return
        self.stats.best_route_changes += 1
        for observer in self._rib_observers:
            observer(asn, prefix, before, after)

    # -- inspection ---------------------------------------------------------------------

    def best_route(self, asn: int, prefix: str) -> Optional[Route]:
        return self._daemon(asn).best_route(prefix)

    def reachable_ases(self, prefix: str) -> List[int]:
        """ASes that currently have a route to *prefix*."""
        return sorted(
            asn for asn, daemon in self.daemons.items() if daemon.best_route(prefix) is not None
        )
