"""Seeded churn generators: network misbehaviour as reproducible delta batches.

Every generator turns a seeded RNG plus the *current* topology into an
iterator of op batches (:class:`ChurnBatch`), each batch being the set of
base-tuple deltas one quiescence window absorbs.  The op vocabulary
(:class:`ChurnOp`) is deliberately tiny — link up/down and base-tuple
insert/delete — because that is the entire surface through which the paper's
scenarios (link flaps, node failures, BGP announce/withdraw) reach a
:class:`~repro.engine.runtime.NetTrailsRuntime`.

Generators are *stateful over a topology mirror*: they mutate the mirror as
they emit ops, so every op is valid at the point it executes (no removing
absent links, no double announcements), and a generator run after another
on the same mirror sees the network exactly as the first left it.  The
caller owns the mirror, a copy of the topology the runtime started from.
Same mirror, same seeded RNG ⇒ the same ops, bit for bit.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import EngineError
from repro.engine.topology import Topology

# ---------------------------------------------------------------------------
# Op vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnOp:
    """One base-tuple-level mutation of the running system.

    ``kind`` is one of ``add_link`` / ``remove_link`` (undirected link with
    its base tuples, routed through the runtime's dynamic-topology API) or
    ``insert`` / ``delete`` (a single base tuple, e.g. a prefix
    announcement).  ``subject`` holds ``(a, b, cost)`` for link ops and
    ``(relation, *values)`` for tuple ops.
    """

    kind: str
    subject: Tuple[object, ...]

    @classmethod
    def add_link(cls, a: str, b: str, cost: float = 1.0) -> "ChurnOp":
        return cls("add_link", (a, b, cost))

    @classmethod
    def remove_link(cls, a: str, b: str) -> "ChurnOp":
        return cls("remove_link", (a, b))

    @classmethod
    def insert(cls, relation: str, *values: object) -> "ChurnOp":
        return cls("insert", (relation,) + values)

    @classmethod
    def delete(cls, relation: str, *values: object) -> "ChurnOp":
        return cls("delete", (relation,) + values)

    def base_deltas(self) -> int:
        """How many base-tuple deltas this op applies: a link is two, one per direction."""
        return 2 if self.kind in ("add_link", "remove_link") else 1


@dataclass(frozen=True)
class ChurnBatch:
    """The ops one quiescence window absorbs, tagged with its phase."""

    index: int
    phase: str
    ops: Tuple[ChurnOp, ...]


def apply_churn_op(runtime, op: ChurnOp) -> None:
    """Apply one op to a runtime (no simulator run)."""
    if op.kind == "add_link":
        a, b, cost = op.subject
        runtime.add_link(a, b, cost)
    elif op.kind == "remove_link":
        a, b = op.subject
        runtime.remove_link(a, b)
    elif op.kind == "insert":
        runtime.insert(op.subject[0], list(op.subject[1:]))
    elif op.kind == "delete":
        runtime.delete(op.subject[0], list(op.subject[1:]))
    else:
        raise EngineError(f"unknown churn op kind {op.kind!r}")


def apply_batch(runtime, batch: ChurnBatch, run: bool = True) -> None:
    """Apply a batch's ops, then (by default) run to quiescence.

    All ops land before the simulator runs, so the per-node zero-delay
    coalescing turns the whole batch into batch-first delta evaluation.
    """
    for op in batch.ops:
        apply_churn_op(runtime, op)
    if run:
        runtime.run_to_quiescence()


class ZipfSampler:
    """Sample ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    The cumulative weights are precomputed once, so sampling is a binary
    search — cheap enough to redraw every wave even at 1000-node sizes.
    """

    def __init__(self, n: int, s: float = 1.2):
        if n < 1:
            raise ValueError(f"ZipfSampler needs n >= 1, got {n}")
        self.n = n
        self.s = s
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / (rank**s)
            self._cumulative.append(total)

    def sample(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)


# ---------------------------------------------------------------------------
# Generators.  Uniform signature: (mirror, rng, batches, **params) -> iterator
# of op tuples, one per quiescence window.
# ---------------------------------------------------------------------------


def _live_edges(mirror: Topology) -> List[Tuple[str, str]]:
    return sorted(mirror.edges)


def link_flap(
    mirror: Topology,
    rng: random.Random,
    batches: int,
    flaps_per_batch: int = 2,
    fast_ratio: float = 0.5,
) -> Iterator[Tuple[ChurnOp, ...]]:
    """Random link flaps with jitter.

    Each batch flaps up to *flaps_per_batch* random live links.  A *fast*
    flap (probability ``fast_ratio``) goes down and back up within the same
    batch, so the deletion and re-insertion waves overlap in flight; a *slow*
    flap stays down for one whole window and is restored in the next batch.
    """
    pending_up: List[Tuple[str, str, float]] = []
    for _ in range(batches):
        ops: List[ChurnOp] = []
        for a, b, cost in pending_up:
            mirror.add_edge(a, b, cost)
            ops.append(ChurnOp.add_link(a, b, cost))
        pending_up = []
        for _ in range(flaps_per_batch):
            edges = _live_edges(mirror)
            if not edges:
                break
            a, b = edges[rng.randrange(len(edges))]
            cost = mirror.cost(a, b)
            ops.append(ChurnOp.remove_link(a, b))
            if rng.random() < fast_ratio:
                ops.append(ChurnOp.add_link(a, b, cost))
            else:
                mirror.remove_edge(a, b)
                pending_up.append((a, b, cost))
        yield tuple(ops)
    if pending_up:
        # Restore anything still down so the phase leaves the topology whole.
        yield tuple(ChurnOp.add_link(a, b, cost) for a, b, cost in pending_up)
        for a, b, cost in pending_up:
            mirror.add_edge(a, b, cost)


def node_fail_recover(
    mirror: Topology,
    rng: random.Random,
    batches: int,
    concurrent_failures: int = 1,
    protect: Tuple[str, ...] = (),
) -> Iterator[Tuple[ChurnOp, ...]]:
    """Whole-node failures: every incident link drops at once, later recovers.

    Each batch fails a random healthy node (all its links removed in one
    batch — the correlated loss a crashed router causes) until
    *concurrent_failures* nodes are down, then recovers the longest-down
    node, sustaining that much overlapping failure for the rest of the
    phase.  Nodes in *protect* (e.g. prefix origins) never fail.
    """
    down: List[Tuple[str, List[Tuple[str, str, float]]]] = []
    protected = set(protect)
    for _step in range(batches):
        if len(down) < concurrent_failures:
            candidates = [
                node
                for node in sorted(mirror.nodes)
                if node not in protected
                and mirror.degree(node) > 0
                and all(node != downed for downed, _ in down)
            ]
            if not candidates:
                yield ()
                continue
            node = candidates[rng.randrange(len(candidates))]
            links = [
                (node, neighbor, mirror.cost(node, neighbor))
                for neighbor in mirror.neighbors(node)
            ]
            for a, b, _cost in links:
                mirror.remove_edge(a, b)
            down.append((node, links))
            yield tuple(ChurnOp.remove_link(a, b) for a, b, _cost in links)
        else:
            yield _recover_node(mirror, down)
    while down:
        yield _recover_node(mirror, down)


def _recover_node(
    mirror: Topology, down: List[Tuple[str, List[Tuple[str, str, float]]]]
) -> Tuple[ChurnOp, ...]:
    """Restore the longest-down node's links — except those whose other
    endpoint is itself still down, which are deferred onto that neighbour's
    failure record so no link ever comes up into a failed node."""
    node, links = down.pop(0)
    ops: List[ChurnOp] = []
    for a, b, cost in links:
        other = b if a == node else a
        neighbor_entry = next((entry for entry in down if entry[0] == other), None)
        if neighbor_entry is not None:
            neighbor_entry[1].append((a, b, cost))
        else:
            mirror.add_edge(a, b, cost)
            ops.append(ChurnOp.add_link(a, b, cost))
    return tuple(ops)


def prefix_announce_withdraw(
    mirror: Topology,
    rng: random.Random,
    batches: int,
    prefixes: int = 2,
    origins_per_prefix: int = 2,
    toggles_per_batch: int = 1,
    keep_alive: bool = True,
    relation: str = "prefix",
) -> Iterator[Tuple[ChurnOp, ...]]:
    """BGP-style announce/withdraw churn against a ``prefix`` base relation.

    The first batch originates every prefix at ``origins_per_prefix``
    deterministic-randomly chosen nodes (multi-homing).  Every later batch
    toggles *toggles_per_batch* random (prefix, origin) pairs: announced
    origins withdraw, withdrawn ones re-announce.  With ``keep_alive`` (the
    default) a prefix's last live origin never withdraws, so routes shift to
    the surviving origin instead of triggering a full count-to-infinity
    teardown — set it to ``False`` to stress exactly that teardown.
    """
    nodes = sorted(mirror.nodes)
    if origins_per_prefix > len(nodes):
        raise EngineError(
            f"origins_per_prefix={origins_per_prefix} exceeds node count {len(nodes)}"
        )
    slots: List[Tuple[str, str]] = []  # every (prefix, origin) homing slot
    live: Dict[Tuple[str, str], bool] = {}
    announce_ops: List[ChurnOp] = []
    for index in range(prefixes):
        prefix_name = f"p{index}"
        for origin in rng.sample(nodes, origins_per_prefix):
            slots.append((prefix_name, origin))
            live[(prefix_name, origin)] = True
            announce_ops.append(ChurnOp.insert(relation, origin, prefix_name, 0.0))
    yield tuple(announce_ops)
    for _ in range(max(0, batches - 1)):
        ops: List[ChurnOp] = []
        for _ in range(toggles_per_batch):
            prefix_name, origin = slots[rng.randrange(len(slots))]
            if live[(prefix_name, origin)]:
                live_count = sum(
                    1 for (p, _o), up in live.items() if p == prefix_name and up
                )
                if keep_alive and live_count <= 1:
                    continue
                live[(prefix_name, origin)] = False
                ops.append(ChurnOp.delete(relation, origin, prefix_name, 0.0))
            else:
                live[(prefix_name, origin)] = True
                ops.append(ChurnOp.insert(relation, origin, prefix_name, 0.0))
        yield tuple(ops)


def hot_hub_skew(
    mirror: Topology,
    rng: random.Random,
    batches: int,
    ops_per_batch: int = 4,
    zipf_s: float = 1.3,
) -> Iterator[Tuple[ChurnOp, ...]]:
    """Zipf-skewed link flaps concentrated on the highest-degree nodes.

    Nodes are ranked by descending degree (stable tie-break by name); each
    flap picks its node with Zipf(``zipf_s``) rank skew and fast-flaps one
    random incident link.  The top-ranked hub therefore absorbs most of the
    churn — the hot-node regime.
    """
    for _ in range(batches):
        ranked = sorted(mirror.nodes, key=lambda node: (-mirror.degree(node), node))
        sampler = ZipfSampler(len(ranked), zipf_s)
        ops: List[ChurnOp] = []
        for _ in range(ops_per_batch):
            node = ranked[sampler.sample(rng)]
            neighbors = mirror.neighbors(node)
            if not neighbors:
                continue
            neighbor = neighbors[rng.randrange(len(neighbors))]
            cost = mirror.cost(node, neighbor)
            ops.append(ChurnOp.remove_link(node, neighbor))
            ops.append(ChurnOp.add_link(node, neighbor, cost))
        yield tuple(ops)


def random_link_churn(
    mirror: Topology,
    rng: random.Random,
    batches: int,
    max_new_cost: int = 4,
) -> Iterator[Tuple[ChurnOp, ...]]:
    """The classic equivalence-harness script: remove / re-add / add-new / flap.

    One op per batch, drawn uniformly; removed links are remembered for
    re-adding and brand-new links get random integer costs.  This is the
    generator the property-test churn harnesses replay against their
    oracles.
    """
    nodes = sorted(mirror.nodes)
    removed: List[Tuple[str, str, float]] = []
    emitted = 0
    while emitted < batches:
        kind = rng.choice(["remove", "add_back", "add_new", "flap"])
        if kind == "remove" and len(mirror.edges) > 1:
            a, b = sorted(mirror.edges)[rng.randrange(len(mirror.edges))]
            removed.append((a, b, mirror.cost(a, b)))
            mirror.remove_edge(a, b)
            yield (ChurnOp.remove_link(a, b),)
        elif kind == "add_back" and removed:
            a, b, cost = removed.pop(rng.randrange(len(removed)))
            mirror.add_edge(a, b, cost)
            yield (ChurnOp.add_link(a, b, cost),)
        elif kind == "add_new":
            a, b = rng.sample(nodes, 2)
            if mirror.has_edge(a, b):
                continue
            cost = float(rng.randint(1, max_new_cost))
            mirror.add_edge(a, b, cost)
            yield (ChurnOp.add_link(a, b, cost),)
        elif kind == "flap" and mirror.edges:
            # Down and back up before quiescence: the deletion and
            # re-insertion waves overlap in flight.
            a, b = sorted(mirror.edges)[rng.randrange(len(mirror.edges))]
            yield (ChurnOp.remove_link(a, b), ChurnOp.add_link(a, b, mirror.cost(a, b)))
        else:
            continue
        emitted += 1
