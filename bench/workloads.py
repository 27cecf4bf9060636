"""The four workloads: how each system is built and what one cycle does.

Everything here goes through the program's public API and its *default*
constructors, so the benchmark measures what ships by default (the one
exception is ``serve-mixed``, which is about durability and therefore sets
``durable_dir`` / ``wal_fsync`` / ``checkpoint_every``).

A cycle is a fixed, seeded list of steps that ends in the state it started
from: every link-down window has its link-up window, every withdraw its
re-announce.  Cycle contents are *stratified*: a cycle holds a fixed count of
operations from each cost class (a flap that cuts off a prefix's origin costs
~100x one that does not), and the seed only picks which members of a class
take part and in which order.  With plain random draws the share of expensive
operations — and with it every percentile — would move from seed to seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import DistributedQueryEngine, NetTrailsRuntime, QueryOptions
from repro.durability import ServiceRuntime
from repro.engine import topology as topologies
from repro.engine.topology import Topology
from repro.protocols import mincost, prefix_routing
from repro.workloads import ChurnOp, ZipfSampler, apply_churn_op

from bench.kernel import Pacer

Key = Tuple[object, ...]

#: The hierarchy generator's own seed (it draws the lateral tier-2 peering).
#: Fixed: which tier-2s peer is part of the system's shape, like the node
#: count, and it moves the message counts by ~3 % — more than everything the
#: benchmark's seed draws (origins, cycle contents, order, targets) together.
TOPOLOGY_SEED = 0


@dataclass(frozen=True)
class Commit:
    """One window: apply the mutators, run to quiescence."""

    ops: Tuple[ChurnOp, ...]
    label: str


@dataclass(frozen=True)
class Query:
    """One provenance query on the first of *keys* currently present.

    A key is the leading attributes of a row (location first).  Later keys
    are stand-ins for the moments a flap has taken the first one away.
    """

    relation: str
    keys: Tuple[Key, ...]
    mode: str


@dataclass(frozen=True)
class Pair:
    """A down window, its up window, and the nodes whose links they touch."""

    down: Commit
    up: Commit
    nodes: FrozenSet[str]


class System:
    """A built system under test and what the checks need to know about it."""

    def __init__(
        self,
        runtime: NetTrailsRuntime,
        options: QueryOptions,
        state_relations: Sequence[str],
        reference: Callable[[NetTrailsRuntime], bool],
        origins: Sequence[Tuple[str, str]] = (),
        service: Optional[ServiceRuntime] = None,
        durable_dir: Optional[Path] = None,
    ) -> None:
        self.runtime = runtime
        self.options = options
        self.state_relations = tuple(state_relations)
        self.reference = reference
        self.origins = list(origins)
        self.service = service
        self.durable_dir = durable_dir
        self.engine = None if service is not None else DistributedQueryEngine(runtime)

    def commit(self, ops: Sequence[ChurnOp]) -> None:
        if self.service is not None:
            self.service.commit(ops)
            return
        for op in ops:
            apply_churn_op(self.runtime, op)
        self.runtime.run_to_quiescence()

    def query(self, relation: str, values: Sequence[object], mode: str):
        if self.service is not None:
            return self.service.query(relation, values, mode=mode, options=self.options)
        return self.engine.query(relation, list(values), mode=mode, options=self.options)

    def resolve(self, query: Query) -> Tuple[object, ...]:
        """The current row for the first present key of *query* (not timed)."""
        for key in query.keys:
            for row in self.runtime.node_state(key[0], query.relation):
                if row[: len(key)] == key:
                    return row
        raise LookupError(f"none of the candidate rows of {query} is present")

    def base_state(self) -> Dict[str, object]:
        """What must be identical at the start and the end of every cycle."""
        state: Dict[str, object] = {
            relation: self.runtime.state(relation) for relation in self.state_relations
        }
        state["provenance.table_sizes"] = self.runtime.provenance.table_sizes()
        return state

    def reference_ok(self) -> bool:
        """The distributed fixpoint against the protocol's offline reference."""
        return self.reference(self.runtime)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        else:
            self.runtime.close()


class Step:
    """Run set-up steps under a pacer: each step's time is measured work."""

    def __init__(self, pacer: Pacer) -> None:
        self.pacer = pacer

    def __call__(self, function: Callable, *args, **kwargs):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        self.pacer.account(time.perf_counter() - started)
        return result


# -- seeded helpers -----------------------------------------------------------


def rng_for(seed: int, *salt: object) -> random.Random:
    """An independent generator per (seed, purpose); string seeding is hash-seed free."""
    return random.Random(f"{seed}/" + "/".join(str(part) for part in salt))


def systematic_sample(items: Sequence, count: int, rng: random.Random) -> List:
    """*count* items at an even stride through *items*, from a seeded offset.

    Over a list sorted by cost class this is a proportional stratified sample:
    every seed draws (to within one) the same number from each class.
    """
    if count > len(items):
        raise ValueError(f"cannot draw {count} distinct items from {len(items)}")
    if not count:
        return []
    offset = rng.random()
    stride = len(items) / count
    return [items[int((index + offset) * stride)] for index in range(count)]


def interleave(pairs: Sequence[Pair], rng: random.Random, max_open: int = 2) -> List[Commit]:
    """Order the windows: a pair's up follows its down by zero to a few windows.

    At most *max_open* pairs are open at once and no two open pairs touch the
    same node, so every window is valid against the base topology.
    """
    pending = list(pairs)
    opened: List[Pair] = []
    windows: List[Commit] = []
    while pending or opened:
        busy = frozenset().union(*(pair.nodes for pair in opened)) if opened else frozenset()
        may_open = bool(pending) and len(opened) < max_open and not (pending[0].nodes & busy)
        if may_open and (not opened or rng.random() < 0.5):
            pair = pending.pop(0)
            windows.append(pair.down)
            opened.append(pair)
        else:
            windows.append(opened.pop(0).up)
    return windows


def scaled(count: int, fraction: float) -> int:
    """A class's share of a partial (warm-up) cycle: at least one if it has any."""
    return count if fraction >= 1.0 else (math.ceil(count * fraction) if count else 0)


# -- the ISP hierarchy and its cost classes -----------------------------------------


def _tier(node: str) -> str:
    return node.split("_")[0]


def _t2_of(stub: str) -> str:
    _, i, j, _k = stub.split("_")
    return f"t2_{i}_{j}"


def _t1_of(t2: str) -> str:
    return f"t1_{t2.split('_')[1]}"


def link_pair(a: str, b: str, cost: float, label: str) -> Pair:
    return Pair(
        down=Commit((ChurnOp.remove_link(a, b),), f"{label}-down"),
        up=Commit((ChurnOp.add_link(a, b, cost),), f"{label}-up"),
        nodes=frozenset((a, b)),
    )


def node_pair(topology: Topology, node: str, label: str) -> Pair:
    links = [(node, neighbor, topology.cost(node, neighbor)) for neighbor in topology.neighbors(node)]
    return Pair(
        down=Commit(tuple(ChurnOp.remove_link(a, b) for a, b, _ in links), f"{label}-down"),
        up=Commit(tuple(ChurnOp.add_link(a, b, cost) for a, b, cost in links), f"{label}-up"),
        nodes=frozenset([node] + [neighbor for _, neighbor, _ in links]),
    )


def prefix_pair(origin: str, prefix: str) -> Pair:
    return Pair(
        down=Commit((ChurnOp.delete("prefix", origin, prefix, 0.0),), "withdraw"),
        up=Commit((ChurnOp.insert("prefix", origin, prefix, 0.0),), "announce"),
        nodes=frozenset(),
    )


def _lateral_links(topology: Topology, t2: str) -> int:
    return sum(1 for neighbor in topology.neighbors(t2) if _tier(neighbor) == "t2")


def place_origins(
    topology: Topology, prefixes: int, seed: int, cut_off: Optional[int] = None
) -> List[Tuple[str, str]]:
    """One prefix per tier-2 subtree, at a seeded stub of seeded distinct subtrees.

    Distinct subtrees keep "this uplink leads to an origin" a yes/no property.
    *cut_off* fixes how many origins sit below a tier-2 without lateral peering:
    cutting such an uplink withdraws the prefix everywhere (~6000 messages at
    1010 nodes) where a peered one only reroutes it (~2150).
    """
    rng = rng_for(seed, "origins")
    t2s = sorted(node for node in topology.nodes if _tier(node) == "t2")
    if cut_off is None:
        chosen = rng.sample(t2s, prefixes)
    else:
        isolated = [t2 for t2 in t2s if not _lateral_links(topology, t2)]
        peered = [t2 for t2 in t2s if _lateral_links(topology, t2)]
        chosen = rng.sample(isolated, cut_off) + rng.sample(peered, prefixes - cut_off)
    origins = []
    for index, t2 in enumerate(sorted(chosen)):
        stubs = sorted(n for n in topology.neighbors(t2) if _tier(n) == "stub")
        origins.append((rng.choice(stubs), f"p{index}"))
    return origins


def routing_steps(
    system: System, pairs: List[Pair], queries_per_commit: int, rng: random.Random
) -> List[object]:
    """Shuffle and interleave the pairs; follow each window with lineage queries
    on ``best`` rows.  A query has six (node, prefix) candidates from distinct
    prefixes, so that two open windows cannot take all of them away."""
    rng.shuffle(pairs)
    nodes = sorted(system.runtime.topology.nodes)
    prefixes = [prefix for _, prefix in system.origins]
    steps: List[object] = []
    for window in interleave(pairs, rng):
        steps.append(window)
        for _ in range(queries_per_commit):
            picked = rng.sample(prefixes, min(6, len(prefixes)))
            steps.append(Query("best", tuple((rng.choice(nodes), prefix) for prefix in picked), "lineage"))
    return steps


def _routing_reference(origins: Sequence[Tuple[str, str]]) -> Callable[[NetTrailsRuntime], bool]:
    return lambda runtime: prefix_routing.check_against_reference(runtime, runtime.topology, origins)


def build_routing(size: Dict[str, object], seed: int, step: Step) -> System:
    """Prefix routing over an ISP hierarchy, through the default constructor."""
    topology = step(topologies.isp_hierarchy, *size["dims"], seed=TOPOLOGY_SEED)
    runtime = step(NetTrailsRuntime, prefix_routing.SOURCE, topology)
    step(runtime.seed_links, run=True)
    origins = place_origins(topology, size["prefixes"], seed, size.get("cut_off_origins"))
    for start in range(0, len(origins), 4):  # steps of at most ~1 s, a kernel burst after each
        step(prefix_routing.announce, runtime, origins[start : start + 4])
    return step(
        System,
        runtime,
        QueryOptions.baseline(),
        ("link", "prefix", "route", "best"),
        _routing_reference(origins),
        origins,
    )


def plan_churn_scale(system: System, size: Dict[str, object], seed: int, fraction: float) -> List[object]:
    topology = system.runtime.topology
    rng = rng_for(seed, "churn-scale", fraction)
    origin_t2 = sorted({_t2_of(origin) for origin, _ in system.origins})
    t2s = sorted(node for node in topology.nodes if _tier(node) == "t2")
    classes = (
        ("cutoff_uplink", [t2 for t2 in origin_t2 if not _lateral_links(topology, t2)]),
        ("reroute_uplink", [t2 for t2 in origin_t2 if _lateral_links(topology, t2)]),
        ("plain_uplink", [t2 for t2 in t2s if t2 not in origin_t2]),
    )
    pairs = [
        link_pair(_t1_of(t2), t2, 1.0, label)
        for label, members in classes
        # proportional over peered and unpeered tier-2s: the plain class has both
        for t2 in systematic_sample(
            sorted(members, key=lambda t2: (_lateral_links(topology, t2), t2)),
            scaled(size[f"{label}_pairs"], fraction),
            rng,
        )
    ]
    return routing_steps(system, pairs, size["queries_per_commit"], rng)


def plan_churn_flap(system: System, size: Dict[str, object], seed: int, fraction: float) -> List[object]:
    topology = system.runtime.topology
    rng = rng_for(seed, "churn-flap", fraction)
    origin_stubs = sorted(origin for origin, _ in system.origins)
    origin_t2 = {_t2_of(stub) for stub in origin_stubs}
    t2s = sorted(node for node in topology.nodes if _tier(node) == "t2")
    t1s = sorted(node for node in topology.nodes if _tier(node) == "t1")
    plain_stubs = sorted(n for n in topology.nodes if _tier(n) == "stub" and n not in origin_stubs)
    plain_t2 = [t2 for t2 in t2s if t2 not in origin_t2]
    mesh = [(a, b) for index, a in enumerate(t1s) for b in t1s[index + 1 :]]

    def count(name: str) -> int:
        return scaled(size[name], fraction)

    # One draw for both stub classes: a stub fails as a node or flaps its link, not both.
    stubs = rng.sample(plain_stubs, count("stub_node_pairs") + count("plain_stub_link_pairs"))
    stub_nodes, stub_links = stubs[: count("stub_node_pairs")], stubs[count("stub_node_pairs") :]
    plain_t2_drawn = rng.sample(plain_t2, count("plain_t2_node_pairs") + count("plain_uplink_pairs"))
    plain_t2_nodes = plain_t2_drawn[: count("plain_t2_node_pairs")]
    plain_uplinks = plain_t2_drawn[count("plain_t2_node_pairs") :]
    pairs = (
        [prefix_pair(*origin) for origin in rng.sample(system.origins, count("prefix_toggles"))]
        + [node_pair(topology, stub, "stub-node") for stub in stub_nodes]
        + [node_pair(topology, t2, "plain-t2-node") for t2 in plain_t2_nodes]
        + [
            node_pair(topology, t2, "origin-t2-node")
            for t2 in rng.sample(sorted(origin_t2), count("origin_t2_node_pairs"))
        ]
        + [link_pair(stub, _t2_of(stub), 1.0, "plain-stub-link") for stub in stub_links]
        + [
            link_pair(stub, _t2_of(stub), 1.0, "origin-stub-link")
            for stub in rng.sample(origin_stubs, count("origin_stub_link_pairs"))
        ]
        + [link_pair(_t1_of(t2), t2, 1.0, "plain-uplink") for t2 in plain_uplinks]
        + [link_pair(a, b, 1.0, "mesh-link") for a, b in rng.sample(mesh, count("mesh_link_pairs"))]
    )
    return routing_steps(system, pairs, size["queries_per_commit"], rng)


# -- query-deep ---------------------------------------------------------------------


def build_query_deep(size: Dict[str, object], seed: int, step: Step) -> System:
    """MINCOST (the paper's demo protocol) on a grid: many equal-cost derivations."""
    topology = step(topologies.grid, *size["grid"])
    runtime = step(NetTrailsRuntime, mincost.source_with_bound(size["max_cost"]), topology)
    step(runtime.seed_links, run=True)
    bound = size["max_cost"]

    def reference(runtime: NetTrailsRuntime) -> bool:
        # The recursion carries "C < bound", so only closer pairs have a row.
        expected = {
            pair: cost
            for pair, cost in mincost.reference(runtime.topology).items()
            if cost < bound and pair[0] != pair[1]
        }
        return {(s, d): c for (s, d, c) in runtime.state("minCost")} == expected

    return step(System, runtime, QueryOptions.baseline(), ("link", "path", "minCost"), reference)


def _grid_position(name: str) -> Tuple[int, int]:
    row, column = name[1:].split("_")  # "n3_7"
    return int(row), int(column)


def _grid_shape(row: Tuple[object, ...]) -> Tuple[float, int]:
    """(cost, min(dx, dy)): rows of one shape have the same number of derivations."""
    (ax, ay), (bx, by) = _grid_position(row[0]), _grid_position(row[1])
    return (row[2], min(abs(ax - bx), abs(ay - by)))


def plan_query_deep(system: System, size: Dict[str, object], seed: int, fraction: float) -> List[object]:
    topology = system.runtime.topology
    rng = rng_for(seed, "query-deep", fraction)
    eligible = sorted(
        (row for row in system.runtime.state("minCost") if row[2] >= size["min_query_cost"]),
        key=lambda row: (_grid_shape(row), row),
    )
    targets = systematic_sample(eligible, scaled(size["queries"], fraction), rng)
    # lineage .5 / participants .25 / subgraph .25, dealt over the shape-sorted
    # sample so that every shape is asked in every mode.
    modes = ("lineage", "participants", "lineage", "subgraph")
    queries = [
        Query(
            "minCost",
            (row[:2], targets[(index + 1) % len(targets)][:2], targets[(index + 2) % len(targets)][:2]),
            modes[index % 4],
        )
        for index, row in enumerate(targets)
    ]
    rng.shuffle(queries)
    rows, columns = size["grid"]

    def depth(edge: Tuple[str, str]) -> int:
        """How far inside the grid an edge lies: inner edges carry more shortest paths."""
        return sum(
            min(row, rows - 1 - row, column, columns - 1 - column)
            for row, column in map(_grid_position, edge)
        )

    # Inner edges only: they all cost 76 + 78 messages a flap pair, where border
    # edges cost from 29; commits are few here, so their class must be one.
    edges = sorted(
        (edge for edge in topology.edges if depth(edge) >= size["min_edge_depth"]),
        key=lambda edge: (depth(edge), edge),
    )
    pairs = [
        link_pair(a, b, topology.cost(a, b), "grid-edge")
        for a, b in systematic_sample(edges, scaled(size["edge_pairs"], fraction), rng)
    ]
    rng.shuffle(pairs)
    windows = interleave(pairs, rng)
    steps: List[object] = []
    for index, query in enumerate(queries, start=1):
        steps.append(query)
        if index % size["queries_per_window"] == 0 and windows:
            steps.append(windows.pop(0))
    steps.extend(windows)  # whatever a partial cycle did not fit between queries
    return steps


# -- serve-mixed ----------------------------------------------------------------------


def build_serve_mixed(size: Dict[str, object], seed: int, step: Step, scratch: Path) -> System:
    """A durable query-serving service: WAL with fsync, periodic checkpoints, caches on."""
    topology = step(topologies.isp_hierarchy, *size["dims"], seed=TOPOLOGY_SEED)
    durable_dir = scratch / "durable"
    service = step(
        ServiceRuntime,
        "prefix_routing",
        topology,
        durable_dir=durable_dir,
        wal_fsync=True,
        checkpoint_every=size["checkpoint_every"],
    )
    step(service.seed_links)
    origins = place_origins(topology, size["prefixes"], seed)
    for start in range(0, len(origins), 4):
        step(
            service.commit,
            [ChurnOp.insert("prefix", node, prefix, 0.0) for node, prefix in origins[start : start + 4]],
        )
    return System(
        service.runtime,
        QueryOptions(use_cache=True),
        ("link", "prefix", "route", "best"),
        _routing_reference(origins),
        origins,
        service=service,
        durable_dir=durable_dir,
    )


def plan_serve_mixed(system: System, size: Dict[str, object], seed: int, fraction: float) -> List[object]:
    topology = system.runtime.topology
    rng = rng_for(seed, "serve-mixed", fraction)
    operations = scaled(size["operations"], fraction)
    commits = operations // size["operations_per_commit"]
    commits -= commits % 2
    toggles = min(scaled(size["prefix_toggles"], fraction), commits // 2)
    origin_stubs = {origin for origin, _ in system.origins}
    plain_stubs = sorted(n for n in topology.nodes if _tier(n) == "stub" and n not in origin_stubs)
    pairs = [prefix_pair(*origin) for origin in rng.sample(system.origins, toggles)] + [
        link_pair(stub, _t2_of(stub), 1.0, "plain-stub-link")
        for stub in rng.sample(plain_stubs, commits // 2 - toggles)
    ]
    rng.shuffle(pairs)
    windows = interleave(pairs, rng)
    # Zipf over a seeded ranking of the base state's best rows: the hot set is
    # a handful of rows, the tail is far larger than the 256-entry node caches.
    ranked = sorted(system.runtime.state("best"))
    rng.shuffle(ranked)
    sampler = ZipfSampler(len(ranked), size["zipf_s"])
    queries_total = operations - len(windows)
    modes = ["lineage"] * round(queries_total * 0.6) + ["participants"] * round(queries_total * 0.25)
    modes += ["subgraph"] * (queries_total - len(modes))
    rng.shuffle(modes)
    steps: List[object] = []
    for index in range(operations):
        if (index + 1) % size["operations_per_commit"] == 0 and windows:
            steps.append(windows.pop(0))
            continue
        mode = modes.pop() if modes else "lineage"
        keys = tuple(ranked[sampler.sample(rng)][:2] for _ in range(6))
        steps.append(Query("best", keys, mode))
    steps.extend(windows)
    return steps


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., System]
    plan: Callable[[System, Dict[str, object], int, float], List[object]]
    needs_scratch: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "churn-scale",
            "1010-node hierarchy, uplink flaps: wide fan-out and large state; evaluator, store, "
            "provenance maintenance and message transit do the work, memory is at its largest",
            build_routing,
            plan_churn_scale,
        ),
        Workload(
            "churn-flap",
            "105 nodes, small mixed windows on state that fits in cache: per-window fixed cost "
            "(simulator, drain scheduling, per-message overhead) dominates; bulk gains with set-up cost lose here",
            build_routing,
            plan_churn_flap,
        ),
        Workload(
            "query-deep",
            "uncached deep queries on grid MINCOST, far beyond the node caches, with writes between: "
            "query traversal and message transit do the work; an index pays its rebuilds here",
            build_query_deep,
            plan_query_deep,
        ),
        Workload(
            "serve-mixed",
            "durable service, 96% Zipf cached queries beside 4% commits: cache hits and invalidation, "
            "WAL append+fsync and checkpoints in the commit path; shows a cache gain that costs commits",
            build_serve_mixed,
            plan_serve_mixed,
            needs_scratch=True,
        ),
    )
}
