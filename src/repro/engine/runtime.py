"""NetTrails runtime: a cluster of nodes executing one NDlog program.

:class:`NetTrailsRuntime` is the facade most users interact with.  It wires
together a compiled NDlog program, a topology, the simulated network, one
:class:`~repro.engine.node.Node` per topology node, and (by default) the
ExSPAN provenance engine.  It offers convenience methods for seeding base
tuples from the topology, mutating the topology at runtime (the dynamic /
mobile scenarios of the paper) and inspecting global state; snapshots for the
log store come from :func:`repro.logstore.snapshot.take_snapshot`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import EngineError, UnknownNodeError
from repro.ndlog.ast import Program
from repro.ndlog.functions import FunctionRegistry
from repro.ndlog.parser import parse_program
from repro.engine.compiler import CompiledProgram, compile_program
from repro.engine.network import Network, TrafficStats
from repro.engine.node import Node
from repro.engine.simulator import Simulator
from repro.engine.topology import Topology
from repro.engine.tuples import Fact
from repro.obs import Observability

if TYPE_CHECKING:  # the maintenance engine imports this package
    from repro.core.maintenance import ProvenanceEngine

def validate_durable_dir(path: Union[str, "os.PathLike[str]"]) -> str:
    """Check (and create, if missing) a durable directory; returns its path.

    Raises :class:`~repro.errors.EngineError` when the path is empty, names
    an existing non-directory, cannot be created, or is not writable.
    """
    text = os.fspath(path)
    if not text:
        raise EngineError("durable_dir must not be empty")
    if os.path.exists(text) and not os.path.isdir(text):
        raise EngineError(f"durable_dir {text!r} exists but is not a directory")
    try:
        os.makedirs(text, exist_ok=True)
    except OSError as exc:
        raise EngineError(f"cannot create durable_dir {text!r}: {exc}") from exc
    if not os.access(text, os.W_OK):
        raise EngineError(f"durable_dir {text!r} is not writable")
    return text


class NetTrailsRuntime:
    """A running (simulated) distributed system with provenance tracking.

    The runtime accepts an NDlog program (source text or parsed
    :class:`~repro.ndlog.ast.Program`) and a :class:`Topology`; it compiles
    and localizes the program, builds one node per topology vertex and wires
    them through the simulated network.  Base tuples go in through
    :meth:`insert` / :meth:`insert_batch`, virtual time advances through
    :meth:`run` / :meth:`run_to_quiescence`, and global state comes back out
    through :meth:`state`.  The runtime is a context manager —
    ``with NetTrailsRuntime(...) as runtime:`` closes the write-ahead log on
    exit.  Every node holds one :class:`~repro.engine.store.TupleStore`
    driven by the semi-naive joins compiled for its program, and one simulator event loop
    runs every node's work in ``(time, sequence)`` order.

    **Constructor knobs** (this is the canonical table; every other
    docstring defers to it):

    ================================ ==========================================
    knob (default)                   effect
    ================================ ==========================================
    ``program``                      NDlog source text or a parsed ``Program``
    ``topology``                     the :class:`Topology` to build nodes for
    ``provenance`` (True)            ``True`` = ExSPAN prov/ruleExec engine
                                     (:class:`ProvenanceEngine`), ``False`` =
                                     off
    ``default_latency`` (0.01)       virtual seconds per non-link message hop
    ``link_latency`` (0.01)          virtual seconds per topology-link hop
    ``registry`` (None)              a custom :class:`FunctionRegistry`
    ``program_name`` (None)          name used when parsing source text
    ``durable_dir`` (None)           write-ahead-log directory; turns on
                                     durable commit-per-quiescence-window mode
    ``wal_fsync`` (True)             fsync barrier per WAL append
    ``observability`` (False)        ``True`` attaches the :mod:`repro.obs`
                                     telemetry bundle (metrics registry,
                                     query tracing, flight recorder) as
                                     :attr:`obs`
    ================================ ==========================================

    No environment variable changes a runtime: every knob is an argument.

    See ``docs/performance.md`` for which configuration pays off when.

    >>> from repro.engine import topology
    >>> runtime = NetTrailsRuntime("r1 reach(@D, S) :- edge(@S, D).", topology.line(2))
    >>> _ = runtime.insert_batch("edge", [["n0", "n1"], ["n1", "n0"]], run=True)
    >>> runtime.state("reach")
    [('n0', 'n1'), ('n1', 'n0')]
    """

    def __init__(
        self,
        program: Union[Program, str],
        topology: Topology,
        provenance: bool = True,
        default_latency: float = 0.01,
        link_latency: float = 0.01,
        registry: Optional[FunctionRegistry] = None,
        program_name: Optional[str] = None,
        durable_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        wal_fsync: bool = True,
        observability: bool = False,
    ):
        self._program_source = program if isinstance(program, str) else None
        if isinstance(program, str):
            program = parse_program(program, name=program_name or "program")
        self.program = program
        self.compiled: CompiledProgram = compile_program(program, registry)
        self.topology = topology
        self.simulator = Simulator()
        self.network = Network(self.simulator, default_latency=default_latency)
        self._default_latency = default_latency
        self._link_latency = link_latency
        self._link_relation: Optional[str] = None
        self._link_symmetric = True
        self._link_include_cost = True

        if not isinstance(provenance, bool):
            raise TypeError(f"provenance must be True or False, not {provenance!r}")
        self.provenance: Optional[ProvenanceEngine] = None
        if provenance:
            from repro.core import maintenance  # avoid an import cycle

            self.provenance = maintenance.ProvenanceEngine(self.compiled)
        #: The query engine whose agents handle the nodes' query messages.
        self.query_engine = None
        if not isinstance(observability, bool):
            raise TypeError(f"observability must be True or False, not {observability!r}")
        #: The attached :class:`repro.obs.Observability` bundle, or ``None``
        #: when the subsystem is off (the default).  Purely observational:
        #: excluded from ``_durable_knobs()`` and every bit-identity surface.
        self.obs: Optional[Observability] = Observability() if observability else None
        self.nodes: Dict[object, Node] = {}
        for name in topology.nodes:
            self.nodes[name] = Node(
                name,
                self.compiled,
                self.network,
                self.provenance,
                observability=self.obs,
            )
        for source, target, cost in topology.directed_edges():
            self.network.add_link(source, target, cost=cost, latency=link_latency)
        self._bind_observability()

        #: Durable mode (see :mod:`repro.durability`): with ``durable_dir=``
        #: set, every mutator call
        #: is buffered as a logical op and committed as one write-ahead-log
        #: ``batch`` record when :meth:`run_to_quiescence` begins (append +
        #: flush *before* the simulator drains, so a crash mid-window
        #: replays the whole window).  ``wal_fsync`` is the fsync barrier
        #: knob: ``True`` fsyncs every append, ``False`` only flushes.
        self.wal_fsync = bool(wal_fsync)
        self.durable_dir: Optional[str] = None
        self._wal = None
        self._checkpoint_writer = None
        self._pending_ops: List[List[object]] = []
        self._oplog_suspended = 0
        self._committed_batches = 0
        if durable_dir is not None:
            self._open_durable(durable_dir)

    # -- observability -------------------------------------------------------------

    def _bind_observability(self) -> None:
        """Register registry views over the existing counter surfaces.

        Views are lazy closures: the instrumented code keeps mutating its
        plain counters and the registry only reads them at collect time, so
        this costs nothing per event.  The ``subsystem.metric`` naming scheme
        unifies what used to be differently-shaped dict accessors (the
        query-engine ``cache`` view registers itself when a
        :class:`~repro.core.query.DistributedQueryEngine` is built).
        """
        obs = self.obs
        if obs is None:
            return
        import dataclasses

        registry = obs.registry

        def node_totals() -> Dict[str, object]:
            totals: Dict[str, int] = {}
            for node in self.nodes.values():
                for key, value in dataclasses.asdict(node.stats).items():
                    totals[key] = totals.get(key, 0) + value
            return dict(totals)

        registry.register_view("node", node_totals)
        registry.register_view(
            "simulator",
            lambda: {
                "rounds": self.simulator.rounds,
                "events": self.simulator.processed_events,
            },
        )
        registry.register_view(
            "traffic",
            lambda: {
                key: value
                for key, value in self.network.stats.snapshot().items()
                if isinstance(value, (int, float))
            },
        )
        provenance = self.provenance
        if provenance is not None:
            registry.register_view("vid_versions", provenance.vid_version_stats)

        def wal_stats() -> Dict[str, object]:
            wal = self._wal
            if wal is None:
                return {}
            return wal.counters()

        registry.register_view("wal", wal_stats)

    # -- durability -----------------------------------------------------------------

    def _open_durable(self, durable_dir: Union[str, "os.PathLike[str]"]) -> None:
        from repro.durability import checkpoint as checkpoint_mod
        from repro.durability import wal as wal_mod

        if self._program_source is None:
            raise EngineError(
                "durable mode needs the NDlog source text to journal; construct "
                "the runtime from source (e.g. protocol module SOURCE) rather "
                "than a parsed Program"
            )
        path = validate_durable_dir(durable_dir)
        wal_file = wal_mod.wal_path(path)
        if wal_file.exists() and wal_file.stat().st_size > len(wal_mod.MAGIC):
            raise EngineError(
                f"durable_dir {path!r} already holds a WAL; a fresh runtime "
                "would fork its history — recover it with "
                "repro.durability.RecoveryManager instead"
            )
        self.durable_dir = path
        self._wal = wal_mod.WriteAheadLog(path, fsync=self.wal_fsync)
        self._checkpoint_writer = checkpoint_mod.CheckpointWriter()
        self._wal.append(
            wal_mod.RECORD_INIT,
            {
                "program_name": self.compiled.name,
                "source": self._program_source,
                "topology": checkpoint_mod.topology_doc(self.topology),
                "knobs": self._durable_knobs(),
            },
        )

    def _durable_knobs(self) -> Dict[str, object]:
        """The construction knobs recovery must reproduce.

        ``observability`` is deliberately absent: telemetry is invisible to
        replayed state, so a recovering process decides afresh.
        """
        return {
            "default_latency": self._default_latency,
            "link_latency": self._link_latency,
        }

    def _attach_wal(self, wal, durable_dir: str, committed_batches: int) -> None:
        """Adopt an already-positioned WAL (recovery's tail-append hook)."""
        from repro.durability.checkpoint import CheckpointWriter

        self.durable_dir = durable_dir
        self.wal_fsync = wal.fsync
        self._wal = wal
        self._checkpoint_writer = CheckpointWriter()
        self._committed_batches = committed_batches

    def _log_op(self, op: List[object]) -> None:
        if self._wal is not None and not self._oplog_suspended:
            self._pending_ops.append(op)

    class _SuspendOplog:
        def __init__(self, runtime: "NetTrailsRuntime"):
            self._runtime = runtime

        def __enter__(self) -> None:
            self._runtime._oplog_suspended += 1

        def __exit__(self, exc_type, exc_value, traceback) -> None:
            self._runtime._oplog_suspended -= 1

    def _suspend_oplog(self) -> "NetTrailsRuntime._SuspendOplog":
        """Composite mutators (``seed_links``, ``add_link``) journal one op
        and suppress the journalling of their internal primitive calls."""
        return NetTrailsRuntime._SuspendOplog(self)

    def _commit_pending(self) -> None:
        if self._wal is None or not self._pending_ops:
            return
        ops = self._pending_ops
        self._pending_ops = []
        self._committed_batches += 1
        from repro.durability.wal import RECORD_BATCH

        self._wal.append(
            RECORD_BATCH, {"batch": self._committed_batches, "ops": ops}
        )

    def checkpoint(self, label: str = "", keep: int = 3):
        """Compact the WAL prefix into a logstore snapshot (durable mode only).

        Writes the full system snapshot to
        ``<durable_dir>/snapshots/ckpt-NNNNNN.json`` (pruning all but the
        newest *keep* files) and appends a ``checkpoint`` WAL record carrying
        the state digest plus an embedded base-fact bootstrap, which is what
        ``RecoveryManager.recover(mode="checkpoint")`` restores from.  Only
        partitions whose content changed since the previous checkpoint are
        serialised again (:class:`repro.durability.checkpoint.CheckpointWriter`).
        The runtime must be quiescent (no uncommitted ops), and *keep* must
        not be negative.  Returns the snapshot file path.
        """
        if self._wal is None:
            raise EngineError("checkpoint() requires a durable runtime (durable_dir=)")
        if keep < 0:
            raise EngineError(f"checkpoint keep must be >= 0, got {keep}")
        if self._pending_ops:
            raise EngineError(
                "uncommitted mutations pending; call run_to_quiescence() "
                "before checkpoint()"
            )
        from repro.durability import checkpoint as checkpoint_mod
        from repro.durability.wal import RECORD_CHECKPOINT

        batch = self._committed_batches
        path, record = self._checkpoint_writer.write(
            self, batch, label or f"checkpoint-{batch}"
        )
        self._wal.append(RECORD_CHECKPOINT, record)
        checkpoint_mod.prune_snapshot_files(self.durable_dir, keep)
        if self.obs is not None:
            self.obs.record_event("checkpoint", batch=batch, path=str(path))
        return path

    # -- node access ----------------------------------------------------------------

    def node(self, node_id: object) -> Node:
        if node_id not in self.nodes:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        return self.nodes[node_id]

    def node_ids(self) -> List[object]:
        return sorted(self.nodes, key=repr)

    # -- base tuple management ---------------------------------------------------------

    def seed_links(
        self,
        relation: str = "link",
        include_cost: bool = True,
        symmetric: bool = True,
        run: bool = False,
    ) -> int:
        """Insert one *relation* base tuple per topology edge (both directions).

        Returns the number of tuples inserted.  With ``run=True`` the
        simulator is run to quiescence afterwards.
        """
        self._link_relation = relation
        self._link_symmetric = symmetric
        self._link_include_cost = include_cost
        edges = self.topology.directed_edges() if symmetric else [
            (a, b, c) for (a, b), c in sorted(self.topology.edges.items())
        ]
        rows: List[List[object]] = []
        for source, target, cost in edges:
            values: List[object] = [source, target]
            if include_cost:
                values.append(cost)
            rows.append(values)
        self._log_op(["seed_links", relation, bool(include_cost), bool(symmetric)])
        with self._suspend_oplog():
            self.insert_batch(relation, rows)
        if run:
            self.run_to_quiescence()
        return len(rows)

    def _link_values(self, source: object, target: object, cost: float) -> List[object]:
        values: List[object] = [source, target]
        if self._link_include_cost:
            values.append(cost)
        return values

    def insert(self, relation: str, values: Sequence[object]) -> Fact:
        """Insert a base tuple; it is routed to the node its location attribute names.

        If the relation has a ``materialize`` primary key and a tuple with the
        same key is already stored, the old tuple is deleted first (key-based
        overwrite, as in RapidNet/P2).
        """
        fact = Fact.make(relation, values)
        location = self.compiled.catalog.location_of(fact)
        node = self.node(location)

        key = self.compiled.catalog.key_of(fact)
        if key is not None:
            schema = self.compiled.catalog.schema_or_default(relation, fact.arity)
            for existing in list(node.store.facts(relation)):
                if existing != fact and schema.key_of(existing) == key:
                    if node.has_base(existing):
                        node.delete_base(existing)
        node.insert_base(fact)
        self._log_op(["insert", relation, list(fact.values)])
        return fact

    def delete(self, relation: str, values: Sequence[object]) -> Fact:
        """Delete a base tuple previously inserted with :meth:`insert`."""
        fact = Fact.make(relation, values)
        location = self.compiled.catalog.location_of(fact)
        self.node(location).delete_base(fact)
        self._log_op(["delete", relation, list(fact.values)])
        return fact

    def insert_batch(
        self, relation: str, rows: Sequence[Sequence[object]], run: bool = False
    ) -> List[Fact]:
        """Insert many base tuples of *relation*, delivered as per-node batches.

        The rows are routed to their home nodes and each node absorbs its
        whole share in one evaluation batch (see
        :meth:`repro.engine.node.Node.apply_base_batch`), which is the
        batch-first fast path for bulk loads such as :meth:`seed_links`.
        Key-based overwrite semantics match :meth:`insert`, including between
        rows of the same batch (the last row with a given key wins).
        With ``run=True`` the simulator is run to quiescence afterwards.
        """
        # Insertion-ordered fact "sets" per node (dicts keyed by fact), so the
        # membership / overwrite bookkeeping below is O(1) per row.
        per_node_inserts: Dict[object, Dict[Fact, None]] = {}
        per_node_deletes: Dict[object, Dict[Fact, None]] = {}
        staged_by_key: Dict[Tuple[object, Tuple[object, ...]], Fact] = {}
        # Per-location index of the already-stored base facts by primary key,
        # built once so the overwrite check is O(rows + stored) rather than a
        # full-relation scan per row.
        stored_by_key: Dict[object, Dict[Tuple[object, ...], List[Fact]]] = {}
        facts: List[Fact] = []
        for values in rows:
            fact = Fact.make(relation, values)
            facts.append(fact)
            location = self.compiled.catalog.location_of(fact)
            node = self.node(location)
            inserts = per_node_inserts.setdefault(location, {})
            key = self.compiled.catalog.key_of(fact)
            if key is not None:
                schema = self.compiled.catalog.schema_or_default(relation, fact.arity)
                staged = staged_by_key.pop((location, key), None)
                if staged is not None and staged != fact:
                    inserts.pop(staged, None)
                key_index = stored_by_key.get(location)
                if key_index is None:
                    key_index = {}
                    for existing in node.store.facts(relation):
                        if node.has_base(existing):
                            key_index.setdefault(schema.key_of(existing), []).append(existing)
                    stored_by_key[location] = key_index
                deletes = per_node_deletes.setdefault(location, {})
                for existing in key_index.get(key, []):
                    if existing != fact:
                        deletes[existing] = None
                staged_by_key[(location, key)] = fact
            inserts[fact] = None
        locations = sorted(set(per_node_inserts) | set(per_node_deletes), key=repr)
        for location in locations:
            self.node(location).apply_base_batch(
                list(per_node_inserts.get(location, ())),
                list(per_node_deletes.get(location, ())),
            )
        self._log_op(["insert_batch", relation, [list(fact.values) for fact in facts]])
        if run:
            self.run_to_quiescence()
        return facts

    def delete_batch(
        self, relation: str, rows: Sequence[Sequence[object]], run: bool = False
    ) -> List[Fact]:
        """Delete many base tuples of *relation*, delivered as per-node batches."""
        per_node: Dict[object, List[Fact]] = {}
        facts: List[Fact] = []
        for values in rows:
            fact = Fact.make(relation, values)
            facts.append(fact)
            location = self.compiled.catalog.location_of(fact)
            per_node.setdefault(location, []).append(fact)
        for location in sorted(per_node, key=repr):
            self.node(location).apply_base_batch((), per_node[location])
        self._log_op(["delete_batch", relation, [list(fact.values) for fact in facts]])
        if run:
            self.run_to_quiescence()
        return facts

    # -- dynamic topology ---------------------------------------------------------------

    def add_link(self, source: str, target: str, cost: float = 1.0) -> None:
        """Add an (undirected) link at runtime, updating base tuples accordingly."""
        self.topology.add_edge(source, target, cost)
        self.network.add_link(source, target, cost=cost, latency=self._link_latency)
        self.network.add_link(target, source, cost=cost, latency=self._link_latency)
        self._log_op(["add_link", source, target, cost])
        if self._link_relation is not None:
            with self._suspend_oplog():
                self.insert(self._link_relation, self._link_values(source, target, cost))
                if self._link_symmetric:
                    self.insert(
                        self._link_relation, self._link_values(target, source, cost)
                    )

    def remove_link(self, source: str, target: str) -> None:
        """Remove a link at runtime, retracting its base tuples."""
        cost = self.topology.cost(source, target) if self.topology.has_edge(source, target) else 1.0
        self.topology.remove_edge(source, target)
        self.network.remove_link(source, target)
        self.network.remove_link(target, source)
        self._log_op(["remove_link", source, target])
        if self._link_relation is not None:
            with self._suspend_oplog():
                self.delete(self._link_relation, self._link_values(source, target, cost))
                if self._link_symmetric:
                    self.delete(
                        self._link_relation, self._link_values(target, source, cost)
                    )

    # -- execution ---------------------------------------------------------------------

    def run(self, duration: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulator for *duration* seconds of virtual time (or until idle)."""
        if self._wal is not None and self._pending_ops:
            raise EngineError(
                "durable runtimes commit mutations in whole quiescence windows; "
                "call run_to_quiescence() instead of run() while ops are pending"
            )
        until = None if duration is None else self.simulator.now + duration
        return self.simulator.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> int:
        """Run until no messages or events remain in flight.

        In durable mode the pending mutation window is committed to the
        write-ahead log *first* (append + flush before the simulator drains),
        so the WAL is strictly ahead of the in-memory state it describes.
        """
        self._commit_pending()
        obs = self.obs
        if obs is not None and obs.tracer.current() is None:
            # Root a "window" trace so drain spans have a parent.
            span = obs.tracer.start_span("window")
            previous = obs.tracer.set_current(span.context())
            try:
                events = self._drain_window(max_events)
            finally:
                obs.tracer.set_current(previous)
                span.finish()
            span.attrs["events"] = events
            return events
        return self._drain_window(max_events)

    def _drain_window(self, max_events: int) -> int:
        events = self.simulator.run_to_quiescence(max_events=max_events)
        # The window's one reachability walk (nothing to walk until a version
        # is handed out): per-VID versions are current whenever we are quiescent.
        if self.provenance is not None:
            self.provenance.flush_reachability()
        return events

    @property
    def now(self) -> float:
        return self.simulator.now

    def close(self) -> None:
        """Release the WAL handle; idempotent (a no-op when not durable)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "NetTrailsRuntime":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- state inspection -----------------------------------------------------------------

    def state(self, relation: str) -> List[Tuple[object, ...]]:
        """The global contents of *relation*: value tuples from every node, sorted."""
        rows: List[Tuple[object, ...]] = []
        for node in self.nodes.values():
            rows.extend(fact.values for fact in node.store.facts(relation))
        return sorted(rows, key=repr)

    def node_state(self, node_id: object, relation: str) -> List[Tuple[object, ...]]:
        """The contents of *relation* stored at one node."""
        return sorted(
            (fact.values for fact in self.node(node_id).store.facts(relation)), key=repr
        )

    def relation_sizes(self) -> Dict[str, int]:
        """Total number of stored facts per relation across the whole system."""
        sizes: Dict[str, int] = {}
        for node in self.nodes.values():
            for relation in node.store.relations():
                sizes[relation] = sizes.get(relation, 0) + node.store.count(relation)
        return dict(sorted(sizes.items()))

    def total_facts(self) -> int:
        return sum(node.store.count() for node in self.nodes.values())

    def message_stats(self) -> TrafficStats:
        return self.network.stats
