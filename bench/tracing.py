"""Per-layer spans recorded from outside the program.

The traced run wraps the layers' public entry points (listed in
:data:`ENTRY_POINTS`) with span recorders and leaves the program's source
untouched.  A span is ``(name, start, end, parent)`` on an in-memory stack;
a span's *self time* is its duration minus the time its child spans cover,
so the self times of all spans under one operation add up to exactly that
operation's duration — whatever no wrapper covers stays with the root span
(``bench:commit`` / ``bench:query``) and is reported as ``untraced``.

Span names are ``<layer>:<entry>``; the layer is the repository module the
entry point belongs to.  Entry points are resolved by dotted path when the
tracer is installed and skipped when absent, so a later change that deletes
a store or a backend does not have to edit the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, class-or-None, attribute).  Subclass overrides of a listed
#: method are wrapped too (``SerialBackend.execute_wave``,
#: ``ColumnarTupleStore.apply_delta_batch``...).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("ndlog", "repro.engine.runtime", None, "parse_program"),
    ("engine.compiler", "repro.engine.runtime", None, "compile_program"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "__init__"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "seed_links"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "insert"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "delete"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "insert_batch"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "delete_batch"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "add_link"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "remove_link"),
    ("engine.runtime", "repro.engine.runtime", "NetTrailsRuntime", "run_to_quiescence"),
    ("durability.checkpoint", "repro.engine.runtime", "NetTrailsRuntime", "checkpoint"),
    ("engine.simulator", "repro.engine.simulator", "Simulator", "run_to_quiescence"),
    ("engine.backends", "repro.engine.backends", "ExecutionBackend", "execute_wave"),
    ("engine.node", "repro.engine.node", "Node", "receive"),
    ("engine.node", "repro.engine.node", "Node", "insert_base"),
    ("engine.node", "repro.engine.node", "Node", "delete_base"),
    ("engine.node", "repro.engine.node", "Node", "apply_base_batch"),
    ("engine.store", "repro.engine.store", "TupleStore", "apply_delta_batch"),
    ("engine.store", "repro.engine.store", "ShardedTupleStore", "apply_delta_batch"),
    ("engine.evaluator", "repro.engine.evaluator", "LocalEvaluator", "on_batch"),
    ("core.maintenance", "repro.core.maintenance", "ProvenanceEngine", "apply_support_batch"),
    ("core.maintenance", "repro.core.maintenance", "ProvenanceEngine", "apply_rule_exec_batch"),
    ("core.maintenance", "repro.core.maintenance", "ProvenanceEngine", "record_rule_exec"),
    ("core.maintenance", "repro.core.maintenance", "ProvenanceEngine", "remove_rule_exec"),
    ("core.maintenance", "repro.core.maintenance", "ProvenanceEngine", "record_support"),
    ("core.maintenance", "repro.core.maintenance", "ProvenanceEngine", "remove_support"),
    ("engine.network", "repro.engine.network", "Network", "send"),
    ("engine.messages", "repro.engine.messages", "Message", "size_estimate"),
    ("core.query", "repro.core.query", "DistributedQueryEngine", "query"),
    ("core.optimizations", "repro.core.optimizations", "NodeQueryCache", "lookup"),
    ("core.optimizations", "repro.core.optimizations", "NodeQueryCache", "store"),
    ("core.interval_index", "repro.core.interval_index", "PartitionIntervalIndex", "closure"),
    ("core.interval_index", "repro.core.interval_index", "PartitionIntervalIndex", "ensure_ready"),
    ("durability.wal", "repro.durability.wal", "WriteAheadLog", "append"),
    ("durability.recovery", "repro.durability.recovery", "RecoveryManager", "recover"),
    ("durability.service", "repro.durability.service", "ServiceRuntime", "commit"),
    ("durability.service", "repro.durability.service", "ServiceRuntime", "query"),
)

#: Classes whose instances are remembered when a wrapped method runs on them.
CAPTURED_CLASSES = ("WriteAheadLog", "NodeQueryCache", "PartitionIntervalIndex")

#: Spans of the first operations of each kind are kept whole for the Chrome trace.
KEPT_OPS_PER_KIND = 5


class Tracer:
    """Span stack, per-(operation kind, span name) aggregates, kept spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.kind = "setup"
        #: (kind, name) -> [count, total seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.missing: List[str] = []
        #: class name -> {id: instance} of the objects whose wrapped methods ran;
        #: their public counters are read afterwards (no private attributes).
        self.instances: Dict[str, Dict[int, object]] = {name: {} for name in CAPTURED_CLASSES}
        self._stack: List[List[object]] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._op_id = 0
        self._ops_seen: Dict[str, int] = {}
        self._keeping = False
        self._events: List[Dict[str, object]] = []

    # -- span recording -------------------------------------------------------

    def wrap(self, name: str, function: Callable, capture: Optional[Dict[int, object]] = None) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            if capture is not None:
                capture[id(args[0])] = args[0]
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(frame, clock())

        return traced

    def _close(self, frame: List[object], end: float) -> None:
        stack = self._stack
        stack.pop()
        name, start, covered = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        key = (self.kind, name)
        total = self.totals.get(key)
        if total is None:
            self.totals[key] = [1, duration, duration - covered]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += duration - covered
        if self._keeping:
            self._events.append(
                {
                    "name": name,
                    "cat": name.split(":")[0],
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": 1,
                    "tid": self.kind,
                    "args": {"op": self._op_id, "depth": len(stack)},
                }
            )

    def begin_op(self, kind: str) -> None:
        """Open the root span of one benchmark operation (``commit`` / ``query``)."""
        self.kind = kind
        self._op_id += 1
        seen = self._ops_seen.get(kind, 0)
        self._ops_seen[kind] = seen + 1
        self._keeping = seen < KEPT_OPS_PER_KIND
        self._stack.append([f"bench:{kind}", time.perf_counter(), 0.0])

    def end_op(self) -> None:
        self._close(self._stack[-1], time.perf_counter())
        self._keeping = False

    def take_totals(self) -> Dict[Tuple[str, str], List[float]]:
        """Return the aggregates so far and start afresh (phase boundary)."""
        totals, self.totals = self.totals, {}
        return totals

    def write_chrome_trace(self, path) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self._events, "displayTimeUnit": "ms"}, handle)
        return len(self._events)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable entry point; remember what was absent."""
        for layer, module_name, class_name, attribute in ENTRY_POINTS:
            label = f"{module_name}.{class_name + '.' if class_name else ''}{attribute}"
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            owners = [owner] if class_name is None else _defining_classes(owner, attribute)
            for target in owners:
                self._patch(target, attribute, f"{layer}:{attribute}", self.instances.get(class_name))
        self._patch_schedule()
        self._patch_register_handler()
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every patched attribute (handlers registered meanwhile stay
        wrapped but inert: they check :attr:`enabled`)."""
        self.enabled = False
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _patch(
        self, owner: object, attribute: str, name: str, capture: Optional[Dict[int, object]] = None
    ) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, capture))

    def _patch_schedule(self) -> None:
        """Wrap callbacks handed to ``Simulator.schedule`` by their label."""
        from repro.engine.simulator import Simulator

        tracer = self
        inner = Simulator.__dict__["schedule"]

        def schedule(simulator, delay, callback, label="", key=None):
            if tracer.enabled:
                if label.startswith("drain:"):
                    callback = tracer.wrap("engine.node:drain", callback)
                elif label.startswith("deliver:"):
                    callback = tracer.wrap("engine.network:deliver", callback)
            return inner(simulator, delay, callback, label, key)

        self._patched.append((Simulator, "schedule", inner))
        Simulator.schedule = schedule

    def _patch_register_handler(self) -> None:
        """Wrap message handlers (the query agents') as ``core.query:handler``."""
        from repro.engine.node import Node

        tracer = self
        inner = Node.__dict__["register_handler"]

        def register_handler(node, category, handler):
            return inner(node, category, tracer.wrap("core.query:handler", handler))

        self._patched.append((Node, "register_handler", inner))
        Node.register_handler = register_handler


def _defining_classes(base: type, attribute: str) -> List[type]:
    """*base* and every (transitive) subclass that defines *attribute* itself."""
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if attribute in cls.__dict__ and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


# -- reading the aggregates ---------------------------------------------------


def layer_self_seconds(totals: Dict[Tuple[str, str], List[float]], kind: str) -> Dict[str, float]:
    """Self seconds per layer over the spans of one operation kind."""
    layers: Dict[str, float] = {}
    for (span_kind, name), (_count, _total, self_s) in totals.items():
        if span_kind == kind:
            layer = name.split(":")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
    return layers


def _span_sum(totals: Dict[Tuple[str, str], List[float]], name: str, kind: Optional[str], field: int) -> float:
    return sum(v[field] for (span_kind, span), v in totals.items() if span == name and kind in (None, span_kind))


def span_count(totals: Dict[Tuple[str, str], List[float]], name: str, kind: Optional[str] = None) -> int:
    return int(_span_sum(totals, name, kind, 0))


def span_total(totals: Dict[Tuple[str, str], List[float]], name: str, kind: Optional[str] = None) -> float:
    return _span_sum(totals, name, kind, 1)


def span_self(totals: Dict[Tuple[str, str], List[float]], name: str, kind: Optional[str] = None) -> float:
    return _span_sum(totals, name, kind, 2)
