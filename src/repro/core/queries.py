"""Provenance query types, expressed as distributed reducers.

ExSPAN lets users customise provenance queries; the paper lists querying "a
tuple's lineage, the set of all nodes that have been involved in the
derivation of a given tuple, and/or the total number of alternative
derivations".  All of these — and user-defined ones — are expressed here as
*reducers* over the provenance graph:

* ``base_value(tuple_ref)`` — the value of a base-tuple leaf;
* ``exec_value(exec_ref, child_values)`` — the value of a rule execution,
  combining the values of its input tuples;
* ``tuple_value(tuple_ref, derivation_values)`` — the value of a tuple
  vertex, combining the values of its alternative derivations;
* ``size(value)`` — a magnitude used by threshold-based pruning.

The distributed query engine evaluates a reducer bottom-up while traversing
the distributed ``prov`` / ``ruleExec`` tables; because every reducer is
defined by these three local combination steps, the same traversal machinery
answers every query type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, NamedTuple, Sequence

from repro.core.graph import ProvenanceGraph, TupleVertex
from repro.core.results import TupleRef

QUERY_LINEAGE = "lineage"
QUERY_PARTICIPANTS = "participants"
QUERY_COUNT = "count"
QUERY_SUBGRAPH = "subgraph"


class ExecRef(NamedTuple):
    """A lightweight reference to a rule execution (passed to reducers)."""

    rid: str
    rule_name: str
    program_name: str
    location: object


class QueryReducer:
    """Base class for provenance query reducers.

    Subclasses must provide a ``name`` attribute (the query mode string used
    to select the reducer).
    """

    def base_value(self, tuple_ref: TupleRef) -> object:
        raise NotImplementedError

    def exec_value(self, exec_ref: ExecRef, child_values: Sequence[object]) -> object:
        raise NotImplementedError

    def tuple_value(self, tuple_ref: TupleRef, derivation_values: Sequence[object]) -> object:
        raise NotImplementedError

    def size(self, value: object) -> int:
        """Magnitude of a partial result, used for threshold-based pruning."""
        return 1


class LineageReducer(QueryReducer):
    """The set of base tuples contributing to a derivation."""

    name = QUERY_LINEAGE

    def base_value(self, tuple_ref: TupleRef) -> FrozenSet[TupleRef]:
        return frozenset({tuple_ref})

    def exec_value(self, exec_ref: ExecRef, child_values: Sequence[object]) -> FrozenSet[TupleRef]:
        return frozenset().union(*child_values)

    def tuple_value(self, tuple_ref: TupleRef, derivation_values: Sequence[object]) -> FrozenSet[TupleRef]:
        if not derivation_values:
            return frozenset({tuple_ref})
        return frozenset().union(*derivation_values)

    def size(self, value: object) -> int:
        return len(value)  # type: ignore[arg-type]


class ParticipantsReducer(QueryReducer):
    """The set of nodes that participated in any derivation of the tuple."""

    name = QUERY_PARTICIPANTS

    def base_value(self, tuple_ref: TupleRef) -> FrozenSet[object]:
        return frozenset({tuple_ref.location})

    def exec_value(self, exec_ref: ExecRef, child_values: Sequence[object]) -> FrozenSet[object]:
        return frozenset((exec_ref.location,)).union(*child_values)

    def tuple_value(self, tuple_ref: TupleRef, derivation_values: Sequence[object]) -> FrozenSet[object]:
        return frozenset((tuple_ref.location,)).union(*derivation_values)

    def size(self, value: object) -> int:
        return len(value)  # type: ignore[arg-type]


class CountReducer(QueryReducer):
    """The total number of alternative derivations of the tuple."""

    name = QUERY_COUNT

    def base_value(self, tuple_ref: TupleRef) -> int:
        return 1

    def exec_value(self, exec_ref: ExecRef, child_values: Sequence[object]) -> int:
        product = 1
        for value in child_values:
            product *= int(value)
        return product

    def tuple_value(self, tuple_ref: TupleRef, derivation_values: Sequence[object]) -> int:
        if not derivation_values:
            return 1
        return sum(int(value) for value in derivation_values)

    def size(self, value: object) -> int:
        return int(value)


class SubgraphReducer(QueryReducer):
    """The provenance subgraph rooted at the queried tuple.

    Values are :class:`ProvenanceGraph` fragments that are merged while the
    distributed traversal returns; the root value is the full subgraph, which
    the visualizer renders as a hypertree.
    """

    name = QUERY_SUBGRAPH

    def base_value(self, tuple_ref: TupleRef) -> ProvenanceGraph:
        graph = ProvenanceGraph()
        graph.add_tuple(self._vertex(tuple_ref, self._vid(tuple_ref), is_base=True))
        return graph

    def exec_value(self, exec_ref: ExecRef, child_values: Sequence[object]) -> ProvenanceGraph:
        graph = ProvenanceGraph()
        for value in child_values:
            graph.merge(value)
        return graph

    def tuple_value(self, tuple_ref: TupleRef, derivation_values: Sequence[object]) -> ProvenanceGraph:
        # The derivations first: a base derivation's fragment already holds
        # the tuple's vertex, flagged base, which is what adding a derived
        # flavour would keep, so the tuple adds its own vertex only if no
        # derivation brought one.
        graph = ProvenanceGraph()
        for value in derivation_values:
            graph.merge(value)
        vid = self._vid(tuple_ref)
        if not graph.has_tuple(vid):
            graph.add_tuple(self._vertex(tuple_ref, vid, is_base=not derivation_values))
        return graph

    def size(self, value: object) -> int:
        return value.tuple_count  # type: ignore[union-attr]

    @staticmethod
    def _vid(tuple_ref: TupleRef) -> str:
        vid = getattr(tuple_ref, "_vid", None)  # the engine's memo for known tuples
        if vid is None:
            from repro.core.keys import vid_for_values

            vid = vid_for_values(tuple_ref.relation, list(tuple_ref.values))
        return vid

    @staticmethod
    def _vertex(tuple_ref: TupleRef, vid: str, is_base: bool) -> TupleVertex:
        return TupleVertex(
            vid=vid,
            relation=tuple_ref.relation,
            values=tuple_ref.values,
            location=tuple_ref.location,
            is_base=is_base,
        )


@dataclass
class CustomQuery(QueryReducer):
    """A user-customised provenance query built from three plain functions.

    Example — "maximum derivation depth"::

        depth_query = CustomQuery(
            name="depth",
            on_base=lambda ref: 0,
            on_exec=lambda exec_ref, children: 1 + max(children, default=0),
            on_tuple=lambda ref, derivations: max(derivations, default=0),
        )
    """

    name: str
    on_base: Callable[[TupleRef], object]
    on_exec: Callable[[ExecRef, Sequence[object]], object]
    on_tuple: Callable[[TupleRef, Sequence[object]], object]
    size_of: Callable[[object], int] = lambda value: 1

    def base_value(self, tuple_ref: TupleRef) -> object:
        return self.on_base(tuple_ref)

    def exec_value(self, exec_ref: ExecRef, child_values: Sequence[object]) -> object:
        return self.on_exec(exec_ref, child_values)

    def tuple_value(self, tuple_ref: TupleRef, derivation_values: Sequence[object]) -> object:
        return self.on_tuple(tuple_ref, derivation_values)

    def size(self, value: object) -> int:
        return self.size_of(value)


BUILTIN_REDUCERS = {
    QUERY_LINEAGE: LineageReducer(),
    QUERY_PARTICIPANTS: ParticipantsReducer(),
    QUERY_COUNT: CountReducer(),
    QUERY_SUBGRAPH: SubgraphReducer(),
}


def builtin_reducer(mode: str) -> QueryReducer:
    """Look up one of the built-in reducers by query mode name."""
    if mode not in BUILTIN_REDUCERS:
        raise KeyError(
            f"unknown query mode {mode!r}; built-in modes are {sorted(BUILTIN_REDUCERS)}"
        )
    return BUILTIN_REDUCERS[mode]
