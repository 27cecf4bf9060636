"""Result objects returned by the distributed provenance query engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class TupleRef:
    """A lightweight reference to a tuple (used in lineage results).

    The query engine memoises the tuple's vid in the ``_vid`` slot when the
    tuple's partition knows it, so reducers need not hash it again;
    equality, hashing, ``repr`` and pickling ignore the memo.
    """

    __slots__ = ("relation", "values", "location", "_vid")

    relation: str
    values: Tuple[object, ...]
    location: object

    def __repr__(self) -> str:
        # The dataclass repr's bytes without its recursion guard: message
        # size accounting renders every ref of every lineage reply.
        return (
            f"{self.__class__.__qualname__}(relation={self.relation!r}, "
            f"values={self.values!r}, location={self.location!r})"
        )

    def __reduce__(self):
        return (TupleRef, (self.relation, self.values, self.location))

    def __str__(self) -> str:
        rendered = ", ".join(str(v) for v in self.values)
        return f"{self.relation}({rendered})@{self.location}"


@dataclass
class QueryStats:
    """Cost accounting for one provenance query.

    ``messages``/``bytes`` measure network traffic, ``latency`` the elapsed
    virtual time, and ``rounds`` the number of distinct virtual-time instants
    the traversal needed (see :attr:`repro.engine.simulator.Simulator.rounds`)
    — parallel traversal minimises rounds at the price of exploring every
    alternative, sequential traversal the reverse.
    """

    messages: int = 0
    bytes: int = 0
    latency: float = 0.0
    rounds: int = 0
    nodes_visited: int = 0
    cache_hits: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "latency": self.latency,
            "rounds": self.rounds,
            "nodes_visited": self.nodes_visited,
            "cache_hits": self.cache_hits,
        }


@dataclass
class QueryResult:
    """The answer to one provenance query plus its execution statistics.

    ``value`` depends on the query mode:

    * lineage: a frozen set of :class:`TupleRef` (the contributing base tuples)
    * participants: a frozen set of node identifiers
    * count: an integer (number of alternative derivations)
    * subgraph: a :class:`repro.core.graph.ProvenanceGraph`
    * custom: whatever the registered reducer produces
    """

    mode: str
    root: TupleRef
    root_vid: str
    value: object
    truncated: bool = False
    stats: QueryStats = field(default_factory=QueryStats)

    def __str__(self) -> str:
        return (
            f"QueryResult(mode={self.mode}, root={self.root}, value={self.value!r}, "
            f"truncated={self.truncated}, messages={self.stats.messages})"
        )
