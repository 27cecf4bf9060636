"""Message types exchanged between nodes of the simulated distributed system.

All inter-node communication — derived-tuple shipment, provenance-query
traversal, snapshot uploads — travels as :class:`Message` objects through
:class:`repro.engine.network.Network`, which records per-category statistics.
This is what lets the benchmarks report "network traffic" for provenance
queries with and without the ExSPAN optimisations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Tuple

from repro.engine.tuples import SLOTTED, Fact

_message_counter = itertools.count(1)

#: Message categories used for traffic accounting.
CATEGORY_TUPLE = "tuple"
CATEGORY_PROVENANCE_QUERY = "provenance-query"
CATEGORY_PROVENANCE_REPLY = "provenance-reply"
CATEGORY_SNAPSHOT = "snapshot"
CATEGORY_CONTROL = "control"


@dataclass(frozen=True, **SLOTTED)
class TupleDelta:
    """Payload announcing the insertion (+1) or retraction (-1) of a derivation.

    Apart from its sign, a delta is the receiver's ``prov(@Loc, VID, RID,
    RLoc)`` row: the receiver is ``@Loc``, the fact gives the VID,
    ``derivation_id`` is the RID of the rule execution and ``rloc`` the node
    it ran at; a base delta, which never leaves its node, is ``(BASE,
    Loc)``.  ``rloc`` is ``None`` whenever the runtime keeps no provenance,
    in which case a derived delta's id is a per-node counter and no RID
    exists.
    """

    sign: int
    fact: Fact
    derivation_id: str
    rloc: object = None

    def __str__(self) -> str:
        symbol = "+" if self.sign > 0 else "-"
        return f"{symbol}{self.fact} [{self.derivation_id}]"

    def __repr__(self) -> str:
        # Byte-identical to the dataclass-generated repr, minus its
        # recursion-guard wrapper: message size accounting reprs every
        # shipped payload, so the guard shows up on the hot path.
        return (
            f"{self.__class__.__qualname__}(sign={self.sign!r}, "
            f"fact={self.fact!r}, derivation_id={self.derivation_id!r}, "
            f"rloc={self.rloc!r})"
        )


@dataclass(frozen=True, **SLOTTED)
class TupleDeltaBatch:
    """A batch of tuple deltas shipped to one destination in a single message.

    Batch-first execution groups every delta a node produces for the same
    destination within one evaluation batch into a single network message:
    the receiver applies the whole batch in one store/evaluator pass, which
    is what makes the batched hot path cheaper end to end (fewer messages,
    fewer simulator events, one provenance version bump per batch).
    """

    deltas: Tuple[TupleDelta, ...]

    def __str__(self) -> str:
        return f"batch[{', '.join(str(delta) for delta in self.deltas)}]"

    def __repr__(self) -> str:
        # See TupleDelta.__repr__: same bytes as the dataclass repr,
        # without the per-call recursion-guard wrapper.
        return f"{self.__class__.__qualname__}(deltas={self.deltas!r})"


@dataclass(frozen=True)
class Message:
    """A point-to-point message with a category used for traffic accounting."""

    sender: object
    receiver: object
    category: str
    payload: object
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def size_estimate(self) -> int:
        """A rough, deterministic byte-size estimate used in traffic statistics."""
        return len(repr(self.payload)) + 24
