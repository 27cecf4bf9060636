"""Content-addressed identifiers for provenance vertices.

ExSPAN's provenance graph is stored as distributed relational tables, so
vertices need stable identifiers that any node can recompute locally:

* a **VID** identifies a tuple vertex and is a hash of the relation name and
  the attribute values;
* an **RID** identifies a rule-execution vertex and is a hash of the rule
  name, the node the rule fired at, and the VIDs of its input tuples.

Because the identifiers are content-addressed, alternative derivations of the
same tuple map to the same tuple vertex (they appear as multiple ``prov``
entries for one VID), and re-derivations after churn map to the same vertex
ids — exactly the behaviour required for incremental maintenance.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.engine.store import BASE_DERIVATION
from repro.engine.tuples import Fact

#: RID marker used in ``prov`` entries of base tuples: the derivation id a
#: node stores for a base insertion.
BASE_RID = BASE_DERIVATION


def _digest(payload: str) -> str:
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def vid_for(fact: Fact) -> str:
    """Return the tuple-vertex identifier of *fact*.

    Hashed once per ``Fact`` instance and memoised in its ``_vid`` slot like
    its ``repr`` (maintenance asks again on every firing that consumes the
    fact); equality, hashing, ``repr`` and pickling ignore the memo.
    """
    try:
        return fact._vid
    except AttributeError:
        vid = "vid_" + _digest(repr((fact.relation, fact.values)))
        object.__setattr__(fact, "_vid", vid)
        return vid


def vid_for_values(relation: str, values: Sequence[object]) -> str:
    """VID computed from raw relation name + values (used by the NDlog rewrite)."""
    return vid_for(Fact.make(relation, values))


def rid_for(rule_name: str, exec_node: object, child_vids: Iterable[str]) -> str:
    """Return the rule-execution vertex identifier for one rule firing."""
    return "rid_" + _digest(repr((rule_name, exec_node, tuple(child_vids))))
