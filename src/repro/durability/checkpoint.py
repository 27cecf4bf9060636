"""Checkpoint (compaction) helpers shared by the runtime and recovery.

A checkpoint compacts the WAL prefix into one snapshot: the full
:class:`~repro.logstore.snapshot.Snapshot`, as a one-element JSON list
(``json.dumps([snapshot.to_dict()], sort_keys=True)``), is written to
``<durable_dir>/snapshots/ckpt-NNNNNN.json``, and a ``checkpoint`` WAL
record pins two digests plus an embedded *bootstrap* (current base facts,
topology and link configuration).  Recovery in ``checkpoint`` mode rebuilds
the runtime from the bootstrap instead of replaying the whole history —
valid because the engine is confluent: protocol state and provenance tables
are a pure function of the current base facts and topology.

Two digests, two verification regimes:

* ``state_digest`` covers relations + ``prov`` + ``ruleExec`` tables only —
  the query-independent state.  It is what recovery verifies, because
  read-only provenance queries legitimately advance traffic counters and
  virtual time without being logged.
* ``snapshot_digest`` covers the whole snapshot JSON (time, traffic and the
  ``tuples`` map of the facts present, by vid, included) and is recorded
  for the audit trail.

A checkpoint costs what changed: each durable runtime's
:class:`CheckpointWriter` keeps every partition's serialised snapshot and
state fragments, rebuilds a fragment only when the partition's content
key differs from the cached one, and streams the pieces into the file and
both digests without assembling the whole document.  The file and the
digests are byte-identical to that list, :func:`snapshot_digest` and
:func:`state_digest` over :func:`~repro.logstore.snapshot.take_snapshot`,
which stay the reference (recovery verifies with them).  Checkpoints are
also how a run's state is captured periodically
(``ServiceRuntime(checkpoint_every=N)``), and they shorten the rebuilds of
:class:`~repro.logstore.replay.ReplaySession`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine.topology import Topology
from repro.logstore.snapshot import NodeSnapshot, Snapshot, node_snapshot

#: Subdirectory of the durable dir holding compacted snapshots.
SNAPSHOT_DIRNAME = "snapshots"


def snapshot_digest(snapshot: Snapshot) -> str:
    """sha256 over the full canonical snapshot JSON (audit-trail digest)."""
    return hashlib.sha256(snapshot.to_json().encode("utf-8")).hexdigest()


def state_digest(snapshot: Snapshot) -> str:
    """sha256 over the query-independent state a recovery must reproduce.

    Covers per-node relation contents and the ``prov`` / ``ruleExec``
    provenance tables; excludes virtual time and traffic counters (both
    history-dependent in ways a checkpoint-bootstrapped twin legitimately
    differs in) and the ``tuples`` map, which repeats the relations by vid.
    """
    doc = {
        node_id: node_state_doc(node) for node_id, node in sorted(snapshot.nodes.items())
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def node_state_doc(node: NodeSnapshot) -> Dict[str, object]:
    """One node's share of the :func:`state_digest` document."""
    return {
        "relations": {
            relation: sorted((list(row) for row in rows), key=repr)
            for relation, rows in sorted(node.relations.items())
        },
        "prov": sorted((list(row) for row in node.prov), key=repr),
        "rule_execs": sorted((list(row) for row in node.rule_execs), key=repr),
    }


def base_facts(runtime) -> Dict[str, List[List[object]]]:
    """Current base tuples per relation — the confluence bootstrap payload."""
    rows: Dict[str, List[List[object]]] = {}
    for node_id in runtime.node_ids():
        node = runtime.nodes[node_id]
        for relation in node.store.relations():
            for fact in node.store.facts(relation):
                if node.has_base(fact):
                    rows.setdefault(relation, []).append(list(fact.values))
    return {relation: sorted(rows[relation], key=repr) for relation in sorted(rows)}


def topology_doc(topology: Topology) -> Dict[str, object]:
    """A JSON-safe rendering of a topology (nodes, weighted edges, name)."""
    return {
        "name": topology.name,
        "nodes": sorted(topology.nodes),
        "edges": sorted([a, b, cost] for (a, b), cost in topology.edges.items()),
    }


def build_topology(doc: Dict[str, object]) -> Topology:
    """Rebuild a topology from :func:`topology_doc` output."""
    topology = Topology(name=str(doc.get("name", "recovered")))
    for node in doc.get("nodes", []):
        topology.add_node(node)
    for a, b, cost in doc.get("edges", []):
        topology.add_edge(a, b, cost)
    return topology


def snapshot_dir(durable_dir) -> Path:
    return Path(durable_dir) / SNAPSHOT_DIRNAME


def prune_snapshot_files(durable_dir, keep: int) -> List[Path]:
    """Drop all but the newest *keep* checkpoint snapshot files.

    Pruning never endangers recovery: every ``checkpoint`` WAL record embeds
    its own bootstrap, so the snapshot files are an inspection convenience,
    not the recovery source of truth.  Returns the removed paths.
    """
    directory = snapshot_dir(durable_dir)
    if keep < 0 or not directory.is_dir():
        return []
    files = sorted(directory.glob("ckpt-*.json"))
    removed = []
    for path in files[: max(0, len(files) - keep)]:
        path.unlink()
        removed.append(path)
    return removed


def _dumps(doc: object) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class _Partition:
    """One partition's cached checkpoint pieces and the content they encode."""

    key: Tuple[object, ...]
    snapshot: bytes
    state: bytes


class CheckpointWriter:
    """Writes one durable runtime's checkpoints, re-serialising only changed partitions.

    Per partition the writer keeps an exact content key (the node's fact set
    plus its provenance store's :meth:`content_key`) and the partition's
    snapshot and state-digest JSON fragments.  A checkpoint rebuilds the
    fragments of partitions whose key differs, then streams every fragment,
    in node order, into the snapshot file and into one sha256 per digest.
    """

    def __init__(self) -> None:
        self._partitions: Dict[str, _Partition] = {}
        self._rebuilt = 0

    @property
    def partitions_rebuilt(self) -> int:
        """Partitions re-serialised so far, over every checkpoint this writer took."""
        return self._rebuilt

    def write(self, runtime, batch: int, label: str) -> Tuple[Path, Dict[str, object]]:
        """Write checkpoint *batch* of a quiescent *runtime*.

        Returns the snapshot file path and the ``checkpoint`` WAL record's
        data.  The file holds ``[take_snapshot(runtime, label).to_dict()]``
        as sorted-key JSON; the record's digests are :func:`snapshot_digest`
        and :func:`state_digest` of that snapshot.
        """
        partitions = self._refresh(runtime)
        time = runtime.simulator.now
        envelope = _dumps(
            Snapshot(
                time=time,
                label=label,
                program=runtime.compiled.name,
                traffic=runtime.network.stats.snapshot(),
            ).to_dict()
        )
        # Keys are sorted and only the label precedes "nodes", and a JSON
        # string cannot hold an unescaped quote, so this is the one split.
        head, _, tail = envelope.partition(b'"nodes": {}')
        head += b'"nodes": {'
        tail = b"}" + tail

        directory = snapshot_dir(runtime.durable_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"ckpt-{batch:06d}.json"
        snapshot_hash, state_hash = hashlib.sha256(), hashlib.sha256()
        with open(path, "wb") as out:

            def emit(chunk: bytes) -> None:
                out.write(chunk)
                snapshot_hash.update(chunk)

            out.write(b"[")
            emit(head)
            state_hash.update(b"{")
            separator = b""
            for name in sorted(partitions):
                partition = partitions[name]
                node_key = separator + _dumps(name) + b": "
                separator = b", "
                emit(node_key)
                emit(partition.snapshot)
                state_hash.update(node_key)
                state_hash.update(partition.state)
            emit(tail)
            state_hash.update(b"}")
            out.write(b"]")
        return path, {
            "batch": batch,
            "label": label,
            "time": time,
            "file": path.name,
            "snapshot_digest": snapshot_hash.hexdigest(),
            "state_digest": state_hash.hexdigest(),
            "base": base_facts(runtime),
            "topology": topology_doc(runtime.topology),
            "link": _link_doc(runtime),
        }

    def _refresh(self, runtime) -> Dict[str, _Partition]:
        """Every current partition's pieces, rebuilding those whose content moved.

        The cache is replaced by the current node set, so nodes that left
        the runtime drop out.
        """
        provenance = runtime.provenance
        partitions: Dict[str, _Partition] = {}
        for node_id, node in sorted(runtime.nodes.items(), key=lambda item: repr(item[0])):
            pstore = provenance.store(node_id) if provenance is not None else None
            key = (
                node.store.content_key(),
                pstore.content_key() if pstore is not None else None,
            )
            name = str(node_id)
            partition = self._partitions.get(name)
            if partition is None or partition.key != key:
                snapshot = node_snapshot(node_id, node, pstore)
                partition = _Partition(
                    key, _dumps(snapshot.to_dict()), _dumps(node_state_doc(snapshot))
                )
                self._rebuilt += 1
            partitions[name] = partition
        self._partitions = partitions
        return partitions


def _link_doc(runtime) -> Optional[Dict[str, object]]:
    """The link-seeding configuration recovery's bootstrap restores."""
    if runtime._link_relation is None:
        return None
    return {
        "relation": runtime._link_relation,
        "include_cost": runtime._link_include_cost,
        "symmetric": runtime._link_symmetric,
    }
