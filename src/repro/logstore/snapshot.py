"""System snapshots: per-node state plus provenance tables at a point in time."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.graph import ProvenanceGraph, RuleExecVertex, TupleVertex
from repro.core.keys import BASE_RID


@dataclass
class NodeSnapshot:
    """The state captured at one node: relation contents and provenance tables."""

    node_id: str
    relations: Dict[str, List[List[object]]] = field(default_factory=dict)
    tuples: Dict[str, List[object]] = field(default_factory=dict)  # vid -> [relation, values]
    prov: List[List[object]] = field(default_factory=list)         # [vid, rid, rloc]
    rule_execs: List[List[object]] = field(default_factory=list)   # [rid, rule, program, child_vids, head_vid]

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "relations": self.relations,
            "tuples": self.tuples,
            "prov": self.prov,
            "rule_execs": self.rule_execs,
        }


@dataclass
class Snapshot:
    """A system-wide snapshot: every node's state at one instant of virtual time."""

    time: float
    label: str = ""
    program: str = ""
    nodes: Dict[str, NodeSnapshot] = field(default_factory=dict)
    traffic: Dict[str, object] = field(default_factory=dict)

    # -- relation access -------------------------------------------------------------

    def node_ids(self) -> List[str]:
        return sorted(self.nodes)

    def relation(self, relation: str) -> List[Tuple[object, ...]]:
        """The global contents of one relation at snapshot time."""
        rows: List[Tuple[object, ...]] = []
        for node in self.nodes.values():
            for values in node.relations.get(relation, []):
                rows.append(tuple(values))
        return sorted(rows, key=repr)

    def relations(self) -> List[str]:
        names = set()
        for node in self.nodes.values():
            names.update(node.relations)
        return sorted(names)

    def total_facts(self) -> int:
        return sum(
            len(rows) for node in self.nodes.values() for rows in node.relations.values()
        )

    # -- provenance ---------------------------------------------------------------------

    def provenance_graph(self) -> ProvenanceGraph:
        """Reconstruct the provenance graph captured in this snapshot."""
        graph = ProvenanceGraph()
        tuple_locations: Dict[str, str] = {}
        tuple_info: Dict[str, Tuple[str, Tuple[object, ...]]] = {}
        base_vids = set()
        for node in self.nodes.values():
            for vid, info in node.tuples.items():
                relation, values = str(info[0]), tuple(info[1])
                tuple_info[vid] = (relation, values)
            for vid, rid, _rloc in node.prov:
                tuple_locations[str(vid)] = node.node_id
                if rid == BASE_RID:
                    base_vids.add(str(vid))
        for vid, (relation, values) in tuple_info.items():
            graph.add_tuple(
                TupleVertex(
                    vid=vid,
                    relation=relation,
                    values=values,
                    location=tuple_locations.get(vid, "<unknown>"),
                    is_base=vid in base_vids,
                )
            )
        for node in self.nodes.values():
            for rid, rule_name, program_name, child_vids, head_vid in node.rule_execs:
                graph.add_rule_exec(
                    RuleExecVertex(
                        rid=str(rid),
                        rule_name=str(rule_name),
                        program_name=str(program_name),
                        location=node.node_id,
                    ),
                    [str(v) for v in child_vids],
                    str(head_vid),
                )
        return graph

    # -- serialisation ---------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "label": self.label,
            "program": self.program,
            "traffic": self.traffic,
            "nodes": {node_id: node.to_dict() for node_id, node in sorted(self.nodes.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def take_snapshot(runtime, label: str = "") -> Snapshot:
    """Capture a system-wide snapshot of *runtime* (a :class:`NetTrailsRuntime`)."""
    snapshot = Snapshot(
        time=runtime.simulator.now,
        label=label,
        program=runtime.compiled.name,
        traffic=runtime.network.stats.snapshot(),
    )
    provenance = runtime.provenance
    for node_id, node in sorted(runtime.nodes.items(), key=lambda item: repr(item[0])):
        pstore = provenance.store(node_id) if provenance is not None else None
        snapshot.nodes[str(node_id)] = node_snapshot(node_id, node, pstore)
    return snapshot


def node_snapshot(node_id, node, pstore) -> NodeSnapshot:
    """One node's partition: its relations plus, when *pstore* is given, its provenance tables.

    The single definition of a partition's snapshot form, shared by
    :func:`take_snapshot` and the durable checkpoint writer
    (:class:`repro.durability.checkpoint.CheckpointWriter`).
    """
    snapshot = NodeSnapshot(node_id=str(node_id))
    for relation in node.store.relations():
        snapshot.relations[relation] = [list(fact.values) for fact in node.facts(relation)]
    if pstore is not None:
        for row in pstore.prov_table():
            _loc, vid, rid, rloc = row
            snapshot.prov.append([vid, rid, str(rloc)])
        for entry in pstore.rule_execs():
            snapshot.rule_execs.append(
                [
                    entry.rid,
                    entry.rule_name,
                    entry.program_name,
                    list(entry.child_vids),
                    entry.head_vid,
                ]
            )
        for vid, fact in pstore.present():
            snapshot.tuples[vid] = [fact.relation, list(fact.values)]
    return snapshot
