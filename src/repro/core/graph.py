"""In-memory provenance graph model.

The paper (§2.2): *"Network provenance is modeled as an acyclic graph G(V,E).
The vertex set V consists of tuple vertices and rule execution vertices.
Each tuple vertex in the graph is either a base tuple or a computation
result, and each rule execution vertex represents an instance of a rule
execution based on a set of input tuples.  The edge set E represents
dataflows between tuple vertices and rule execution vertices."*

At runtime this graph only ever exists *partitioned across nodes* as the
``prov`` / ``ruleExec`` tables maintained by
:class:`repro.core.maintenance.ProvenanceEngine`.  The :class:`ProvenanceGraph`
in this module is the materialised, centralized view that the log store and
the visualizer assemble from those tables (or that a subgraph query returns),
plus the traversal helpers that analysis tasks build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ProvenanceError, UnknownVertexError


@dataclass(frozen=True)
class TupleVertex:
    """A tuple vertex: a base tuple or a computation result, located at a node."""

    vid: str
    relation: str
    values: Tuple[object, ...]
    location: object
    is_base: bool = False

    @property
    def label(self) -> str:
        rendered = ", ".join(str(v) for v in self.values)
        return f"{self.relation}({rendered})@{self.location}"

    def __str__(self) -> str:
        kind = "base" if self.is_base else "derived"
        return f"[{kind} tuple {self.vid}] {self.label}"


@dataclass(frozen=True)
class RuleExecVertex:
    """A rule-execution vertex: one firing of a rule at a node."""

    rid: str
    rule_name: str
    program_name: str
    location: object

    @property
    def label(self) -> str:
        return f"{self.rule_name}@{self.location}"

    def __str__(self) -> str:
        return f"[rule exec {self.rid}] {self.label}"


class ProvenanceGraph:
    """A bipartite DAG of tuple vertices and rule-execution vertices.

    Edges follow the dataflow direction: input tuple -> rule execution ->
    output tuple.  ``parents``/``children`` are expressed in *derivation*
    terms: the parents of a tuple are the rule executions that derive it, and
    the children of a rule execution are its input tuples.
    """

    def __init__(self) -> None:
        self._tuples: Dict[str, TupleVertex] = {}
        self._rule_execs: Dict[str, RuleExecVertex] = {}
        # dataflow edges
        self._exec_inputs: Dict[str, List[str]] = {}    # rid -> [vid, ...] (inputs)
        self._exec_output: Dict[str, str] = {}          # rid -> vid (output tuple)
        self._tuple_derivations: Dict[str, List[str]] = {}  # vid -> [rid, ...]
        self._tuple_uses: Dict[str, List[str]] = {}     # vid -> [rid, ...] where it is an input

    # -- construction ----------------------------------------------------------

    def add_tuple(self, vertex: TupleVertex) -> TupleVertex:
        existing = self._tuples.get(vertex.vid)
        if existing is None:
            self._tuples[vertex.vid] = vertex
            return vertex
        if existing.is_base != vertex.is_base:
            # A tuple can be both a base tuple and derived (e.g. inserted and
            # also derivable); keep the derived flavour but remember base-ness.
            merged = TupleVertex(
                vid=existing.vid,
                relation=existing.relation,
                values=existing.values,
                location=existing.location,
                is_base=existing.is_base or vertex.is_base,
            )
            self._tuples[vertex.vid] = merged
            return merged
        return existing

    def add_rule_exec(
        self,
        vertex: RuleExecVertex,
        input_vids: Sequence[str],
        output_vid: str,
    ) -> RuleExecVertex:
        self._rule_execs[vertex.rid] = vertex
        self._exec_inputs[vertex.rid] = list(input_vids)
        self._exec_output[vertex.rid] = output_vid
        derivations = self._tuple_derivations.setdefault(output_vid, [])
        if vertex.rid not in derivations:
            derivations.append(vertex.rid)
        for vid in input_vids:
            uses = self._tuple_uses.setdefault(vid, [])
            if vertex.rid not in uses:
                uses.append(vertex.rid)
        return vertex

    def mark_base(self, vid: str) -> None:
        vertex = self.tuple_vertex(vid)
        self._tuples[vid] = TupleVertex(
            vid=vertex.vid,
            relation=vertex.relation,
            values=vertex.values,
            location=vertex.location,
            is_base=True,
        )

    # -- vertex access -----------------------------------------------------------

    def tuple_vertex(self, vid: str) -> TupleVertex:
        if vid not in self._tuples:
            raise UnknownVertexError(f"unknown tuple vertex {vid!r}")
        return self._tuples[vid]

    def rule_exec_vertex(self, rid: str) -> RuleExecVertex:
        if rid not in self._rule_execs:
            raise UnknownVertexError(f"unknown rule-execution vertex {rid!r}")
        return self._rule_execs[rid]

    def has_tuple(self, vid: str) -> bool:
        return vid in self._tuples

    def tuple_vertices(self) -> List[TupleVertex]:
        return [self._tuples[vid] for vid in sorted(self._tuples)]

    def rule_exec_vertices(self) -> List[RuleExecVertex]:
        return [self._rule_execs[rid] for rid in sorted(self._rule_execs)]

    def find_tuples(self, relation: str, values: Optional[Tuple[object, ...]] = None) -> List[TupleVertex]:
        """Find tuple vertices by relation name and (optionally) exact values."""
        result = []
        for vertex in self.tuple_vertices():
            if vertex.relation != relation:
                continue
            if values is not None and vertex.values != tuple(values):
                continue
            result.append(vertex)
        return result

    # -- edges -----------------------------------------------------------------------

    def derivations_of(self, vid: str) -> List[RuleExecVertex]:
        """Rule executions that derive the tuple *vid* (its provenance parents)."""
        return [self._rule_execs[rid] for rid in self._tuple_derivations.get(vid, [])]

    def inputs_of(self, rid: str) -> List[TupleVertex]:
        """Input tuples of the rule execution *rid*."""
        return [self._tuples[vid] for vid in self._exec_inputs.get(rid, []) if vid in self._tuples]

    def input_vids_of(self, rid: str) -> List[str]:
        return list(self._exec_inputs.get(rid, []))

    def output_of(self, rid: str) -> TupleVertex:
        vid = self._exec_output.get(rid)
        if vid is None:
            raise UnknownVertexError(f"rule execution {rid!r} has no recorded output")
        return self.tuple_vertex(vid)

    def uses_of(self, vid: str) -> List[RuleExecVertex]:
        """Rule executions that consume the tuple *vid* (forward direction)."""
        return [self._rule_execs[rid] for rid in self._tuple_uses.get(vid, [])]

    # -- statistics ---------------------------------------------------------------------

    @property
    def tuple_count(self) -> int:
        return len(self._tuples)

    @property
    def rule_exec_count(self) -> int:
        return len(self._rule_execs)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self._exec_inputs.values()) + len(self._exec_output)

    def locations(self) -> Set[object]:
        result: Set[object] = {vertex.location for vertex in self._tuples.values()}
        result |= {vertex.location for vertex in self._rule_execs.values()}
        return result

    # -- traversals ------------------------------------------------------------------------

    def base_tuples_of(self, vid: str) -> List[TupleVertex]:
        """The base tuples reachable from *vid* by following derivations (its lineage)."""
        seen_tuples: Set[str] = set()
        seen_execs: Set[str] = set()
        result: List[TupleVertex] = []

        def visit(current: str) -> None:
            if current in seen_tuples:
                return
            seen_tuples.add(current)
            vertex = self.tuple_vertex(current)
            derivations = self._tuple_derivations.get(current, [])
            if vertex.is_base or not derivations:
                result.append(vertex)
                return
            for rid in derivations:
                if rid in seen_execs:
                    continue
                seen_execs.add(rid)
                for child in self._exec_inputs.get(rid, []):
                    visit(child)

        visit(vid)
        return sorted(result, key=lambda vertex: vertex.vid)

    def participating_nodes(self, vid: str) -> Set[object]:
        """All node identifiers involved in any derivation of *vid*."""
        nodes: Set[object] = set()
        seen_tuples: Set[str] = set()

        def visit(current: str) -> None:
            if current in seen_tuples:
                return
            seen_tuples.add(current)
            vertex = self.tuple_vertex(current)
            nodes.add(vertex.location)
            for rid in self._tuple_derivations.get(current, []):
                nodes.add(self._rule_execs[rid].location)
                for child in self._exec_inputs.get(rid, []):
                    visit(child)

        visit(vid)
        return nodes

    def derivation_count(self, vid: str) -> int:
        """The total number of alternative derivation trees of *vid*.

        Base tuples count as one derivation.  The computation memoises on
        tuple vertices, which is correct because the graph is acyclic.
        """
        memo: Dict[str, int] = {}
        in_progress: Set[str] = set()

        def count(current: str) -> int:
            if current in memo:
                return memo[current]
            if current in in_progress:
                raise ProvenanceError(
                    f"provenance graph contains a cycle through {current!r}"
                )
            in_progress.add(current)
            vertex = self.tuple_vertex(current)
            derivations = self._tuple_derivations.get(current, [])
            total = 0
            for rid in derivations:
                product = 1
                for child in self._exec_inputs.get(rid, []):
                    product *= count(child)
                total += product
            if vertex.is_base or not derivations:
                total += 1 if vertex.is_base or not derivations else 0
            in_progress.discard(current)
            memo[current] = total
            return total

        return count(vid)

    def subgraph_rooted_at(self, vid: str, max_depth: Optional[int] = None) -> "ProvenanceGraph":
        """The provenance subgraph reachable from *vid* (derivation direction)."""
        result = ProvenanceGraph()

        def visit(current: str, depth: int) -> None:
            vertex = self.tuple_vertex(current)
            result.add_tuple(vertex)
            if max_depth is not None and depth >= max_depth:
                return
            for rid in self._tuple_derivations.get(current, []):
                exec_vertex = self._rule_execs[rid]
                inputs = self._exec_inputs.get(rid, [])
                for child in inputs:
                    visit(child, depth + 1)
                result.add_rule_exec(exec_vertex, inputs, current)

        visit(vid, 0)
        return result

    def affected_tuples(self, vid: str) -> List[TupleVertex]:
        """Forward closure: tuples whose derivations (transitively) use *vid*."""
        seen: Set[str] = set()
        result: List[TupleVertex] = []

        def visit(current: str) -> None:
            for exec_vertex in self.uses_of(current):
                output_vid = self._exec_output.get(exec_vertex.rid)
                if output_vid is None or output_vid in seen:
                    continue
                seen.add(output_vid)
                if output_vid in self._tuples:
                    result.append(self._tuples[output_vid])
                visit(output_vid)

        visit(vid)
        return sorted(result, key=lambda vertex: vertex.vid)

    def affected_vids(self, vid: str) -> Set[str]:
        """Vids of the forward closure of *vid* (see :meth:`affected_tuples`).

        This is exactly the set of vertices whose downstream provenance
        subgraph contains *vid* — i.e. the vertices whose per-VID
        reachability version (:meth:`repro.core.maintenance.ProvenanceEngine.vid_version`)
        must advance when *vid*'s derivations change; tests use it as the
        oracle for the engine's incremental upward propagation.
        """
        return {vertex.vid for vertex in self.affected_tuples(vid)}

    # -- merging ---------------------------------------------------------------------------

    def merge(self, other: "ProvenanceGraph") -> None:
        """Merge *other* into this graph (used when combining per-node fragments)."""
        for vertex in other.tuple_vertices():
            self.add_tuple(vertex)
        for exec_vertex in other.rule_exec_vertices():
            self.add_rule_exec(
                exec_vertex,
                other.input_vids_of(exec_vertex.rid),
                other._exec_output[exec_vertex.rid],
            )
