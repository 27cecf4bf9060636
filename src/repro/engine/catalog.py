"""Relation catalog: per-relation schema information derived from a program.

The catalog answers two questions the engine needs constantly:

* which attribute of a relation is the location specifier (so that derived
  tuples can be shipped to the right node), and
* what the primary-key positions of a materialized relation are (for
  key-based overwrite of base tuples).

Location indices are inferred from the ``@`` markers in the program's atoms
and must be consistent across all uses of a relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import SchemaError
from repro.ndlog.ast import Atom, Program
from repro.engine.tuples import Fact, Schema


class Catalog:
    """Schema registry for all relations used by one or more programs."""

    def __init__(self) -> None:
        self._schemas: Dict[str, Schema] = {}
        # Primary keys declared by ``materialize`` for relations whose arity is
        # not yet known (no atom observed); applied once an atom arrives.
        self._pending_keys: Dict[str, tuple] = {}

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_program(program: Program) -> "Catalog":
        catalog = Catalog()
        catalog.add_program(program)
        return catalog

    def add_program(self, program: Program) -> None:
        """Register every relation mentioned by *program*."""
        for rule in program.rules:
            self._observe_atom(rule.head)
            for literal in rule.literals:
                self._observe_atom(literal.atom)
        for declaration in program.materialized.values():
            existing = self._schemas.get(declaration.relation)
            key_positions = tuple(k - 1 for k in declaration.keys)
            if existing is None:
                # Arity unknown until an atom mentioning the relation is seen;
                # remember the keys and apply them at that point.
                self._pending_keys[declaration.relation] = key_positions
            else:
                self._schemas[declaration.relation] = Schema(
                    relation=existing.relation,
                    arity=existing.arity,
                    attribute_names=existing.attribute_names,
                    key_positions=key_positions,
                    location_index=existing.location_index,
                )

    def _observe_atom(self, atom: Atom) -> None:
        location_index = atom.location_index if atom.location_index is not None else 0
        existing = self._schemas.get(atom.relation)
        if existing is None:
            key_positions = self._pending_keys.pop(atom.relation, ())
            self._schemas[atom.relation] = Schema(
                relation=atom.relation,
                arity=atom.arity,
                key_positions=key_positions,
                location_index=location_index,
            )
            return
        if existing.arity != atom.arity:
            raise SchemaError(
                f"relation {atom.relation!r} used with inconsistent arities "
                f"({existing.arity} and {atom.arity})"
            )
        if atom.location_index is not None and existing.location_index != atom.location_index:
            raise SchemaError(
                f"relation {atom.relation!r} used with inconsistent location specifiers "
                f"(attribute {existing.location_index} and {atom.location_index})"
            )

    # -- queries ---------------------------------------------------------------

    def relations(self) -> Iterable[str]:
        return sorted(self._schemas)

    def schema(self, relation: str) -> Schema:
        if relation not in self._schemas:
            raise SchemaError(f"unknown relation {relation!r}")
        return self._schemas[relation]

    def schema_or_default(self, relation: str, arity: int) -> Schema:
        """Return the registered schema, or a default (location at attribute 0)."""
        if relation in self._schemas:
            return self._schemas[relation]
        return Schema(relation=relation, arity=arity, location_index=0)

    def location_of(self, fact: Fact) -> object:
        """Return the node identifier that *fact* is located at."""
        return self.schema_or_default(fact.relation, fact.arity).location_of(fact)

    def key_of(self, fact: Fact) -> Optional[tuple]:
        """Return the primary-key projection of *fact*, or None when keyless."""
        schema = self.schema_or_default(fact.relation, fact.arity)
        if not schema.key_positions:
            return None
        return schema.key_of(fact)
