"""Tuples (facts) and relation schemas for the execution engine.

A :class:`Fact` is an immutable, hashable relational tuple: a relation name
plus a tuple of attribute values.  Values are plain Python scalars (ints,
floats, strings, booleans) or tuples of scalars (used for paths / AS paths).

A :class:`Schema` optionally names the attributes of a relation and records
its primary-key positions (from ``materialize`` declarations), which the
runtime uses for key-based overwrite semantics on base relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import SchemaError

#: Types allowed as attribute values.
SCALAR_TYPES = (int, float, str, bool)


def _check_value(value: object) -> object:
    """Validate (and normalise) one attribute value."""
    if isinstance(value, list):
        value = tuple(value)
    if isinstance(value, tuple):
        for item in value:
            if not isinstance(item, SCALAR_TYPES):
                raise SchemaError(
                    f"nested value {item!r} in {value!r} is not a supported scalar type"
                )
        return value
    if not isinstance(value, SCALAR_TYPES):
        raise SchemaError(f"attribute value {value!r} has unsupported type {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Fact:
    """An immutable relational tuple (``relation`` + attribute ``values``)."""

    # No instance dict: a fact is one GC-tracked object, not two.  ``_repr``
    # and ``_vid`` (see :func:`repro.core.keys.vid_for`) are memos filled on
    # first use.
    __slots__ = ("relation", "values", "_hash", "_repr", "_vid")

    relation: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        # Facts are hashed millions of times on the store/join hot path;
        # compute the content hash once at construction.
        object.__setattr__(self, "_hash", hash((self.relation, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in the
        # receiving process (string hashes are per-process under hash
        # randomisation) and the pickle carries no memo (repr, VID).
        return (Fact, (self.relation, self.values))

    def __repr__(self) -> str:
        # Byte-identical to the dataclass-generated repr, but rendered once
        # per instance: repr-derived sort keys and message size accounting
        # hit facts over and over.
        try:
            return self._repr
        except AttributeError:
            rendered = (
                f"{self.__class__.__qualname__}"
                f"(relation={self.relation!r}, values={self.values!r})"
            )
            object.__setattr__(self, "_repr", rendered)
            return rendered

    @staticmethod
    def make(relation: str, values: Sequence[object]) -> "Fact":
        """Build a fact, validating and normalising attribute values."""
        return Fact(relation, tuple(_check_value(v) for v in values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def value(self, index: int) -> object:
        return self.values[index]

    def __str__(self) -> str:
        rendered = ", ".join(_render_value(v) for v in self.values)
        return f"{self.relation}({rendered})"


def _render_value(value: object) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, tuple):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    return str(value)


@dataclass(frozen=True)
class Schema:
    """Schema metadata for one relation."""

    relation: str
    arity: int
    attribute_names: Tuple[str, ...] = ()
    key_positions: Tuple[int, ...] = ()  # 0-based positions of primary-key attributes
    location_index: int = 0

    def __post_init__(self) -> None:
        if self.attribute_names and len(self.attribute_names) != self.arity:
            raise SchemaError(
                f"relation {self.relation!r}: {len(self.attribute_names)} attribute names "
                f"given for arity {self.arity}"
            )
        for position in self.key_positions:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"relation {self.relation!r}: key position {position} out of range "
                    f"for arity {self.arity}"
                )
        if not 0 <= self.location_index < max(self.arity, 1):
            raise SchemaError(
                f"relation {self.relation!r}: location index {self.location_index} out of range"
            )

    def check(self, fact: Fact) -> None:
        """Raise :class:`SchemaError` if *fact* does not conform to this schema."""
        if fact.relation != self.relation:
            raise SchemaError(
                f"fact {fact} does not belong to relation {self.relation!r}"
            )
        if fact.arity != self.arity:
            raise SchemaError(
                f"fact {fact} has arity {fact.arity}, expected {self.arity}"
            )

    def key_of(self, fact: Fact) -> Tuple[object, ...]:
        """Return the primary-key projection of *fact* (empty tuple when keyless)."""
        return tuple(fact.values[position] for position in self.key_positions)

    def location_of(self, fact: Fact) -> object:
        """Return the location attribute (node identifier) of *fact*."""
        return fact.values[self.location_index]
