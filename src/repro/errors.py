"""Shared exception hierarchy for the NetTrails reproduction.

Every error raised by the library derives from :class:`NetTrailsError`, so
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems: the NDlog language front-end, the distributed execution engine,
the provenance (ExSPAN) engine, and the legacy-application integration layer.
"""

from __future__ import annotations


class NetTrailsError(Exception):
    """Base class for all errors raised by the library."""


class NDlogError(NetTrailsError):
    """Base class for errors in the NDlog language front-end."""


class NDlogSyntaxError(NDlogError):
    """Raised when NDlog source text cannot be tokenized or parsed.

    Carries the ``line`` and ``column`` (1-based) of the offending token when
    they are known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class NDlogValidationError(NDlogError):
    """Raised when a syntactically valid program violates safety rules."""


class UnknownFunctionError(NDlogError):
    """Raised when a rule references a builtin function that is not registered."""


class EngineError(NetTrailsError):
    """Base class for errors in the distributed execution engine."""


class SchemaError(EngineError):
    """Raised when tuples do not match their relation schema."""


class UnknownNodeError(EngineError):
    """Raised when a message or tuple targets a node that does not exist."""


class SimulationError(EngineError):
    """Raised when the discrete-event simulator is used incorrectly."""


class ProvenanceError(NetTrailsError):
    """Base class for errors in the ExSPAN provenance engine."""


class UnknownVertexError(ProvenanceError):
    """Raised when a provenance query references an unknown vertex id."""


class QueryError(ProvenanceError):
    """Raised when a provenance query is malformed or cannot be executed."""


class LegacyIntegrationError(NetTrailsError):
    """Base class for errors in the legacy-application (proxy/BGP) layer."""


class TraceFormatError(LegacyIntegrationError):
    """Raised when a routing trace record is malformed."""


class DurabilityError(NetTrailsError):
    """Raised when the write-ahead log or recovery machinery meets corrupt,
    foreign or misused durable state (torn tails are *repaired*, not raised —
    this class covers the unrecoverable cases)."""


class VisualizationError(NetTrailsError):
    """Raised when a visualization export cannot be produced."""
