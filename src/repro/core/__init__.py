"""ExSPAN: the network provenance engine (the paper's primary contribution).

The package is organised exactly like the system description in the paper:

* :mod:`repro.core.maintenance` — the **maintenance engine**: it observes
  rule executions and tuple derivations reported by the execution engine and
  incrementally maintains the distributed ``prov`` / ``ruleExec`` relational
  tables that encode the provenance graph.
* :mod:`repro.core.rewrite` — the **automatic rule rewriting** algorithm that
  takes an NDlog program and outputs a modified program containing additional
  rules which compute the same provenance tables as distributed views.
* :mod:`repro.core.query` — the **distributed query engine** that traverses
  the provenance graph across nodes to answer lineage, participating-node,
  derivation-count, subgraph and custom queries.
* :mod:`repro.core.optimizations` — result caching, alternative traversal
  orders and threshold-based pruning.
* :mod:`repro.core.graph` — the in-memory provenance graph model (tuple
  vertices + rule-execution vertices) used for visualization and analysis.
"""

from repro.core.keys import BASE_RID, rid_for, vid_for
from repro.core.graph import ProvenanceGraph, RuleExecVertex, TupleVertex
from repro.core.maintenance import NodeProvenanceStore, ProvenanceEngine
from repro.core.rewrite import rewrite_program
from repro.core.queries import (
    CustomQuery,
    QUERY_COUNT,
    QUERY_LINEAGE,
    QUERY_PARTICIPANTS,
    QUERY_SUBGRAPH,
)
from repro.core.optimizations import DEFAULT_CACHE_CAPACITY, NodeQueryCache, QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.core.results import QueryResult
from repro.core.language import ParsedQuery, QueryLanguage, parse_query
from repro.core.security import NodeAttestation, ProvenanceAuthenticator, TamperReport

__all__ = [
    "BASE_RID",
    "rid_for",
    "vid_for",
    "ProvenanceGraph",
    "RuleExecVertex",
    "TupleVertex",
    "NodeProvenanceStore",
    "ProvenanceEngine",
    "rewrite_program",
    "CustomQuery",
    "QUERY_COUNT",
    "QUERY_LINEAGE",
    "QUERY_PARTICIPANTS",
    "QUERY_SUBGRAPH",
    "QueryOptions",
    "NodeQueryCache",
    "DEFAULT_CACHE_CAPACITY",
    "DistributedQueryEngine",
    "QueryResult",
    "ParsedQuery",
    "QueryLanguage",
    "parse_query",
    "NodeAttestation",
    "ProvenanceAuthenticator",
    "TamperReport",
]
