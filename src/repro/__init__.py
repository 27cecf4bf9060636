"""NetTrails reproduction: declarative maintenance and querying of network provenance.

This package reproduces, in pure Python, the system demonstrated in
*"NetTrails: A Declarative Platform for Maintaining and Querying Provenance
in Distributed Systems"* (SIGMOD 2011): a declarative networking engine
executing NDlog programs over a simulated distributed system, the ExSPAN
provenance maintenance and distributed query engines, legacy-application
integration through a proxy and "maybe" rules, and log-store / visualization
substitutes.  Execution is batch-first: tuple deltas are evaluated, shipped
and applied in batches, and provenance queries can fan out a whole traversal
step in a single round (see ``docs/architecture.md``).  Each node holds
one local tuple store driven by one compiled NDlog plan, and one
deterministic event loop runs every node's drains and deliveries in
``(time, sequence)`` order.

Quickstart — run MINCOST over a 5-node ring and ask why a shortest path
exists:

>>> from repro import NetTrailsRuntime, DistributedQueryEngine
>>> from repro.protocols import mincost
>>> from repro.engine import topology
>>> runtime = NetTrailsRuntime(mincost.program(), topology.ring(5))
>>> runtime.seed_links(run=True)        # one link tuple per directed edge
10
>>> runtime.state("minCost")[:2]
[('n0', 'n1', 1.0), ('n0', 'n2', 2.0)]

Every rule firing was recorded in the distributed provenance tables, so the
lineage of a derived tuple can be queried — the traversal really crosses the
simulated network, node by node:

>>> queries = DistributedQueryEngine(runtime)
>>> result = queries.lineage("minCost", ["n0", "n2", 2.0])
>>> sorted(str(ref) for ref in result.value)
['link(n0, n1, 1.0)@n0', 'link(n1, n2, 1.0)@n1']
>>> queries.participants("minCost", ["n0", "n2", 2.0]).value == frozenset({"n0", "n1"})
True
"""

from repro.errors import NetTrailsError
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.topology import Topology
from repro.core.maintenance import ProvenanceEngine
from repro.core.query import DistributedQueryEngine
from repro.core.optimizations import QueryOptions
from repro.core.queries import CustomQuery
from repro.core.results import QueryResult, QueryStats, TupleRef
from repro.ndlog.parser import parse_program, parse_rule

__version__ = "0.1.0"

__all__ = [
    "NetTrailsError",
    "NetTrailsRuntime",
    "Topology",
    "ProvenanceEngine",
    "DistributedQueryEngine",
    "QueryOptions",
    "QueryResult",
    "QueryStats",
    "TupleRef",
    "CustomQuery",
    "parse_program",
    "parse_rule",
    "__version__",
]
