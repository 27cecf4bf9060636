"""RapidNet-equivalent distributed execution engine.

This package provides the substrate that NetTrails' provenance engine runs
on: a per-node incremental NDlog evaluator, a simulated network with
explicit messages and latencies, a discrete-event simulator, topology
generators and a mobility model.

The public entry point for most users is
:class:`repro.engine.runtime.NetTrailsRuntime`, which wires a parsed NDlog
program, a topology and (optionally) a provenance engine into a runnable
distributed system.
"""

from repro.engine.tuples import Fact, Schema
from repro.engine.catalog import Catalog
from repro.engine.compiler import CompiledProgram, compile_program
from repro.engine.network import Link, Network
from repro.engine.simulator import Simulator
from repro.engine.node import Node
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.store import TupleStore
from repro.engine.topology import Topology

__all__ = [
    "Fact",
    "Schema",
    "Catalog",
    "CompiledProgram",
    "compile_program",
    "Link",
    "Network",
    "Simulator",
    "Node",
    "NetTrailsRuntime",
    "TupleStore",
    "Topology",
]
