"""Shared fixtures and equivalence helpers for the NetTrails test suite."""

from __future__ import annotations

import os

import pytest

from repro.engine import topology
from repro.engine.backends import BACKENDS, BACKEND_ENV_VAR, default_backend_name
from repro.protocols import mincost, path_vector


# ---------------------------------------------------------------------------
# Execution-backend matrix hook
#
# ``NETTRAILS_BACKEND`` selects the execution backend every runtime in the
# suite defaults to (serial | thread).  The CI property-matrix jobs
# export it to run the whole property suite — including every equivalence
# harness — under each backend; any value other than the deterministic
# default would surface as a failed equivalence assertion if a backend ever
# diverged from the serial reference.
# ---------------------------------------------------------------------------


def pytest_configure(config):
    spec = os.environ.get(BACKEND_ENV_VAR)
    if spec and spec not in BACKENDS:
        raise pytest.UsageError(
            f"{BACKEND_ENV_VAR}={spec!r} is not a known execution backend; "
            f"choose one of {sorted(BACKENDS)}"
        )


def pytest_report_header(config):
    return f"nettrails: execution backend = {default_backend_name()} ({BACKEND_ENV_VAR})"


@pytest.fixture(scope="session")
def backend_name() -> str:
    """The execution backend the suite is running under (see NETTRAILS_BACKEND)."""
    return default_backend_name()


# ---------------------------------------------------------------------------
# Equivalence helpers
#
# The central correctness claim of the reproduction is that every execution
# strategy (per-delta vs batched, serial vs threaded)
# converges to indistinguishable global state.  These canonicalisers are the
# shared definition of "indistinguishable"; they are exposed both as plain
# functions (for conftest-local use) and as identically-named fixtures so any
# test module can request them without import-path games.
# ---------------------------------------------------------------------------


def _provenance_fingerprint(runtime):
    """A canonical representation of the distributed provenance tables."""
    rows = set()
    provenance = runtime.provenance
    for node_id in runtime.node_ids():
        store = provenance.store(node_id)
        for row in store.prov_table():
            rows.add(("prov",) + row)
        for loc, rid, rule, program, children in store.rule_exec_table():
            rows.add(("ruleExec", loc, rid, rule, program, tuple(children)))
    return rows


def _global_state(runtime, relations):
    """Sorted global contents of the given relations."""
    return {relation: sorted(runtime.state(relation), key=repr) for relation in relations}


def _store_snapshots(runtime):
    """Per-node canonical store snapshots (values + derivation counts)."""
    return {
        repr(node_id): runtime.nodes[node_id].store.snapshot()
        for node_id in runtime.node_ids()
    }


@pytest.fixture
def provenance_fingerprint():
    return _provenance_fingerprint


@pytest.fixture
def global_state():
    return _global_state


@pytest.fixture
def store_snapshots():
    return _store_snapshots


@pytest.fixture
def ring5():
    """A 5-node ring with unit link costs."""
    return topology.ring(5)


@pytest.fixture
def line4():
    """A 4-node chain with unit link costs."""
    return topology.line(4)


@pytest.fixture
def small_random():
    """A deterministic 8-node random connected topology."""
    return topology.random_connected(8, edge_probability=0.3, seed=7)


@pytest.fixture
def mincost_ring(ring5):
    """A converged MINCOST runtime over the 5-node ring (provenance enabled)."""
    return mincost.setup(ring5)


@pytest.fixture
def pathvector_line(line4):
    """A converged path-vector runtime over the 4-node chain."""
    return path_vector.setup(line4)
