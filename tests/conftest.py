"""Shared fixtures and equivalence helpers for the NetTrails test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.keys import BASE_RID, vid_for
from repro.engine import topology
from repro.protocols import mincost, path_vector


# ---------------------------------------------------------------------------
# Equivalence helpers
#
# The central correctness claim of the reproduction is that every execution
# strategy (per-delta vs batched, incremental vs from scratch) converges to
# indistinguishable global state.  These canonicalisers are the
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


def _derivation_record(runtime):
    """Every node's stored derivations, checked against its ``prov`` rows.

    A derivation is stored once, in the head node's tuple store, as the
    ``(RID, RLoc)`` pair its delta carried: for every node and fact, the
    fact's prov rows are exactly its stored derivations (a base one is
    ``(BASE, Loc)``), and every prov row belongs to a stored fact.  Returns
    the ``(node, fact, rid, rloc)`` set, which is content-addressed and so
    comparable between two runs.
    """
    record = set()
    for node_id in runtime.node_ids():
        store = runtime.nodes[node_id].store
        partition = runtime.provenance.store(node_id)
        rows = 0
        for fact in store.all_facts():
            derivations = store.derivations(fact)
            entries = partition.prov_entries(vid_for(fact))
            assert len(entries) == len(derivations) and set(entries) == derivations, (
                node_id, fact, derivations, entries
            )
            rows += len(entries)
            record.update((repr(node_id), repr(fact), rid, repr(rloc)) for rid, rloc in derivations)
        assert rows == partition.prov_count, (node_id, rows, partition.prov_count)
    return record


def _prov_rids_live(runtime):
    """Every live non-BASE prov RID names a live ``ruleExec`` row at its RLoc
    whose head set contains that VID.

    A prov row is the receiver's copy of a derivation and the ``ruleExec``
    row is the executing node's, so the two must agree at every quiescent
    point.  Returns how many prov rows were checked (0 without provenance).
    """
    provenance = runtime.provenance
    if provenance is None:
        return 0
    nodes = set(provenance.node_ids())
    heads = {}  # rloc -> {(rid, head vid)} of its ruleExec rows
    checked = 0
    for node_id in provenance.node_ids():
        for _loc, vid, rid, rloc in provenance.store(node_id).prov_table():
            if rid == BASE_RID:
                continue
            assert rloc in nodes, (node_id, vid, rid, rloc)
            if rloc not in heads:
                heads[rloc] = {(entry.rid, entry.head_vid) for entry in provenance.store(rloc).rule_execs()}
            assert (rid, vid) in heads[rloc], (node_id, vid, rid, rloc)
            checked += 1
    return checked


def _prov_vids_present(runtime):
    """The vids a partition resolves are exactly the facts present in its
    node's store.

    The engine's vid index follows the stores' presence transitions, so it
    holds no fact that has left and misses none that is there, and each
    partition resolves the vids of its own node's facts.  Returns how many
    vids were checked (0 without provenance).
    """
    provenance = runtime.provenance
    if provenance is None:
        return 0
    present = {}
    for node_id in provenance.node_ids():
        partition = provenance.store(node_id)
        for fact in runtime.nodes[node_id].store.all_facts():
            vid = vid_for(fact)
            assert partition.find_tuple(vid) == fact, (node_id, vid, fact)
            assert partition.prov_entries(vid), (node_id, vid, fact)
            present[vid] = fact
    assert provenance.facts == present, provenance.facts.keys() ^ present.keys()
    return len(present)


def _global_state(runtime, relations):
    """Sorted global contents of the given relations."""
    return {relation: sorted(runtime.state(relation), key=repr) for relation in relations}


def _node_stats(runtime):
    """Each node's :class:`~repro.engine.node.NodeStats`, copied: a function
    of the batch history the node applied, queries aside."""
    return {repr(node_id): dataclasses.asdict(runtime.nodes[node_id].stats) for node_id in runtime.node_ids()}


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
def derivation_record():
    return _derivation_record


@pytest.fixture
def prov_rids_live():
    return _prov_rids_live


@pytest.fixture
def prov_vids_present():
    return _prov_vids_present


@pytest.fixture
def global_state():
    return _global_state


@pytest.fixture
def store_snapshots():
    return _store_snapshots


@pytest.fixture
def node_stats():
    return _node_stats


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
