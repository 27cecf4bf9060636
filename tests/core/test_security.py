"""Tests for tamper-evident provenance (the secure-provenance extension)."""

import pytest

from repro.errors import ProvenanceError
from repro.core.keys import BASE_RID
from repro.core.security import ProvenanceAuthenticator
from repro.protocols import mincost


@pytest.fixture
def signed_ring(mincost_ring):
    authenticator = ProvenanceAuthenticator()
    authenticator.generate_keys(mincost_ring.node_ids())
    attestations = authenticator.attest_engine(mincost_ring.provenance)
    return mincost_ring, authenticator, attestations


class TestAttestation:
    def test_attestations_cover_every_partition(self, signed_ring):
        runtime, _authenticator, attestations = signed_ring
        assert set(attestations) == set(runtime.node_ids())
        for node_id, attestation in attestations.items():
            store = runtime.provenance.store(node_id)
            assert len(attestation.prov_rows) == store.prov_count
            assert len(attestation.rule_exec_rows) == store.rule_exec_count
            assert attestation.row_count() == store.prov_count + store.rule_exec_count

    def test_attestation_is_deterministic(self, mincost_ring):
        authenticator = ProvenanceAuthenticator()
        authenticator.generate_keys(mincost_ring.node_ids())
        first = authenticator.attest_node(mincost_ring.provenance.store("n0"))
        second = authenticator.attest_node(mincost_ring.provenance.store("n0"))
        assert first.commitment == second.commitment

    def test_missing_key_rejected(self, mincost_ring):
        authenticator = ProvenanceAuthenticator()
        with pytest.raises(ProvenanceError):
            authenticator.attest_node(mincost_ring.provenance.store("n0"))

    def test_different_keys_give_different_commitments(self, mincost_ring):
        a = ProvenanceAuthenticator()
        a.generate_keys(mincost_ring.node_ids(), master_secret=b"one")
        b = ProvenanceAuthenticator()
        b.generate_keys(mincost_ring.node_ids(), master_secret=b"two")
        store = mincost_ring.provenance.store("n0")
        assert a.attest_node(store).commitment != b.attest_node(store).commitment


class TestVerification:
    def test_untampered_engine_verifies_clean(self, signed_ring):
        runtime, authenticator, attestations = signed_ring
        reports = authenticator.verify_engine(runtime.provenance, attestations)
        assert all(report.is_clean for report in reports.values())
        assert "no tampering" in reports["n0"].summary()

    def test_dropped_rows_detected(self, signed_ring):
        runtime, authenticator, attestations = signed_ring
        store = runtime.provenance.store("n1")
        # the compromised node silently drops one of its rule executions
        victim_rid = store.rule_execs()[0].rid
        store.remove_rule_exec(victim_rid)
        reports = authenticator.verify_engine(runtime.provenance, attestations)
        assert not reports["n1"].is_clean
        assert reports["n1"].missing_rows
        assert reports["n0"].is_clean
        assert "TAMPERING" in reports["n1"].summary()

    def test_fabricated_rows_detected(self, signed_ring):
        runtime, authenticator, attestations = signed_ring
        store = runtime.provenance.store("n2")
        store.add_rule_exec("rid_forged", "mc2", "mincost", ("vid_fake",), "vid_also_fake", "n2")
        reports = authenticator.verify_engine(runtime.provenance, attestations)
        assert not reports["n2"].is_clean
        assert reports["n2"].unexpected_rows

    def test_forged_attestation_detected(self, signed_ring):
        runtime, authenticator, attestations = signed_ring
        tampered = attestations["n3"]
        tampered.prov_rows[0] = ("n3", "vid_fake", BASE_RID, "n3")
        report = authenticator.verify(
            "n3",
            tampered,
            [tuple(row) for row in runtime.provenance.store("n3").prov_table()],
            [tuple(row) for row in runtime.provenance.store("n3").rule_exec_table()],
        )
        assert not report.is_clean
        assert report.modified_rows or report.unexpected_rows or report.missing_rows

    def test_legitimate_updates_require_reattestation(self, signed_ring):
        runtime, authenticator, attestations = signed_ring
        runtime.remove_link("n0", "n1")
        runtime.run_to_quiescence()
        stale_reports = authenticator.verify_engine(runtime.provenance, attestations)
        # state legitimately changed, so the stale attestation no longer matches...
        assert any(not report.is_clean for report in stale_reports.values())
        # ...but re-attesting the new state verifies clean again.
        fresh = authenticator.attest_engine(runtime.provenance)
        fresh_reports = authenticator.verify_engine(runtime.provenance, fresh)
        assert all(report.is_clean for report in fresh_reports.values())
