"""Tamper-evident provenance (a simplified "secure network provenance").

The paper closes by pointing at ongoing work on "enhancing the current system
to securely utilize network provenance information in untrusted environments"
(reference [9], *Tracking Adversarial Behavior in Distributed Systems with
Secure Network Provenance*).  This module implements a self-contained,
laptop-scale version of that idea:

* every node holds a secret authentication key;
* an :class:`ProvenanceAuthenticator` produces, for a node's partition of the
  provenance tables, one authenticator (HMAC-SHA256) per ``prov`` /
  ``ruleExec`` row plus a commitment over the whole partition;
* an auditor holding the keys can later :meth:`~ProvenanceAuthenticator.verify`
  a (possibly re-serialised) copy of the tables and obtain a precise
  :class:`TamperReport`: rows that were modified, added or dropped by a
  compromised node.

This is *not* the full SNP protocol (no signed cross-node commitments or
evidence of equivocation), but it exercises the same code path a secure
deployment needs: canonical serialisation of provenance rows, per-node
authentication, and audit-time verification — and it is what the secure-mode
benchmarks and tests build on.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ProvenanceError
from repro.core.maintenance import NodeProvenanceStore, ProvenanceEngine


def _canonical(row: Iterable[object]) -> bytes:
    """A canonical byte representation of one provenance row."""
    return json.dumps(list(row), sort_keys=True, default=str).encode("utf-8")


def _authenticate(key: bytes, row: Iterable[object]) -> str:
    return hmac.new(key, _canonical(row), hashlib.sha256).hexdigest()


@dataclass
class NodeAttestation:
    """The signed snapshot of one node's provenance partition."""

    node_id: str
    prov_rows: List[Tuple[object, ...]]
    rule_exec_rows: List[Tuple[object, ...]]
    prov_authenticators: List[str]
    rule_exec_authenticators: List[str]
    commitment: str

    def row_count(self) -> int:
        return len(self.prov_rows) + len(self.rule_exec_rows)


@dataclass
class TamperReport:
    """The auditor's verdict for one node's partition."""

    node_id: str
    modified_rows: List[Tuple[object, ...]] = field(default_factory=list)
    missing_rows: List[Tuple[object, ...]] = field(default_factory=list)
    unexpected_rows: List[Tuple[object, ...]] = field(default_factory=list)
    commitment_valid: bool = True

    @property
    def is_clean(self) -> bool:
        return (
            self.commitment_valid
            and not self.modified_rows
            and not self.missing_rows
            and not self.unexpected_rows
        )

    def summary(self) -> str:
        if self.is_clean:
            return f"node {self.node_id}: provenance verified, no tampering detected"
        parts = [f"node {self.node_id}: TAMPERING DETECTED"]
        if not self.commitment_valid:
            parts.append("  partition commitment does not verify")
        if self.modified_rows:
            parts.append(f"  {len(self.modified_rows)} modified row(s)")
        if self.missing_rows:
            parts.append(f"  {len(self.missing_rows)} missing row(s)")
        if self.unexpected_rows:
            parts.append(f"  {len(self.unexpected_rows)} unexpected row(s)")
        return "\n".join(parts)


class ProvenanceAuthenticator:
    """Sign and audit per-node provenance partitions."""

    def __init__(self, keys: Optional[Dict[object, bytes]] = None):
        self._keys: Dict[object, bytes] = dict(keys or {})

    # -- key management ---------------------------------------------------------

    def generate_keys(self, node_ids: Iterable[object], master_secret: bytes = b"nettrails") -> None:
        """Derive one deterministic per-node key from a master secret (for tests/demos)."""
        for node_id in node_ids:
            self._keys[node_id] = hashlib.sha256(master_secret + repr(node_id).encode()).digest()

    def key_for(self, node_id: object) -> bytes:
        if node_id not in self._keys:
            raise ProvenanceError(f"no authentication key registered for node {node_id!r}")
        return self._keys[node_id]

    # -- signing -------------------------------------------------------------------

    def _rows_of(self, store: NodeProvenanceStore) -> Tuple[List[Tuple[object, ...]], List[Tuple[object, ...]]]:
        prov_rows = [tuple(row) for row in store.prov_table()]
        rule_exec_rows = [tuple(row) for row in store.rule_exec_table()]
        return prov_rows, rule_exec_rows

    def attest_node(self, store: NodeProvenanceStore) -> NodeAttestation:
        """Produce the signed snapshot of one node's provenance partition."""
        key = self.key_for(store.node_id)
        prov_rows, rule_exec_rows = self._rows_of(store)
        prov_auth = [_authenticate(key, row) for row in prov_rows]
        exec_auth = [_authenticate(key, row) for row in rule_exec_rows]
        commitment = _authenticate(key, prov_auth + exec_auth + [str(store.node_id)])
        return NodeAttestation(
            node_id=str(store.node_id),
            prov_rows=prov_rows,
            rule_exec_rows=rule_exec_rows,
            prov_authenticators=prov_auth,
            rule_exec_authenticators=exec_auth,
            commitment=commitment,
        )

    def attest_engine(self, engine: ProvenanceEngine) -> Dict[object, NodeAttestation]:
        """Sign every node's partition of a provenance engine."""
        return {
            node_id: self.attest_node(engine.store(node_id)) for node_id in engine.node_ids()
        }

    # -- verification -------------------------------------------------------------------

    def verify(
        self,
        node_id: object,
        attestation: NodeAttestation,
        claimed_prov_rows: Iterable[Tuple[object, ...]],
        claimed_rule_exec_rows: Iterable[Tuple[object, ...]],
    ) -> TamperReport:
        """Audit a claimed copy of a node's tables against its attestation.

        The attestation is assumed to have been collected while the node was
        still honest (e.g. shipped to the log store right after each update);
        the *claimed* rows are whatever the node reports at audit time.
        """
        key = self.key_for(node_id)
        report = TamperReport(node_id=str(node_id))

        expected_commitment = _authenticate(
            key,
            attestation.prov_authenticators
            + attestation.rule_exec_authenticators
            + [str(node_id)],
        )
        report.commitment_valid = hmac.compare_digest(
            expected_commitment, attestation.commitment
        )

        def audit(
            signed_rows: List[Tuple[object, ...]],
            authenticators: List[str],
            claimed: Iterable[Tuple[object, ...]],
        ) -> None:
            claimed_set = {tuple(row) for row in claimed}
            signed_set = set()
            for row, authenticator in zip(signed_rows, authenticators):
                signed_set.add(tuple(row))
                if not hmac.compare_digest(_authenticate(key, row), authenticator):
                    report.modified_rows.append(tuple(row))
            report.missing_rows.extend(sorted(signed_set - claimed_set, key=repr))
            report.unexpected_rows.extend(sorted(claimed_set - signed_set, key=repr))

        audit(attestation.prov_rows, attestation.prov_authenticators, claimed_prov_rows)
        audit(
            attestation.rule_exec_rows,
            attestation.rule_exec_authenticators,
            claimed_rule_exec_rows,
        )
        return report

    def verify_engine(
        self, engine: ProvenanceEngine, attestations: Dict[object, NodeAttestation]
    ) -> Dict[object, TamperReport]:
        """Audit every node of *engine* against previously collected attestations."""
        reports = {}
        for node_id, attestation in attestations.items():
            store = engine.store(node_id)
            prov_rows, rule_exec_rows = self._rows_of(store)
            reports[node_id] = self.verify(node_id, attestation, prov_rows, rule_exec_rows)
        return reports
