#!/usr/bin/env python3
"""Textual provenance queries and a tamper-evidence audit (the extensions).

The paper's closing section sketches two directions of ongoing work: richer
(graph-based) provenance query languages and securely using provenance in
untrusted environments.  This example demonstrates the reproduction's take on
both:

* the textual query language (``repro.core.language``): lineage / count /
  participants queries written as strings, with wildcards and optimisation
  clauses;
* tamper-evident provenance (``repro.core.security``): per-node attestations
  of the provenance tables, and an audit that pinpoints a node that dropped
  one of its rule-execution records.

Run with::

    python examples/provenance_console.py
"""

from repro import DistributedQueryEngine
from repro.core.language import QueryLanguage
from repro.core.security import ProvenanceAuthenticator
from repro.engine import topology
from repro.protocols import path_vector


def main() -> None:
    net = topology.random_connected(8, edge_probability=0.35, seed=3)
    runtime = path_vector.setup(net)
    engine = DistributedQueryEngine(runtime)
    language = QueryLanguage(engine)

    print("== Textual provenance queries ==")
    queries = [
        'COUNT OF bestPathCost("n0", *, *)',
        'PARTICIPANTS OF bestPathCost("n0", "n5", *) WITH CACHE',
        'LINEAGE OF bestPathCost("n0", "n5", *) SEQUENTIAL THRESHOLD 3',
    ]
    for text in queries:
        print(f"\n> {text}")
        try:
            results = language.run(text)
        except Exception as error:  # noqa: BLE001 - demo output
            print(f"  error: {error}")
            continue
        for result in results[:3]:
            answer = sorted(map(str, result.value)) if isinstance(result.value, frozenset) else result.value
            print(f"  {result.root}: {answer}  [{result.stats.messages} msgs]")
        if len(results) > 3:
            print(f"  ... and {len(results) - 3} more matching tuples")

    print("\n== Tamper-evidence audit ==")
    authenticator = ProvenanceAuthenticator()
    authenticator.generate_keys(runtime.node_ids())
    attestations = authenticator.attest_engine(runtime.provenance)
    print(f"Collected attestations for {len(attestations)} nodes "
          f"({sum(a.row_count() for a in attestations.values())} signed provenance rows)")

    # A compromised node quietly drops one of its rule-execution records.
    victim_store = runtime.provenance.store("n2")
    dropped_rid = victim_store.rule_execs()[0].rid
    victim_store.firings.remove(dropped_rid, victim_store.firings.heads[dropped_rid])
    print("Node n2 silently dropped one ruleExec record...")

    reports = authenticator.verify_engine(runtime.provenance, attestations)
    for node_id in runtime.node_ids():
        report = reports[node_id]
        if not report.is_clean:
            print(report.summary())
    clean = sum(1 for report in reports.values() if report.is_clean)
    print(f"Audit result: {clean}/{len(reports)} nodes verified clean; the tampering was detected.")


if __name__ == "__main__":
    main()
