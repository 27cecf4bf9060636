"""Workload & scenario subsystem: describe, generate and drive dynamic runs.

The paper's demonstration is provenance staying correct and queryable *while
the network misbehaves*.  This package owns that misbehaviour repo-wide:

* :mod:`repro.workloads.spec` — :class:`ScenarioSpec` and friends: frozen,
  serialisable descriptions of a whole workload (topology + protocol +
  seeded churn schedule + query mix + runtime knobs);
* :mod:`repro.workloads.churn` — seeded churn generators (link flaps, node
  fail/recover, prefix announce/withdraw, hot-hub skew, the equivalence
  harness's random link churn), each an iterator of timed delta batches;
* :mod:`repro.workloads.queries` — Zipf-skewed provenance-query waves;
* :mod:`repro.workloads.clients` — concurrent client threads driving a
  :class:`~repro.durability.service.ServiceRuntime` with Zipf query mixes
  while churn commits interleave (latency percentiles out);
* :mod:`repro.workloads.driver` — :class:`ScenarioDriver`, which assembles a
  runtime from a spec, interleaves churn batches with query waves, and emits
  a structured :class:`MetricsReport`;
* :mod:`repro.workloads.profiles` — the named catalogue (``smoke`` /
  ``demo`` / ``scale``) benchmarks and CI run.

Determinism contract: equal specs ⇒ bit-identical churn traces, generated
topologies and report deterministic views.
"""

from repro.workloads.churn import (
    GENERATORS,
    ChurnBatch,
    ChurnOp,
    apply_batch,
    apply_churn_op,
    scenario_trace,
    trace_digest,
)
from repro.workloads.clients import ClientMix, ClientReport, run_concurrent_clients
from repro.workloads.driver import MetricsReport, PhaseMetrics, ScenarioDriver, run_scenario
from repro.workloads.profiles import PROFILES, build_profile, demo, scale, smoke
from repro.workloads.queries import QueryCall, ZipfSampler, query_wave
from repro.workloads.spec import (
    TOPOLOGY_KINDS,
    ChurnPhase,
    QueryMixSpec,
    RuntimeKnobs,
    ScenarioSpec,
    TopologySpec,
)

__all__ = [
    "ChurnBatch",
    "ChurnOp",
    "ChurnPhase",
    "ClientMix",
    "ClientReport",
    "GENERATORS",
    "MetricsReport",
    "PROFILES",
    "PhaseMetrics",
    "QueryCall",
    "QueryMixSpec",
    "RuntimeKnobs",
    "ScenarioDriver",
    "ScenarioSpec",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "ZipfSampler",
    "apply_batch",
    "apply_churn_op",
    "build_profile",
    "demo",
    "query_wave",
    "run_concurrent_clients",
    "run_scenario",
    "scale",
    "scenario_trace",
    "smoke",
    "trace_digest",
]
