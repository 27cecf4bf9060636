"""Named scenario profiles: the catalogue CI, benchmarks and demos run.

Three sizes of the same story — a provenance-tracked network absorbing
churn while being queried:

* ``smoke`` — ~10 nodes, seconds-fast; runs inside CI's bench-trajectory
  job with gated counters, and is the subject of the run-twice
  determinism tests.
* ``demo`` — ~105 nodes, the interactive-demo scale; exercises every churn
  generator and a mixed query load.
* ``scale`` — 1000+ nodes on a generated AS-level graph (hierarchical ISP
  by default, ``topology_kind="power_law"`` for degree-skewed AS graphs);
  the E15 benchmark sweeps ``batch_size`` over it to chart where batch
  absorption saturates.

All profiles run :mod:`repro.protocols.prefix_routing` — per-prefix state is
what keeps 1000+-node convergence in seconds — and return plain
:class:`~repro.workloads.spec.ScenarioSpec` values, so callers sweep axes
with ``spec.with_batch_size(...)`` / ``spec.with_knobs(batch_deltas=...)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import EngineError
from repro.workloads.spec import (
    ChurnPhase,
    QueryMixSpec,
    RuntimeKnobs,
    ScenarioSpec,
    TopologySpec,
)

#: Default seed shared by the named profiles (override per call).
DEFAULT_SEED = 11


def smoke(seed: int = DEFAULT_SEED) -> ScenarioSpec:
    """CI-sized: every generator touched, a couple of quiescence windows each."""
    return ScenarioSpec(
        name="smoke",
        topology=TopologySpec.make("isp_hierarchy", tier1_count=2, tier2_per_tier1=2, stubs_per_tier2=1, seed=seed),
        protocol="prefix_routing",
        seed=seed,
        churn=(
            ChurnPhase.make(
                "prefix_announce_withdraw", batches=3, prefixes=2, origins_per_prefix=2
            ),
            ChurnPhase.make("link_flap", batches=2, flaps_per_batch=1),
            ChurnPhase.make("node_fail_recover", batches=2),
        ),
        queries=QueryMixSpec(relation="best", queries_per_wave=2, wave_every=2),
    )


def demo(seed: int = DEFAULT_SEED) -> ScenarioSpec:
    """Interactive-demo scale (~105 nodes), mixed churn and query modes."""
    return ScenarioSpec(
        name="demo",
        topology=TopologySpec.make(
            "isp_hierarchy", tier1_count=5, tier2_per_tier1=4, stubs_per_tier2=4, seed=seed
        ),
        protocol="prefix_routing",
        seed=seed,
        churn=(
            ChurnPhase.make(
                "prefix_announce_withdraw",
                batches=4,
                prefixes=3,
                origins_per_prefix=2,
                toggles_per_batch=2,
            ),
            ChurnPhase.make("link_flap", batches=3, flaps_per_batch=2),
            ChurnPhase.make("hot_hub_skew", batches=2, ops_per_batch=3),
            ChurnPhase.make("node_fail_recover", batches=2),
        ),
        queries=QueryMixSpec(
            relation="best",
            queries_per_wave=3,
            wave_every=2,
            modes=(("lineage", 0.6), ("participants", 0.25), ("subgraph", 0.15)),
            traversals=(("sequential", 0.5), ("parallel", 0.5)),
        ),
    )


def scale(seed: int = DEFAULT_SEED, topology_kind: str = "isp_hierarchy") -> ScenarioSpec:
    """1000+-node AS-level scenario — the saturation benchmark's subject.

    ``isp_hierarchy`` builds a 1010-node provider hierarchy;
    ``power_law`` a 1024-node preferential-attachment AS graph with hub
    degree skew.  Churn combines BGP announce/withdraw toggles with
    hub-concentrated link flaps; queries stay light so the measured cost is
    churn absorption.
    """
    if topology_kind == "isp_hierarchy":
        topology = TopologySpec.make(
            "isp_hierarchy", tier1_count=10, tier2_per_tier1=10, stubs_per_tier2=9, seed=seed
        )
    elif topology_kind == "power_law":
        topology = TopologySpec.make("power_law", count=1024, attach=2, seed=seed)
    else:
        raise EngineError(
            f"scale profile topology_kind must be 'isp_hierarchy' or 'power_law', "
            f"got {topology_kind!r}"
        )
    return ScenarioSpec(
        name=f"scale-{topology_kind}",
        topology=topology,
        protocol="prefix_routing",
        seed=seed,
        churn=(
            ChurnPhase.make(
                "prefix_announce_withdraw",
                batches=5,
                prefixes=4,
                origins_per_prefix=2,
                toggles_per_batch=2,
            ),
            ChurnPhase.make("hot_hub_skew", batches=3, ops_per_batch=4),
        ),
        queries=QueryMixSpec(relation="best", queries_per_wave=2, wave_every=4),
    )


PROFILES: Dict[str, Callable[..., ScenarioSpec]] = {
    "smoke": smoke,
    "demo": demo,
    "scale": scale,
}


def build_profile(
    name: str,
    seed: Optional[int] = None,
    batch_size: Optional[int] = None,
    knobs: Optional[RuntimeKnobs] = None,
    **profile_params: object,
) -> ScenarioSpec:
    """Look up a named profile and apply the common sweep axes in one call."""
    if name not in PROFILES:
        raise EngineError(f"unknown profile {name!r}; known profiles: {sorted(PROFILES)}")
    spec = PROFILES[name](**profile_params) if seed is None else PROFILES[name](
        seed=seed, **profile_params
    )
    if batch_size is not None:
        spec = spec.with_batch_size(batch_size)
    if knobs is not None:
        from dataclasses import replace

        spec = replace(spec, knobs=knobs)
    return spec
