"""Scenario specifications: declarative descriptions of whole workloads.

A :class:`ScenarioSpec` captures everything needed to reproduce a dynamic
workload bit for bit: the (seeded) topology to generate, the protocol to
run, a schedule of seeded churn phases, an optional query mix, and the
runtime knobs (query-cache capacity, interval index, observability).
Specs are plain frozen dataclasses — hashable, comparable, serialisable via
:meth:`ScenarioSpec.to_dict` — so benchmarks and CI jobs can name them,
sweep single fields and log exactly what ran.

The determinism contract: two drivers running equal specs produce identical
churn traces, identical generated topologies and identical
:class:`~repro.workloads.driver.MetricsReport` deterministic views (message /
event / round / cache counters — everything except wall-clock).
``tests/workloads/test_determinism.py`` pins this.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import EngineError
from repro.engine import topology as topology_generators
from repro.engine.topology import Topology

#: Topology generator registry: kind -> callable returning a Topology.
#: Every generator is deterministic for fixed parameters (seeded where
#: randomness is involved), which the spec's determinism contract relies on.
TOPOLOGY_KINDS: Dict[str, Callable[..., Topology]] = {
    "line": topology_generators.line,
    "ring": topology_generators.ring,
    "star": topology_generators.star,
    "grid": topology_generators.grid,
    "random_connected": topology_generators.random_connected,
    "isp_hierarchy": topology_generators.isp_hierarchy,
    "power_law": topology_generators.power_law,
}


def _freeze(params: Optional[Dict[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class TopologySpec:
    """Which topology generator to run, with which parameters."""

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: object) -> "TopologySpec":
        if kind not in TOPOLOGY_KINDS:
            raise EngineError(
                f"unknown topology kind {kind!r}; known kinds: {sorted(TOPOLOGY_KINDS)}"
            )
        return cls(kind=kind, params=_freeze(dict(params)))

    def build(self) -> Topology:
        return TOPOLOGY_KINDS[self.kind](**dict(self.params))


@dataclass(frozen=True)
class ChurnPhase:
    """One phase of the churn schedule: a named generator plus its knobs.

    ``generator`` names an entry of :data:`repro.workloads.churn.GENERATORS`;
    ``batches`` budgets how many timed delta batches of churn the phase
    emits (generators that leave links or nodes down append trailing
    restore batches beyond the budget, so a phase always hands the next one
    a whole topology); the remaining parameters are passed through to the
    generator.  Each phase derives its RNG from the scenario seed plus
    ``seed_offset``, so phases are independently reproducible and
    reordering one phase's knobs never perturbs another's trace.
    """

    generator: str
    batches: int
    params: Tuple[Tuple[str, object], ...] = ()
    seed_offset: int = 0
    label: Optional[str] = None

    @classmethod
    def make(
        cls,
        generator: str,
        batches: int,
        seed_offset: int = 0,
        label: Optional[str] = None,
        **params: object,
    ) -> "ChurnPhase":
        return cls(
            generator=generator,
            batches=batches,
            params=_freeze(dict(params)),
            seed_offset=seed_offset,
            label=label,
        )

    @property
    def name(self) -> str:
        return self.label or self.generator


@dataclass(frozen=True)
class QueryMixSpec:
    """How provenance-query waves interleave with churn.

    After every ``wave_every``-th churn batch the driver issues
    ``queries_per_wave`` queries against *relation*.  Targets are drawn from
    the relation's current global contents with Zipf-skewed ranks (exponent
    ``zipf_s``; rank 1 = the canonically first tuple), so a small working set
    is queried over and over — the regime the paper's caching optimisation
    targets — while the tail still sees occasional traffic.  ``modes`` and
    ``traversals`` are weighted mixes over query modes (``lineage`` /
    ``participants`` / ``subgraph``) and traversal strategies.
    """

    relation: str
    queries_per_wave: int = 3
    wave_every: int = 1
    modes: Tuple[Tuple[str, float], ...] = (("lineage", 1.0),)
    traversals: Tuple[Tuple[str, float], ...] = (("sequential", 1.0),)
    zipf_s: float = 1.2
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.queries_per_wave < 1:
            raise EngineError(
                f"queries_per_wave must be >= 1, got {self.queries_per_wave}"
            )
        if self.wave_every < 1:
            raise EngineError(f"wave_every must be >= 1, got {self.wave_every}")


@dataclass(frozen=True)
class RuntimeKnobs:
    """The :class:`~repro.engine.runtime.NetTrailsRuntime` configuration axis.

    ``query_cache_capacity=None`` defers to the
    ``NETTRAILS_QUERY_CACHE_CAPACITY`` environment hook — profiles only pin
    what they sweep.
    """

    query_cache_capacity: Optional[int] = None
    #: ``None`` defers to ``NETTRAILS_INTERVAL_INDEX`` (the CI matrix hook);
    #: an explicit bool pins the interval-index query path on or off.
    use_interval_index: Optional[bool] = None
    #: ``None`` defers to ``NETTRAILS_OBSERVABILITY`` (the CI matrix hook);
    #: an explicit bool pins the observability layer on or off.
    observability: Optional[bool] = None

    def runtime_kwargs(self) -> Dict[str, object]:
        return {
            "query_cache_capacity": self.query_cache_capacity,
            "use_interval_index": self.use_interval_index,
            "observability": self.observability,
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible workload description.

    ``batch_size`` re-chunks the churn op stream: ``None`` keeps each
    generator's native batches (one quiescence window per emitted batch),
    an integer ``n`` applies exactly ``n`` churn ops per quiescence window —
    the axis the E15 saturation benchmark sweeps.
    """

    name: str
    topology: TopologySpec
    protocol: str
    seed: int = 0
    churn: Tuple[ChurnPhase, ...] = ()
    queries: Optional[QueryMixSpec] = None
    knobs: RuntimeKnobs = field(default_factory=RuntimeKnobs)
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise EngineError(f"batch_size must be >= 1 or None, got {self.batch_size}")

    def with_knobs(self, **changes: object) -> "ScenarioSpec":
        """A copy with some :class:`RuntimeKnobs` fields replaced."""
        from dataclasses import replace

        return replace(self, knobs=replace(self.knobs, **changes))

    def with_batch_size(self, batch_size: Optional[int]) -> "ScenarioSpec":
        from dataclasses import replace

        return replace(self, batch_size=batch_size)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        from dataclasses import replace

        return replace(self, seed=seed)

    def to_dict(self) -> Dict[str, object]:
        """A plain-data rendering; tuple-valued fields stay tuples, which
        ``json.dumps`` serialises as arrays."""
        return asdict(self)
