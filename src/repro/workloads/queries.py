"""Query-mix generators: Zipf-skewed provenance-query waves.

Provenance queries in a monitoring deployment are heavily skewed — operators
keep re-querying the few tuples that matter (the flapping route, the hub's
best path) while the long tail is touched rarely.  :func:`query_wave` models
that: targets are drawn from the queried relation's current global contents
with Zipf-skewed ranks, and the query mode / traversal strategy are drawn
from weighted mixes.  Everything is driven by the caller's seeded RNG, so a
wave is a pure function of (RNG state, relation contents) and replays
identically run after run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.optimizations import QueryOptions
from repro.workloads.spec import QueryMixSpec


class ZipfSampler:
    """Sample ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    The cumulative weights are precomputed once, so sampling is a binary
    search — cheap enough to redraw every wave even at scale-profile sizes.
    """

    def __init__(self, n: int, s: float = 1.2):
        if n < 1:
            raise ValueError(f"ZipfSampler needs n >= 1, got {n}")
        self.n = n
        self.s = s
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / (rank**s)
            self._cumulative.append(total)

    def sample(self, rng: random.Random) -> int:
        import bisect

        point = rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)


def weighted_choice(rng: random.Random, pairs: Sequence[Tuple[str, float]]) -> str:
    """Pick one name from ``(name, weight)`` pairs."""
    total = sum(weight for _name, weight in pairs)
    point = rng.random() * total
    accumulated = 0.0
    for name, weight in pairs:
        accumulated += weight
        if point <= accumulated:
            return name
    return pairs[-1][0]


@dataclass(frozen=True)
class QueryCall:
    """One fully resolved query: mode + target + options."""

    mode: str
    relation: str
    values: Tuple[object, ...]
    options: QueryOptions

    def issue(self, engine):
        """Run this query against a :class:`DistributedQueryEngine`."""
        method = getattr(engine, self.mode)
        return method(self.relation, list(self.values), options=self.options)


def query_wave(
    rng: random.Random, mix: QueryMixSpec, rows: Sequence[Tuple[object, ...]]
) -> List[QueryCall]:
    """Resolve one wave of queries against the relation's current *rows*.

    Rows are ranked canonically (sorted by repr) before Zipf sampling, so the
    same contents always yield the same rank order regardless of how the
    runtime enumerated them.  Returns an empty wave while the relation is
    empty (e.g. before the first announcement batch).
    """
    ranked = sorted(rows, key=repr)
    if not ranked:
        return []
    sampler = ZipfSampler(len(ranked), mix.zipf_s)
    calls: List[QueryCall] = []
    for _ in range(mix.queries_per_wave):
        values = ranked[sampler.sample(rng)]
        mode = weighted_choice(rng, mix.modes)
        traversal = weighted_choice(rng, mix.traversals)
        calls.append(
            QueryCall(
                mode=mode,
                relation=mix.relation,
                values=tuple(values),
                options=QueryOptions(use_cache=mix.use_cache, traversal=traversal),
            )
        )
    return calls
