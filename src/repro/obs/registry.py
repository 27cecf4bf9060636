"""Process-wide metrics registry: views and fixed-bucket histograms.

The registry unifies the ad-hoc counter surfaces that accreted across the
engine (query cache, vid-version pruning, WAL appends,
evaluator firing counts)
without breaking their existing dict-returning APIs.  Two mechanisms:

* **Views** — pull-based adapters over existing counter dicts.  A view is a
  zero-argument callable returning a mapping; at :meth:`MetricsRegistry.collect`
  time its entries are renamed into the unified ``subsystem.metric`` scheme.
  Views cost *nothing* on the hot path: the instrumented code keeps mutating
  its plain ints, and the registry only reads them when someone asks.  Every
  count the engine exposes is a view.
* **Histograms** — push-style :class:`Histogram` objects with labeled
  children for what no counter dict holds: per-mode query latency.

Everything here is observational only: nothing in this module participates
in the engine's determinism contract, and the whole subsystem is absent
unless ``NetTrailsRuntime(observability=True)`` turns it on.

>>> registry = MetricsRegistry()
>>> registry.register_view("cache", lambda: {"hits": 3, "misses": 1})
>>> registry.histogram("query.latency_seconds", buckets=(0.1, 1.0)).observe(0.05)
>>> collected = registry.collect()
>>> (collected["cache.hits"], collected["query.latency_seconds.count"])
(3, 1)
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import EngineError

#: Default histogram bucket upper bounds, tuned for operation latencies in
#: seconds (100µs .. 10s).  The overflow bucket (+Inf) is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


class Histogram:
    """A fixed-bucket histogram with exact count/sum/extremes.

    Percentiles are nearest-rank over the bucket boundaries: the reported
    value is the upper bound of the bucket containing the rank, clamped to
    the observed maximum (so the overflow bucket reports the true max and
    percentile estimates never exceed an observed sample).  This is the
    shared percentile implementation behind the query-latency histogram and
    the client-harness latency breakdowns (E17's client percentiles use
    buckets at the observed values, which make them exact).  :meth:`labels`
    gives the child histogram of one label combination (the query engine
    keeps one per query mode).

    >>> h = Histogram("demo", buckets=(0.001, 0.01, 0.1, 1.0))
    >>> for v in (0.0005, 0.002, 0.003, 0.02, 0.5):
    ...     h.observe(v)
    >>> (h.count, round(h.sum, 4), h.percentile(0.5), h.percentile(0.99))
    (5, 0.5255, 0.01, 0.5)
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise EngineError(f"histogram {name!r} buckets must be a sorted non-empty sequence")
        self.name = name
        self.help = help
        self.label_values: _LabelKey = ()
        self._children: "OrderedDict[_LabelKey, Histogram]" = OrderedDict()
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1: overflow (+Inf)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def labels(self, **labelset: object) -> "Histogram":
        """The child histogram for one label combination (created on first use)."""
        key: _LabelKey = tuple(sorted((k, str(v)) for k, v in labelset.items()))
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.name, self.help, self.buckets)
            child.label_values = key
            self._children[key] = child
        return child

    def children(self) -> List["Histogram"]:
        return list(self._children.values())

    def series(self) -> str:
        if not self.label_values:
            return self.name
        rendered = ",".join(f'{key}="{value}"' for key, value in self.label_values)
        return f"{self.name}{{{rendered}}}"

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                break
        else:
            self._counts[-1] += 1

    def bucket_counts(self) -> List[int]:
        """Per-bucket observation counts (last entry is the +Inf overflow)."""
        return list(self._counts)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile estimate, ``p`` in (0, 1]."""
        if not 0.0 < p <= 1.0:
            raise EngineError(f"percentile fraction must be in (0, 1], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p * self.count))
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return min(bound, self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """count/mean/max/p50/p95/p99 of the observations."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def collect_into(self, out: "OrderedDict[str, object]") -> None:
        base = self.series()
        out[f"{base}.count"] = self.count
        out[f"{base}.sum"] = self.sum
        out[f"{base}.p50"] = self.percentile(0.50)
        out[f"{base}.p95"] = self.percentile(0.95)
        out[f"{base}.p99"] = self.percentile(0.99)
        for child in self.children():
            child.collect_into(out)


class MetricsRegistry:
    """The process-wide view and histogram catalogue.

    Histograms are get-or-create by name.  Views are keyed by subsystem
    name and the *last registration wins* — rebuilding a query engine
    simply repoints the ``cache`` view at the new engine's counters.
    """

    def __init__(self) -> None:
        self._histograms: "OrderedDict[str, Histogram]" = OrderedDict()
        self._views: Dict[str, Callable[[], Mapping[str, object]]] = {}

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, help, buckets)
        return histogram

    def register_view(self, subsystem: str, view: Callable[[], Mapping[str, object]]) -> None:
        """Adopt an existing counter surface under ``subsystem.*`` names."""
        self._views[subsystem] = view

    def histograms(self) -> List[Histogram]:
        return list(self._histograms.values())

    def view_values(self) -> "OrderedDict[str, object]":
        """Every view's entries, renamed to ``subsystem.metric``."""
        out: "OrderedDict[str, object]" = OrderedDict()
        for subsystem, view in sorted(self._views.items()):
            for key, value in view().items():
                out[f"{subsystem}.{key}"] = value
        return out

    def collect(self) -> "OrderedDict[str, object]":
        """One flat snapshot of every view entry and histogram series."""
        out = self.view_values()
        for histogram in self.histograms():
            histogram.collect_into(out)
        return out

    def get(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)
