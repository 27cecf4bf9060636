"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry unifies the ad-hoc counter surfaces that accreted across the
engine (query cache, interval index, vid-version pruning, WAL appends,
backend wave occupancy, evaluator firing counts)
without breaking their existing dict-returning APIs.  Two mechanisms:

* **Views** — pull-based adapters over existing counter dicts.  A view is a
  zero-argument callable returning a mapping; at :meth:`MetricsRegistry.collect`
  time its entries are renamed into the unified ``subsystem.metric`` scheme.
  Views cost *nothing* on the hot path: the instrumented code keeps mutating
  its plain ints, and the registry only reads them when someone asks.
* **Instruments** — push-style :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` objects with labeled children for *new* measurements
  (per-mode query latency, WAL fsync stalls, wave occupancy).  Instruments
  are lock-protected so the thread backend may record from worker threads.

Everything here is observational only: nothing in this module participates
in the engine's determinism contract, and the whole subsystem is absent
unless ``NetTrailsRuntime(observability=True)`` (or
``NETTRAILS_OBSERVABILITY=1``) turns it on.

>>> registry = MetricsRegistry()
>>> registry.counter("query.issued").inc()
>>> registry.register_view("cache", lambda: {"hits": 3, "misses": 1})
>>> collected = registry.collect()
>>> (collected["cache.hits"], collected["query.issued"])
(3, 1.0)
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import EngineError

#: Default histogram bucket upper bounds, tuned for operation latencies in
#: seconds (100µs .. 10s).  The overflow bucket (+Inf) is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _series_name(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class _Instrument:
    """Shared machinery: naming, labeled children, a mutation lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.label_values: _LabelKey = ()
        self._lock = threading.Lock()
        self._children: "OrderedDict[_LabelKey, _Instrument]" = OrderedDict()

    def _new_child(self) -> "_Instrument":
        return type(self)(self.name, self.help)

    def labels(self, **labelset: object) -> "_Instrument":
        """The child instrument for one label combination (created on first use)."""
        key: _LabelKey = tuple(sorted((k, str(v)) for k, v in labelset.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                child.label_values = key
                self._children[key] = child
            return child

    def children(self) -> List["_Instrument"]:
        with self._lock:
            return list(self._children.values())

    def series(self) -> str:
        return _series_name(self.name, self.label_values)

    def collect_into(self, out: "OrderedDict[str, object]") -> None:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count (events, messages, bytes)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise EngineError(f"counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def collect_into(self, out: "OrderedDict[str, object]") -> None:
        out[self.series()] = self._value
        for child in self.children():
            child.collect_into(out)


class Gauge(_Instrument):
    """A value that can go up and down (live entries, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def collect_into(self, out: "OrderedDict[str, object]") -> None:
        out[self.series()] = self._value
        for child in self.children():
            child.collect_into(out)


class Histogram(_Instrument):
    """A fixed-bucket histogram with exact count/sum/extremes.

    Percentiles are nearest-rank over the bucket boundaries: the reported
    value is the upper bound of the bucket containing the rank, clamped to
    the observed maximum (so the overflow bucket reports the true max and
    percentile estimates never exceed an observed sample).  This is the
    shared percentile implementation behind
    :func:`repro.durability.service.latency_summary` and the client-harness
    latency breakdowns.

    >>> h = Histogram("demo", buckets=(0.001, 0.01, 0.1, 1.0))
    >>> for v in (0.0005, 0.002, 0.003, 0.02, 0.5):
    ...     h.observe(v)
    >>> (h.count, round(h.sum, 4), h.percentile(0.5), h.percentile(0.99))
    (5, 0.5255, 0.01, 0.5)
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise EngineError(f"histogram {name!r} buckets must be a sorted non-empty sequence")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1: overflow (+Inf)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.buckets)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
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
        with self._lock:
            return list(self._counts)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile estimate, ``p`` in (0, 1]."""
        if not 0.0 < p <= 1.0:
            raise EngineError(f"percentile fraction must be in (0, 1], got {p}")
        with self._lock:
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
        """The legacy ``latency_summary`` key shape: count/mean/max/p50/p95/p99."""
        with self._lock:
            count = self.count
            mean = self.sum / count if count else 0.0
            maximum = self.max if count else 0.0
        return {
            "count": float(count),
            "mean": mean,
            "max": maximum,
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
    """The process-wide instrument and view catalogue.

    Instruments are get-or-create by name (re-requesting an existing name
    with the same type returns the same object; a type clash raises).
    Views are keyed by subsystem name and the *last registration wins* —
    rebuilding a query engine simply repoints the ``cache`` view at the new
    engine's counters.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "OrderedDict[str, _Instrument]" = OrderedDict()
        self._views: Dict[str, Callable[[], Mapping[str, object]]] = {}

    def _instrument(self, cls: type, name: str, help: str, **kwargs: object) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise EngineError(
                        f"metric {name!r} already registered as {type(existing).__name__}, "
                        f"not {cls.__name__}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._instrument(Counter, name, help)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._instrument(Gauge, name, help)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        instrument = self._instrument(Histogram, name, help, buckets=buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    def register_view(self, subsystem: str, view: Callable[[], Mapping[str, object]]) -> None:
        """Adopt an existing counter surface under ``subsystem.*`` names."""
        with self._lock:
            self._views[subsystem] = view

    def instruments(self) -> Iterator[_Instrument]:
        with self._lock:
            return iter(list(self._instruments.values()))

    def view_values(self) -> "OrderedDict[str, object]":
        """Every view's entries, renamed to ``subsystem.metric``."""
        with self._lock:
            views = sorted(self._views.items())
        out: "OrderedDict[str, object]" = OrderedDict()
        for subsystem, view in views:
            for key, value in view().items():
                out[f"{subsystem}.{key}"] = value
        return out

    def collect(self) -> "OrderedDict[str, object]":
        """One flat snapshot of every view entry and instrument series."""
        out = self.view_values()
        for instrument in self.instruments():
            instrument.collect_into(out)
        return out

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)
