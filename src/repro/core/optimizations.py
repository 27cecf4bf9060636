"""Query optimisations: caching, traversal orders, threshold-based pruning.

The paper (§2.2): *"To reduce querying overhead, ExSPAN adopts a set of
optimization techniques, which include caching previously queried results,
leveraging alternative tree traversal orders, and performing threshold-based
pruning."*

* **Caching** — every node keeps a cache of completed (sub-)query results
  keyed by (vid, query mode, pruning parameters).  Cached entries are tagged
  with the queried vertex's *per-VID reachability version* (see
  :meth:`repro.core.maintenance.ProvenanceEngine.vid_version`): the number
  of the last reachability walk that found the subgraph changed, from the
  first version handed out — so unrelated deltas keep entries alive, and any change a traversal
  could observe invalidates exactly the affected entries.  The cache is a
  plain LRU of :data:`DEFAULT_CACHE_CAPACITY` entries that knows nothing of
  the provenance engine: a lookup compares the version its caller read with
  the entry's tag, and a stale entry leaves when its key is looked up again
  or when the LRU reaches it.  Within one query, results are
  also shared without the cache: a node expands each vertex once and later
  requests for it reuse that frame (see :mod:`repro.core.query`), so the
  cache serves what earlier queries computed.
* **Traversal orders** — a query can expand the alternative derivations of a
  tuple either in parallel or sequentially.  Parallel traversal issues every
  child sub-query of a step in a single fan-out round, with the requests to
  each remote node grouped into one batched message and the replies batched
  on the way back (see :class:`repro.core.query.QueryRequestBatch`): it
  completes in the fewest communication rounds, at the price of exploring
  every alternative.  Sequential traversal dispatches one alternative at a
  time; combined with pruning this avoids sending sub-queries whose results
  would be discarded, trading extra rounds for fewer messages.  Its pruning
  depends on visit order, so with a threshold it expands every path on its
  own instead of sharing frames.
* **Threshold-based pruning** — once the partial result reaches a
  user-provided size threshold, remaining alternatives are not explored and
  the result is marked truncated.  A maximum traversal depth is also
  supported.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

TRAVERSAL_PARALLEL = "parallel"
TRAVERSAL_SEQUENTIAL = "sequential"

#: Per-node query-cache capacity (entries).  It is not a knob: a test or an
#: experiment that wants another bound sets one cache's ``capacity``.
DEFAULT_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class QueryOptions:
    """Per-query optimisation settings.

    ``traversal`` picks how a step's alternative derivations are expanded:
    ``"parallel"`` issues them all in one batched fan-out round (fewest
    rounds / lowest latency), ``"sequential"`` one at a time (combined with
    ``threshold`` pruning this sends the fewest messages).  ``use_cache``
    reuses previously computed sub-results, ``threshold`` stops once the
    partial result is large enough, and ``max_depth`` bounds the traversal.

    >>> QueryOptions.baseline().traversal
    'parallel'
    >>> options = QueryOptions.optimized(threshold=3)
    >>> (options.traversal, options.use_cache, options.threshold)
    ('sequential', True, 3)
    >>> QueryOptions(traversal="diagonal")
    Traceback (most recent call last):
        ...
    ValueError: traversal must be 'parallel' or 'sequential', not 'diagonal'
    """

    use_cache: bool = False
    traversal: str = TRAVERSAL_PARALLEL
    threshold: Optional[int] = None
    max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.traversal not in (TRAVERSAL_PARALLEL, TRAVERSAL_SEQUENTIAL):
            raise ValueError(
                f"traversal must be {TRAVERSAL_PARALLEL!r} or {TRAVERSAL_SEQUENTIAL!r}, "
                f"not {self.traversal!r}"
            )
        if self.threshold is not None and self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")

    def __repr__(self) -> str:
        # The dataclass repr's bytes without its recursion guard: every
        # traversal request renders its options for message size accounting.
        return (
            f"QueryOptions(use_cache={self.use_cache!r}, traversal={self.traversal!r}, "
            f"threshold={self.threshold!r}, max_depth={self.max_depth!r})"
        )

    def cache_key_part(self) -> Tuple[object, ...]:
        """The part of the cache key that depends on the options.

        Results are only comparable when pruning parameters match, so both
        are part of the key; the traversal order does not change the result
        and is excluded.
        """
        return (self.threshold, self.max_depth)

    @staticmethod
    def baseline() -> "QueryOptions":
        """No optimisations: parallel traversal, no cache, no pruning."""
        return QueryOptions()

    @staticmethod
    def optimized(threshold: Optional[int] = None) -> "QueryOptions":
        """All optimisations on (sequential traversal enables early pruning)."""
        return QueryOptions(
            use_cache=True,
            traversal=TRAVERSAL_SEQUENTIAL,
            threshold=threshold,
            max_depth=None,
        )


@dataclass
class _CacheEntry:
    value: object
    version: int


_CacheKey = Tuple[str, str, Tuple[object, ...]]


class NodeQueryCache:
    """Per-node LRU cache of completed sub-query results, tagged with versions.

    ``store`` files a result under the version its caller read before the
    result was computed — the queried vertex's per-VID reachability
    version — and ``lookup`` serves it only while the caller's current
    version still equals that tag; an entry whose tag differs is dropped
    (``stale_dropped``) and the lookup misses.  The cache never reads a
    version itself, so validation can only produce false invalidations,
    never stale answers: any change a traversal from the vertex could
    observe moves its version before the entry can be looked up again.

    ``capacity`` bounds the entry count: a store beyond it evicts the least
    recently used entry (``evictions``).  A dead entry is not hunted down;
    it leaves when its key is looked up again or when the LRU reaches it.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[_CacheKey, _CacheEntry]" = OrderedDict()
        self.capacity = DEFAULT_CACHE_CAPACITY
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.stale_dropped = 0

    def lookup(self, vid: str, mode: str, options: QueryOptions, version: int) -> Optional[object]:
        key = (vid, mode, options.cache_key_part())
        entry = self._entries.get(key)
        if entry is None or entry.version != version:
            if entry is not None:
                del self._entries[key]
                self.stale_dropped += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.value

    def store(self, vid: str, mode: str, options: QueryOptions, version: int, value: object) -> None:
        key = (vid, mode, options.cache_key_part())
        self._entries[key] = _CacheEntry(value=value, version=version)
        self._entries.move_to_end(key)
        self.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def counters(self) -> "OrderedDict[str, int]":
        """All bookkeeping counters plus the resident entry count (stale ones included), for reporting."""
        return OrderedDict(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            stale_dropped=self.stale_dropped,
            entries=len(self._entries),
        )

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
