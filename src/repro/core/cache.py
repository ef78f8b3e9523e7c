"""Bounded LRU cache with hit/miss accounting.

The paper's feasibility argument (Section 4.1) is that the per-
specialization artifacts — result lists R_q' and their snippet vectors —
are tiny and computed offline, so the online system only ever *reads*
them.  A production serving path still cannot hold every mined
specialization in memory, so both the
:class:`~repro.core.framework.DiversificationFramework` and the
:mod:`repro.serving` layer keep those artifacts in this bounded LRU
instead of the seed's unbounded dicts.

The counters (hits / misses / evictions) feed the framework's
``cache_info()`` and the serving layer's throughput reports, and
:class:`Rollup` is the one rule by which such part reports — per cache,
shard or index partition — combine into a whole.

What the framework and the service derive from an engine epoch is
cached as an *epoch-tagged* tuple, ``(epoch, ...)``, reused only at that
epoch (:func:`put_tagged`); a publish drops every entry tagged before it
(:meth:`LRUCache.discard`).
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Generic, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")
R = TypeVar("R", bound="Rollup")

__all__ = ["CacheStats", "LRUCache", "Rollup", "put_tagged"]

_MISSING = object()


def _values(f: dataclasses.Field, parts: list) -> list:
    return [getattr(part, f.name) for part in parts]


def _concat(f: dataclasses.Field, parts: list, name: str | None):
    pooled = f.default_factory()  # a bounded deque keeps its bound
    for values in _values(f, parts):
        pooled.extend(values)
    return pooled


def _add_buckets(f: dataclasses.Field, parts: list, name: str | None) -> dict:
    buckets: dict = {}
    for histogram in _values(f, parts):
        for bucket, count in histogram.items():
            buckets[bucket] = buckets.get(bucket, 0) + count
    return buckets


# Field ``metadata`` naming a roll-up rule (see Rollup).
MAX = {"rollup": lambda f, parts, name: max(_values(f, parts), default=0)}
CONCAT = {"rollup": _concat}
BUCKETS = {"rollup": _add_buckets}
BUSY = {
    "rollup": lambda f, parts, name: sum(p.busy_seconds or p.seconds for p in parts)
}
PARTS = {"rollup": lambda f, parts, name: tuple(parts)}
PART_COPIES = {"rollup": lambda f, parts, name: tuple(map(copy.deepcopy, parts))}


def named(default: str) -> dict:
    """Rule of a ``name`` field: ``merge``'s *name*, else *default*."""
    return {"rollup": lambda f, parts, name: default if name is None else name}


class Rollup:
    """Base of the report dataclasses that roll parts up into a whole.

    ``merge`` combines each field by the rule its ``metadata`` names:
    :data:`MAX` takes the largest; :data:`CONCAT` pools samples into the
    field's (bounded) default; :data:`BUCKETS` adds ``{bucket: count}``
    histograms; :data:`BUSY` sums ``busy_seconds or seconds``;
    :data:`PARTS` keeps the parts as the breakdown and
    :data:`PART_COPIES` deep copies of them (a snapshot of mutable
    parts); :func:`named` labels the whole.  Every other field sums.  A
    merged report merges again by the same rule, so roll-ups nest.
    """

    @classmethod
    def merge(cls: type[R], parts: Iterable[R], name: str | None = None) -> R:
        """One report for all of *parts* (any iterable); an empty input
        yields a well-formed zeroed report."""
        parts = list(parts)
        merged = {}
        for f in dataclasses.fields(cls):
            rule = f.metadata.get("rollup")
            merged[f.name] = rule(f, parts, name) if rule else sum(_values(f, parts))
        return cls(**merged)


@dataclass(frozen=True)
class CacheStats(Rollup):
    """Snapshot of one cache's counters.

    Every field sums under :meth:`~Rollup.merge`: capacity, occupancy
    and traffic are additive across the disjoint caches of a cluster, so
    a merged ``hit_rate`` is the traffic-weighted cluster hit rate.

    >>> a = CacheStats(maxsize=2, size=1, hits=3, misses=1, evictions=0)
    >>> CacheStats.merge([a, a]).hits
    6
    """

    maxsize: int
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LRUCache(Generic[K, V]):
    """A dict bounded to *maxsize* entries, evicting least-recently-used.

    ``get`` counts a hit or a miss and refreshes recency; ``put`` inserts
    or updates and evicts the stalest entry when over capacity.
    ``__contains__`` is a pure probe — it does not touch the counters or
    the recency order — so instrumentation can inspect the cache without
    distorting its own statistics.

    Individual operations are atomic (an internal lock), so a cache
    shared across threads — e.g. one store-backed engine's document cache
    behind several serving shards — cannot be structurally corrupted or crash
    mid-``get`` when another thread evicts.  Compound check-then-act
    sequences remain the caller's responsibility to synchronise.

    The cache pickles: entries, recency order and counters round-trip,
    and the lock is recreated on load.  This is what lets a warmed
    framework travel across a process boundary (the
    :class:`~repro.serving.replication.ProcessBackend` worker protocol) or
    be persisted as the index store's ``warm_artifacts`` rows
    (:mod:`repro.retrieval.store`).

    >>> cache = LRUCache(2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> "a" in cache, cache.stats().evictions
    (False, 1)
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions", "_lock")

    def __init__(self, maxsize: int, items: Iterable[tuple[K, V]] = ()) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: OrderedDict[K, V] = OrderedDict(items)  # stalest first
        while len(self._data) > maxsize:
            self._data.popitem(last=False)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value (refreshing recency) or *default*."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def hit(self, key: K, whole: Callable[[V], bool]) -> V | None:
        """``lookup`` for a caller that falls back to ``lookup`` on a miss.

        An entry *whole* accepts is counted as a hit and refreshes
        recency exactly as in ``lookup``; anything else returns ``None``
        uncounted, so the later ``lookup`` counts the miss once.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING or not whole(value):
                return None
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def lookup(self, key: K, whole: Callable[[V], bool]) -> V | None:
        """``get`` for a cache whose entries a caller may not use as
        they are (one tagged with another epoch).

        A present entry refreshes recency either way, but only one
        *whole* accepts is returned and counted as a hit: any other
        entry returns ``None`` and counts as a miss its caller
        recomputes.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            if whole(value):
                self.hits += 1
                return value
            self.misses += 1
            return None

    def peek(self, key: K) -> V | None:
        """The value of *key*, or ``None`` — a pure probe like
        ``__contains__``: counters and recency order are untouched."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: K, value: V, refresh: bool = True) -> None:
        """Insert/update *key*, evicting the LRU entry when full.

        An update with ``refresh=False`` keeps the key's place in the
        recency order (an upgrade that is not a use)."""
        with self._lock:
            if key in self._data and refresh:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry; counters are preserved."""
        with self._lock:
            self._data.clear()

    def discard(self, doomed: Callable[[V], bool]) -> int:
        """Drop every entry *doomed* accepts, in one pass under the lock;
        returns how many were dropped.

        Counters and the recency order are untouched: dropping what an
        epoch left behind is neither a miss nor an eviction.  *doomed*
        runs under the lock, so it must be cheap (a tag comparison).
        """
        with self._lock:
            data = self._data
            keys = [key for key, value in data.items() if doomed(value)]
            for key in keys:
                del data[key]
            return len(keys)

    def snapshot(self) -> list[tuple[K, V]]:
        """Every ``(key, value)`` pair, least-recently-used first.

        A pure probe like ``__contains__``: neither the counters nor the
        recency order are touched, so persistence and instrumentation
        can drain the cache without distorting its statistics.
        """
        with self._lock:
            return list(self._data.items())

    def __getstate__(self) -> dict:
        # The lock is process-local; everything else round-trips.
        with self._lock:
            return {
                "maxsize": self.maxsize,
                "data": list(self._data.items()),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __setstate__(self, state: dict) -> None:
        self.maxsize = state["maxsize"]
        self._data = OrderedDict(state["data"])
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]
        self._lock = threading.Lock()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                maxsize=self.maxsize,
                size=len(self._data),
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
            )

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator[K]:
        """Keys, least-recently-used first (a snapshot: safe to iterate
        while other threads mutate the cache)."""
        with self._lock:
            return iter(list(self._data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache(maxsize={self.maxsize}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def put_tagged(cache: LRUCache, key, entry: tuple) -> None:
    """Put the epoch-tagged *entry* unless *key* holds a newer tag.

    No lock: a put that loses a race leaves an older tag behind, which
    costs the next reader a recompute and nothing else.  A put is not a
    use, so a present key keeps its recency (the read before it moved
    it)."""
    held = cache.peek(key)
    if held is None or held[0] <= entry[0]:
        cache.put(key, entry, refresh=False)

