"""Unit tests for the bounded LRU cache."""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import LRUCache, put_tagged


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=42) == 42

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now stalest
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update refreshes "a"
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_size_never_exceeds_maxsize(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
            assert len(cache) <= 3
        assert cache.stats().evictions == 7

    def test_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_counts_hits_and_leaves_misses_to_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.hit("a", bool) == 1  # refresh "a"; "b" is now stalest
        assert cache.hit("nope", bool) is None
        assert cache.hit("b", lambda value: value > 2) is None  # not whole
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 0)
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache

    def test_contains_is_a_pure_probe(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_peek_is_a_pure_probe(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1 and cache.peek("c") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0
        cache.put("c", 3)  # "a" was only peeked at: still the stalest
        assert "a" not in cache and "b" in cache

    def test_lookup_counts_a_partial_entry_as_a_miss(self):
        cache = LRUCache(2)
        cache.put("whole", (1, "x"))
        cache.put("partial", (None, "x"))
        whole = lambda value: value[0] is not None  # noqa: E731
        assert cache.lookup("partial", whole) is None
        assert cache.lookup("whole", whole) == (1, "x")
        assert cache.lookup("nope", whole) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 2)
        cache.put("c", 3)  # both were looked up; "partial" first
        assert "partial" not in cache and "whole" in cache

    def test_a_stale_tag_is_a_miss_until_a_put_tagged_replaces_it(self):
        """The caller's read of an epoch-tagged cache: ``lookup`` answers
        ``None`` for an entry of another epoch, so the caller recomputes
        and puts; the next read at that epoch is a hit on the new entry."""
        cache = LRUCache(2)
        cache.put("q", (1, "old"))
        current = lambda entry: entry[0] == 2  # noqa: E731
        assert cache.lookup("q", current) is None
        put_tagged(cache, "q", (2, "new"))
        assert cache.lookup("q", current) == (2, "new")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_hit_rate_before_any_lookup(self):
        assert LRUCache(1).stats().hit_rate == 0.0

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert "a" not in cache
        assert cache.stats().hits == 1

    def test_iteration_orders_lru_first(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert list(cache) == ["b", "c", "a"]

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestEpochTagged:
    def test_a_put_never_replaces_a_newer_tag_and_is_not_a_use(self):
        cache = LRUCache(2)
        put_tagged(cache, "a", (1, "a1"))
        put_tagged(cache, "b", (1, "b1"))
        put_tagged(cache, "a", (0, "a0"))  # older: refused
        put_tagged(cache, "a", (2, "a2"))  # newer: replaces, keeps its place
        assert cache.snapshot() == [("a", (2, "a2")), ("b", (1, "b1"))]
        assert cache.stats().hits == cache.stats().misses == 0

    def test_a_discard_drops_older_tags_only_and_is_not_a_use(self):
        """The publish drop: every entry tagged before the published
        epoch goes; one tagged with it (or put at a newer epoch) stays,
        in its place, and no counter moves."""
        cache = LRUCache(4)
        for key, tag in [("a", 4), ("b", 3), ("c", 5), ("d", 2)]:
            cache.put(key, (tag, key))
        cache.get("a")
        cache.get("missing")  # recency: b, c, d, a
        before = cache.stats()
        assert cache.discard(lambda entry: entry[0] < 4) == 2
        assert cache.snapshot() == [("c", (5, "c")), ("a", (4, "a"))]
        after = cache.stats()
        assert (after.hits, after.misses, after.evictions) == (
            before.hits, before.misses, before.evictions,
        )
        assert cache.discard(lambda entry: entry[0] < 4) == 0  # once per epoch
        cache.put("e", (4, "e"))
        cache.put("f", (4, "f"))
        cache.put("g", (4, "g"))  # "c" is still the stalest
        assert "c" not in cache and "a" in cache


class TestDiscard:
    """``LRUCache.discard``: the one drop a publish makes, under the lock."""

    def test_an_empty_cache_drops_nothing(self):
        cache = LRUCache(2)
        assert cache.discard(lambda entry: True) == 0
        assert len(cache) == 0

    def test_counters_are_untouched_when_every_entry_goes(self):
        cache = LRUCache(2)
        for key in "abc":
            cache.put(key, (1, key))  # evicts "a"
        cache.get("b")
        cache.get("a")
        before = cache.stats()
        assert cache.discard(lambda entry: entry[0] < 2) == 2
        after = cache.stats()
        assert (after.hits, after.misses, after.evictions) == (1, 1, 1)
        assert (after.hits, after.misses, after.evictions) == (
            before.hits, before.misses, before.evictions,
        )
        assert (after.size, after.maxsize) == (0, 2)

    def test_survivors_keep_their_recency(self):
        cache = LRUCache(4)
        for key, tag in [("a", 2), ("b", 1), ("c", 2), ("d", 1)]:
            cache.put(key, (tag, key))
        cache.get("a")  # recency: b, c, d, a
        cache.discard(lambda entry: entry[0] < 2)
        assert list(cache) == ["c", "a"]
        for key in "xyz":
            cache.put(key, (2, key))  # the third put evicts "c", not "a"
        assert "c" not in cache and "a" in cache

    def test_a_drop_frees_room_without_an_eviction(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, (1, key))
        assert cache.discard(lambda entry: entry[0] < 2) == 3
        for key in "xyz":
            cache.put(key, (2, key))
        assert cache.stats().evictions == 0
        assert list(cache) == ["x", "y", "z"]

    def test_the_predicate_reads_each_value_once(self):
        cache = LRUCache(4)
        for key, tag in [("a", 1), ("b", 2), ("c", 3)]:
            cache.put(key, (tag, key))
        seen = []
        assert cache.discard(lambda entry: seen.append(entry) or entry[0] == 2) == 1
        assert seen == [(1, "a"), (2, "b"), (3, "c")]
        assert cache.snapshot() == [("a", (1, "a")), ("c", (3, "c"))]

    def test_a_dropped_key_reads_as_a_plain_miss(self):
        cache = LRUCache(2)
        cache.put("q", (1, "old"))
        cache.discard(lambda entry: entry[0] < 2)
        assert cache.lookup("q", lambda entry: True) is None
        assert cache.peek("q") is None
        assert cache.stats().misses == 1

    def test_puts_at_the_new_epoch_racing_drops_all_survive(self):
        """Writers put entries tagged with the published epoch while
        drops for that epoch run: no drop takes one of them, and every
        older entry is gone once the last drop has run."""
        cache = LRUCache(256)
        for key in range(64):
            cache.put(("old", key), (1, key))
        start = threading.Barrier(3)

        def writer(offset: int) -> None:
            start.wait()
            for key in range(offset, 128, 2):
                put_tagged(cache, ("new", key), (2, key))

        def dropper() -> int:
            start.wait()
            return sum(cache.discard(lambda entry: entry[0] < 2) for _ in range(50))

        with ThreadPoolExecutor(max_workers=3) as pool:
            writes = [pool.submit(writer, offset) for offset in (0, 1)]
            dropped = pool.submit(dropper)
            for write in writes:
                write.result(timeout=30)
            assert dropped.result(timeout=30) == 64
        assert sorted(cache) == [("new", key) for key in range(128)]
        assert cache.stats().evictions == 0


class TestLRUCacheConcurrency:
    """Hammer a shared cache from a thread pool.

    The serving layer shares caches across threads (the sharded fan-out,
    the engine-level vector cache, and now the async front-end's
    executor dispatch), so the per-operation lock must keep the counters
    *consistent* — every ``get`` is exactly one hit or one miss — and the
    structure uncorrupted, not merely crash-free.
    """

    WORKERS = 8
    OPS_PER_WORKER = 3000
    KEYSPACE = 64

    @staticmethod
    def _value_for(key: int) -> int:
        return key * 1_000_003  # distinct per key: detects cross-entry mixups

    def test_counters_and_entries_survive_a_thread_hammer(self):
        cache: LRUCache[int, int] = LRUCache(32)
        start = threading.Barrier(self.WORKERS)

        def worker(worker_id: int) -> int:
            rng = random.Random(worker_id)
            start.wait()  # maximise overlap: all threads enter together
            gets = 0
            for _ in range(self.OPS_PER_WORKER):
                key = rng.randrange(self.KEYSPACE)
                if rng.random() < 0.5:
                    cache.put(key, self._value_for(key))
                else:
                    value = cache.get(key)
                    gets += 1
                    if value is not None:
                        assert value == self._value_for(key)
            return gets

        with ThreadPoolExecutor(max_workers=self.WORKERS) as pool:
            total_gets = sum(pool.map(worker, range(self.WORKERS)))

        stats = cache.stats()
        # Every get was counted exactly once, as a hit or a miss.
        assert stats.hits + stats.misses == total_gets
        assert stats.size == len(cache) <= cache.maxsize
        assert stats.evictions >= 0
        # No entry corruption: every surviving key maps to its own value.
        for key in cache:
            assert cache.get(key) == self._value_for(key)

    def test_concurrent_eviction_churn_stays_bounded(self):
        """Tiny capacity + wide keyspace: constant eviction pressure must
        never let the cache exceed its bound or lose the LRU invariant's
        bookkeeping (size observed ≤ maxsize at every probe)."""
        cache: LRUCache[int, int] = LRUCache(4)
        observed: list[int] = []
        start = threading.Barrier(4)

        def churner(worker_id: int) -> None:
            rng = random.Random(100 + worker_id)
            start.wait()
            for _ in range(2000):
                key = rng.randrange(256)
                cache.put(key, self._value_for(key))
                observed.append(len(cache))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(churner, range(4)))

        assert max(observed) <= 4
        stats = cache.stats()
        # 8000 puts into 4 slots over a 256-key space: heavy eviction,
        # and every insertion is accounted — inserts = evictions + size.
        assert stats.evictions > 1000
        assert stats.size <= 4

    def test_clear_races_with_traffic(self):
        """clear() under concurrent gets/puts must neither crash nor
        corrupt: afterwards the cache still bounds itself and serves."""
        cache: LRUCache[int, int] = LRUCache(16)
        stop = threading.Event()

        def traffic() -> None:
            rng = random.Random(7)
            while not stop.is_set():
                key = rng.randrange(32)
                cache.put(key, self._value_for(key))
                value = cache.get(key)
                if value is not None:
                    assert value == self._value_for(key)

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(traffic) for _ in range(2)]
            for _ in range(200):
                cache.clear()
            stop.set()
            for future in futures:
                future.result()  # surface assertion failures from threads

        assert len(cache) <= 16
        cache.put(1, self._value_for(1))
        assert cache.get(1) == self._value_for(1)
