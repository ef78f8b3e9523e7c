"""Unit tests for the bounded LRU cache."""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import LRUCache, put_tagged, sweep_tagged
from repro.retrieval.engine import EpochDelta


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
        assert cache.lookup("partial", whole) == (None, "x")
        assert cache.lookup("whole", whole) == (1, "x")
        assert cache.lookup("nope", whole) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 2)
        cache.put("c", 3)  # both were looked up; "partial" first
        assert "partial" not in cache and "whole" in cache

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

    def test_a_sweep_retags_base_keeps_published_and_drops_the_rest(self):
        cache = LRUCache(8)
        for key, entry in [
            ("kept", (3, "x")),
            ("emptied", (3, "")),
            ("current", (4, "y")),
            ("older", (2, "z")),
            ("newer", (5, "w")),
        ]:
            cache.put(key, entry)
        current = cache.peek("current")
        rewritten = []

        def rewrite(key, entry):
            rewritten.append(key)
            return (entry[1].upper(),) if entry[1] else None

        sweep_tagged(cache, EpochDelta(base=3, epoch=4), rewrite)
        assert rewritten == ["kept", "emptied"]
        assert cache.snapshot() == [("kept", (4, "X")), ("current", (4, "y"))]
        assert cache.peek("current") is current
        sweep_tagged(cache, EpochDelta(base=3, epoch=4), rewrite)
        assert rewritten == ["kept", "emptied"]  # a second sweep does nothing
        sweep_tagged(cache, None, rewrite)
        assert len(cache) == 0

    def test_a_sweep_keeps_the_recency_of_what_it_carries(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, (3, key))
        cache.get("a")  # recency: b, c, a
        sweep_tagged(cache, EpochDelta(base=3, epoch=4), lambda k, e: (e[1],))
        assert list(cache) == ["b", "c", "a"]
        cache.put("d", (4, "d"))  # "b" is still the stalest
        assert "b" not in cache and "a" in cache

    def test_a_put_during_the_rewrite_survives_the_sweep(self):
        """The rewrite runs outside the lock; a newer entry put for the
        key meanwhile is not overwritten by the stale carry."""
        cache = LRUCache(4)
        cache.put("a", (3, "old"))

        def rewrite(key, entry):
            put_tagged(cache, key, (5, "newer"))
            return (entry[1],)

        sweep_tagged(cache, EpochDelta(base=3, epoch=4), rewrite)
        assert cache.peek("a") == (5, "newer")

    def test_a_key_replaced_before_its_drop_is_kept(self):
        """A drop lands only on the entry the sweep snapshotted."""
        cache = LRUCache(4)
        cache.put("carried", (3, "x"))
        cache.put("stale", (1, "y"))

        def rewrite(key, entry):
            cache.put("stale", (4, "fresh"), refresh=False)
            return (entry[1],)

        sweep_tagged(cache, EpochDelta(base=3, epoch=4), rewrite)
        assert cache.snapshot() == [("carried", (4, "x")), ("stale", (4, "fresh"))]

    def test_the_rewrite_runs_outside_the_lock(self):
        """A rewrite that reads the cache it sweeps must not deadlock."""
        cache = LRUCache(4)
        cache.put("a", (3, "x"))
        cache.put("b", (3, "y"))
        sweep = threading.Thread(
            target=sweep_tagged,
            args=(
                cache,
                EpochDelta(base=3, epoch=4),
                lambda key, entry: (cache.peek(key)[1],),
            ),
            daemon=True,
        )
        sweep.start()
        sweep.join(10)
        assert not sweep.is_alive()
        assert cache.snapshot() == [("a", (4, "x")), ("b", (4, "y"))]


class TestSwap:
    """``LRUCache.swap``: compare-and-set by identity, in one pass."""

    def test_replaces_in_place_keeping_recency(self):
        cache = LRUCache(3)
        old = (1, "a")
        cache.put("a", old)
        cache.put("b", (1, "b"))
        cache.swap([("a", old, (2, "a"))])
        assert cache.snapshot() == [("a", (2, "a")), ("b", (1, "b"))]
        cache.put("c", 3)
        cache.put("d", 4)  # "a" kept its place as the stalest
        assert "a" not in cache and "b" in cache

    def test_drops_when_new_is_none(self):
        cache = LRUCache(3)
        old = (1, "a")
        cache.put("a", old)
        cache.put("b", (1, "b"))
        cache.swap([("a", old, None)])
        assert cache.snapshot() == [("b", (1, "b"))]

    def test_a_key_that_moved_on_is_left_alone(self):
        """Identity, not equality: an equal value put since the snapshot
        is a different entry, neither replaced nor dropped."""
        cache = LRUCache(3)
        old = (1, ["a"])
        cache.put("a", old)
        cache.put("b", (1, "b"))
        stale_b = cache.peek("b")
        cache.put("a", (1, ["a"]))
        cache.put("b", (1, "b2"))
        cache.swap([("a", old, (2, "a")), ("b", stale_b, None)])
        assert cache.snapshot() == [("a", (1, ["a"])), ("b", (1, "b2"))]

    def test_an_evicted_or_cleared_key_is_not_resurrected(self):
        cache = LRUCache(1)
        old = (1, "a")
        cache.put("a", old)
        cache.put("b", (1, "b"))  # evicts "a"
        cache.swap([("a", old, (2, "a"))])
        assert cache.snapshot() == [("b", (1, "b"))]
        held = cache.peek("b")
        cache.clear()
        cache.swap([("b", held, (2, "b"))])
        assert len(cache) == 0

    def test_counters_are_untouched(self):
        cache = LRUCache(2)
        old = (1, "a")
        cache.put("a", old)
        cache.get("a")
        cache.get("missing")
        before = cache.stats()
        cache.swap([("a", old, None), ("missing", None, (1, "m"))])
        after = cache.stats()
        assert (after.hits, after.misses, after.evictions) == (
            before.hits, before.misses, before.evictions,
        )
        assert after.size == 0


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
