"""Deterministic tests for the async micro-batching front-end.

The front-end has no timer: the batcher takes what is queued when it is
free.  So every batching/backpressure/cancellation behaviour is driven by
the event harness in :mod:`tests.serving.aio` and by :class:`GatedBackend`,
which holds a batch in flight while the next one queues behind it — no
real sleeps, so each scenario runs exactly the interleaving it
constructs.  One integration test at the end exercises the executor path
under real open-loop traffic.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import random
import sys
import threading
import types

import pytest

from repro.serving import (
    AsyncDiversificationService,
    DiversificationService,
    ShardedDiversificationService,
)
from repro.serving import async_service
from repro.serving.async_service import ServiceClosed

from .aio import FailingBackend, RecordingBackend, run, settle

#: The query of the batch a held front keeps in flight (no corpus topic,
#: so it never collides with a query a test submits behind it).
OPENER = "held opener"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process cluster inherits the test fixtures through fork",
)


@pytest.fixture()
def service(fresh_framework):
    return DiversificationService(fresh_framework)


@pytest.fixture()
def backend(service):
    return RecordingBackend(service)


def make_front(backend, **kwargs):
    """An inline (event-loop-dispatched) front-end."""
    kwargs.setdefault("max_batch_size", 10)
    return AsyncDiversificationService(backend, inline=True, **kwargs)


@pytest.fixture()
def gated(service):
    return GatedBackend(service)


@contextlib.asynccontextmanager
async def holding(gated, **kwargs):
    """A running executor-dispatched front over *gated* whose first batch,
    :data:`OPENER` alone, is in flight behind the gate: whatever is
    submitted next queues behind it.  Yields ``(front, opener_task)``;
    the gate opens on the way out, before the front drains."""
    async with AsyncDiversificationService(gated, **kwargs) as front:
        try:
            opener = asyncio.create_task(front.submit(OPENER))
            await settle()
            assert not opener.done()
            yield front, opener
        finally:
            gated.gate.set()


class TestBatching:
    def test_lone_submit_resolves_without_a_timer(self, backend, topic_queries):
        async def scenario():
            async with make_front(backend) as front:
                task = asyncio.create_task(front.submit(topic_queries[0]))
                await settle()  # nothing to wait for: no clock, no advance
                assert task.done()
                return task.result()

        assert run(scenario()).query == topic_queries[0]
        assert backend.batches == [topic_queries[:1]]

    def test_misses_queued_behind_an_in_flight_batch_form_one_batch(
        self, gated, topic_queries
    ):
        behind = topic_queries[:4]

        async def scenario():
            async with holding(gated) as (front, opener):
                tasks = [asyncio.create_task(front.submit(q)) for q in behind]
                await settle()
                assert not any(task.done() for task in tasks)
                gated.gate.set()
                await opener
                return await asyncio.gather(*tasks)

        results = run(scenario())
        assert [r.query for r in results] == behind
        assert gated.batches == [[OPENER], behind]

    def test_full_batch_dispatches_at_once(self, backend, topic_queries):
        async def scenario():
            async with make_front(backend, max_batch_size=3) as front:
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in topic_queries[:3]
                ]
                await settle()
                assert all(task.done() for task in tasks)
                return [task.result() for task in tasks]

        results = run(scenario())
        assert backend.batches == [topic_queries[:3]]
        assert [r.query for r in results] == topic_queries[:3]

    def test_batches_split_at_max_size(self, backend, topic_queries):
        queries = topic_queries[:5]

        async def scenario():
            async with make_front(backend, max_batch_size=2) as front:
                tasks = [asyncio.create_task(front.submit(q)) for q in queries]
                await settle()
                # Two full batches, then the odd one out on its own.
                assert all(task.done() for task in tasks)

        run(scenario())
        assert [len(b) for b in backend.batches] == [2, 2, 1]
        assert backend.served_queries == queries

    def test_queued_burst_is_one_batch(self, backend, topic_queries):
        async def scenario():
            async with make_front(backend) as front:
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in topic_queries[:4]
                ]
                await settle()  # all four queued before the batcher woke
                assert all(task.done() for task in tasks)

        run(scenario())
        assert backend.batches == [topic_queries[:4]]


class TestIdentity:
    """The acceptance criterion: any interleaving the harness produces
    must serve exactly what one direct ``diversify_batch`` call serves."""

    @pytest.fixture(params=["single", "sharded"])
    def any_backend(self, request, framework_factory):
        if request.param == "single":
            return DiversificationService(framework_factory())
        return ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(), num_shards=3
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_interleavings_match_direct_batch(
        self, seed, any_backend, framework_factory, topic_queries
    ):
        rng = random.Random(seed)
        workload = rng.choices(topic_queries, k=24)  # repeats included
        # Slice the arrival stream into random bursts.
        chunks, rest = [], list(workload)
        while rest:
            size = rng.randint(1, 6)
            chunks.append(rest[:size])
            rest = rest[size:]

        async def scenario():
            async with make_front(any_backend, max_batch_size=4) as front:
                tasks = []
                for chunk in chunks:
                    tasks.extend(
                        asyncio.create_task(front.submit(q)) for q in chunk
                    )
                    await settle()
                return await asyncio.gather(*tasks)

        results = run(scenario())
        reference = DiversificationService(framework_factory()).diversify_batch(
            workload
        )
        assert [r.query for r in results] == workload
        for got, want in zip(results, reference):
            assert got.query == want.query
            assert got.ranking == want.ranking

    def test_duplicates_in_one_batch_share_a_result(
        self, backend, topic_queries
    ):
        query = topic_queries[0]

        async def scenario():
            async with make_front(backend) as front:
                tasks = [
                    asyncio.create_task(front.submit(query)) for _ in range(3)
                ]
                await settle()
                return [task.result() for task in tasks]

        first, second, third = run(scenario())
        assert first is second is third
        assert backend.batches == [[query, query, query]]

    def test_submit_many_aligns_with_input(self, backend, topic_queries):
        workload = topic_queries + list(reversed(topic_queries))

        async def scenario():
            async with make_front(backend) as front:
                return await front.submit_many(workload)

        results = run(scenario())
        assert [r.query for r in results] == workload


class TestCacheHits:
    """``submit`` answers a result-cache hit itself: the batcher exists to
    batch misses, and a hit has nothing to batch."""

    @pytest.fixture(params=["single", "sharded"])
    def in_process(self, request, framework_factory):
        if request.param == "single":
            return DiversificationService(framework_factory())
        return ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(), num_shards=2, backend="inline"
        )

    def test_hit_resolves_while_a_batch_is_in_flight(
        self, in_process, topic_queries
    ):
        hot = topic_queries[0]
        primed = in_process.diversify_batch([hot])[0]
        gated = GatedBackend(in_process)

        async def scenario():
            async with holding(gated) as (front, miss):
                hit = asyncio.create_task(front.submit(hot))
                await settle()
                assert hit.done() and not miss.done()
                gated.gate.set()
                await miss
                return hit.result(), front.stats

        result, front = run(scenario())
        assert result is primed
        # The front counts both requests, its histogram only the batched miss.
        assert front.served == 2
        assert front.batch_sizes == {1: 1}
        # The backend served the priming batch and the miss; the LRU counted
        # the hit once and each miss once.
        assert in_process.get_stats().served == 2
        info = in_process.result_cache_info()
        assert (info.hits, info.misses) == (1, 2)

    @needs_fork
    def test_process_cluster_hits_are_batched(
        self, framework_factory, topic_queries
    ):
        """A probe of a worker's cache would cost a pipe round trip, so a
        process-backed cluster reports no hits: its hits queue behind an
        in-flight batch like misses and are batched."""
        queries = topic_queries[:3]
        reference = DiversificationService(framework_factory()).diversify_batch(
            queries
        )
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(), num_shards=2, backend="process"
        )
        try:
            cluster.diversify_batch(queries)  # every query is cached now
            assert cluster.cached(queries[0]) is None
            gated = GatedBackend(cluster)

            async def scenario():
                async with holding(gated) as (front, opener):
                    tasks = [
                        asyncio.create_task(front.submit(q)) for q in queries
                    ]
                    await settle()
                    assert not any(task.done() for task in tasks)
                    gated.gate.set()
                    await opener
                    return await asyncio.gather(*tasks), front.stats

            results, front = run(scenario())
            assert cluster.result_cache_info().hits == len(queries)
        finally:
            cluster.close()
        assert [r.ranking for r in results] == [r.ranking for r in reference]
        assert front.batch_sizes == {1: 1, len(queries): 1}

    def test_probe_before_start_and_after_stop_raises(self, service, topic_queries):
        service.diversify_batch(topic_queries[:1])
        front = AsyncDiversificationService(service)
        with pytest.raises(ServiceClosed):
            front.serve_cached(topic_queries[0])

        async def scenario():
            async with front:
                assert front.serve_cached(topic_queries[0]) is not None
                assert front.serve_cached(topic_queries[1]) is None

        run(scenario())
        with pytest.raises(ServiceClosed):
            front.serve_cached(topic_queries[0])
        # The miss is left uncounted: the batch that would serve it counts it.
        assert front.stats.served == 1

    def test_served_is_exact_with_threads_probing_while_the_loop_serves(
        self, service, topic_queries
    ):
        """``stats.served`` is written by probing threads and by the loop's
        dispatch at once; no increment may be lost."""
        hot, cold = topic_queries[0], topic_queries[1:4]
        primed = service.diversify_batch([hot])[0]
        front = AsyncDiversificationService(
            HotOnlyBackend(service, hot), max_batch_size=2
        )
        threads, probes = 4, 500
        go = threading.Event()
        answered = [0] * threads

        def hammer(index: int) -> None:
            go.wait(timeout=10)
            for _ in range(probes):
                answered[index] += front.serve_cached(hot) is primed

        async def scenario() -> int:
            misses = 0
            async with front:
                workers = [
                    threading.Thread(target=hammer, args=(i,))
                    for i in range(threads)
                ]
                for worker in workers:
                    worker.start()
                go.set()
                while True:
                    results = await front.submit_many(cold)
                    assert [r.query for r in results] == cold
                    misses += len(cold)
                    if not any(worker.is_alive() for worker in workers):
                        return misses

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # as many thread switches as possible
        try:
            misses = run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert answered == [probes] * threads
        assert front.stats.served == threads * probes + misses
        assert sum(
            size * count for size, count in front.stats.batch_sizes.items()
        ) == misses


class HotOnlyBackend:
    """Delegate whose ``cached`` knows one query only: every other query
    is batched however often it was served."""

    def __init__(self, inner, hot: str) -> None:
        self.inner = inner
        self.hot = hot

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def cached(self, query):
        return self.inner.cached(query) if query == self.hot else None


class GatedBackend(RecordingBackend):
    """Recording delegate whose dispatch blocks on a controllable event —
    lets a test hold the batcher mid-dispatch while the queue backs up.
    A batch is recorded once the gate lets it through; ``cached`` is the
    inner service's."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.gate = threading.Event()

    def diversify_batch(self, queries):
        assert self.gate.wait(timeout=15.0), "test never opened the gate"
        return super().diversify_batch(queries)

    def cached(self, query):
        return self.inner.cached(query)


class TestBackpressure:
    def test_full_queue_blocks_submit_until_dispatch_drains(self, service, gated):
        queries = ["q0", "q1", "q2", "q3"]

        async def scenario():
            front = AsyncDiversificationService(
                gated, max_batch_size=1, max_pending=2
            )
            try:
                front.start()
                tasks = [asyncio.create_task(front.submit(q)) for q in queries]
                await settle()
                # q0 is stuck in dispatch behind the gate, q1/q2 fill the
                # queue, q3's submit is blocked on backpressure.
                assert front._queue.full()
                assert not any(task.done() for task in tasks)
                assert front.stats.queue_depth_peak == 2
                gated.gate.set()
                await asyncio.gather(*tasks)
                assert all(task.done() for task in tasks)
            finally:
                gated.gate.set()
                await front.stop()

        run(scenario())
        assert service.stats.served == len(queries)

    def test_stop_fails_submitters_blocked_on_backpressure(self, gated):
        async def scenario():
            front = AsyncDiversificationService(
                gated, max_batch_size=1, max_pending=1
            )
            try:
                front.start()
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in ["q0", "q1", "q2"]
                ]
                await settle()  # q0 gated, q1 queued, q2 blocked on put
                stop = asyncio.create_task(front.stop(drain=False))
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                await stop
                assert all(isinstance(o, ServiceClosed) for o in outcomes)
                assert not front.running
            finally:
                gated.gate.set()

        run(scenario())


class TestCancellation:
    def test_cancelled_request_is_dropped_from_the_batch(
        self, gated, topic_queries
    ):
        keep, drop = topic_queries[0], topic_queries[1]

        async def scenario():
            async with holding(gated) as (front, opener):
                kept = asyncio.create_task(front.submit(keep))
                doomed = asyncio.create_task(front.submit(drop))
                await settle()
                doomed.cancel()
                await settle()
                gated.gate.set()
                await opener
                result = await kept
                assert doomed.cancelled()
                return result

        result = run(scenario())
        assert result.query == keep
        # The cancelled query never ran.
        assert gated.batches == [[OPENER], [keep]]

    def test_fully_cancelled_batch_skips_the_backend(
        self, gated, topic_queries
    ):
        async def scenario():
            async with holding(gated) as (front, opener):
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in topic_queries[:2]
                ]
                await settle()
                for task in tasks:
                    task.cancel()
                await settle()
                assert all(task.cancelled() for task in tasks)
                gated.gate.set()
                await opener
                # The service survives: a fresh submit still works.
                return await front.submit(topic_queries[0])

        result = run(scenario())
        assert result.query == topic_queries[0]
        assert gated.batches == [[OPENER], [topic_queries[0]]]

    def test_shared_query_survives_one_cancellation(
        self, gated, topic_queries
    ):
        query = topic_queries[0]

        async def scenario():
            async with holding(gated) as (front, opener):
                kept = asyncio.create_task(front.submit(query))
                doomed = asyncio.create_task(front.submit(query))
                await settle()
                doomed.cancel()
                gated.gate.set()
                await opener
                return await kept

        result = run(scenario())
        assert result.query == query
        assert gated.batches == [[OPENER], [query]]


class TestErrors:
    def test_backend_failure_propagates_to_every_waiter(self, topic_queries):
        failing = FailingBackend()

        async def scenario():
            async with make_front(failing) as front:
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in topic_queries[:2]
                ]
                await settle()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                assert all(o is failing.exc for o in outcomes)
                # Failed batches count as formed, never as served.
                assert front.stats.batch_sizes == {2: 1}
                assert front.stats.served == 0
                assert front.stats.batches == 0

        run(scenario())
        assert failing.calls == 1

    def test_service_survives_a_failing_batch(self, service, topic_queries):
        query = topic_queries[0]

        class FlakyBackend:
            def __init__(self):
                self.calls = 0

            def diversify_batch(self, queries):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient")
                return service.diversify_batch(queries)

            def cached(self, query):
                return None

        flaky = FlakyBackend()

        async def scenario():
            async with make_front(flaky) as front:
                with pytest.raises(RuntimeError, match="transient"):
                    await front.submit(query)
                return await front.submit(query)

        result = run(scenario())
        assert result.query == query
        assert flaky.calls == 2


class TestLifecycle:
    def test_submit_before_start_raises(self, backend):
        async def scenario():
            front = make_front(backend)
            with pytest.raises(ServiceClosed):
                await front.submit("anything")

        run(scenario())

    def test_stop_drains_the_queue_behind_an_in_flight_batch(
        self, gated, topic_queries
    ):
        async def scenario():
            front = AsyncDiversificationService(gated)
            front.start()
            opener = asyncio.create_task(front.submit(OPENER))
            await settle()
            tasks = [
                asyncio.create_task(front.submit(q)) for q in topic_queries[:3]
            ]
            await settle()
            stop = asyncio.create_task(front.stop(drain=True))
            await settle()
            assert not any(task.done() for task in [opener, *tasks])
            gated.gate.set()
            await stop
            assert all(task.done() for task in [opener, *tasks])
            with pytest.raises(ServiceClosed):
                await front.submit(topic_queries[0])

        run(scenario())
        assert gated.batches == [[OPENER], topic_queries[:3]]

    def test_context_manager_starts_and_stops(self, backend):
        async def scenario():
            front = make_front(backend)
            assert not front.running
            async with front:
                assert front.running
            assert not front.running

        run(scenario())

    def test_restart_after_stop(self, backend, topic_queries):
        async def scenario():
            front = make_front(backend)
            front.start()
            first = await front.submit(topic_queries[0])
            await front.stop()
            front.start()
            second = await front.submit(topic_queries[1])
            await front.stop()
            return first, second

        first, second = run(scenario())
        assert first.query == topic_queries[0]
        assert second.query == topic_queries[1]

    def test_stop_without_drain_fails_the_in_flight_batch(
        self, gated, topic_queries
    ):
        """Requests already dequeued into an in-flight batch have left
        the queue, so a non-draining stop cannot sweep them there — they
        must still be failed, not abandoned to hang forever."""

        async def scenario():
            front = AsyncDiversificationService(gated, max_batch_size=2)
            front.start()
            try:
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in topic_queries[:3]
                ]
                await settle()  # two in flight behind the gate, one queued
                assert not any(task.done() for task in tasks)
                await front.stop(drain=False)
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                assert all(isinstance(o, ServiceClosed) for o in outcomes)
            finally:
                gated.gate.set()

        run(scenario())

    def test_stop_is_idempotent(self, backend):
        async def scenario():
            front = make_front(backend)
            front.start()
            await front.stop()
            await front.stop()

        run(scenario())

    def test_invalid_parameters(self, backend):
        with pytest.raises(ValueError):
            AsyncDiversificationService(backend, max_batch_size=0)
        with pytest.raises(ValueError):
            AsyncDiversificationService(backend, max_pending=0)


class TestStopRaces:
    """Interleavings where stop() races submitters or another stop().

    These pin two former bugs: concurrent stops tripping over each
    other's ``_runner = None`` (AttributeError mid-shutdown), and a
    non-draining stop whose single queue sweep missed items that blocked
    putters landed *after* the sweep — leaving their futures unresolved
    forever.  The 20s watchdog in :func:`run` turns such a hang into a
    failure.
    """

    def test_concurrent_stops_during_drain(self, gated):
        async def scenario():
            front = AsyncDiversificationService(gated, max_batch_size=1)
            front.start()
            task = asyncio.create_task(front.submit("q0"))
            await settle()  # q0 is inside the gated dispatch
            stops = [
                asyncio.create_task(front.stop(drain=True)) for _ in range(3)
            ]
            await settle()  # every stop is parked on the queue join
            gated.gate.set()
            await asyncio.gather(*stops)
            assert not front.running
            result = await task
            assert result.query == "q0"

        run(scenario())

    def test_late_putters_are_failed_not_hung(self, gated):
        """Two submitters blocked on a full queue: the stop-side sweep
        wakes them, their items land *after* the first sweep pass, and
        both must still be failed with ServiceClosed."""

        async def scenario():
            front = AsyncDiversificationService(
                gated, max_batch_size=1, max_pending=1
            )
            try:
                front.start()
                tasks = [
                    asyncio.create_task(front.submit(f"q{i}"))
                    for i in range(4)
                ]
                await settle()  # q0 gated, q1 queued, q2+q3 blocked on put
                stop = asyncio.create_task(front.stop(drain=False))
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                await stop
                assert all(isinstance(o, ServiceClosed) for o in outcomes)
                assert not front.running
            finally:
                gated.gate.set()

        run(scenario())

    def test_drain_reports_counts_and_is_idempotent(
        self, backend, topic_queries
    ):
        async def scenario():
            front = make_front(backend)
            front.start()
            await front.submit_many(topic_queries[:3])
            report = await front.drain()
            assert report["already_stopped"] is False
            assert report["served_total"] == 3
            assert report["batches_total"] >= 1
            assert report["pending_at_drain"] == 0
            assert report["seconds"] >= 0
            assert not front.running
            second = await front.drain()
            assert second["already_stopped"] is True
            assert second["served_total"] == 3

        run(scenario())


class TestStats:
    def test_formation_accounting_is_exact(
        self, gated, topic_queries, monkeypatch
    ):
        # The front's one time source, stepped by hand so waits are exact.
        now = [0.0]
        monkeypatch.setattr(
            async_service, "time", types.SimpleNamespace(perf_counter=lambda: now[0])
        )

        async def scenario():
            async with holding(gated) as (front, opener):  # queued at 0ms
                now[0] = 0.002
                early = asyncio.create_task(front.submit(topic_queries[0]))
                await settle()
                now[0] = 0.003
                late = asyncio.create_task(front.submit(topic_queries[1]))
                await settle()
                now[0] = 0.005  # the opener's batch returns
                gated.gate.set()
                await asyncio.gather(opener, early, late)
                return front.stats

        stats = run(scenario())
        assert stats.batch_sizes == {1: 1, 2: 1}
        assert stats.mean_batch_size == 1.5
        # Queue waits: the opener was dispatched at once, the two behind
        # it until its batch returned at 5ms.
        assert sorted(stats.wait_ms) == pytest.approx([0.0, 2.0, 3.0])
        assert stats.mean_wait_ms == pytest.approx(5.0 / 3)
        assert stats.wait_percentile_ms(1.0) == pytest.approx(3.0)
        assert stats.queue_depth_peak == 2
        assert stats.served == 3
        assert stats.batches == 2
        assert "batch mean=1.5" in stats.summary()
        assert "depth peak=2" in stats.summary()

    def test_queue_depth_peak_tracks_burst_size(self, backend, topic_queries):
        async def scenario():
            async with make_front(backend) as front:
                tasks = [
                    asyncio.create_task(front.submit(q))
                    for q in topic_queries[:3]
                ]
                await settle()
                await asyncio.gather(*tasks)
                # All three puts landed before the batcher first drained.
                assert front.stats.queue_depth_peak == 3

        run(scenario())

    def test_backend_stats_accessor(self, service, framework_factory):
        front = AsyncDiversificationService(service)
        assert front.backend_stats() is service.stats
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(), num_shards=2
        )
        sharded_front = AsyncDiversificationService(cluster)
        assert sharded_front.backend_stats().name == "cluster"


class TestExecutorIntegration:
    """One end-to-end pass over the executor path under open-loop traffic."""

    def test_open_loop_traffic_matches_direct_batch(
        self, service, framework_factory, topic_queries
    ):
        workload = topic_queries * 3

        async def scenario():
            async with AsyncDiversificationService(
                service, max_batch_size=4
            ) as front:
                await front.warm(topic_queries)
                return await front.submit_many(workload)

        results = run(scenario())
        reference = DiversificationService(framework_factory()).diversify_batch(
            workload
        )
        for got, want in zip(results, reference):
            assert got.query == want.query
            assert got.ranking == want.ranking
        assert service.stats.served == len(workload)
