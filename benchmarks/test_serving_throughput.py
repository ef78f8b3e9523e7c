"""Serving-layer checks on a realistic Zipf-repeating query stream.

Every serving strategy — the batched service, sharded clusters, the
process backend (one worker per shard, killed and respawned), the async
and HTTP front-ends, each kernel-backed diversifier — may change *how* a stream is served, never
*what* is served.  Each test below drives one strategy over the same 60–100-query
Zipf stream and asserts its results identical to the per-query or
sequential-batch reference, plus the accounting that proves the strategy
really ran.  Wall-clock comparisons live in ``bench/`` (``python3
bench/run.py --all``), not here: timing assertions in the test suite
flake under scheduler noise.  The two ``benchmark``-fixture timings at
the end report hot and cold latency without asserting on them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import random
import tempfile
import threading
import urllib.request

import pytest

from repro.core.fast import FastIASelect, FastMMR, FastOptSelect, FastXQuAD
from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.core.iaselect import IASelect
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.xquad import XQuAD
from repro.experiments.offline import PartitionedFrameworkFactory
from repro.experiments.workloads import zipf_workload
from repro.retrieval.store import StoreBackedSearchEngine
from repro.serving import (
    AsyncDiversificationService,
    DiversificationHTTPServer,
    DiversificationService,
    ProcessBackend,
    ShardedDiversificationService,
    persist_store,
    result_payload,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process workers inherit the workload through fork",
)


def framework_factory(workload, log_name: str = "AOL"):
    """A picklable per-shard factory: fresh framework, cold caches."""
    scale = workload.scale
    return PartitionedFrameworkFactory(
        workload.engine,
        workload.miner(log_name),
        FrameworkConfig(
            k=scale.k,
            candidates=scale.candidates,
            spec_results=scale.spec_results,
        ),
    )


def make_framework(workload, log_name: str = "AOL"):
    return framework_factory(workload, log_name)(0)


def reference_batch(workload, queries):
    """The sequential ``diversify_batch`` answers on a cold service."""
    return DiversificationService(make_framework(workload)).diversify_batch(
        queries
    )


def assert_same_answers(want, got, scores: bool = False) -> None:
    assert len(got) == len(want)
    for ref, res in zip(want, got):
        assert res.query == ref.query
        assert res.ranking == ref.ranking, ref.query
        if scores:
            assert res.baseline.doc_ids == ref.baseline.doc_ids, ref.query
            assert res.baseline.scores == ref.baseline.scores, ref.query


def test_batch_beats_per_query_loop(trec_workload):
    """The batch path wins on work, not luck: it runs one pipeline per
    *distinct* query where the seed's loop runs one per request, and it
    serves the loop's rankings exactly."""
    queries = zipf_workload(trec_workload, 100)
    distinct = len(set(queries))
    loop_framework = make_framework(trec_workload)
    loop_results = [loop_framework.diversify_query(q) for q in queries]

    service = DiversificationService(make_framework(trec_workload))
    service.warm(queries)
    assert_same_answers(loop_results, service.diversify_batch(queries))
    assert distinct < len(queries)  # the stream repeats, so dedup pays
    assert service.stats.served == len(queries)
    assert service.stats.ranked == distinct
    assert service.spec_cache_info().hits > 0


def test_sharded_cluster_preserves_throughput_and_rankings(trec_workload):
    """A 4-shard cluster serves the unsharded rankings, and its counters
    cover the whole batch: every request served once, every distinct
    query ranked once, on exactly one shard."""
    queries = zipf_workload(trec_workload, 100)
    distinct = len(set(queries))
    cluster = ShardedDiversificationService.from_factory(
        framework_factory(trec_workload), 4
    )
    try:
        warm = cluster.warm(queries)
        assert_same_answers(
            reference_batch(trec_workload, queries),
            cluster.diversify_batch(queries),
        )
        stats = cluster.cluster_stats()
        shard_stats = cluster.shard_stats()
    finally:
        cluster.close()
    assert warm.queries == distinct
    assert stats.served == len(queries)
    assert stats.ranked == distinct
    assert len(shard_stats) == 4
    assert sum(s.served for s in shard_stats) == len(queries)


@needs_fork
def test_process_backend_identity_smoke(trec_workload):
    """A 2-shard cluster fanned out over real OS processes serves the
    inline reference's rankings, with the full batch accounted for."""
    queries = zipf_workload(trec_workload, 60)
    distinct = len(set(queries))
    cluster = ShardedDiversificationService.from_factory(
        framework_factory(trec_workload), 2, backend="process"
    )
    try:
        warm = cluster.warm(queries)
        assert_same_answers(
            reference_batch(trec_workload, queries),
            cluster.diversify_batch(queries),
        )
        stats = cluster.cluster_stats()
    finally:
        cluster.close()
    assert warm.queries == distinct
    assert stats.served == len(queries)
    assert stats.ranked == distinct
    assert len(stats.shards) == 2


@needs_fork
def test_process_kill_shard_identity_smoke(trec_workload):
    """2 shards, one process worker each, every worker hard-killed after
    the first chunk: every answer — rankings *and* baseline scores —
    equals the fault-free reference, and the respawned workers hydrate
    from the donor's index store instead of re-mining."""
    queries = zipf_workload(trec_workload, 60)
    reference = reference_batch(trec_workload, queries)
    factory = framework_factory(trec_workload)
    shards = 2
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        donor = ShardedDiversificationService.from_factory(
            factory, shards, backend="inline"
        )
        donor.warm(queries)
        path = persist_store(
            f"{store_dir}/index.sqlite3", factory.engine, donor
        )
        donor.close()

        engine = StoreBackedSearchEngine(path)
        backend = ProcessBackend()
        cluster = ShardedDiversificationService.from_factory(
            dataclasses.replace(factory, engine=engine),
            shards,
            backend=backend,
        )
        try:
            warm = cluster.warm(queries)
            served = []
            for index, start in enumerate(range(0, len(queries), 15)):
                served.extend(cluster.diversify_batch(queries[start:start + 15]))
                if index == 0:
                    for shard in range(shards):
                        backend.kill_worker(shard)
            stats = cluster.cluster_stats()
            worker_stats = backend.replication_stats()
        finally:
            cluster.close()
            engine.close()
    assert_same_answers(reference, served, scores=True)
    respawns = sum(s["respawns"] for s in worker_stats.values())
    assert respawns >= shards  # one kill per shard
    assert warm.fetched == 0  # hydrated from the donor's index store
    # The parent keeps each shard's serving counters across respawns:
    # the chunk the killed workers served still counts.
    assert stats.served == len(queries)
    assert stats.respawns == respawns


def test_async_front_end_open_loop_identity(trec_workload):
    """Open-loop arrivals — every request submits at its own
    exponentially spaced time, whether or not the service has drained —
    still get the sequential batch's rankings.  The front counts every
    request; the batch-size histogram and the backend count the requests
    that reached ``diversify_batch``; the rest were result-cache hits
    answered without queueing, and the result LRU counted each."""
    queries = zipf_workload(trec_workload, 60)
    distinct = len(set(queries))
    backend = DiversificationService(make_framework(trec_workload))
    rng = random.Random(14)
    arrivals, t = [], 0.0
    for _ in queries:
        t += rng.expovariate(2000.0)
        arrivals.append(t)

    async def drive():
        async with AsyncDiversificationService(backend, max_batch_size=16) as front:
            await front.warm(queries)

            async def client(query, at):
                await asyncio.sleep(at)
                return await front.submit(query)

            results = await asyncio.gather(
                *(client(q, at) for q, at in zip(queries, arrivals))
            )
            return results, front.stats

    results, front = asyncio.run(drive())
    assert_same_answers(reference_batch(trec_workload, queries), results)
    batched = sum(size * count for size, count in front.batch_sizes.items())
    assert front.served == len(queries)
    assert backend.stats.served == batched
    assert backend.result_cache_info().hits >= len(queries) - batched
    assert backend.stats.ranked == distinct


def test_http_front_end_socket_identity(trec_workload):
    """Concurrent clients through real sockets: every 200 body equals
    the direct ``diversify_batch`` payload field for field, health reads
    ok under load, and drain reports every admitted request served."""
    queries = zipf_workload(trec_workload, 60)
    distinct = len(set(queries))
    reference = [
        result_payload(r) for r in reference_batch(trec_workload, queries)
    ]
    service = DiversificationService(make_framework(trec_workload))
    service.warm(queries)
    responses: list = [None] * len(queries)

    with DiversificationHTTPServer(
        service, max_inflight=len(queries), ring_size=len(queries)
    ) as server:
        base = server.base_url

        def client(index: int, query: str) -> None:
            request = urllib.request.Request(
                base + "/diversify",
                data=json.dumps({"query": query}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as rsp:
                responses[index] = (rsp.status, json.load(rsp))

        threads = [
            threading.Thread(target=client, args=(i, q))
            for i, q in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        with urllib.request.urlopen(base + "/health", timeout=30) as rsp:
            health = json.load(rsp)
        front = server.front.stats
        drain = urllib.request.Request(base + "/drain", data=b"", method="POST")
        with urllib.request.urlopen(drain, timeout=60) as rsp:
            drain_report = json.load(rsp)

    assert [status for status, _ in responses] == [200] * len(queries)
    assert [body for _, body in responses] == reference
    assert health["status"] == "ok"
    assert front.served == len(queries)
    assert service.stats.ranked == distinct
    assert drain_report["served_total"] == len(queries)


@pytest.mark.parametrize(
    ("fast_cls", "reference_cls"),
    [
        (FastOptSelect, OptSelect),
        (FastXQuAD, XQuAD),
        (FastIASelect, IASelect),
        (FastMMR, MMR),
    ],
    ids=["OptSelect", "XQuAD", "IASelect", "MMR"],
)
def test_kernel_diversifier_stream_identity(
    trec_workload, fast_cls, reference_cls
):
    """Under each kernel-backed diversifier the batch service serves
    field for field what the pure-Python reference serves one query at
    a time, and ranks every distinct query of the stream exactly once."""
    queries = zipf_workload(trec_workload, 60)
    distinct = len(set(queries))
    factory = framework_factory(trec_workload)

    def framework(diversifier):
        return DiversificationFramework(
            factory.engine, factory.miner, diversifier, factory.config
        )

    service = DiversificationService(framework(fast_cls()))
    service.warm(queries)
    reference = framework(reference_cls())
    for got, query in zip(service.diversify_batch(queries), queries):
        want = reference.diversify_query(query)
        assert got.ranking == want.ranking, query
        assert got.diversified == want.diversified
        assert got.baseline.doc_ids == want.baseline.doc_ids
        assert got.specializations == want.specializations
        if want.diversified:
            assert got.algorithm == fast_cls.name
    assert service.stats.served == len(queries)
    assert service.stats.ranked == distinct
    assert service.stats.diversified > 0


def test_hot_query_latency(benchmark, trec_workload):
    """Steady-state serving: a popular query after the caches warmed."""
    service = DiversificationService(make_framework(trec_workload))
    queries = zipf_workload(trec_workload, 50)
    service.warm(queries)
    service.diversify_batch(queries)
    benchmark.group = "serving-latency"
    result = benchmark(service.diversify, queries[0])
    assert result.query == queries[0]


def test_cold_pipeline_latency(benchmark, trec_workload):
    """One full pipeline (detect + retrieve + vectorise + rank), no
    result cache — the cost the batch path amortises."""
    framework = make_framework(trec_workload)
    query = trec_workload.testbed.topics[0].query
    expected = framework.diversify_query(query)  # warms spec artifacts only

    def serve_uncached():
        service = DiversificationService(framework)
        return service.diversify(query)

    benchmark.group = "serving-latency"
    assert benchmark(serve_uncached).ranking == expected.ranking
