"""Store-backed serving: the serving stack over an attached index store.

The identity anchor of the storage PR: a cluster whose shards hold a
:class:`~repro.retrieval.store.StoreBackedSearchEngine` (postings paged
from SQLite through the LRU page cache) must serve results
field-identical — rankings *and* baseline scores — to the same cluster
over the fully in-memory engine, under every execution backend; warm
artifacts hydrate from the store's ``warm_artifacts`` table, including
on worker respawn; and the page-cache counters surface through
``ServiceStats`` and the HTTP stats payload.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.framework import DiversificationFramework
from repro.retrieval.engine import SearchEngine
from repro.retrieval.store import (
    StoreBackedSearchEngine,
    read_warm_artifacts,
    write_store,
)
from repro.serving import (
    BACKEND_NAMES,
    DiversificationService,
    ShardedDiversificationService,
    persist_store,
)
from repro.serving.http import stats_payload
from repro.serving.sharded import ShardServiceFactory
from .faults import FaultInjectingBackend

from tests.conftest import STANDARD_CONFIG, run_on_threads

NUM_SHARDS = 2

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend tests rely on fork inheriting the fixtures",
)


@pytest.fixture(scope="module")
def built_engine(small_corpus):
    return SearchEngine(small_corpus.collection, NUM_SHARDS)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, built_engine):
    path = tmp_path_factory.mktemp("serving-store") / "index.sqlite3"
    write_store(path, built_engine)
    return path


@pytest.fixture(scope="module")
def workload(small_corpus):
    queries = [topic.query for topic in small_corpus.topics]
    return queries + list(reversed(queries))


@pytest.fixture(scope="module")
def reference(built_engine, small_miner, workload):
    """The in-memory-engine run every store-backed serve must equal."""
    service = DiversificationService(
        DiversificationFramework(built_engine, small_miner, config=STANDARD_CONFIG)
    )
    return service.diversify_batch(workload)


def make_store_framework_factory(store_path, miner):
    def factory(shard: int) -> DiversificationFramework:
        return DiversificationFramework(
            StoreBackedSearchEngine(store_path),
            miner,
            config=STANDARD_CONFIG,
        )

    return factory


def assert_results_equal(got, want):
    __tracebackhide__ = True
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.query == w.query
        assert g.ranking == w.ranking
        assert g.diversified == w.diversified
        assert g.algorithm == w.algorithm
        assert g.baseline.doc_ids == w.baseline.doc_ids
        assert g.baseline.scores == w.baseline.scores


class TestStoreBackedClusterIdentity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_identical_under_every_backend(
        self, store_path, small_miner, workload, reference, backend
    ):
        if backend == "process" and "fork" not in (
            multiprocessing.get_all_start_methods()
        ):
            pytest.skip("no fork on this platform")
        cluster = ShardedDiversificationService.from_factory(
            make_store_framework_factory(store_path, small_miner),
            num_shards=NUM_SHARDS,
            backend=backend,
        )
        try:
            assert_results_equal(cluster.diversify_batch(workload), reference)
        finally:
            cluster.close()


class TestWarmStoreHydration:
    @pytest.fixture(scope="class")
    def warmed_store(
        self, tmp_path_factory, built_engine, small_miner, workload
    ):
        """A store whose warm_artifacts rows were written by a warmed
        donor cluster — the offline pipeline's full output."""
        path = tmp_path_factory.mktemp("warm-store") / "index.sqlite3"
        donor = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                built_engine, small_miner, config=STANDARD_CONFIG
            ),
            num_shards=NUM_SHARDS,
            backend="inline",
        )
        try:
            donor.warm(workload)
            persist_store(path, built_engine, donor)
        finally:
            donor.close()
        return path

    def test_factory_hydrates_each_shard_as_it_builds(
        self, warmed_store, small_miner
    ):
        """Building a shard over a store-backed engine installs exactly
        that shard's warm rows — no warm call, no option naming the file."""
        factory = ShardServiceFactory(
            make_store_framework_factory(warmed_store, small_miner)
        )
        hydrated = 0
        for shard in range(NUM_SHARDS):
            service = factory(shard)
            assert service.framework.engine.store_path == str(warmed_store)
            held = service.framework.export_warm_state()
            assert set(held) == set(read_warm_artifacts(warmed_store, shard))
            hydrated += len(held)
        assert hydrated > 0

    def test_in_memory_engine_factory_does_not_hydrate(
        self, built_engine, small_miner
    ):
        assert SearchEngine.store_path is None
        assert built_engine.store_path is None
        service = ShardServiceFactory(
            lambda shard: DiversificationFramework(
                built_engine, small_miner, config=STANDARD_CONFIG
            )
        )(0)
        assert service.framework.export_warm_state() == {}

    def test_hydrated_cluster_refetches_nothing(
        self, warmed_store, small_miner, workload, reference
    ):
        cluster = ShardedDiversificationService.from_factory(
            make_store_framework_factory(warmed_store, small_miner),
            num_shards=NUM_SHARDS,
            backend="inline",
        )
        try:
            # Every artifact came from the store's rows: re-warming the
            # expected queries fetches nothing from the engine.
            assert cluster.warm(workload).fetched == 0
            assert_results_equal(cluster.diversify_batch(workload), reference)
        finally:
            cluster.close()

    def test_respawned_worker_rehydrates_from_store(
        self, warmed_store, small_miner, workload, reference
    ):
        backend = FaultInjectingBackend()
        cluster = ShardedDiversificationService.from_factory(
            make_store_framework_factory(warmed_store, small_miner),
            num_shards=NUM_SHARDS,
            backend=backend,
        )
        try:
            shard = 0
            bucket = [q for q in set(workload) if cluster.route(q) == shard]
            backend.kill_worker(shard)
            assert_results_equal(cluster.diversify_batch(workload), reference)
            assert backend.replication_stats()[shard]["respawns"] == 1
            # The respawned worker's factory re-attached the store and
            # hydrated its warm rows: nothing is refetched.
            assert backend.invoke(shard, "warm", bucket).fetched == 0
        finally:
            cluster.close()


class TestPageCacheStatsSurface:
    def test_service_stats_carry_page_counters(
        self, store_path, small_miner, workload
    ):
        service = DiversificationService(
            DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            )
        )
        service.diversify_batch(workload)
        stats = service.get_stats()
        assert stats.page_misses > 0
        assert stats.page_resident_bytes > 0
        assert "pages=" in stats.summary()

    def test_http_stats_payload_includes_page_cache(
        self, store_path, small_miner, workload
    ):
        service = DiversificationService(
            DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            )
        )
        service.diversify_batch(workload)
        payload = stats_payload(service.get_stats())
        cache = payload["page_cache"]
        assert cache["misses"] > 0
        assert cache["resident_bytes"] > 0
        assert set(cache) == {"hits", "misses", "evictions", "resident_bytes"}

    def test_in_memory_service_reports_zero_pages(
        self, framework_factory, workload
    ):
        service = DiversificationService(framework_factory())
        service.diversify_batch(workload)
        stats = service.get_stats()
        assert stats.page_hits == stats.page_misses == 0
        assert "pages=" not in stats.summary()

    @pytest.mark.parametrize("fanout", ["inline", "thread"])
    def test_shared_engine_pages_count_once_per_cluster(
        self, store_path, small_miner, small_corpus, fanout
    ):
        """Shards sharing one store-backed engine share its page cache,
        which the cluster counts once — also when the shards fault pages
        in concurrently, each on its own thread."""
        engine = StoreBackedSearchEngine(store_path)
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                engine, small_miner, config=STANDARD_CONFIG
            ),
            num_shards=NUM_SHARDS,
        )
        queries = [topic.query for topic in small_corpus.topics]
        try:
            if fanout == "inline":
                cluster.diversify_batch(queries)
            else:
                run_on_threads(
                    lambda shard=shard, bucket=bucket: shard.diversify_batch(bucket)
                    for shard, bucket in zip(
                        cluster.services, cluster.partition(queries)
                    )
                )
            stats = cluster.cluster_stats()
        finally:
            cluster.close()
        info = engine.page_cache_info()
        assert info.misses > 0
        assert (stats.page_hits, stats.page_misses, stats.page_evictions) == (
            info.hits, info.misses, info.evictions,
        )
        assert stats.page_resident_bytes == info.resident_bytes
        # Each shard entry still reports the engine it reads from.
        assert [s.page_misses for s in stats.shards] == [info.misses] * NUM_SHARDS
