"""Tests for the sharded serving layer (ShardedDiversificationService)."""

from __future__ import annotations

import pytest

from repro.core.cache import CacheStats
from repro.retrieval.engine import stable_shard
from repro.serving import (
    DiversificationService,
    ShardedDiversificationService,
    WarmReport,
)
from repro.serving.service import ServiceStats

NUM_SHARDS = 3


@pytest.fixture()
def cluster(framework_factory):
    return ShardedDiversificationService.from_factory(
        lambda shard: framework_factory(),
        num_shards=NUM_SHARDS,
    )


@pytest.fixture()
def single(framework_factory):
    return DiversificationService(framework_factory())


@pytest.fixture(scope="module")
def workload(small_corpus):
    """A repeating workload over every topic query."""
    queries = [topic.query for topic in small_corpus.topics]
    return queries * 2 + list(reversed(queries))


class TestRouting:
    def test_route_is_stable_hash(self, cluster, workload):
        for query in workload:
            assert cluster.route(query) == stable_shard(query, NUM_SHARDS)
            assert cluster.route(query) == cluster.route(query)
            assert cluster.shard_for(query) is cluster.services[
                cluster.route(query)
            ]

    def test_partition_covers_batch_in_order(self, cluster, workload):
        buckets = cluster.partition(workload)
        assert len(buckets) == NUM_SHARDS
        assert sorted(q for b in buckets for q in b) == sorted(workload)
        for shard, bucket in enumerate(buckets):
            assert bucket == [q for q in workload if cluster.route(q) == shard]

    def test_router_seed_remaps(self, framework_factory, workload):
        reseeded = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(),
            num_shards=NUM_SHARDS,
            router_seed=1,
        )
        default = [stable_shard(q, NUM_SHARDS) for q in set(workload)]
        assert [reseeded.route(q) for q in set(workload)] != default


class TestIdentity:
    def test_batch_identical_to_unsharded(self, cluster, single, workload):
        """The acceptance criterion: sharding must not change a ranking."""
        sharded = cluster.diversify_batch(workload)
        unsharded = single.diversify_batch(workload)
        assert [r.query for r in sharded] == workload
        for a, b in zip(unsharded, sharded):
            assert a.query == b.query
            assert a.ranking == b.ranking

    def test_duplicates_share_one_result(self, cluster, workload):
        query = workload[0]
        results = cluster.diversify_batch([query, query, query])
        assert results[0] is results[1] is results[2]

    def test_single_query_routes_to_owner(self, cluster, workload):
        query = workload[0]
        owner = cluster.shard_for(query)
        result = cluster.diversify(query)
        assert result.query == query
        assert owner.stats.ranked == 1
        others = [s for s in cluster.services if s is not owner]
        assert all(s.stats.ranked == 0 for s in others)

    def test_empty_batch(self, cluster):
        assert cluster.diversify_batch([]) == []


class TestMergedStats:
    def test_cluster_counters_equal_single_service(
        self, cluster, single, workload
    ):
        """Same workload, same counters: partitioning only relabels
        where the work happened."""
        single.warm(workload)
        single.diversify_batch(workload)
        cluster.warm(workload)
        cluster.diversify_batch(workload)

        merged = cluster.cluster_stats()
        assert merged.served == single.stats.served
        assert merged.ranked == single.stats.ranked
        assert merged.diversified == single.stats.diversified
        assert len(merged.latencies_ms) == len(single.stats.latencies_ms)
        assert merged.seconds > 0
        assert merged.throughput_qps > 0

        # Result LRU traffic is partition-invariant too: one lookup per
        # distinct query per batch, wherever it routes.
        merged_rc = cluster.result_cache_info()
        single_rc = single.result_cache_info()
        assert merged_rc.hits + merged_rc.misses == (
            single_rc.hits + single_rc.misses
        )
        assert merged_rc.size == single_rc.size

    def test_warm_report_merges_per_shard(self, cluster, workload):
        report = cluster.warm(workload)
        assert report.name == "cluster"
        assert len(report.shards) == NUM_SHARDS
        assert report.queries == len(set(workload))
        assert report.fetched == sum(r.fetched for r in report.shards)
        assert report.ambiguous == sum(r.ambiguous for r in report.shards)
        assert [r.name for r in report.shards] == [
            s.name for s in cluster.services
        ]
        assert "cluster" in report.summary()

    def test_warm_report_labels_wall_and_busy(self, cluster, workload):
        """The merged warm report must carry both clocks: ``seconds`` is
        the measured fan-out wall-clock, ``busy_seconds`` the summed
        per-shard busy time — neither substituted for the other
        (regression for the cluster warm timing that used to report only
        one number with mixed semantics)."""
        report = cluster.warm(workload)
        busy = sum(r.seconds for r in report.shards)
        assert report.busy_seconds == pytest.approx(busy)
        assert report.seconds > 0
        assert f"busy={report.busy_seconds:.3f}" in report.summary()
        for shard_report in report.shards:
            assert shard_report.busy_seconds == 0.0
            assert "busy=" not in shard_report.summary()

    def test_inline_warm_wall_covers_busy(self, framework_factory, workload):
        """Only under the *inline* backend do shards provably run inside
        the measured window, so wall >= summed busy is an invariant
        there (a process-backed cluster on a multi-core host legitimately
        shows busy > wall — that is the point of keeping both)."""
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(),
            num_shards=NUM_SHARDS,
            backend="inline",
        )
        report = cluster.warm(workload)
        assert report.seconds >= report.busy_seconds > 0

    def test_cluster_stats_labels_wall_and_busy(self, cluster, workload):
        cluster.diversify_batch(workload)
        merged = cluster.cluster_stats()
        assert merged.busy_seconds == pytest.approx(
            sum(s.seconds for s in merged.shards)
        )
        assert merged.seconds > 0
        for leaf in merged.shards:
            assert leaf.busy_seconds == 0.0

    def test_spec_cache_merge(self, cluster, workload):
        cluster.warm(workload)
        merged = cluster.spec_cache_info()
        per_shard = [s.spec_cache_info() for s in cluster.services]
        assert merged.size == sum(c.size for c in per_shard)
        assert merged.misses == sum(c.misses for c in per_shard)

    def test_prepare_batch_covers_distinct(self, cluster, workload):
        prepared = cluster.prepare_batch(workload)
        assert set(prepared) == set(workload)
        for query, prep in prepared.items():
            assert prep.query == query

    def test_invalidate_forces_rerank(self, cluster, workload):
        query = workload[0]
        cluster.diversify(query)
        cluster.invalidate()
        cluster.diversify(query)
        assert cluster.cluster_stats().ranked == 2


class TestConstruction:
    def test_shards_are_auto_named(self, cluster):
        assert [s.name for s in cluster.services] == [
            f"shard{i}" for i in range(NUM_SHARDS)
        ]
        assert [s.stats.name for s in cluster.services] == [
            f"shard{i}" for i in range(NUM_SHARDS)
        ]

    def test_from_factory_validates_count(self, framework_factory):
        with pytest.raises(ValueError):
            ShardedDiversificationService.from_factory(
                lambda shard: framework_factory(), 0
            )

    def test_repr(self, cluster):
        assert "shards=3" in repr(cluster)


class TestStatsMergePrimitives:
    def test_service_stats_merge(self):
        a = ServiceStats(served=5, ranked=3, diversified=2, batches=1, seconds=0.5)
        a.latencies_ms.extend([1.0, 2.0, 3.0])
        b = ServiceStats(served=7, ranked=4, diversified=1, batches=2, seconds=0.25)
        b.latencies_ms.extend([4.0])
        merged = ServiceStats.merge([a, b], name="cluster")
        assert merged.name == "cluster"
        assert merged.served == 12
        assert merged.ranked == 7
        assert merged.diversified == 3
        assert merged.batches == 3
        assert merged.seconds == 0.75
        assert sorted(merged.latencies_ms) == [1.0, 2.0, 3.0, 4.0]
        assert merged.summary().startswith("[cluster]")

    def test_cache_stats_merge(self):
        a = CacheStats(maxsize=4, size=2, hits=10, misses=5, evictions=1)
        b = CacheStats(maxsize=8, size=3, hits=2, misses=2, evictions=0)
        merged = CacheStats.merge([a, b])
        assert merged == CacheStats(
            maxsize=12, size=5, hits=12, misses=7, evictions=1
        )
        assert merged.hit_rate == pytest.approx(12 / 19)

    def test_cache_stats_merge_empty(self):
        merged = CacheStats.merge([])
        assert merged.hits == merged.misses == merged.size == 0
        assert merged.hit_rate == 0.0

    def test_service_stats_merge_empty_is_valid_zero(self):
        """Merging nothing must yield a usable zeroed summary, with every
        derived quantity (rates, percentiles, means) defined."""
        merged = ServiceStats.merge([])
        assert merged.served == merged.ranked == merged.batches == 0
        assert merged.throughput_qps == 0.0
        assert merged.mean_latency_ms == 0.0
        assert merged.percentile_ms(0.95) == 0.0
        assert merged.mean_batch_size == 0.0
        assert merged.mean_wait_ms == 0.0
        assert merged.wait_percentile_ms(0.5) == 0.0
        assert merged.queue_depth_peak == 0
        assert merged.summary().startswith("[cluster]")

    def test_warm_report_merge_empty_is_valid_zero(self):
        merged = WarmReport.merge([])
        assert merged.queries == merged.fetched == 0
        assert merged.seconds == 0.0
        assert merged.shards == ()
        assert "queries=0" in merged.summary()

    def test_merges_accept_generators(self):
        """A lazily-generated input must not be silently half-consumed
        (each merge reads its input several times internally)."""
        def stats():
            for served in (3, 4):
                s = ServiceStats(served=served, ranked=served, seconds=0.5)
                s.latencies_ms.append(float(served))
                yield s

        merged = ServiceStats.merge(stats())
        assert merged.served == 7
        assert merged.ranked == 7
        assert merged.seconds == 1.0
        assert sorted(merged.latencies_ms) == [3.0, 4.0]

        reports = (
            WarmReport(queries=q, ambiguous=1, specializations=2, fetched=2,
                       seconds=0.1)
            for q in (5, 6)
        )
        warm = WarmReport.merge(reports)
        assert warm.queries == 11
        assert warm.fetched == 4
        assert len(warm.shards) == 2

        caches = (
            CacheStats(maxsize=4, size=1, hits=h, misses=1, evictions=0)
            for h in (2, 3)
        )
        assert CacheStats.merge(caches).hits == 5

    def test_merge_breakdown_is_a_snapshot(self):
        """The merged ``shards`` breakdown must not alias the live
        inputs: serving more traffic after the merge may not mutate an
        already-taken cluster snapshot."""
        live = ServiceStats(served=2, ranked=2, seconds=0.1, name="shard0")
        live.latencies_ms.append(1.0)
        merged = ServiceStats.merge([live, ServiceStats(name="shard1")])
        assert merged.shards[0].served == 2
        live.served += 5
        live.latencies_ms.append(9.0)
        assert merged.shards[0].served == 2
        assert list(merged.shards[0].latencies_ms) == [1.0]
        assert sum(s.served for s in merged.shards) == merged.served

    def test_formation_fields_merge(self):
        """The async front-end's batch-formation accounting must roll up
        like every other counter: histograms add, wait samples
        concatenate, depth peaks take the max."""
        a = ServiceStats(served=4, batches=2)
        a.record_formation(2, [1.0, 2.0], queue_depth=3)
        a.record_formation(2, [0.5, 0.5], queue_depth=1)
        b = ServiceStats(served=3, batches=1)
        b.record_formation(3, [4.0, 4.0, 4.0], queue_depth=7)
        merged = ServiceStats.merge([a, b])
        assert merged.batch_sizes == {2: 2, 3: 1}
        assert merged.mean_batch_size == pytest.approx(7 / 3)
        assert sorted(merged.wait_ms) == [0.5, 0.5, 1.0, 2.0, 4.0, 4.0, 4.0]
        assert merged.queue_depth_peak == 7
        assert merged.mean_wait_ms == pytest.approx(16.0 / 7)
        assert "batch mean=" in merged.summary()

    def test_merge_of_merged_reports_nests(self):
        """Cluster-of-clusters: merging merged reports keeps counters
        additive and the shard breakdown intact one level down."""
        leaf = [
            WarmReport(queries=2, ambiguous=1, specializations=2, fetched=2,
                       seconds=0.1, name=f"shard{i}")
            for i in range(2)
        ]
        cluster = WarmReport.merge(leaf, name="cluster0")
        top = WarmReport.merge([cluster, cluster], name="region")
        assert top.queries == 8
        assert top.name == "region"
        assert all(r.name == "cluster0" for r in top.shards)
        assert all(len(r.shards) == 2 for r in top.shards)
