"""Tests for the batched serving layer (DiversificationService)."""

from __future__ import annotations

import dataclasses
import random
import statistics

import pytest

from repro.core.fast import FastIASelect, FastMMR, FastOptSelect, FastXQuAD
from repro.core.optselect import OptSelect
from repro.serving import DiversificationService
from repro.serving.service import ServiceStats

from tests.conftest import STANDARD_CONFIG


@pytest.fixture()
def service(fresh_framework):
    return DiversificationService(fresh_framework)


class TestWarm:
    def test_warm_precomputes_spec_artifacts(self, service, topic_queries):
        report = service.warm(topic_queries)
        assert report.queries == len(set(topic_queries))
        assert report.fetched == report.specializations
        assert service.spec_cache_info().size == report.specializations

    def test_warm_is_idempotent(self, service, topic_queries):
        first = service.warm(topic_queries)
        second = service.warm(topic_queries)
        assert second.fetched == 0
        assert second.specializations == first.specializations

    def test_warmed_service_serves_without_spec_misses(
        self, service, topic_queries
    ):
        service.warm(topic_queries)
        misses_before = service.spec_cache_info().misses
        service.diversify_batch(topic_queries)
        assert service.spec_cache_info().misses == misses_before


class TestDiversifyBatch:
    def test_ordering_matches_input(self, service, topic_queries):
        queries = topic_queries + list(reversed(topic_queries))
        results = service.diversify_batch(queries)
        assert [r.query for r in results] == queries

    def test_duplicates_share_one_result(self, service, topic_queries):
        query = topic_queries[0]
        results = service.diversify_batch([query, query, query])
        assert results[0] is results[1] is results[2]
        assert service.stats.ranked == 1
        assert service.stats.served == 3

    @pytest.mark.parametrize(
        "diversifier_cls",
        [OptSelect, FastOptSelect, FastXQuAD, FastIASelect, FastMMR],
    )
    def test_matches_per_query_pipeline(
        self, framework_factory, topic_queries, diversifier_cls
    ):
        service = DiversificationService(
            framework_factory(diversifier=diversifier_cls())
        )
        reference = framework_factory(diversifier=diversifier_cls())
        queries = topic_queries + list(reversed(topic_queries))
        batch = service.diversify_batch(queries)
        hits = service.diversify_batch(queries)  # every query cached
        assert service.stats.ranked == len(set(queries))
        for query, result, hit in zip(queries, batch, hits):
            want = reference.diversify_query(query)
            assert hit is result
            assert result.query == want.query
            assert result.ranking == want.ranking
            assert result.diversified == want.diversified
            assert result.algorithm == want.algorithm
            assert result.baseline.doc_ids == want.baseline.doc_ids
            assert result.specializations == want.specializations

    def test_result_cache_hits_across_batches(self, service, topic_queries):
        service.diversify_batch(topic_queries)
        ranked_before = service.stats.ranked
        service.diversify_batch(topic_queries)
        assert service.stats.ranked == ranked_before
        assert service.result_cache_info().hits >= len(set(topic_queries))

    def test_single_query_entry_point(self, service, topic_queries):
        result = service.diversify(topic_queries[0])
        assert result.query == topic_queries[0]
        assert service.diversify(topic_queries[0]) is result

    def test_invalidate_forces_rerank(self, service, topic_queries):
        service.diversify(topic_queries[0])
        service.invalidate()
        service.diversify(topic_queries[0])
        assert service.stats.ranked == 2

    def test_latency_stats_recorded(self, service, topic_queries):
        service.diversify_batch(topic_queries)
        stats = service.stats
        assert len(stats.latencies_ms) == stats.ranked
        assert stats.mean_latency_ms > 0
        assert stats.percentile_ms(0.95) >= stats.percentile_ms(0.50)
        assert stats.throughput_qps > 0
        assert "qps" in stats.summary()


class TestNameThreading:
    """The shard label must surface everywhere a report is rendered."""

    def test_named_service_labels_stats_and_warm(
        self, fresh_framework, topic_queries
    ):
        service = DiversificationService(fresh_framework, name="shard7")
        assert service.stats.name == "shard7"
        assert "name='shard7'" in repr(service)
        report = service.warm(topic_queries)
        assert report.name == "shard7"
        assert report.summary().startswith("[shard7]")
        service.diversify_batch(topic_queries)
        assert service.stats.summary().startswith("[shard7]")

    def test_unnamed_service_has_clean_summaries(self, service, topic_queries):
        report = service.warm(topic_queries)
        assert report.name == ""
        assert not report.summary().startswith("[")
        assert not service.stats.summary().startswith("[")
        assert "name=" not in repr(service)


class TestPrepare:
    def test_prepare_batch_builds_tasks_for_ambiguous(
        self, service, small_miner, topic_queries
    ):
        prepared = service.prepare_batch(topic_queries)
        assert set(prepared) == set(topic_queries)
        for query, prep in prepared.items():
            assert prep.query == query
            if small_miner.is_ambiguous(query):
                assert prep.ambiguous
                assert prep.task is not None
                assert prep.task.query == query
            else:
                assert prep.task is None

    def test_prepare_single(self, service, small_miner, topic_queries, ambiguous_topic):
        prep = service.prepare(ambiguous_topic.query)
        assert prep.ambiguous and prep.task is not None

    @pytest.mark.parametrize("candidates", [STANDARD_CONFIG.candidates, 12])
    def test_prepare_batch_searches_each_specialization_once(
        self, framework_factory, topic_queries, candidates
    ):
        """Each distinct specialization of the batch is searched once,
        and no R_q' result gets a q'-biased vector that every query
        ranking under that specialization shadows with its own q-biased
        one: the vectorised set is exactly the results outside the
        candidates of some query that needs them, each built once."""
        service = DiversificationService(
            framework_factory(
                config=dataclasses.replace(STANDARD_CONFIG, candidates=candidates)
            )
        )
        framework = service.framework
        engine = framework.engine
        config = framework.config
        users: dict[str, list[str]] = {}
        for query in topic_queries:
            for spec, _ in framework.detect(query):
                users.setdefault(spec, []).append(query)
        needed = {}
        for spec, queries in users.items():
            shadowing = set.intersection(
                *(set(engine.search(q, config.candidates).doc_ids) for q in queries)
            )
            needed[spec] = sorted(
                d
                for d in engine.search(spec, config.spec_results).doc_ids
                if d not in shadowing
            )
        searched: dict[str, int] = {}
        vectorised: dict[str, list[str]] = {}
        search, versioned_vectors = engine.search, engine.versioned_vectors

        def counting(query, k=1000):
            searched[query] = searched.get(query, 0) + 1
            return search(query, k)

        def recording(query, results):
            if query in users:
                vectorised.setdefault(query, []).extend(r.doc_id for r in results)
            return versioned_vectors(query, results)

        engine.search, engine.versioned_vectors = counting, recording
        try:
            prepared = service.prepare_batch(topic_queries)
        finally:
            del engine.search, engine.versioned_vectors
        assert users and any(p.task is not None for p in prepared.values())
        assert {spec: searched.get(spec, 0) for spec in users} == dict.fromkeys(
            users, 1
        )
        assert {s: sorted(v) for s, v in vectorised.items()} == {
            s: d for s, d in needed.items() if d
        }
        assert sum(map(len, needed.values())) < sum(
            len(engine.search(spec, config.spec_results)) for spec in users
        )  # something was shadowed
        info = service.spec_cache_info()
        assert info.size == len(users)
        assert info.misses == len(users)


class TestPercentileInterpolation:
    """percentile_ms/wait_percentile_ms follow the linear-interpolation
    ("inclusive") convention of ``statistics.quantiles`` — pinned here
    because a nearest-rank implementation once diverged on small and
    even-sized samples (banker's rounding picked the lower neighbour)."""

    @staticmethod
    def recorded(latencies):
        stats = ServiceStats()
        for value in latencies:
            stats.record(value, diversified=False)
        return stats

    def test_empty_sample_is_zero(self):
        stats = ServiceStats()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert stats.percentile_ms(q) == 0.0
            assert stats.wait_percentile_ms(q) == 0.0

    def test_single_sample_is_every_percentile(self):
        stats = self.recorded([7.5])
        for q in (0.0, 0.5, 0.95, 1.0):
            assert stats.percentile_ms(q) == 7.5

    def test_two_samples_interpolate_the_median(self):
        stats = self.recorded([10.0, 20.0])
        assert stats.percentile_ms(0.5) == pytest.approx(15.0)
        assert stats.percentile_ms(0.25) == pytest.approx(12.5)
        assert stats.percentile_ms(0.0) == 10.0
        assert stats.percentile_ms(1.0) == 20.0

    def test_out_of_range_q_clamps_to_extremes(self):
        stats = self.recorded([5.0, 10.0, 20.0])
        assert stats.percentile_ms(-3.0) == 5.0
        assert stats.percentile_ms(7.0) == 20.0

    def test_matches_statistics_quantiles_inclusive(self):
        rng = random.Random(31)
        samples = [rng.uniform(0.1, 50.0) for _ in range(101)]
        stats = self.recorded(samples)
        hundredths = statistics.quantiles(samples, n=100, method="inclusive")
        for q, expected in ((0.25, hundredths[24]), (0.50, hundredths[49]),
                            (0.95, hundredths[94]), (0.99, hundredths[98])):
            assert stats.percentile_ms(q) == pytest.approx(expected)

    def test_merged_out_of_order_shard_samples(self):
        """Shards record independently, so a merged sample is unsorted
        and interleaved; percentiles must equal those of the pooled,
        re-sorted sample — order of merging must not matter."""
        rng = random.Random(77)
        per_shard = [
            [rng.uniform(0.1, 30.0) for _ in range(rng.randrange(0, 40))]
            for _ in range(4)
        ]
        shard_stats = [self.recorded(latencies) for latencies in per_shard]
        merged = ServiceStats.merge(shard_stats)
        reversed_merge = ServiceStats.merge(list(reversed(shard_stats)))
        pooled = sorted(sample for shard in per_shard for sample in shard)
        hundredths = statistics.quantiles(pooled, n=100, method="inclusive")
        for q, expected in ((0.50, hundredths[49]), (0.95, hundredths[94])):
            assert merged.percentile_ms(q) == pytest.approx(expected)
            assert reversed_merge.percentile_ms(q) == pytest.approx(expected)

    def test_merged_wait_samples(self):
        front_a, front_b = ServiceStats(), ServiceStats()
        front_a.record_formation(2, [9.0, 1.0], queue_depth=0)
        front_b.record_formation(2, [5.0, 3.0], queue_depth=0)
        merged = ServiceStats.merge([front_a, front_b])
        assert merged.wait_percentile_ms(0.5) == pytest.approx(4.0)
        assert merged.wait_percentile_ms(1.0) == 9.0
