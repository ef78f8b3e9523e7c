"""Pickle round-trips of the serving stack's travelling types.

The process execution backend (:mod:`repro.serving.backends`) ships
configs, specialization sets, tasks, results, caches and stats
dataclasses across OS process boundaries; everything the workers send or
receive must survive ``pickle.dumps``/``loads`` *semantically intact*.
These tests pin that contract type by type, so a future field (a lock, a
lambda, an open handle) cannot silently break process-parallel serving.
"""

from __future__ import annotations

import pickle

import numpy
import pytest

from repro.core.ambiguity import SpecializationSet
from repro.core.cache import CacheStats, LRUCache
from repro.core.framework import FrameworkConfig
from repro.experiments.workloads import synthetic_task
from repro.querylog.specializations import MinerConfig
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector
from repro.serving.service import ServiceStats, WarmReport


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestConfigs:
    def test_framework_config(self):
        config = FrameworkConfig(
            k=25, candidates=500, spec_results=15, lambda_=0.3, threshold=0.1
        )
        assert roundtrip(config) == config

    def test_miner_config(self):
        config = MinerConfig(s=4.0, candidates=12, max_specializations=6)
        assert roundtrip(config) == config


class TestSpecTypes:
    def test_specialization_set(self):
        specs = SpecializationSet.from_frequencies(
            "apple", {"apple iphone": 30, "apple fruit": 10}
        )
        loaded = roundtrip(specs)
        assert loaded == specs
        assert loaded.probability("apple iphone") == 0.75

    def test_result_list(self):
        results = ResultList("q", [("d1", 2.5), ("d2", 1.25)])
        loaded = roundtrip(results)
        assert loaded.doc_ids == results.doc_ids
        assert loaded.scores == results.scores
        assert loaded.rank_of("d2") == 2

    def test_term_vector_weights_exact(self):
        vector = TermVector({"apple": 2.0, "fruit": 1.0, "tree": 0.5})
        loaded = roundtrip(vector)
        assert loaded.weights == vector.weights
        assert loaded.norm == vector.norm


class TestTask:
    def test_task_roundtrip_preserves_selection_inputs(self):
        task = synthetic_task(32, num_specs=4, with_vectors=True)
        loaded = roundtrip(task)
        assert loaded.query == task.query
        assert loaded.candidates.doc_ids == task.candidates.doc_ids
        assert loaded.specializations == task.specializations
        assert loaded.relevance == task.relevance
        assert loaded.lambda_ == task.lambda_
        for doc_id, vector in task.vectors.items():
            assert loaded.vectors[doc_id].weights == vector.weights
        for doc_id in task.candidates.doc_ids:
            for spec, _ in task.specializations:
                assert loaded.utilities.value(doc_id, spec) == task.utilities.value(
                    doc_id, spec
                )

    def test_task_drops_dense_memo_and_rebuilds(self):
        task = synthetic_task(16, num_specs=3)
        arrays = task.arrays()  # build the memo
        loaded = roundtrip(task)
        assert loaded._arrays is None  # not shipped
        rebuilt = loaded.arrays()  # lazily rebuilt on demand
        numpy.testing.assert_array_equal(rebuilt.relevance, arrays.relevance)
        numpy.testing.assert_array_equal(rebuilt.by_spec, arrays.by_spec)

    def test_selection_identical_after_roundtrip(self):
        from repro.core.optselect import OptSelect

        task = synthetic_task(48, num_specs=5, seed=11)
        want = OptSelect().diversify(task, 10)
        assert OptSelect().diversify(roundtrip(task), 10) == want


class TestCache:
    def test_lru_roundtrip_preserves_entries_counters_and_order(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")       # refresh a; b is now LRU
        cache.get("missing")  # one miss
        cache.put("d", 4)    # evicts b
        loaded = roundtrip(cache)
        assert loaded.stats() == cache.stats()
        assert list(loaded) == list(cache)  # recency order intact
        assert "b" not in loaded
        # The restored lock is live: operations keep working.
        loaded.put("e", 5)
        assert loaded.stats().evictions == cache.stats().evictions + 1

    def test_cache_stats(self):
        stats = CacheStats(maxsize=8, size=3, hits=5, misses=2, evictions=1)
        assert roundtrip(stats) == stats


class TestStatsDataclasses:
    def test_service_stats_with_samples_and_breakdown(self):
        shard = ServiceStats(served=3, ranked=2, seconds=0.5, name="shard0")
        shard.latencies_ms.extend([1.0, 2.0])
        shard.record_formation(2, [0.5, 0.75], queue_depth=4)
        merged = ServiceStats.merge([shard, ServiceStats(name="shard1")])
        loaded = roundtrip(merged)
        assert loaded.served == merged.served
        assert list(loaded.latencies_ms) == list(merged.latencies_ms)
        assert loaded.batch_sizes == merged.batch_sizes
        assert list(loaded.wait_ms) == list(merged.wait_ms)
        assert loaded.queue_depth_peak == merged.queue_depth_peak
        assert [s.name for s in loaded.shards] == ["shard0", "shard1"]
        assert loaded.summary() == merged.summary()

    def test_warm_report_nested(self):
        leaf = [
            WarmReport(2, 1, 3, 3, 0.1, name=f"shard{i}") for i in range(2)
        ]
        merged = WarmReport.merge(leaf)
        loaded = roundtrip(merged)
        assert loaded == merged
        assert loaded.busy_seconds == pytest.approx(0.2)
        assert [r.name for r in loaded.shards] == ["shard0", "shard1"]

    def test_inverted_index_roundtrip_scores_identically(self, small_corpus):
        """A spawn-started process worker receives its engine, partition
        indexes included, by pickle; an unpickled index must score
        byte-identically (postings, lengths, statistics all intact)."""
        import pickle

        from repro.retrieval.engine import SearchEngine
        from repro.retrieval.index import InvertedIndex

        index = InvertedIndex.from_collection(small_corpus.collection)
        loaded = pickle.loads(pickle.dumps(index))
        assert loaded.num_documents == index.num_documents
        assert loaded.num_terms == index.num_terms
        assert loaded.total_tokens == index.total_tokens
        # The estimate prices the actual containers, and unpickled lists
        # carry no append-growth slack — so the clone reads slightly
        # *smaller*, never structurally different.
        assert loaded.memory_estimate()["total_bytes"] == pytest.approx(
            index.memory_estimate()["total_bytes"], rel=0.1
        )
        engine = SearchEngine(small_corpus.collection)
        donor_results = engine.search(small_corpus.topics[0].query, 20)
        shipped = pickle.loads(pickle.dumps(engine))
        clone_results = shipped.search(small_corpus.topics[0].query, 20)
        assert donor_results.doc_ids == clone_results.doc_ids
        assert donor_results.scores == clone_results.scores


class TestServingObjects:
    def test_framework_and_service_roundtrip(self, framework_factory, topic_queries):
        """A warmed service must travel whole: engine, miner, caches and
        stats all round-trip, and the clone serves identical rankings —
        the property ProcessBackend workers rely on under spawn."""
        from repro.serving.service import DiversificationService

        service = DiversificationService(framework_factory(), name="donor")
        service.warm(topic_queries)
        want = [r.ranking for r in service.diversify_batch(topic_queries)]
        clone = roundtrip(service)
        assert clone.name == "donor"
        assert clone.framework.cache_info() == service.framework.cache_info()
        got = [r.ranking for r in clone.diversify_batch(topic_queries)]
        assert got == want

    def test_diversified_result_roundtrip(self, framework_factory, ambiguous_topic):
        service_framework = framework_factory()
        result = service_framework.diversify_query(ambiguous_topic.query)
        loaded = roundtrip(result)
        assert loaded.query == result.query
        assert loaded.ranking == result.ranking
        assert loaded.diversified == result.diversified
        assert loaded.specializations == result.specializations
