"""Tests for index partitioning: the hash router, collection
partitioning, the ranking-identity of the partitioned engine, and its
memory estimates."""

from __future__ import annotations

import pytest

from repro.retrieval.documents import DocumentCollection
from repro.retrieval.engine import (
    SearchEngine,
    partition_collection,
    stable_shard,
)
from repro.retrieval.index import InvertedIndex
from tests.retrieval.search_oracle import assert_oracle, oracle_index


def test_partitioned_engine_is_the_engine():
    from repro.retrieval.sharding import PartitionedSearchEngine

    assert PartitionedSearchEngine is SearchEngine


class TestStableShard:
    def test_deterministic(self):
        for key in ("apple", "apple store", "jaguar", ""):
            assert stable_shard(key, 4) == stable_shard(key, 4)

    def test_in_range(self):
        for i in range(200):
            assert 0 <= stable_shard(f"q{i}", 7) < 7

    def test_single_shard_is_zero(self):
        assert stable_shard("anything", 1) == 0

    def test_seed_changes_mapping(self):
        keys = [f"q{i}" for i in range(64)]
        base = [stable_shard(k, 8) for k in keys]
        reseeded = [stable_shard(k, 8, seed=1) for k in keys]
        assert base != reseeded

    def test_roughly_uniform(self):
        counts = [0] * 4
        n = 2000
        for i in range(n):
            counts[stable_shard(f"query-{i}", 4)] += 1
        # Binomial(2000, 1/4): ±5 sigma is ~±97; demand a loose band.
        for c in counts:
            assert 350 < c < 650

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            stable_shard("q", 0)


class TestPartitionCollection:
    def test_exactly_once_and_order_preserved(self, small_corpus):
        collection = small_corpus.collection
        parts = partition_collection(collection, 3)
        assert len(parts) == 3
        seen = [d.doc_id for p in parts for d in p]
        assert sorted(seen) == sorted(collection.doc_ids)
        assert len(seen) == len(collection)
        for part in parts:
            ordinals = [collection.ordinal(d.doc_id) for d in part]
            assert ordinals == sorted(ordinals)

    def test_placement_matches_router(self, small_corpus):
        collection = small_corpus.collection
        parts = partition_collection(collection, 4, seed=5)
        for shard, part in enumerate(parts):
            for document in part:
                assert stable_shard(document.doc_id, 4, seed=5) == shard

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_collection(DocumentCollection(), 0)


@pytest.fixture(scope="module")
def partitioned_engine(small_corpus):
    return SearchEngine(small_corpus.collection, num_partitions=3)


class TestPartitionedSearchEngine:
    def test_rankings_identical_to_single_engine(
        self, small_corpus, partitioned_engine
    ):
        """The load-bearing guarantee: document partitioning with global
        statistics must not change one score or one rank of the undivided
        index's ranking."""
        for topic in small_corpus.topics:
            assert_oracle(partitioned_engine, small_corpus.collection, topic.query, 50)

    @pytest.mark.parametrize("num_partitions", [1, 2, 5])
    def test_identity_across_partition_counts(self, small_corpus, num_partitions):
        engine = SearchEngine(
            small_corpus.collection, num_partitions=num_partitions
        )
        assert_oracle(engine, small_corpus.collection, small_corpus.topics[0].query, 30)

    def test_empty_query(self, partitioned_engine):
        assert len(partitioned_engine.search("", 10)) == 0

    def test_k_validation(self, partitioned_engine):
        with pytest.raises(ValueError):
            partitioned_engine.search("apple", 0)

    def test_search_batch_dedupes(self, small_corpus, partitioned_engine):
        query = small_corpus.topics[0].query
        out = partitioned_engine.search_batch([query, query], 10)
        assert set(out) == {query}

    def test_snippets_inherited(self, small_corpus, partitioned_engine):
        query = small_corpus.topics[0].query
        results = partitioned_engine.search(query, 5)
        vectors = partitioned_engine.snippet_vectors(query, results)
        assert set(vectors) == set(results.doc_ids)

    def test_every_document_in_exactly_one_partition(self, partitioned_engine):
        total = sum(p.num_documents for p in partitioned_engine.partitions)
        assert total == len(partitioned_engine.collection)

    def test_invalid_partition_count(self, small_corpus):
        with pytest.raises(ValueError):
            SearchEngine(small_corpus.collection, num_partitions=0)


class TestDegeneratePartitioning:
    """num_shards > len(collection): empty partitions must stay
    well-formed and collection-global statistics must still match the
    single-engine reference — the index-level analogue of the
    zero-query-shard stats guarantee of the serving layer."""

    def test_partition_collection_more_shards_than_documents(
        self, tiny_collection
    ):
        num_shards = len(tiny_collection) + 3
        parts = partition_collection(tiny_collection, num_shards)
        assert len(parts) == num_shards
        assert sum(len(p) for p in parts) == len(tiny_collection)
        assert any(len(p) == 0 for p in parts)
        for part in parts:
            # Empty partitions are real, iterable, indexable collections.
            assert list(part) == [part[d] for d in part.doc_ids]

    def test_engine_identity_with_more_partitions_than_documents(
        self, tiny_collection
    ):
        engine = SearchEngine(
            tiny_collection, num_partitions=len(tiny_collection) + 4
        )
        for query in ("apple", "apple fruit", "banana tropical", "computer"):
            assert_oracle(engine, tiny_collection, query, 10)

    def test_global_statistics_match_single_index(self, tiny_collection):
        single = oracle_index(tiny_collection)
        engine = SearchEngine(
            tiny_collection, num_partitions=len(tiny_collection) + 4
        )
        snapshot = engine.snapshot()
        assert snapshot.num_documents == single.num_documents
        assert snapshot.average_document_length == single.average_document_length
        total_tokens = sum(p.total_tokens for p in engine.partitions)
        assert total_tokens == single.total_tokens

    def test_empty_partition_indexes_are_wellformed(self, tiny_collection):
        engine = SearchEngine(
            tiny_collection, num_partitions=len(tiny_collection) + 4
        )
        empties = [p for p in engine.partitions if p.num_documents == 0]
        assert empties
        for index in empties:
            assert index.num_terms == 0
            assert index.total_tokens == 0
            assert index.average_document_length == 0.0
            assert index.memory_estimate()["postings_bytes"] == 0

    def test_empty_collection_searches_empty(self):
        engine = SearchEngine(DocumentCollection(), num_partitions=3)
        assert len(engine.search("anything", 5)) == 0


class TestMemoryEstimate:
    def test_memory_estimate_components_sum(self, tiny_collection):
        index = InvertedIndex.from_collection(tiny_collection)
        memory = index.memory_estimate()
        assert memory["total_bytes"] == (
            memory["postings_bytes"]
            + memory["vocabulary_bytes"]
            + memory["documents_bytes"]
        )
        assert memory["postings_bytes"] > 0
        assert memory["vocabulary_bytes"] > 0

    def test_partitioned_engine_memory_sums_partitions(self, small_corpus):
        engine = SearchEngine(
            small_corpus.collection, num_partitions=3
        )
        totals = engine.memory_estimate()
        by_hand = {
            key: sum(p.memory_estimate()[key] for p in engine.partitions)
            for key in totals
        }
        assert totals == by_hand
