"""Tests for the partition-parallel offline pipeline.

The load-bearing property mirrors the serving layer's: the execution
backends may change *where* partitions build, never *what* gets built —
the assembled engine's rankings and scores equal the serially
constructed `SearchEngine`'s and the undivided per-posting
oracle's under every backend, and the build accounting
(`BuildReport`) reports both clocks plus per-partition memory estimates,
degenerate empty partitions included.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.framework import DiversificationFramework
from repro.retrieval.engine import SearchEngine
from repro.serving import (
    BACKEND_NAMES,
    DiversificationService,
    ShardedDiversificationService,
    build_partitioned_engine,
)
from repro.serving.backends import InlineBackend
from repro.serving.offline import PartitionBuildFactory
from tests.retrieval.search_oracle import assert_oracle

NUM_PARTITIONS = 3

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend build relies on fork inheriting the fixtures",
)


@pytest.fixture(scope="module")
def collection(small_corpus):
    return small_corpus.collection

@pytest.fixture(scope="module")
def serial_engine(collection):
    return SearchEngine(collection, NUM_PARTITIONS)


class TestBuildIdentity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_parallel_build_identical_to_serial(
        self, small_corpus, collection, serial_engine, backend
    ):
        if backend == "process" and "fork" not in (
            multiprocessing.get_all_start_methods()
        ):
            pytest.skip("no fork on this platform")
        engine, report = build_partitioned_engine(
            collection, NUM_PARTITIONS, backend=backend
        )
        for topic in small_corpus.topics:
            assert_oracle(serial_engine, collection, topic.query, 30)
            assert_oracle(engine, collection, topic.query, 30)
        assert report.documents == len(collection)

    def test_snippets_work_on_assembled_engine(
        self, small_corpus, collection
    ):
        engine, _ = build_partitioned_engine(
            collection, NUM_PARTITIONS, backend="inline"
        )
        query = small_corpus.topics[0].query
        results = engine.search(query, 5)
        vectors = engine.snippet_vectors(query, results)
        assert set(vectors) == set(results.doc_ids)


class TestBuildReportAccounting:
    @pytest.fixture(scope="class")
    def built(self, collection):
        return build_partitioned_engine(
            collection, NUM_PARTITIONS, backend="inline"
        )

    def test_per_partition_reports(self, built, collection):
        _, report = built
        assert [r.name for r in report.shards] == [
            f"partition{i}" for i in range(NUM_PARTITIONS)
        ]
        assert sum(r.documents for r in report.shards) == len(collection)
        for partition in report.shards:
            assert partition.seconds > 0
            assert partition.postings_bytes > 0
            assert partition.vocabulary_bytes > 0
            assert partition.total_bytes > 0

    def test_wall_and_busy_clocks(self, built):
        _, report = built
        assert report.seconds > 0
        assert report.busy_seconds == pytest.approx(
            sum(r.seconds for r in report.shards)
        )
        # The inline wall-clock wraps partitioning + scatter + assembly,
        # so it is at least the summed build time.
        assert report.seconds >= report.busy_seconds

    def test_counts_match_assembled_engine(self, built):
        engine, report = built
        assert report.tokens == sum(
            p.total_tokens for p in engine.partitions
        )
        assert report.postings == sum(
            p.num_postings for p in engine.partitions
        )
        assert report.total_bytes == engine.memory_estimate()["total_bytes"]

    def test_degenerate_more_partitions_than_documents(self, tiny_collection):
        num = len(tiny_collection) + 3
        engine, report = build_partitioned_engine(
            tiny_collection, num, backend="inline"
        )
        assert len(report.shards) == num
        empties = [r for r in report.shards if r.documents == 0]
        assert empties
        for empty in empties:
            assert empty.postings == 0
            assert empty.postings_bytes == 0
            assert empty.summary().startswith(f"[{empty.name}]")
        assert_oracle(engine, tiny_collection, "apple fruit", 10)

    def test_invalid_partition_count(self, collection):
        with pytest.raises(ValueError):
            build_partitioned_engine(collection, 0)


class TestBackendConsumption:
    def test_backend_is_closed_after_build(self, collection):
        backend = InlineBackend()
        build_partitioned_engine(collection, 2, backend=backend)
        # In-process backends stay usable inline after close(), but the
        # builder services were adopted — a second build must refuse.
        with pytest.raises(Exception):
            build_partitioned_engine(collection, 2, backend=backend)

    @needs_fork
    def test_process_build_ships_indexes_back(self, collection):
        engine, report = build_partitioned_engine(
            collection, 2, backend="process"
        )
        assert sum(p.num_documents for p in engine.partitions) == len(
            collection
        )
        # Busy time was measured inside the workers and travelled back.
        assert all(r.seconds > 0 for r in report.shards)


class TestFactoryPickles:
    def test_partition_build_factory_round_trips(self, collection):
        import pickle

        from repro.retrieval.engine import partition_collection

        parts = tuple(partition_collection(collection, 2))
        engine = SearchEngine(collection)
        seqs = tuple(
            tuple(collection.ordinal(d.doc_id) for d in part) for part in parts
        )
        factory = PartitionBuildFactory(parts, seqs, engine.analyzer)
        clone = pickle.loads(pickle.dumps(factory))
        index, report = clone(0).build()
        assert index.num_documents == len(parts[0])
        assert [seq for seq, _ in index.members()] == list(seqs[0])
        assert report.name == "partition0"


class TestOfflineEndToEnd:
    """Parallel build feeds the sharded cluster: served rankings equal
    the unsharded service over the serially built engine."""

    def test_cluster_over_parallel_built_engine(
        self, small_corpus, collection, serial_engine, small_miner,
        standard_config,
    ):
        queries = [t.query for t in small_corpus.topics] * 2
        reference = DiversificationService(
            DiversificationFramework(
                serial_engine, small_miner, config=standard_config
            )
        )
        reference.warm(queries)
        want = [r.ranking for r in reference.diversify_batch(queries)]

        engine, _ = build_partitioned_engine(
            collection, NUM_PARTITIONS, backend="thread"
        )
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                engine, small_miner, config=standard_config
            ),
            num_shards=2,
            backend="inline",
        )
        try:
            warm = cluster.warm(queries)
            assert warm.busy_seconds == pytest.approx(
                sum(r.seconds for r in warm.shards)
            )
            got = [r.ranking for r in cluster.diversify_batch(queries)]
            assert got == want
            memory = cluster.warm_memory_estimate()
            assert memory["specializations"] > 0
            assert memory["vectors"] > 0
            assert memory["total_bytes"] > 0
        finally:
            cluster.close()

    def test_warm_memory_estimate_sums_shards(
        self, framework_factory
    ):
        service = DiversificationService(framework_factory())
        before = service.warm_memory_estimate()
        assert before["specializations"] == 0
        assert before["total_bytes"] == 0
