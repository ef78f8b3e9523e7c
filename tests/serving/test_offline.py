"""Tests for the offline pipeline's serving half: a sharded cluster
warms over a partitioned engine and serves the unsharded service's
rankings, with the warm-artifact memory accounting summed across shards.
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
)

NUM_PARTITIONS = 3


@pytest.fixture(scope="module")
def serial_engine(small_corpus):
    return SearchEngine(small_corpus.collection, NUM_PARTITIONS)


class TestOfflineEndToEnd:
    """A partitioned engine feeds the sharded cluster: served rankings
    equal the unsharded service's, and the warm accounting sums."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_cluster_over_partitioned_engine(
        self, small_corpus, serial_engine, small_miner, standard_config,
        backend,
    ):
        if backend == "process" and "fork" not in (
            multiprocessing.get_all_start_methods()
        ):
            pytest.skip("the lambda factory reaches its workers only by fork")
        queries = [t.query for t in small_corpus.topics] * 2
        reference = DiversificationService(
            DiversificationFramework(
                serial_engine, small_miner, config=standard_config
            )
        )
        reference.warm(queries)
        want = [r.ranking for r in reference.diversify_batch(queries)]

        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                serial_engine, small_miner, config=standard_config
            ),
            num_shards=2,
            backend=backend,
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
