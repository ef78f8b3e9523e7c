"""Opt-in spawn lane: the process backend end to end under
``start_method="spawn"`` — warm, diversify, persist to the store.

Everything the fork-based process tests assert, re-asserted in the
start method that inherits *nothing*: every worker is a fresh
interpreter, so the whole travelling surface (factories, engines,
miners, frameworks, reports) must pickle — the ROADMAP's
"spawn-safe process workers end to end" candidate step, pinned.

Spawning an interpreter per worker (plus pickling a full workload into
each) is seconds-per-test, so the lane is **opt-in**: it runs only with
``REPRO_SPAWN_LANE=1`` in the environment.  CI wires it in as a
separate, non-blocking job; run it locally with::

    REPRO_SPAWN_LANE=1 PYTHONPATH=src python -m pytest tests/serving/test_spawn_lane.py -q
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.experiments.offline import PartitionedFrameworkFactory
from repro.experiments.workloads import WorkloadScale, build_trec_workload
from repro.retrieval.engine import SearchEngine
from repro.retrieval.store import StoreBackedSearchEngine
from repro.serving import (
    DiversificationService,
    ShardedDiversificationService,
    persist_store,
)
from repro.serving.replication import ProcessBackend

pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_SPAWN_LANE") != "1",
        reason="spawn lane is opt-in: set REPRO_SPAWN_LANE=1",
    ),
    pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform does not offer the spawn start method",
    ),
]

#: Small enough that pickling it into every spawned worker stays cheap.
SPAWN_SCALE = WorkloadScale(
    name="spawn-tiny",
    num_topics=4,
    docs_per_aspect=5,
    background_docs=40,
    log_scale=0.05,
    candidates=50,
    k=10,
    spec_results=8,
    cutoffs=(5, 10),
)

NUM_PARTITIONS = 3
NUM_SHARDS = 2


@pytest.fixture(scope="module")
def workload():
    return build_trec_workload(SPAWN_SCALE)


@pytest.fixture(scope="module")
def queries(workload):
    topics = [topic.query for topic in workload.testbed.topics]
    return topics * 2 + list(reversed(topics))


@pytest.fixture(scope="module")
def config():
    return FrameworkConfig(
        k=SPAWN_SCALE.k,
        candidates=SPAWN_SCALE.candidates,
        spec_results=SPAWN_SCALE.spec_results,
    )


def test_cluster_build_warm_diversify_under_spawn(workload, queries, config):
    collection = workload.corpus.collection
    miner = workload.miner("AOL")

    engine = SearchEngine(collection, NUM_PARTITIONS)
    reference = DiversificationService(
        DiversificationFramework(engine, miner, config=config)
    )
    reference.warm(queries)
    want = [r.ranking for r in reference.diversify_batch(queries)]

    cluster = ShardedDiversificationService.from_factory(
        PartitionedFrameworkFactory(engine, miner, config),
        NUM_SHARDS,
        backend=ProcessBackend(start_method="spawn"),
    )
    try:
        report = cluster.warm(queries)
        assert report.queries == len(set(queries))
        assert report.busy_seconds > 0
        got = [r.ranking for r in cluster.diversify_batch(queries)]
        assert got == want
        stats = cluster.cluster_stats()
        assert stats.served == len(queries)
    finally:
        cluster.close()


def test_warm_persistence_round_trip_under_spawn(
    workload, queries, config, tmp_path
):
    collection = workload.corpus.collection
    miner = workload.miner("AOL")
    engine = SearchEngine(collection, NUM_PARTITIONS)
    donor = ShardedDiversificationService.from_factory(
        PartitionedFrameworkFactory(engine, miner, config),
        NUM_SHARDS,
        backend=ProcessBackend(start_method="spawn"),
    )
    try:
        donor.warm(queries)
        path = persist_store(tmp_path / "index.sqlite3", engine, donor)
    finally:
        donor.close()

    store_engine = StoreBackedSearchEngine(path)
    restarted = ShardedDiversificationService.from_factory(
        PartitionedFrameworkFactory(store_engine, miner, config),
        NUM_SHARDS,
        backend=ProcessBackend(start_method="spawn"),
    )
    try:
        # The offline phase came out of the store inside the spawned
        # workers, each of which re-attached the pickled engine.
        assert restarted.warm(queries).fetched == 0
    finally:
        restarted.close()
        store_engine.close()
