"""Opt-in kill lane: real process replicas under real ``os.kill``.

The deterministic fault-injection suite (``test_replication.py``) pins
every failover path with scripted workers; this lane re-asserts the
acceptance scenario with nothing faked — a :class:`ProcessBackend`
with two replicas per shard running real OS processes, SIGKILL delivered mid-benchmark (including
while requests are in flight from another thread), results compared
field-for-field against the fault-free inline reference.

Signal delivery makes timing genuinely racy, which is the point: the
routing layer must serve identical results *whenever* the kill lands —
before dispatch (health sweep buries the corpse), between send and
reply (failover retries the in-flight request), or after the reply
drained.  Because the raciness is real, the lane is **opt-in** like the
spawn lane: it runs only with ``REPRO_KILL_LANE=1``::

    REPRO_KILL_LANE=1 PYTHONPATH=src python -m pytest tests/serving/test_kill_lane.py -q
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.retrieval.store import StoreBackedSearchEngine
from repro.serving import (
    DiversificationService,
    ProcessBackend,
    ShardedDiversificationService,
    persist_store,
)

pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_KILL_LANE") != "1",
        reason="kill lane is opt-in: set REPRO_KILL_LANE=1",
    ),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="kill lane relies on fork inheriting the test fixtures",
    ),
]

NUM_SHARDS = 2
REPLICAS = 2


@pytest.fixture(scope="module")
def workload(small_corpus):
    queries = [topic.query for topic in small_corpus.topics]
    return queries * 3 + list(reversed(queries))


@pytest.fixture(scope="module")
def reference(framework_factory, workload):
    service = DiversificationService(framework_factory())
    return service.diversify_batch(workload)


def assert_results_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.query == w.query
        assert g.ranking == w.ranking
        assert g.diversified == w.diversified
        assert g.baseline.doc_ids == w.baseline.doc_ids
        assert g.baseline.scores == w.baseline.scores


def build_cluster(factory, **backend_kwargs):
    backend = ProcessBackend(replicas=REPLICAS, **backend_kwargs)
    cluster = ShardedDiversificationService.from_factory(
        factory, num_shards=NUM_SHARDS, backend=backend
    )
    return cluster, backend


def test_sigkill_between_batches_respawns_and_keeps_identity(
    framework_factory, workload, reference
):
    cluster, backend = build_cluster(lambda shard: framework_factory())
    try:
        quarter = max(1, len(workload) // 4)
        got = cluster.diversify_batch(workload[:quarter])
        for shard in range(NUM_SHARDS):
            os.kill(backend.replica_pids(shard)[0], signal.SIGKILL)
        # Several follow-up batches: round-robin is guaranteed to route
        # back onto the killed slot, whether the corpse is noticed by
        # the health sweep or by a failed dispatch.
        for start in range(quarter, len(workload), quarter):
            got += cluster.diversify_batch(workload[start:start + quarter])
        assert_results_equal(got, reference)
        stats = backend.replication_stats()
        assert sum(s.respawns_total for s in stats.values()) >= NUM_SHARDS
        merged = cluster.cluster_stats()
        assert merged.respawns >= NUM_SHARDS
    finally:
        cluster.close()


def test_sigkill_mid_request_fails_over_to_identical_results(
    framework_factory, workload, reference
):
    """Kill pids *while* a batch is in flight from another thread — the
    failover retry must still produce the reference results."""
    cluster, backend = build_cluster(lambda shard: framework_factory())
    try:
        victims = [backend.replica_pids(shard)[0] for shard in range(NUM_SHARDS)]
        results = []

        def serve():
            results.extend(cluster.diversify_batch(workload))

        server = threading.Thread(target=serve)
        server.start()
        time.sleep(0.02)  # let requests get in flight
        for pid in victims:
            os.kill(pid, signal.SIGKILL)
        server.join(timeout=120)
        assert not server.is_alive()
        assert_results_equal(results, reference)
        # Serving continues after the storm, on respawned workers.
        assert_results_equal(cluster.diversify_batch(workload), reference)
    finally:
        cluster.close()


def test_respawn_rehydrates_from_warm_store(
    framework_factory, small_engine, workload, reference, tmp_path
):
    donor = ShardedDiversificationService.from_factory(
        lambda shard: framework_factory(),
        num_shards=NUM_SHARDS,
        backend="inline",
    )
    donor.warm(workload)
    path = persist_store(tmp_path / "index.sqlite3", small_engine, donor)
    donor.close()

    cluster, backend = build_cluster(
        lambda shard: framework_factory(engine=StoreBackedSearchEngine(path))
    )
    try:
        shard = 0
        os.kill(backend.replica_pids(shard)[0], signal.SIGKILL)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        assert backend.replication_stats()[shard].respawns_total >= 1
        bucket = [q for q in set(workload) if cluster.route(q) == shard]
        # Every replica — the respawned one included — hydrated the warm
        # artifacts from the store: re-warming fetches nothing.
        for report in backend.invoke_replicas(shard, "warm", bucket):
            assert report.fetched == 0
    finally:
        cluster.close()
