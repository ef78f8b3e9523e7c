"""Tests for the pluggable execution backends (inline/thread/process).

The load-bearing property is the acceptance criterion of the backend
refactor: the sharded cluster serves **byte-identical rankings under
every backend** — the backends may change where the work runs, never
what is served.  The process backend additionally gets its worker
protocol exercised: stats snapshots over the boundary, error
propagation, per-shard breakdowns with idle shards, warm-artifact
hydration from the index store, lifecycle edges, and a worker death
mid-call.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading

import pytest

from repro.retrieval.store import StoreBackedSearchEngine, StoreError
from repro.serving import (
    BACKEND_NAMES,
    DiversificationService,
    ShardedDiversificationService,
    make_backend,
    persist_store,
)
from repro.serving.backends import (
    BackendError,
    InlineBackend,
    ThreadBackend,
    WorkerDiedError,
)
from repro.serving.replication import ProcessBackend

NUM_SHARDS = 3

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend tests rely on fork inheriting the test fixtures",
)

needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform does not offer the spawn start method",
)


class _EchoService:
    """Minimal shard service for start-method tests: no corpus, no
    framework — just something addressable that proves the worker built
    and answers in a fresh interpreter."""

    def __init__(self, shard: int) -> None:
        self.shard = shard

    def ping(self, value: int) -> tuple[int, int]:
        return (self.shard, value * 2)

    def append_to_store(self) -> None:
        """A store write whose worker dies before it can reply."""
        os.kill(os.getpid(), signal.SIGKILL)


def _echo_factory(shard: int) -> _EchoService:
    """Module-level (hence picklable) factory for spawn-mode workers."""
    return _EchoService(shard)


@pytest.fixture(scope="module")
def workload(small_corpus):
    queries = [topic.query for topic in small_corpus.topics]
    return queries * 2 + list(reversed(queries))


@pytest.fixture(scope="module")
def reference(framework_factory, workload):
    """Unsharded rankings — what every backend must reproduce."""
    service = DiversificationService(framework_factory())
    return [r.ranking for r in service.diversify_batch(workload)]


def build_cluster(framework_factory, backend, num_shards=NUM_SHARDS, **kwargs):
    return ShardedDiversificationService.from_factory(
        lambda shard: framework_factory(),
        num_shards=num_shards,
        backend=backend,
        **kwargs,
    )


class TestIdentityAcrossBackends:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_rankings_identical_to_unsharded(
        self, framework_factory, workload, reference, backend
    ):
        if backend == "process" and "fork" not in (
            multiprocessing.get_all_start_methods()
        ):
            pytest.skip("no fork on this platform")
        cluster = build_cluster(framework_factory, backend)
        try:
            got = cluster.diversify_batch(workload)
            assert [r.query for r in got] == workload
            assert [r.ranking for r in got] == reference
        finally:
            cluster.close()

    @needs_fork
    def test_warmed_process_cluster_matches(
        self, framework_factory, workload, reference
    ):
        cluster = build_cluster(framework_factory, "process")
        try:
            report = cluster.warm(workload)
            assert report.queries == len(set(workload))
            assert len(report.shards) == NUM_SHARDS
            got = cluster.diversify_batch(workload)
            assert [r.ranking for r in got] == reference
        finally:
            cluster.close()


@needs_fork
class TestProcessBackendProtocol:
    @pytest.fixture()
    def cluster(self, framework_factory):
        cluster = build_cluster(framework_factory, "process")
        yield cluster
        cluster.close()

    def test_services_not_reachable_in_parent(self, cluster):
        with pytest.raises(RuntimeError, match="worker processes"):
            cluster.services

    def test_duplicates_share_one_result(self, cluster, workload):
        query = workload[0]
        results = cluster.diversify_batch([query, query, query])
        # One shard, one pickle payload: the pickle memo preserves
        # object identity within the batch, like the in-process dedup.
        assert results[0] is results[1] is results[2]

    def test_stats_snapshots_cross_the_boundary(self, cluster, workload):
        cluster.diversify_batch(workload)
        stats = cluster.shard_stats()
        assert [s.name for s in stats] == [f"shard{i}" for i in range(NUM_SHARDS)]
        assert sum(s.served for s in stats) == len(workload)
        merged = cluster.cluster_stats()
        assert merged.served == len(workload)
        assert merged.seconds > 0
        assert len(merged.shards) == NUM_SHARDS

    def test_cache_info_merges_across_workers(self, cluster, workload):
        cluster.warm(workload)
        cluster.diversify_batch(workload)
        spec = cluster.spec_cache_info()
        assert spec.size > 0
        result_cache = cluster.result_cache_info()
        assert result_cache.misses > 0

    def test_invalidate_reaches_workers(self, cluster, workload):
        query = workload[0]
        cluster.diversify(query)
        cluster.invalidate()
        cluster.diversify(query)
        assert cluster.cluster_stats().ranked == 2

    def test_worker_exception_propagates(self, cluster, tmp_path):
        with pytest.raises(StoreError):
            # Raises inside the worker; the backend must re-raise the
            # original exception type in the parent.
            cluster.backend.invoke(
                0, "load_warm_store", str(tmp_path / "missing.sqlite3")
            )

    def test_protocol_survives_mixed_failure_batch(
        self, cluster, workload, tmp_path
    ):
        """A batch where one shard fails while others succeed must drain
        every pipelined reply: the next call has to see fresh, correctly
        typed data, not a stale reply left in a pipe (regression for the
        request/reply desync)."""
        from repro.serving.service import ServiceStats

        cluster.diversify_batch(workload)  # replies that could go stale
        missing = str(tmp_path / "missing.sqlite3")
        with pytest.raises(StoreError):
            cluster.backend.invoke_each(
                [(0, "load_warm_store", (missing,))]
                + [(s, "get_stats", ()) for s in range(1, NUM_SHARDS)]
            )
        # The backend is still usable and in sync.
        done = cluster.backend.broadcast("get_stats")
        assert set(done) == set(range(NUM_SHARDS))
        assert all(isinstance(s, ServiceStats) for s in done.values())
        assert sum(s.served for s in done.values()) == len(workload)
        got = cluster.diversify_batch(workload[:3])
        assert [r.query for r in got] == workload[:3]

    def test_unknown_method_propagates_attribute_error(self, cluster):
        with pytest.raises(AttributeError):
            cluster.backend.invoke(0, "no_such_method")

    def test_close_is_idempotent_and_final(self, cluster, workload):
        cluster.close()
        cluster.close()
        with pytest.raises(BackendError):
            cluster.diversify_batch(workload)

    def test_factory_failure_fails_fast(self):
        def broken(shard):
            raise RuntimeError("no corpus here")

        backend = ProcessBackend()
        with pytest.raises(BackendError, match="failed to build"):
            ShardedDiversificationService.from_factory(
                broken, num_shards=2, backend=backend
            )


@needs_fork
class TestWarmPersistenceAcrossProcesses:
    def test_cluster_persist_then_hydrate_from_factory(
        self, framework_factory, small_engine, workload, reference, tmp_path
    ):
        donor = build_cluster(framework_factory, "process")
        try:
            donor.warm(workload)
            path = persist_store(
                tmp_path / "index.sqlite3", small_engine, donor
            )
        finally:
            donor.close()

        hydrated = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(
                engine=StoreBackedSearchEngine(path)
            ),
            num_shards=NUM_SHARDS,
            backend="process",
        )
        try:
            # The offline phase is already in the store: warming fetches
            # nothing.
            report = hydrated.warm(workload)
            assert report.fetched == 0
            got = hydrated.diversify_batch(workload)
            assert [r.ranking for r in got] == reference
        finally:
            hydrated.close()


class TestIdleShardBreakdowns:
    def test_zero_query_shard_contributes_wellformed_entries(
        self, framework_factory, workload
    ):
        """A shard that receives zero queries must still appear — named,
        zeroed, with every derived quantity defined — in the merged
        per-shard breakdowns of both stats and warm reports."""
        cluster = build_cluster(framework_factory, "inline")
        query = workload[0]
        idle = [s for s in range(NUM_SHARDS) if s != cluster.route(query)]
        cluster.warm([query])
        cluster.diversify_batch([query, query])

        merged = cluster.cluster_stats()
        assert len(merged.shards) == NUM_SHARDS
        for shard in idle:
            entry = merged.shards[shard]
            assert entry.name == f"shard{shard}"
            assert entry.served == entry.ranked == 0
            assert entry.throughput_qps == 0.0
            assert entry.percentile_ms(0.95) == 0.0
            assert entry.summary().startswith(f"[shard{shard}]")

        report = cluster.warm([query])
        assert len(report.shards) == NUM_SHARDS
        for shard in idle:
            assert report.shards[shard].queries == 0
            assert report.shards[shard].name == f"shard{shard}"

    @needs_fork
    def test_idle_shards_over_process_boundary(self, framework_factory, workload):
        cluster = build_cluster(framework_factory, "process")
        try:
            query = workload[0]
            cluster.diversify_batch([query])
            merged = cluster.cluster_stats()
            assert len(merged.shards) == NUM_SHARDS
            assert sum(s.served for s in merged.shards) == 1
            assert all(s.name == f"shard{i}"
                       for i, s in enumerate(merged.shards))
        finally:
            cluster.close()


class TestStartMethods:
    """The start-method contract: explicit methods are honoured, the
    default is the platform's own, and a non-picklable factory meeting
    spawn/forkserver fails fast at start() with a message naming the
    factory protocol — not a raw pickle traceback out of a worker."""

    def test_default_is_platform_default(self):
        backend = ProcessBackend()
        assert backend.start_method is None  # unresolved until start()
        backend.start(_echo_factory, 2)
        try:
            assert backend.start_method == multiprocessing.get_start_method()
        finally:
            backend.close()

    @needs_spawn
    def test_explicit_spawn_is_honoured_end_to_end(self):
        backend = ProcessBackend(start_method="spawn")
        backend.start(_echo_factory, 2)
        try:
            assert backend.start_method == "spawn"
            assert backend.invoke(1, "ping", 21) == (1, 42)
            done = backend.broadcast("ping", 3)
            assert done == {0: (0, 6), 1: (1, 6)}
        finally:
            backend.close()

    @needs_spawn
    def test_spawn_with_closure_factory_fails_fast(self):
        captured = object()
        backend = ProcessBackend(start_method="spawn")
        with pytest.raises(BackendError, match="does not pickle"):
            backend.start(lambda shard: captured, 2)
        # Failed fast: no worker was ever spawned.
        assert backend.replication_stats() == {}
        assert not backend.started

    @needs_spawn
    def test_spawn_error_names_shard_service_factory(self, framework_factory):
        from repro.serving.sharded import ShardServiceFactory

        factory = ShardServiceFactory(lambda shard: framework_factory())
        backend = ProcessBackend(start_method="spawn")
        with pytest.raises(BackendError) as excinfo:
            backend.start(factory, 2)
        message = str(excinfo.value)
        assert "ShardServiceFactory" in message
        assert "framework_factory" in message
        assert "pickle" in message

    def test_unavailable_start_method_rejected(self):
        backend = ProcessBackend(start_method="wormhole")
        with pytest.raises(BackendError, match="not available"):
            backend.start(_echo_factory, 1)

    @needs_fork
    def test_explicit_fork_accepts_closures(self):
        captured = {"value": 7}
        backend = ProcessBackend(start_method="fork")

        class Closed:
            def __init__(self, shard):
                self.shard = shard

            def peek(self):
                return captured["value"]

        backend.start(lambda shard: Closed(shard), 1)
        try:
            assert backend.start_method == "fork"
            assert backend.invoke(0, "peek") == 7
        finally:
            backend.close()

    def test_make_backend_threads_start_method_through(self):
        backend = make_backend("process", start_method="spawn")
        assert isinstance(backend, ProcessBackend)
        assert backend.start_method == "spawn"

    def test_make_backend_rejects_start_method_elsewhere(self):
        with pytest.raises(ValueError, match="start_method"):
            make_backend("thread", start_method="spawn")
        with pytest.raises(ValueError, match="start_method"):
            make_backend(None, start_method="spawn")


class TestBackendConstruction:
    def test_make_backend_names(self):
        assert isinstance(make_backend("inline"), InlineBackend)
        assert isinstance(make_backend("thread"), ThreadBackend)
        assert isinstance(make_backend("process"), ProcessBackend)
        assert isinstance(make_backend(None), ThreadBackend)
        passthrough = InlineBackend()
        assert make_backend(passthrough) is passthrough

    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")
        with pytest.raises(TypeError):
            make_backend(42)

    def test_process_backend_requires_from_factory(self, framework_factory):
        services = [DiversificationService(framework_factory())]
        with pytest.raises(ValueError, match="from_factory"):
            ShardedDiversificationService(services, backend="process")

    def test_local_backend_cannot_adopt_twice(self, framework_factory):
        backend = InlineBackend()
        backend.adopt([DiversificationService(framework_factory())])
        with pytest.raises(BackendError):
            backend.adopt([DiversificationService(framework_factory())])

    def test_unstarted_backend_without_services_rejected(self):
        with pytest.raises(ValueError, match="not started"):
            ShardedDiversificationService(backend="inline")

    def test_invoke_before_start_raises(self):
        with pytest.raises(BackendError):
            InlineBackend().invoke(0, "get_stats")

    def test_thread_backend_defaults_match_old_fanout(self, framework_factory):
        cluster = build_cluster(framework_factory, None)
        assert cluster.backend.name == "thread"
        assert cluster.backend.max_workers >= 1

    def test_repr_names_backend(self, framework_factory):
        cluster = build_cluster(framework_factory, "inline")
        assert "backend=inline" in repr(cluster)
        assert f"shards={NUM_SHARDS}" in repr(cluster)

    def test_make_backend_replication_validation(self):
        with pytest.raises(ValueError, match="requires process workers"):
            make_backend("thread", replicas=2)
        with pytest.raises(ValueError, match="built here by name"):
            make_backend(ProcessBackend(), replicas=2)
        with pytest.raises(ValueError, match="hedge_after_ms"):
            make_backend("process", hedge_after_ms=5)
        with pytest.raises(ValueError, match="policy"):
            make_backend(None, policy="least-outstanding")
        backend = make_backend(None, replicas=2)
        assert backend.name == "process"
        assert backend.replicas == 2

    def test_process_backend_is_the_one_replica_set(self):
        backend = make_backend("process")
        assert isinstance(backend, ProcessBackend)
        assert backend.name == "process"
        assert backend.replicas == 1
        assert isinstance(make_backend("process", replicas=3), ProcessBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("replicated")

    def test_make_backend_rejects_max_workers_for_process(self):
        with pytest.raises(ValueError, match="max_workers"):
            make_backend("process", max_workers=2)
        with pytest.raises(ValueError, match="max_workers"):
            build_cluster(lambda: None, "process", max_workers=2)

    def test_single_replica_backends_expose_replica_protocol(self):
        backend = InlineBackend()
        assert backend.replicas == 1
        assert backend.replication_stats() == {}
        backend.adopt([_EchoService(0)])
        assert backend.invoke_replicas(0, "ping", 2) == [(0, 4)]


@needs_fork
class TestWorkerDiedError:
    """A worker that dies owing a call it must not resend surfaces as a
    *typed* error naming its shard; the backend respawns the worker and
    keeps serving."""

    @pytest.fixture()
    def backend(self):
        backend = ProcessBackend(start_method="fork")
        backend.start(_echo_factory, 2)
        yield backend
        backend.close()

    def test_dead_worker_raises_typed_error_naming_shards(self, backend):
        pid = backend.replica_pids(0)[0]
        with pytest.raises(WorkerDiedError) as excinfo:
            backend.invoke(0, "append_to_store")
        err = excinfo.value
        assert isinstance(err, BackendError)  # old catch sites keep working
        assert err.shard == 0
        assert err.shards == (0,)
        assert err.exitcode == -signal.SIGKILL
        assert "died" in str(err)
        assert "shard 0" in str(err)
        # Not poisoned: shard 0 runs on a respawned worker.
        assert backend.invoke(0, "ping", 1) == (0, 2)
        assert backend.replica_pids(0)[0] != pid
        assert backend.replication_stats()[0].respawns == (1,)

    def test_killed_worker_is_respawned_for_the_next_call(self, backend):
        pid = backend.replica_pids(1)[0]
        backend.kill_replica(1)
        assert backend.invoke(1, "ping", 4) == (1, 8)
        assert backend.replica_pids(1)[0] != pid
        assert backend.invoke(0, "ping", 1) == (0, 2)


@needs_fork
def test_concurrent_callers_on_one_shard_get_their_own_replies():
    """Threads sharing one shard's worker (the async front-end's
    executor does this): every reply reaches the thread that sent its
    request, because the shard's pipe carries one exchange at a time."""
    backend = ProcessBackend(start_method="fork")
    backend.start(_echo_factory, 1)
    wrong = []

    def hammer(offset):
        for value in range(offset, offset + 40):
            if backend.invoke(0, "ping", value) != (0, 2 * value):
                wrong.append(value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(1000 * i,), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    assert wrong == []
