"""The process backend under scripted faults: every failover path, pinned.

The identity anchor extends to failures: a shard's worker and every
respawn of it are built by the same deterministic factory, so the
cluster must serve rankings *and scores* byte-identical to the
fault-free inline reference across crashes, hangs and mid-benchmark
kills.  The deterministic harness in ``faults.py`` scripts each failure
at an exact virtual-clock point, so these tests pin counter-for-counter
what the failover did (which shard respawned, how many calls failed
over) with zero real processes and zero sleeps.  A small fork-gated
section re-runs the crash story on real OS processes.
"""

from __future__ import annotations

import multiprocessing
import random
import types

import pytest

from repro.serving import (
    DiversificationService,
    ProcessBackend,
    ShardedDiversificationService,
)
from repro.serving.backends import BackendError, WorkerDiedError
from repro.serving.replication import ATTEMPTS, COUNTERS, answer
from .faults import (
    CRASH_BEFORE_REPLY,
    CRASH_ON_SEND,
    DELAY,
    HANG,
    Fault,
    FaultInjectingBackend,
    FaultSchedule,
    ScriptedWorker,
    VirtualClock,
)

NUM_SHARDS = 3

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process worker tests rely on fork inheriting the fixtures",
)


@pytest.fixture(scope="module")
def workload(small_corpus):
    queries = [topic.query for topic in small_corpus.topics]
    return queries * 2 + list(reversed(queries))


@pytest.fixture(scope="module")
def reference(framework_factory, workload):
    """The fault-free inline run every process-backed serve must equal."""
    service = DiversificationService(framework_factory())
    return service.diversify_batch(workload)


def assert_results_equal(got, want):
    """Field-for-field equality of two result streams — queries,
    rankings, diversified prefixes, algorithm labels, and the baseline's
    doc ids *and scores* (the "byte-identical" acceptance bar)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.query == w.query
        assert g.ranking == w.ranking
        assert g.diversified == w.diversified
        assert g.algorithm == w.algorithm
        assert g.baseline.doc_ids == w.baseline.doc_ids
        assert g.baseline.scores == w.baseline.scores


def build_cluster(framework_factory, backend, num_shards=NUM_SHARDS):
    return ShardedDiversificationService.from_factory(
        lambda shard: framework_factory(),
        num_shards=num_shards,
        backend=backend,
    )


@pytest.fixture()
def make_cluster(framework_factory):
    clusters = []

    def make(schedule=None, **backend_kwargs):
        backend = FaultInjectingBackend(schedule=schedule, **backend_kwargs)
        cluster = build_cluster(framework_factory, backend)
        clusters.append(cluster)
        return cluster, backend

    yield make
    for cluster in clusters:
        cluster.close()


def totals(backend):
    """Summed worker counters across the whole cluster."""
    stats = backend.replication_stats().values()
    return {
        "respawns": sum(s["respawns"] for s in stats),
        "failovers": sum(s["failovers"] for s in stats),
    }


def target(cluster, workload, shard):
    return next(q for q in workload if cluster.route(q) == shard)


class _EchoService:
    def ping(self, value):
        return value * 2


class _CountingService:
    """A service whose only stats are the :data:`COUNTERS` a call bumps."""

    def __init__(self):
        self.stats = types.SimpleNamespace(**{name: 0 for name in COUNTERS})

    def serve(self, n):
        self.stats.served += n
        self.stats.seconds += 0.5
        return n

    def fail(self):
        self.stats.batches += 1
        raise KeyError("no such query")


class TestAnswer:
    """``answer`` builds every worker reply: status, payload and the
    service's counter totals *after* the call, success or error."""

    def test_ok_carries_the_totals_after_the_call(self):
        service = _CountingService()
        assert answer(service, "serve", (3,)) == ("ok", 3, [3, 0, 0, 0, 0.5])
        assert answer(service, "serve", (2,)) == ("ok", 2, [5, 0, 0, 0, 1.0])

    def test_err_carries_the_exception_and_the_totals(self):
        status, (exc, tb), counters = answer(_CountingService(), "fail", ())
        assert status == "err"
        assert isinstance(exc, KeyError)
        assert "no such query" in tb
        assert counters == [0, 0, 0, 1, 0]

    def test_a_service_without_stats_sends_none(self):
        assert answer(_EchoService(), "ping", (4,)) == ("ok", 8, None)
        status, (exc, _), counters = answer(_EchoService(), "nope", ())
        assert status == "err" and isinstance(exc, AttributeError)
        assert counters is None


class TestFaultFreeReplication:
    def test_identity_and_no_phantom_failures(
        self, make_cluster, workload, reference
    ):
        cluster, backend = make_cluster()
        assert_results_equal(cluster.diversify_batch(workload), reference)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        assert totals(backend) == {"respawns": 0, "failovers": 0}
        # Exactly the initial fleet was built — no silent respawns.
        assert backend.spawned == list(range(NUM_SHARDS))

    def test_service_errors_propagate_without_failover(self, make_cluster):
        cluster, backend = make_cluster()
        with pytest.raises(AttributeError):
            cluster.backend.invoke(0, "frobnicate")
        assert totals(backend) == {"respawns": 0, "failovers": 0}

    def test_warm_state_lives_and_dies_with_its_worker(
        self, make_cluster, workload, reference
    ):
        """``warm`` fills each shard's worker; the cluster's spec cache is
        the sum of theirs.  A killed worker's replacement is rebuilt by
        the (in-memory) factory, so it starts cold while the other
        shards keep their entries, and it still serves the reference."""
        cluster, backend = make_cluster()
        cluster.warm(workload)
        sizes = {
            shard: backend.invoke(shard, "spec_cache_info").size
            for shard in range(NUM_SHARDS)
        }
        assert sum(sizes.values()) == cluster.spec_cache_info().size > 0
        busiest = max(sizes, key=sizes.get)
        backend.kill_worker(busiest)
        assert backend.invoke(busiest, "spec_cache_info").size == 0
        for shard in set(sizes) - {busiest}:
            assert backend.invoke(shard, "spec_cache_info").size == sizes[shard]
        assert_results_equal(cluster.diversify_batch(workload), reference)


def test_start_launches_every_worker_before_any_handshake():
    """Shards build concurrently: ``start`` constructs every shard's
    worker before it waits for the first one to be ready."""
    events = []

    class RecordingWorker(ScriptedWorker):
        def wait_ready(self):
            events.append(("ready", self.shard))

    def provider(factory, shard):
        events.append(("spawn", shard))
        return RecordingWorker(
            shard, factory(shard), FaultSchedule(), VirtualClock()
        )

    backend = ProcessBackend(worker_provider=provider)
    backend.start(lambda shard: object(), 3)
    try:
        kinds = [kind for kind, _shard in events]
        assert kinds == ["spawn"] * 3 + ["ready"] * 3
    finally:
        backend.close()


def _scripted_backend(**kwargs):
    def provider(factory, shard):
        return ScriptedWorker(
            shard, factory(shard), FaultSchedule(), VirtualClock()
        )

    return ProcessBackend(worker_provider=provider, **kwargs)


def test_a_started_backend_cannot_be_restarted():
    backend = _scripted_backend()
    backend.start(lambda shard: _EchoService(), 2)
    try:
        with pytest.raises(BackendError, match="cannot be restarted"):
            backend.start(lambda shard: _EchoService(), 2)
        assert backend.invoke(1, "ping", 3) == 6
    finally:
        backend.close()
    with pytest.raises(BackendError, match="cannot be restarted"):
        backend.start(lambda shard: _EchoService(), 2)


def test_a_shard_outside_the_cluster_is_refused():
    backend = _scripted_backend()
    backend.start(lambda shard: _EchoService(), 2)
    try:
        with pytest.raises(BackendError, match="unknown shard 2"):
            backend.invoke(2, "ping", 1)
        with pytest.raises(BackendError, match="unknown shard 2"):
            backend.kill_worker(2)
        with pytest.raises(BackendError, match="unknown shard 2"):
            backend.worker_pid(2)
        # Nothing was dispatched, so nothing failed over.
        assert backend.replication_stats() == {
            0: {"respawns": 0, "failovers": 0},
            1: {"respawns": 0, "failovers": 0},
        }
    finally:
        backend.close()


def test_an_interrupted_call_never_leaks_its_reply_to_the_next():
    """A call that exits between send and reply (a ``KeyboardInterrupt``
    on the calling thread) leaves a reply in the pipe; the next call
    gets its own reply, from a respawned worker, not that one."""
    interrupts = [KeyboardInterrupt()]

    class InterruptedWorker(ScriptedWorker):
        def poll(self, timeout):
            if interrupts:
                raise interrupts.pop()
            return super().poll(timeout)

    def provider(factory, shard):
        return InterruptedWorker(
            shard, factory(shard), FaultSchedule(), VirtualClock()
        )

    backend = ProcessBackend(worker_provider=provider, parallel=False)
    backend.start(lambda shard: _EchoService(), 1)
    try:
        with pytest.raises(KeyboardInterrupt):
            backend.invoke(0, "ping", 1)
        assert backend.invoke(0, "ping", 2) == 4
        assert backend.replication_stats()[0] == {"respawns": 1, "failovers": 0}
    finally:
        backend.close()


class TestCrashFailover:
    def test_crash_on_send_fails_over_and_respawns(
        self, make_cluster, workload, reference
    ):
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.at(shard, 0, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        for stats in backend.replication_stats().values():
            assert stats == {"respawns": 1, "failovers": 1}
        # Each dead worker was rebuilt exactly once.
        assert backend.spawned == list(range(NUM_SHARDS)) * 2

    def test_crash_before_reply_fails_over(
        self, make_cluster, workload, reference
    ):
        """A worker that dies inside ``diversify_batch`` is respawned and
        the batch retried, so the cluster keeps serving the reference
        instead of refusing traffic."""
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.at(shard, 0, Fault(CRASH_BEFORE_REPLY))
        cluster, backend = make_cluster(schedule)
        half = len(workload) // 2
        got = cluster.diversify_batch(workload[:half])
        got += cluster.diversify_batch(workload[half:])
        assert_results_equal(got, reference)
        for stats in backend.replication_stats().values():
            assert stats == {"respawns": 1, "failovers": 1}

    def test_hung_worker_is_buried_after_hang_timeout(
        self, make_cluster, workload, reference
    ):
        """A worker that takes a call and never answers is declared hung
        after ``hang_timeout_s``, killed and respawned, and the call is
        retried on the new worker."""
        by_query = {r.query: r for r in reference}
        schedule = FaultSchedule().at(0, 0, Fault(HANG))
        cluster, backend = make_cluster(schedule, hang_timeout_s=1.0)
        query = target(cluster, workload, 0)
        result = cluster.diversify(query)
        assert_results_equal([result], [by_query[query]])
        assert backend.replication_stats()[0] == {"respawns": 1, "failovers": 1}
        assert backend.spawned[NUM_SHARDS:] == [0]
        # The worker was buried exactly at the hang budget.
        assert backend.clock.now == pytest.approx(1.0)

    def test_slow_worker_within_the_hang_budget_is_not_buried(
        self, make_cluster, workload, reference
    ):
        """A reply that comes late, but inside ``hang_timeout_s``, is
        served as is: the worker is neither killed nor respawned."""
        by_query = {r.query: r for r in reference}
        schedule = FaultSchedule().at(0, 0, Fault(DELAY, delay=0.5))
        cluster, backend = make_cluster(schedule, hang_timeout_s=1.0)
        query = target(cluster, workload, 0)
        assert_results_equal([cluster.diversify(query)], [by_query[query]])
        assert backend.replication_stats()[0] == {"respawns": 0, "failovers": 0}
        assert backend.spawned == list(range(NUM_SHARDS))

    def test_retries_never_duplicate_or_reorder_results(
        self, make_cluster, workload, reference
    ):
        """Every shard's worker crashes on its first batch and its
        replacement hangs on its second, so every batch is retried —
        and the result stream still aligns one-for-one with the request
        stream, duplicates included."""
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.at(shard, 0, Fault(CRASH_BEFORE_REPLY))
            schedule.at(shard, 1, Fault(HANG))
        cluster, backend = make_cluster(schedule, hang_timeout_s=1.0)
        batch = list(workload) + list(workload[:4])  # extra duplicates
        by_query = {r.query: r for r in reference}
        for _ in range(2):
            got = cluster.diversify_batch(batch)
            assert [r.query for r in got] == batch
            assert_results_equal(got, [by_query[q] for q in batch])
        # The crash is the original worker's first call; the hang is the
        # replacement's second, so each shard fails over exactly twice.
        assert totals(backend) == {
            "respawns": 2 * NUM_SHARDS,
            "failovers": 2 * NUM_SHARDS,
        }

    def test_mid_benchmark_kill_keeps_identity(
        self, make_cluster, workload, reference
    ):
        """The acceptance scenario, deterministically: serve, kill every
        shard's worker, keep serving — results never change."""
        cluster, backend = make_cluster()
        half = len(workload) // 2
        first = cluster.diversify_batch(workload[:half])
        for shard in range(NUM_SHARDS):
            backend.kill_worker(shard)
        second = cluster.diversify_batch(workload[half:])
        assert_results_equal(first + second, reference)
        # A corpse found before dispatch is a respawn, not a failover.
        assert totals(backend) == {"respawns": NUM_SHARDS, "failovers": 0}

    def test_killing_a_dead_worker_again_costs_one_respawn(
        self, make_cluster, workload, reference
    ):
        """A second kill finds the corpse of the first: the next call
        respawns the shard's worker once, as for a single crash."""
        cluster, backend = make_cluster()
        backend.kill_worker(2)
        backend.kill_worker(2)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        assert backend.replication_stats()[2] == {"respawns": 1, "failovers": 0}
        assert backend.spawned == list(range(NUM_SHARDS)) + [2]

    def test_worker_dying_past_the_retry_budget_surfaces_typed_error(
        self, make_cluster, workload
    ):
        shard = 0
        schedule = FaultSchedule().always(shard, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule)
        query = target(cluster, workload, shard)
        with pytest.raises(WorkerDiedError, match="no worker could answer") as excinfo:
            cluster.diversify(query)
        assert excinfo.value.shards == (shard,)
        # The retry budget is finite: every attempt failed over once.
        assert backend.replication_stats()[shard]["failovers"] == ATTEMPTS
        assert backend.replication_stats()[shard]["respawns"] == ATTEMPTS - 1


    def test_worker_hanging_on_every_attempt_surfaces_typed_error(
        self, make_cluster, workload
    ):
        """Each attempt gets its own hang budget: a worker that never
        answers is buried once per attempt, and the call fails after
        :data:`ATTEMPTS` budgets instead of waiting forever."""
        shard = 0
        schedule = FaultSchedule().always(shard, Fault(HANG))
        cluster, backend = make_cluster(schedule, hang_timeout_s=1.0)
        query = target(cluster, workload, shard)
        with pytest.raises(WorkerDiedError, match="no worker could answer"):
            cluster.diversify(query)
        assert backend.clock.now == pytest.approx(ATTEMPTS * 1.0)
        assert backend.replication_stats()[shard] == {
            "respawns": ATTEMPTS - 1,
            "failovers": ATTEMPTS,
        }


class TestWorkerStatsPlumbing:
    def test_cluster_summary_reports_fault_counters(
        self, make_cluster, workload
    ):
        schedule = FaultSchedule().at(0, 0, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule)
        cluster.diversify_batch(workload)
        merged = cluster.cluster_stats()
        assert merged.respawns == 1
        assert merged.failovers == 1
        summary = merged.summary()
        assert "respawns=1" in summary
        assert "failovers=1" in summary
        assert len(merged.shards) == NUM_SHARDS

    def test_shard_entries_carry_their_worker_counters(
        self, make_cluster, workload
    ):
        """A shard's entry is its worker's own snapshot, named
        ``shard<i>``, stamped with the shard's respawn and failover
        counters, which the worker cannot see from inside."""
        schedule = FaultSchedule().at(0, 0, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule)
        cluster.diversify_batch(workload)
        per_shard = cluster.shard_stats()
        assert [s.name for s in per_shard] == [
            f"shard{i}" for i in range(NUM_SHARDS)
        ]
        assert [s.respawns for s in per_shard] == [1] + [0] * (NUM_SHARDS - 1)
        assert [s.failovers for s in per_shard] == [1] + [0] * (NUM_SHARDS - 1)
        assert sum(s.served for s in per_shard) == len(workload)

    def test_serving_counters_survive_a_respawn(
        self, make_cluster, framework_factory, workload
    ):
        """The parent keeps each shard's serving counters: killing every
        worker mid-run loses none of them, and they equal those of an
        inline cluster that dropped its caches at the kill (a respawned
        worker starts with empty caches)."""
        cluster, backend = make_cluster()
        inline = build_cluster(framework_factory, "inline")
        half = len(workload) // 2
        cluster.diversify_batch(workload[:half])
        inline.diversify_batch(workload[:half])
        for shard in range(NUM_SHARDS):
            backend.kill_worker(shard)
        inline.invalidate()
        cluster.diversify_batch(workload[half:])
        inline.diversify_batch(workload[half:])
        got, want = cluster.cluster_stats(), inline.cluster_stats()
        assert got.respawns == NUM_SHARDS
        assert got.served == len(workload)
        for name in ("served", "ranked", "diversified", "batches"):
            assert getattr(got, name) == getattr(want, name), name
            assert [getattr(s, name) for s in got.shards] == [
                getattr(s, name) for s in want.shards
            ], name
        assert got.busy_seconds > 0

    @pytest.mark.parametrize("kind", [CRASH_BEFORE_REPLY, HANG])
    def test_a_reply_lost_with_its_worker_is_counted_once(
        self, make_cluster, framework_factory, workload, kind
    ):
        """A worker that ran a batch but died (or hung) before replying
        never reported it: the retry on its replacement is the one count,
        as on an inline cluster that dropped its caches there."""
        half = len(workload) // 2
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.at(shard, 1, Fault(kind))
        cluster, backend = make_cluster(schedule)
        inline = build_cluster(framework_factory, "inline")
        cluster.diversify_batch(workload[:half])
        inline.diversify_batch(workload[:half])
        inline.invalidate()
        cluster.diversify_batch(workload[half:])
        inline.diversify_batch(workload[half:])
        got, want = cluster.shard_stats(), inline.shard_stats()
        assert [s.respawns for s in got] == [1] * NUM_SHARDS
        for name in ("served", "ranked", "diversified", "batches"):
            assert [getattr(s, name) for s in got] == [
                getattr(s, name) for s in want
            ], name

    def test_counters_survive_repeated_respawns_of_one_shard(
        self, make_cluster, workload
    ):
        cluster, backend = make_cluster()
        query = target(cluster, workload, 0)
        for _ in range(3):
            cluster.diversify(query)
            backend.kill_worker(0)
        cluster.diversify(query)
        shard = cluster.shard_stats()[0]
        assert shard.respawns == 3
        assert shard.served == 4
        # Every incarnation starts cold, so each ranked the query anew.
        assert shard.ranked == 4
        assert backend.worker_counters()[0]["served"] == 4

    def test_busy_seconds_never_shrink_across_a_respawn(
        self, make_cluster, workload
    ):
        cluster, backend = make_cluster()
        cluster.diversify_batch(workload)
        before = [s.seconds for s in cluster.shard_stats()]
        assert all(seconds > 0 for seconds in before)
        for shard in range(NUM_SHARDS):
            backend.kill_worker(shard)
        after = [s.seconds for s in cluster.shard_stats()]
        assert after == pytest.approx(before)
        cluster.diversify_batch(workload)
        grown = [s.seconds for s in cluster.shard_stats()]
        assert all(g > b for g, b in zip(grown, before))

    def test_worker_counters_start_at_zero(self, make_cluster):
        _, backend = make_cluster()
        zero = {name: 0 for name in COUNTERS}
        assert backend.worker_counters() == {
            shard: {"respawns": 0, "failovers": 0, **zero}
            for shard in range(NUM_SHARDS)
        }

    def test_health_shows_a_killed_worker_until_the_next_call(
        self, make_cluster, workload
    ):
        """``health`` only observes: a killed worker reads dead until a
        call to its shard respawns it."""
        cluster, backend = make_cluster()
        fresh = {"alive": True, "pid": None, "respawns": 0}
        assert backend.health() == {s: fresh for s in range(NUM_SHARDS)}
        backend.kill_worker(1)
        dead = {"alive": False, "pid": None, "respawns": 0}
        assert backend.health()[1] == dead
        assert backend.health()[1] == dead  # polling did not respawn it
        cluster.diversify(target(cluster, workload, 1))
        assert backend.health()[1] == {"alive": True, "pid": None, "respawns": 1}
        assert backend.health()[0] == fresh


class TestRandomizedFailoverSweep:
    """Seeded random schedules of kills/hangs/delays, each asserting
    field-for-field equality with the fault-free reference."""

    @pytest.mark.parametrize("sweep_seed", range(4))
    def test_seeded_fault_schedule_preserves_identity(
        self, make_cluster, workload, reference, sweep_seed
    ):
        rng = random.Random(1000 + sweep_seed)
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            for _ in range(rng.randint(1, 4)):
                schedule.at(
                    shard,
                    rng.randrange(6),
                    Fault(
                        rng.choice([CRASH_ON_SEND, CRASH_BEFORE_REPLY, HANG, DELAY]),
                        delay=rng.choice([0.02, 0.2]),
                    ),
                )
        cluster, backend = make_cluster(schedule, hang_timeout_s=1.0)
        for _ in range(4):  # several batches so later call indexes fire too
            assert_results_equal(cluster.diversify_batch(workload), reference)


@needs_fork
class TestProcessReplication:
    """The same story on real OS processes (small, fork-only)."""

    def test_identity_across_kills_with_real_workers(
        self, framework_factory, workload, reference
    ):
        backend = ProcessBackend()
        cluster = build_cluster(framework_factory, backend, num_shards=2)
        try:
            assert_results_equal(cluster.diversify_batch(workload), reference)
            pids_before = [backend.worker_pid(s) for s in range(2)]
            assert all(pids_before)
            for shard in range(2):
                backend.kill_worker(shard)
            assert_results_equal(cluster.diversify_batch(workload), reference)
            assert totals(backend)["respawns"] == 2
            # Killed shards run new processes now.
            pids_after = [backend.worker_pid(s) for s in range(2)]
            assert all(a != b for a, b in zip(pids_before, pids_after))
            merged = cluster.cluster_stats()
            assert merged.respawns == 2
            assert "respawns=2" in merged.summary()
        finally:
            cluster.close()
