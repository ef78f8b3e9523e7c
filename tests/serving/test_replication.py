"""Replicated serving under scripted faults: every failover path, pinned.

The identity anchor extends to failures: every replica of a shard is
built by the same deterministic factory, so the cluster must serve
rankings *and scores* byte-identical to the fault-free inline reference
no matter which replica answers — across crashes, hangs, hedges and
mid-benchmark kills.  The deterministic harness in ``faults.py``
scripts each failure at an exact virtual-clock point, so these tests
pin counter-for-counter what the routing layer did (which replica
failed over, which hedge fired, who won) with zero real processes and
zero sleeps.  A small fork-gated section re-runs the crash story on
real OS processes.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.serving import (
    DiversificationService,
    ReplicatedBackend,
    ShardedDiversificationService,
)
from repro.serving.backends import WorkerDiedError
from .faults import (
    CRASH_BEFORE_REPLY,
    CRASH_ON_SEND,
    DELAY,
    HANG,
    Fault,
    FaultInjectingBackend,
    FaultSchedule,
)

NUM_SHARDS = 3
REPLICAS = 2

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process replication tests rely on fork inheriting the fixtures",
)


@pytest.fixture(scope="module")
def workload(small_corpus):
    queries = [topic.query for topic in small_corpus.topics]
    return queries * 2 + list(reversed(queries))


@pytest.fixture(scope="module")
def reference(framework_factory, workload):
    """The fault-free inline run every replicated serve must equal."""
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


def build_cluster(framework_factory, backend, num_shards=NUM_SHARDS, **kwargs):
    return ShardedDiversificationService.from_factory(
        lambda shard: framework_factory(),
        num_shards=num_shards,
        backend=backend,
        **kwargs,
    )


@pytest.fixture()
def make_cluster(framework_factory):
    clusters = []

    def make(schedule=None, **backend_kwargs):
        backend = FaultInjectingBackend(
            replicas=backend_kwargs.pop("replicas", REPLICAS),
            schedule=schedule,
            **backend_kwargs,
        )
        cluster = build_cluster(framework_factory, backend)
        clusters.append(cluster)
        return cluster, backend

    yield make
    for cluster in clusters:
        cluster.close()


def totals(backend):
    """Summed routing counters across the whole cluster."""
    stats = backend.replication_stats().values()
    return {
        "requests": sum(s.requests_total for s in stats),
        "hedges_fired": sum(s.hedges_fired_total for s in stats),
        "hedges_won": sum(s.hedges_won_total for s in stats),
        "respawns": sum(s.respawns_total for s in stats),
        "failovers": sum(s.failovers_total for s in stats),
    }


class TestFaultFreeReplication:
    @pytest.mark.parametrize("policy", ["round-robin", "least-outstanding"])
    def test_identity_and_no_phantom_failures(
        self, make_cluster, workload, reference, policy
    ):
        cluster, backend = make_cluster(policy=policy)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        counters = totals(backend)
        assert counters["respawns"] == 0
        assert counters["failovers"] == 0
        assert counters["hedges_fired"] == 0
        # Exactly the initial fleet was built — no silent respawns.
        assert len(backend.spawned) == NUM_SHARDS * REPLICAS

    def test_round_robin_alternates_replicas(self, make_cluster, workload):
        cluster, backend = make_cluster()
        for _ in range(4):
            cluster.diversify_batch(workload)
        for stats in backend.replication_stats().values():
            # 4 batches -> 4 calls per shard, alternating slots 0/1.
            assert stats.requests == (2, 2)

    def test_warm_reaches_every_replica(self, make_cluster, workload):
        cluster, backend = make_cluster()
        report = cluster.warm(workload)
        assert report.queries == len(set(workload))
        for shard in range(NUM_SHARDS):
            infos = backend.invoke_replicas(shard, "spec_cache_info")
            assert len(infos) == REPLICAS
            # Identical factories, identical warm bucket -> identical caches.
            assert infos[0].size == infos[1].size

    def test_invalidate_reaches_every_replica(self, make_cluster, workload):
        cluster, backend = make_cluster()
        cluster.warm(workload)
        cluster.diversify_batch(workload)
        cluster.invalidate()
        for shard in range(NUM_SHARDS):
            for info in backend.invoke_replicas(shard, "result_cache_info"):
                assert info.size == 0

    def test_service_errors_propagate_without_failover(self, make_cluster):
        cluster, backend = make_cluster()
        with pytest.raises(AttributeError):
            cluster.backend.invoke(0, "frobnicate")
        counters = totals(backend)
        assert counters["failovers"] == 0
        assert counters["respawns"] == 0


class TestCrashFailover:
    def test_crash_on_send_fails_over_and_respawns(
        self, make_cluster, workload, reference
    ):
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.at(shard, 0, 0, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        for stats in backend.replication_stats().values():
            assert stats.failovers == (1, 0)
            assert stats.respawns == (1, 0)
            assert stats.requests == (0, 1)  # the dispatch that landed
        # Each dead slot was rebuilt exactly once.
        assert len(backend.spawned) == NUM_SHARDS * REPLICAS + NUM_SHARDS

    def test_crash_before_reply_fails_over(
        self, make_cluster, workload, reference
    ):
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.at(shard, 0, 0, Fault(CRASH_BEFORE_REPLY))
        cluster, backend = make_cluster(schedule)
        assert_results_equal(cluster.diversify_batch(workload), reference)
        for stats in backend.replication_stats().values():
            assert stats.failovers == (1, 0)
            assert stats.respawns == (1, 0)

    def test_mid_benchmark_kill_keeps_identity(
        self, make_cluster, workload, reference
    ):
        """The acceptance scenario, deterministically: serve, kill one
        replica per shard, keep serving — results never change."""
        cluster, backend = make_cluster()
        half = len(workload) // 2
        first = cluster.diversify_batch(workload[:half])
        for shard in range(NUM_SHARDS):
            backend.kill_replica(shard)
        second = cluster.diversify_batch(workload[half:])
        assert_results_equal(first + second, reference)
        assert totals(backend)["respawns"] == NUM_SHARDS

    def test_all_replicas_dying_surfaces_typed_error(self, make_cluster, workload):
        schedule = FaultSchedule()
        shard = 0
        for replica in range(REPLICAS):
            schedule.always(shard, replica, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule)
        target = next(q for q in workload if cluster.route(q) == shard)
        with pytest.raises(WorkerDiedError, match="no replica could answer"):
            cluster.diversify(target)
        error_shards = None
        try:
            cluster.diversify(target)
        except WorkerDiedError as exc:
            error_shards = exc.shards
        assert error_shards == (shard,)
        # The retry budget is finite: respawns happened but bounded.
        assert totals(backend)["respawns"] <= 2 * (2 * REPLICAS + 4) + REPLICAS


class TestHedgedRequests:
    def _target(self, cluster, workload, shard):
        return next(q for q in workload if cluster.route(q) == shard)

    def test_hung_primary_hedge_fires_and_wins(
        self, make_cluster, workload, reference
    ):
        by_query = {r.query: r for r in reference}
        schedule = FaultSchedule().at(0, 0, 0, Fault(HANG))
        cluster, backend = make_cluster(schedule, hedge_after_ms=50)
        query = self._target(cluster, workload, 0)
        result = cluster.diversify(query)
        assert_results_equal([result], [by_query[query]])
        stats = backend.replication_stats()[0]
        assert stats.hedges_fired == (0, 1)
        assert stats.hedges_won == (0, 1)
        assert stats.respawns == (0, 0)  # hung, not yet declared dead
        # The hedge fired exactly at the deadline on the virtual clock.
        assert backend.clock.now == pytest.approx(0.05)

    def test_hung_replica_is_buried_after_hang_timeout(
        self, make_cluster, workload, reference
    ):
        by_query = {r.query: r for r in reference}
        schedule = FaultSchedule().at(0, 0, 0, Fault(HANG))
        cluster, backend = make_cluster(
            schedule, hedge_after_ms=50, hang_timeout_s=1.0
        )
        query = self._target(cluster, workload, 0)
        cluster.diversify(query)
        backend.clock.advance(2.0)  # past the hang budget
        result = cluster.diversify(query)
        assert_results_equal([result], [by_query[query]])
        stats = backend.replication_stats()[0]
        assert stats.respawns == (1, 0)
        assert (0, 0) in backend.spawned[NUM_SHARDS * REPLICAS:]

    def test_slow_primary_wins_its_own_hedge(
        self, make_cluster, workload, reference
    ):
        """Primary slower than the hedge deadline but faster than the
        (also slow) secondary: the hedge fires and loses; its abandoned
        reply is drained, never served."""
        by_query = {r.query: r for r in reference}
        schedule = (
            FaultSchedule()
            .at(0, 0, 0, Fault(DELAY, delay=0.08))
            .at(0, 1, 0, Fault(DELAY, delay=0.5))
        )
        cluster, backend = make_cluster(schedule, hedge_after_ms=50)
        query = self._target(cluster, workload, 0)
        result = cluster.diversify(query)
        assert_results_equal([result], [by_query[query]])
        stats = backend.replication_stats()[0]
        assert stats.hedges_fired == (0, 1)
        assert stats.hedges_won == (0, 0)
        # Serving continues cleanly: the loser's owed reply is drained,
        # not delivered to a later request.
        again = cluster.diversify(query)
        assert_results_equal([again], [by_query[query]])
        assert totals(backend)["respawns"] == 0

    def test_hedges_never_duplicate_or_reorder_results(
        self, make_cluster, workload, reference
    ):
        """Every request to a slot-0 primary is slow, so hedges fire
        constantly — and the result stream still aligns one-for-one
        with the request stream, duplicates included."""
        schedule = FaultSchedule()
        for shard in range(NUM_SHARDS):
            schedule.always(shard, 0, Fault(DELAY, delay=0.2))
        cluster, backend = make_cluster(schedule, hedge_after_ms=50)
        batch = list(workload) + list(workload[:4])  # extra duplicates
        got = cluster.diversify_batch(batch)
        assert [r.query for r in got] == batch
        by_query = {r.query: r for r in reference}
        assert_results_equal(got, [by_query[q] for q in batch])
        assert totals(backend)["hedges_fired"] >= NUM_SHARDS

    def test_least_outstanding_routes_around_owing_replica(
        self, make_cluster, workload, reference
    ):
        """After a hedge abandons a hung slot-0, least-outstanding sends
        the next request straight to the free replica instead of
        blocking to drain the owed one."""
        by_query = {r.query: r for r in reference}
        schedule = FaultSchedule().at(0, 0, 0, Fault(HANG))
        cluster, backend = make_cluster(
            schedule, hedge_after_ms=50, policy="least-outstanding"
        )
        query = self._target(cluster, workload, 0)
        cluster.diversify(query)
        before = backend.clock.now
        result = cluster.diversify(query)
        assert_results_equal([result], [by_query[query]])
        stats = backend.replication_stats()[0]
        # First call went to r0 (hung; the hedge dispatch counts under
        # hedges_fired, not requests); the follow-up routed straight to
        # the free r1.
        assert stats.requests == (1, 1)
        assert stats.hedges_fired == (0, 1)
        # No blocking drain of the hung replica happened on the way.
        assert backend.clock.now == before


class TestReplicatedStatsPlumbing:
    def test_shard_stats_carry_replica_breakdowns(
        self, make_cluster, workload
    ):
        cluster, backend = make_cluster()
        cluster.diversify_batch(workload)
        per_shard = cluster.shard_stats()
        assert [s.name for s in per_shard] == [
            f"shard{i}" for i in range(NUM_SHARDS)
        ]
        for shard_entry in per_shard:
            assert shard_entry.shards == ()
            assert len(shard_entry.replicas) == REPLICAS
            assert [r.name for r in shard_entry.replicas] == [
                f"{shard_entry.name}/r{j}" for j in range(REPLICAS)
            ]
        assert sum(s.served for s in per_shard) == len(workload)

    def test_cluster_summary_reports_fault_counters(
        self, make_cluster, workload
    ):
        schedule = FaultSchedule().at(0, 0, 0, Fault(CRASH_ON_SEND))
        cluster, backend = make_cluster(schedule, hedge_after_ms=50)
        cluster.diversify_batch(workload)
        merged = cluster.cluster_stats()
        assert merged.respawns == 1
        assert merged.failovers == 1
        summary = merged.summary()
        assert "respawns=1" in summary
        assert "failovers=1" in summary
        assert "hedges=" in summary
        # The breakdown nests: cluster -> shards -> replicas.
        assert len(merged.shards) == NUM_SHARDS
        assert all(len(s.replicas) == REPLICAS for s in merged.shards)

    def test_cache_info_merges_across_replicas(self, make_cluster, workload):
        cluster, backend = make_cluster()
        cluster.warm(workload)
        cluster.diversify_batch(workload)
        # Every replica of every shard warmed, so the cluster-merged
        # spec cache counts 2x the distinct ambiguous queries' entries
        # of a single-replica cluster — i.e. the per-replica sizes sum.
        expected = 0
        for shard in range(NUM_SHARDS):
            expected += sum(
                i.size for i in backend.invoke_replicas(shard, "spec_cache_info")
            )
        assert cluster.spec_cache_info().size == expected


class TestRandomizedFailoverSweep:
    """Satellite: seeded random schedules of kills/hangs/delays, each
    asserting field-for-field equality with the fault-free reference."""

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
                    rng.randrange(REPLICAS),
                    rng.randrange(6),
                    Fault(
                        rng.choice([CRASH_ON_SEND, CRASH_BEFORE_REPLY, HANG, DELAY]),
                        delay=rng.choice([0.02, 0.2]),
                    ),
                )
        cluster, backend = make_cluster(
            schedule, hedge_after_ms=50, hang_timeout_s=1.0
        )
        for _ in range(3):  # several batches so later call indexes fire too
            assert_results_equal(cluster.diversify_batch(workload), reference)
        backend.clock.advance(2.0)  # let any hung replicas get buried
        assert_results_equal(cluster.diversify_batch(workload), reference)


@needs_fork
class TestProcessReplication:
    """The same story on real OS processes (small, fork-only)."""

    def test_identity_across_kills_with_real_workers(
        self, framework_factory, workload, reference
    ):
        backend = ReplicatedBackend(replicas=2)
        cluster = build_cluster(framework_factory, backend, num_shards=2)
        try:
            assert_results_equal(cluster.diversify_batch(workload), reference)
            pids_before = [backend.replica_pids(s) for s in range(2)]
            assert all(pid for pids in pids_before for pid in pids)
            for shard in range(2):
                backend.kill_replica(shard)
            assert_results_equal(cluster.diversify_batch(workload), reference)
            stats = backend.replication_stats()
            assert sum(s.respawns_total for s in stats.values()) == 2
            # Killed slots run new processes now.
            pids_after = [backend.replica_pids(s) for s in range(2)]
            assert pids_before != pids_after
            merged = cluster.cluster_stats()
            assert merged.respawns == 2
            assert "respawns=2" in merged.summary()
        finally:
            cluster.close()

    def test_replicas_flag_via_from_factory(
        self, framework_factory, workload, reference
    ):
        cluster = build_cluster(
            framework_factory, None, num_shards=2, replicas=2
        )
        try:
            assert cluster.backend.name == "replicated"
            assert cluster.backend.replicas == 2
            assert_results_equal(cluster.diversify_batch(workload), reference)
        finally:
            cluster.close()
