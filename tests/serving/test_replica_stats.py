"""ServiceStats merge semantics for the replication counters.

Satellite of the replication PR, mirroring the PR-5 idle-shard pins:
the new counters (hedges fired/won, respawns, failovers) and the
per-replica breakdown must survive every merge shape — empty inputs,
generators, zero-traffic replicas — and nest correctly when a shard
entry with a replica breakdown later merges into a cluster entry.
"""

from __future__ import annotations

from repro.serving.service import ServiceStats


def make_stats(name, served=0, **counters):
    stats = ServiceStats(served=served, name=name, **counters)
    return stats


class TestMergeReplicationCounters:
    def test_merge_sums_the_new_counters(self):
        merged = ServiceStats.merge(
            [
                make_stats("a", served=3, hedges_fired=2, hedges_won=1,
                           respawns=1, failovers=2),
                make_stats("b", served=5, hedges_fired=1, hedges_won=0,
                           respawns=0, failovers=1),
            ]
        )
        assert merged.hedges_fired == 3
        assert merged.hedges_won == 1
        assert merged.respawns == 1
        assert merged.failovers == 3
        assert merged.served == 8

    def test_merge_accepts_a_generator(self):
        merged = ServiceStats.merge(
            make_stats(f"s{i}", respawns=i, failovers=1) for i in range(4)
        )
        assert merged.respawns == 6
        assert merged.failovers == 4
        assert len(merged.shards) == 4

    def test_empty_merge_is_a_wellformed_zeroed_summary(self):
        merged = ServiceStats.merge([])
        assert merged.hedges_fired == 0
        assert merged.hedges_won == 0
        assert merged.respawns == 0
        assert merged.failovers == 0
        assert merged.replicas == ()
        assert merged.shards == ()
        assert "respawns" not in merged.summary()  # zeros stay quiet

    def test_empty_merge_replicas_is_wellformed(self):
        merged = ServiceStats.merge_replicas([], name="shard0")
        assert merged.name == "shard0"
        assert merged.replicas == ()
        assert merged.shards == ()
        assert merged.served == 0


class TestMergeReplicas:
    def test_breakdown_lands_in_replicas_not_shards(self):
        merged = ServiceStats.merge_replicas(
            [
                make_stats("shard0/r0", served=7, respawns=1),
                make_stats("shard0/r1", served=3, hedges_won=2),
            ],
            name="shard0",
        )
        assert merged.name == "shard0"
        assert merged.shards == ()
        assert [r.name for r in merged.replicas] == ["shard0/r0", "shard0/r1"]
        assert merged.served == 10
        assert merged.respawns == 1
        assert merged.hedges_won == 2

    def test_accepts_a_generator(self):
        merged = ServiceStats.merge_replicas(
            (make_stats(f"shard1/r{i}", served=i) for i in range(3)),
            name="shard1",
        )
        assert len(merged.replicas) == 3
        assert merged.served == 3

    def test_zero_traffic_replica_contributes_zeroed_entry(self):
        busy = make_stats("shard2/r0", served=9)
        busy.latencies_ms.extend([1.0, 2.0])
        idle = make_stats("shard2/r1")
        merged = ServiceStats.merge_replicas([busy, idle], name="shard2")
        assert len(merged.replicas) == 2
        zeroed = merged.replicas[1]
        assert zeroed.name == "shard2/r1"
        assert zeroed.served == 0
        assert zeroed.ranked == 0
        assert list(zeroed.latencies_ms) == []
        assert zeroed.summary().startswith("[shard2/r1]")

    def test_breakdown_is_a_snapshot(self):
        leaf = make_stats("shard0/r0", served=1)
        merged = ServiceStats.merge_replicas([leaf], name="shard0")
        leaf.served = 100
        leaf.respawns = 50
        assert merged.replicas[0].served == 1
        assert merged.replicas[0].respawns == 0

    def test_nests_inside_a_cluster_merge(self):
        shard0 = ServiceStats.merge_replicas(
            [make_stats("shard0/r0", served=4, respawns=1),
             make_stats("shard0/r1", served=2)],
            name="shard0",
        )
        shard1 = ServiceStats.merge_replicas(
            [make_stats("shard1/r0"), make_stats("shard1/r1", failovers=3)],
            name="shard1",
        )
        cluster = ServiceStats.merge([shard0, shard1])
        assert cluster.served == 6
        assert cluster.respawns == 1
        assert cluster.failovers == 3
        assert [s.name for s in cluster.shards] == ["shard0", "shard1"]
        # The nested replica breakdowns survive the deep copy.
        assert [r.name for r in cluster.shards[0].replicas] == [
            "shard0/r0", "shard0/r1",
        ]
        assert len(cluster.shards[1].replicas) == 2
        assert cluster.replicas == ()  # cluster level has shards, not replicas


class TestSummaryReporting:
    def test_summary_reports_the_fault_counters(self):
        stats = make_stats("cluster", served=10, hedges_fired=4,
                           hedges_won=2, respawns=3, failovers=1)
        summary = stats.summary()
        assert "hedges=4/2" in summary
        assert "respawns=3" in summary
        assert "failovers=1" in summary

    def test_summary_reports_replica_count(self):
        merged = ServiceStats.merge_replicas(
            [make_stats("shard0/r0"), make_stats("shard0/r1")], name="shard0"
        )
        assert "replicas=2" in merged.summary()

    def test_fault_free_summary_stays_unchanged(self):
        stats = make_stats("svc", served=5)
        summary = stats.summary()
        assert "hedges" not in summary
        assert "respawns" not in summary
        assert "replicas" not in summary
