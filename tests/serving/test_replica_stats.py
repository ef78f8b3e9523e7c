"""ServiceStats merge semantics for the replication counters.

Satellite of the replication PR, mirroring the PR-5 idle-shard pins:
the new counters (hedges fired/won, respawns, failovers) and the
per-replica breakdown must survive every merge shape — empty inputs,
generators, zero-traffic replicas — and nest correctly when a shard
entry with a replica breakdown later merges into a cluster entry.  The
nesting holds for every report type that merges by the same roll-up
rule (``repro.core.cache.Rollup``), checked as a property.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheStats
from repro.retrieval.engine import BuildReport
from repro.serving.service import LATENCY_SAMPLE_SIZE, ServiceStats, WarmReport


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


# -- the roll-up rule, on every report type that uses it --------------------

counts = st.integers(min_value=0, max_value=10_000)
clocks = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
samples = st.lists(clocks, max_size=5)


def leaf(cls, **fields):
    """A part report with every counter drawn and the given extras."""
    return st.builds(
        cls,
        **{
            f.name: clocks if f.type == "float" else counts
            for f in dataclasses.fields(cls)
            if f.type in ("int", "float")
        },
        **fields,
    )


names = st.text("abc", min_size=1, max_size=3)
LEAVES = {
    CacheStats: leaf(CacheStats),
    WarmReport: leaf(WarmReport, name=names),
    BuildReport: leaf(BuildReport, name=names),
    ServiceStats: leaf(
        ServiceStats,
        name=names,
        latencies_ms=samples.map(lambda xs: deque(xs, maxlen=LATENCY_SAMPLE_SIZE)),
        wait_ms=samples.map(lambda xs: deque(xs, maxlen=LATENCY_SAMPLE_SIZE)),
        batch_sizes=st.dictionaries(st.integers(1, 8), st.integers(1, 5)),
    ),
}
BREAKDOWN = {"name", "shards", "replicas"}


def rolled_up_fields(report) -> dict:
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in BREAKDOWN
    }


def assert_same_roll_up(got, want):
    __tracebackhide__ = True
    for name, value in rolled_up_fields(want).items():
        if isinstance(value, float):
            assert getattr(got, name) == pytest.approx(value), name
        else:
            assert getattr(got, name) == value, name


@st.composite
def grouped_parts(draw):
    cls = draw(st.sampled_from(list(LEAVES)))
    groups = draw(st.lists(st.lists(LEAVES[cls], max_size=4), max_size=4))
    return cls, groups


class TestRollupRule:
    @settings(max_examples=60, deadline=None)
    @given(grouped_parts())
    def test_nested_merge_equals_the_flat_merge(self, drawn):
        """Merging groups of parts, then the group reports, gives the
        merge of all the parts — a shard's replica roll-up nests inside
        the cluster roll-up — and each level keeps its own breakdown."""
        cls, groups = drawn
        # A shard entry rolls its replicas up into their own slot.
        inner = getattr(cls, "merge_replicas", cls.merge)
        group_reports = [
            inner(group, name=f"g{i}") for i, group in enumerate(groups)
        ]
        nested = cls.merge(group_reports, name="nested")
        flat = cls.merge([part for group in groups for part in group])
        assert_same_roll_up(nested, flat)
        if cls is CacheStats:
            return
        assert nested.name == "nested"
        assert [s.name for s in nested.shards] == [
            f"g{i}" for i in range(len(groups))
        ]
        if cls is ServiceStats:
            assert nested.replicas == ()
            assert [
                [r.name for r in shard.replicas] for shard in nested.shards
            ] == [[part.name for part in group] for group in groups]

    @pytest.mark.parametrize("cls", list(LEAVES))
    def test_empty_merge_is_a_wellformed_zeroed_report(self, cls):
        merged = cls.merge([])
        for name, value in rolled_up_fields(merged).items():
            assert not value, name
        if cls is not CacheStats:
            assert merged.name == ("total" if cls is BuildReport else "cluster")
            assert merged.summary()


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
