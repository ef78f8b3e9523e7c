"""Tests for the per-table/figure experiment harnesses (tiny scales)."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments.ablation_constraint import (
    PureTopK,
    run_constraint_ablation,
    summarize as summarize_constraint,
)
from repro.experiments.ablation_lambda import (
    run_lambda_ablation,
    summarize as summarize_lambda,
)
from repro.experiments.feasibility import run_feasibility
from repro.experiments.figure1 import UtilityPoint, run_figure1
from repro.experiments.recall import measure_recall, run_recall
from repro.experiments.table1 import run_table1, summarize as summarize_t1
from repro.experiments.table2 import (
    run_table2,
    speedup_at_largest,
    summarize as summarize_t2,
)
from repro.experiments.table3 import run_table3, summarize as summarize_t3
from repro.experiments.workloads import WorkloadScale, build_trec_workload

TINY = WorkloadScale(
    name="tiny",
    num_topics=4,
    docs_per_aspect=5,
    background_docs=40,
    log_scale=0.05,
    candidates=50,
    k=10,
    spec_results=8,
    cutoffs=(5, 10),
)


@pytest.fixture(scope="module")
def workload():
    return build_trec_workload(TINY, logs=("AOL", "MSN"))


class TestTable1:
    def test_optselect_ops_flat_in_k(self):
        cells = run_table1(ns=(400,), ks=(10, 100), num_specs=4)
        opt = {c.k: c.operations for c in cells if c.algorithm == "OptSelect"}
        assert opt[10] == opt[100]

    def test_greedy_ops_linear_in_k(self):
        cells = run_table1(ns=(400,), ks=(10, 100), num_specs=4)
        for name in ("xQuAD", "IASelect"):
            ops = {c.k: c.operations for c in cells if c.algorithm == name}
            assert ops[100] > 5 * ops[10]

    def test_all_ops_linear_in_n(self):
        cells = run_table1(ns=(300, 600), ks=(20,), num_specs=4)
        for name in ("OptSelect", "xQuAD", "IASelect"):
            ops = {c.n: c.operations for c in cells if c.algorithm == name}
            ratio = ops[600] / ops[300]
            assert 1.6 < ratio < 2.6

    def test_summary_renders(self):
        cells = run_table1(ns=(200,), ks=(10,), num_specs=3)
        text = summarize_t1(cells)
        assert "OptSelect" in text and "O(n log k)" in text


class TestTable2:
    def test_grid_and_summary(self):
        cells = run_table2(grid=((300,), (5, 20)), repeats=1)
        assert len(cells) == 6  # 3 algorithms × 2 k values
        assert all(c.milliseconds >= 0.0 for c in cells)
        text = summarize_t2(cells)
        assert "OptSelect" in text and "k=20" in text

    def test_optselect_fastest_at_largest_cell(self):
        cells = run_table2(grid=((2000,), (10, 100)), repeats=1)
        factors = speedup_at_largest(cells)
        assert factors["xQuAD"] > 1.0
        assert factors["IASelect"] > 1.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, workload):
        return run_table3(
            workload, thresholds=(0.0, 0.97), algorithms=("OptSelect", "xQuAD")
        )

    def test_reports_for_each_algorithm_and_threshold(self, result):
        assert set(result.reports) == {"OptSelect", "xQuAD"}
        assert set(result.reports["OptSelect"]) == {0.0, 0.97}

    def test_high_threshold_collapses_to_baseline(self, result):
        # At tiny scale same-aspect snippets are near-clones, so utilities
        # of ~0.8 survive c = 0.75; the collapse-to-baseline property is
        # probed just below the self-similarity ceiling instead.  (At the
        # paper scales the collapse shows at 0.75, as in Table 3.)
        for algorithm in result.reports:
            report = result.reports[algorithm][0.97]
            for cutoff in (5, 10):
                assert report.mean("alpha-ndcg", cutoff) == pytest.approx(
                    result.baseline.mean("alpha-ndcg", cutoff), abs=0.05
                )

    def test_diversification_helps_at_zero_threshold(self, result):
        best = max(
            result.reports["OptSelect"][0.0].mean("alpha-ndcg", 10),
            result.reports["xQuAD"][0.0].mean("alpha-ndcg", 10),
        )
        assert best >= result.baseline.mean("alpha-ndcg", 10) - 1e-9

    def test_detection_rate_reported(self, result):
        assert 0.0 < result.detection_rate <= 1.0

    def test_summary_renders(self, result):
        text = summarize_t3(result)
        assert "DPH baseline" in text and "a-nDCG@5" in text

    def test_best_threshold_lookup(self, result):
        assert result.best_threshold("OptSelect", cutoff=10) in (0.0, 0.97)


class TestFigure1:
    def test_points_and_series(self, workload):
        result = run_figure1(
            workload,
            logs=("AOL",),
            external_candidates=60,
            k=8,
            spec_results=8,
            max_queries_per_log=10,
        )
        points = result.points["AOL"]
        assert points, "no ambiguous test queries found"
        for point in points:
            assert point.num_specializations >= 2
            assert point.ratio > 0
        series = result.series()
        assert "AOL" in series and series["AOL"]

    def test_ratio_cap(self):
        point = UtilityPoint("q", 3, original_utility=0.0, diversified_utility=5.0)
        assert point.ratio == UtilityPoint.MAX_RATIO
        parity = UtilityPoint("q", 3, 0.0, 0.0)
        assert parity.ratio == 1.0

    def test_diversified_usually_not_worse(self, workload):
        result = run_figure1(
            workload,
            logs=("AOL",),
            external_candidates=60,
            k=8,
            spec_results=8,
            max_queries_per_log=15,
        )
        points = result.points["AOL"]
        at_least_parity = sum(1 for p in points if p.ratio >= 0.99)
        assert at_least_parity >= len(points) * 0.6


class TestRecall:
    def test_recall_over_both_logs(self, workload):
        results = run_recall(workload, logs=("AOL", "MSN"))
        assert [r.log_name for r in results] == ["AOL", "MSN"]
        for r in results:
            assert r.events > 0
            assert 0.0 <= r.recall <= 1.0

    def test_measure_recall_counts_events(self, workload):
        result = measure_recall(workload.logs["AOL"])
        assert result.detected <= result.events


class TestFeasibility:
    def test_footprint_report(self, workload):
        result = run_feasibility(workload, min_frequency=2)
        assert result.num_ambiguous_queries > 0
        assert result.measured_surrogate_bytes > 0
        assert result.avg_surrogate_bytes > 0
        # The analytic bound uses the *max* specialization count, so it
        # dominates the measured footprint.
        assert result.analytic_bound_bytes >= result.measured_surrogate_bytes


class TestAblations:
    def test_lambda_ablation(self, workload):
        result = run_lambda_ablation(
            workload, lambdas=(0.0, 0.5), algorithms=("OptSelect",)
        )
        assert set(result.reports["OptSelect"]) == {0.0, 0.5}
        assert "lambda" in summarize_lambda(result)
        assert result.best_lambda("OptSelect") in (0.0, 0.5)

    def test_constraint_ablation(self, workload):
        result = run_constraint_ablation(workload)
        assert set(result.reports) == {
            "constrained",
            "strict-pseudocode",
            "pure-topk",
        }
        assert "constrained" in summarize_constraint(result)
        for variant, recall in result.avg_subtopic_recall.items():
            assert 0.0 <= recall <= 1.0, variant

    def test_pure_topk_sorts_by_overall_utility(self, workload):
        from repro.experiments.workloads import synthetic_task

        task = synthetic_task(60, num_specs=3, seed=5)
        selected = PureTopK().diversify(task, 10)
        utilities = [task.overall_utility(d) for d in selected]
        assert utilities == sorted(utilities, reverse=True)


def _framework_factory(workload):
    from repro.core.framework import FrameworkConfig
    from repro.experiments.offline import PartitionedFrameworkFactory

    scale = workload.scale
    return PartitionedFrameworkFactory(
        workload.engine,
        workload.miner("AOL"),
        FrameworkConfig(
            k=scale.k, candidates=scale.candidates, spec_results=scale.spec_results
        ),
    )


class TestThroughputBackendsAndRecords:
    """Execution backends and the HTTP front-end over the experiment
    workload's Zipf stream: each serves what the in-process service
    serves."""

    def test_backend_throughput_inline_vs_process(self, workload):
        from repro.experiments.workloads import zipf_workload
        from repro.serving import ShardedDiversificationService

        queries = zipf_workload(workload, 20)
        served = {}
        for backend in ("inline", "process"):
            cluster = ShardedDiversificationService.from_factory(
                _framework_factory(workload), 2, backend=backend
            )
            try:
                cluster.warm(queries)
                served[backend] = [
                    (r.query, r.ranking) for r in cluster.diversify_batch(queries)
                ]
                stats = cluster.cluster_stats()
            finally:
                cluster.close()
            assert stats.served == 20
            assert stats.ranked == len(set(queries))
        assert served["inline"] == served["process"]
        assert [q for q, _ in served["inline"]] == queries

    def test_backend_throughput_validates_arguments(self, workload):
        from repro.serving import ShardedDiversificationService, make_backend

        factory = _framework_factory(workload)
        with pytest.raises(ValueError):
            ShardedDiversificationService.from_factory(factory, 0)
        with pytest.raises(ValueError):
            ShardedDiversificationService.from_factory(factory, 2, backend="gpu")
        with pytest.raises(ValueError):
            make_backend("inline", start_method="spawn")

    def test_http_throughput_end_to_end(self, workload):
        import json
        import urllib.request

        from repro.experiments.workloads import zipf_workload
        from repro.serving import (
            DiversificationHTTPServer,
            DiversificationService,
            result_payload,
        )

        queries = zipf_workload(workload, 12)
        reference = [
            result_payload(r)
            for r in DiversificationService(
                _framework_factory(workload)(0)
            ).diversify_batch(queries)
        ]
        service = DiversificationService(_framework_factory(workload)(0))
        service.warm(queries)
        with DiversificationHTTPServer(service) as server:
            bodies = []
            for query in queries:
                request = urllib.request.Request(
                    server.base_url + "/diversify",
                    data=json.dumps({"query": query}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as rsp:
                    assert rsp.status == 200
                    bodies.append(json.load(rsp))
            with urllib.request.urlopen(
                server.base_url + "/health", timeout=30
            ) as rsp:
                health = json.load(rsp)
            drain = urllib.request.Request(
                server.base_url + "/drain", data=b"", method="POST"
            )
            with urllib.request.urlopen(drain, timeout=30) as rsp:
                drain_report = json.load(rsp)
        assert bodies == reference
        assert health["status"] == "ok"
        assert drain_report["served_total"] == 12
        assert service.stats.ranked == len(set(queries))


class TestOfflinePipelineHarness:
    def test_offline_build_end_to_end(self, workload, tmp_path):
        from repro.experiments.offline import (
            run_offline_build,
            summarize_build,
        )

        result = run_offline_build(
            workload,
            num_queries=15,
            partitions=3,
            shards=2,
            backend="inline",
        )
        assert result.identity_checked
        assert result.build_seconds > 0
        assert len(result.partition_sizes) == 3
        assert sum(
            size["documents"] for size in result.partition_sizes
        ) == len(workload.corpus.collection)
        assert result.index_bytes > 0
        assert result.cluster_warm.busy_seconds > 0
        assert result.warm_memory["total_bytes"] > 0
        table = summarize_build(result)
        assert "partition0" in table and "total" in table

    def test_offline_build_validates_arguments(self, workload):
        from repro.experiments.offline import run_offline_build

        with pytest.raises(ValueError):
            run_offline_build(workload, partitions=0)
        with pytest.raises(ValueError):
            run_offline_build(workload, shards=0)
        with pytest.raises(ValueError):
            run_offline_build(workload, backend="gpu")

    def test_workload_framework_factory_pickles(self, workload):
        """The per-shard factory must pickle whole (engine and miner
        included) — the spawn-safe half of the process-backend contract."""
        import pickle

        factory = pickle.loads(pickle.dumps(_framework_factory(workload)))
        framework = factory(0)
        queries = [t.query for t in workload.testbed.topics]
        want = _framework_factory(workload)(0)
        assert [
            framework.diversify_query(q).ranking for q in queries[:2]
        ] == [want.diversify_query(q).ranking for q in queries[:2]]

    def test_cli_store(self, monkeypatch, tmp_path, capsys):
        from repro.experiments import offline

        monkeypatch.setattr(offline, "SMALL_SCALE", TINY)
        offline.main(
            [
                "--queries", "10", "--partitions", "3", "--shards", "2",
                "--backend", "inline",
                "--store", str(tmp_path / "index.sqlite3"),
            ]
        )
        out = capsys.readouterr().out
        assert "store-hydrated cluster re-warm fetched 0 (hit in full)" in out
        assert "rankings and scores verified identical" in out
        assert (tmp_path / "index.sqlite3").stat().st_size > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process-backed warm inherits the workload under fork",
    )
    def test_process_backed_warm_round_trips_the_store(self, workload, tmp_path):
        """What CI's offline smoke runs: serial build, process-backed
        warm, store written, attached and re-warmed with 0 fetched."""
        from repro.experiments.offline import run_offline_build

        result = run_offline_build(
            workload,
            num_queries=15,
            partitions=2,
            shards=2,
            backend="process",
            store_path=tmp_path / "index.sqlite3",
        )
        assert result.identity_checked
        assert result.backend == "process"
        assert len(result.cluster_warm.shards) == 2
        assert result.cluster_warm.busy_seconds > 0
        assert result.store_warm_fetched == 0

    def test_the_thread_backend_is_refused(self, workload):
        from repro.experiments.offline import main, run_offline_build

        with pytest.raises(ValueError, match="inline"):
            run_offline_build(workload, backend="thread")
        with pytest.raises(SystemExit):
            main(["--backend", "thread"])

    def test_cli_rejects_save_stats(self, tmp_path):
        from repro.experiments.offline import main

        with pytest.raises(SystemExit):
            main(["--save-stats", str(tmp_path / "record.json")])


class TestColdstartHarness:
    """The cold-start path a serving process takes today: attach the
    SQLite store the offline pipeline writes instead of rebuilding."""

    def test_rebuild_vs_attach_with_identity(self, workload, tmp_path):
        from repro.experiments.offline import run_offline_build

        store = tmp_path / "cold.sqlite3"
        result = run_offline_build(
            workload,
            num_queries=15,
            partitions=2,
            shards=2,
            backend="inline",
            store_path=store,
        )
        # Store-backed engine == undivided engine, and the store-hydrated
        # cluster served the reference rankings without fetching.
        assert result.identity_checked
        assert result.store_bytes == store.stat().st_size > 0
        assert result.store_write_seconds > 0
        assert result.store_attach_seconds > 0
        assert result.store_warm_fetched == 0

    def test_memory_budget_arm(self, workload, tmp_path):
        """A budgeted store engine behind the full pipeline: eviction
        happens and never changes a diversified ranking."""
        from repro.retrieval.engine import SearchEngine
        from repro.retrieval.store import StoreBackedSearchEngine, write_store
        from repro.serving import DiversificationService

        path = write_store(
            tmp_path / "cold.sqlite3",
            SearchEngine(workload.corpus.collection, 2),
        )
        queries = [t.query for t in workload.testbed.topics]
        factory = _framework_factory(workload)
        want = DiversificationService(factory(0)).diversify_batch(queries)
        engine = StoreBackedSearchEngine(path, memory_budget=5_000)
        try:
            budgeted = type(factory)(engine, factory.miner, factory.config)
            got = DiversificationService(budgeted(0)).diversify_batch(queries)
            assert engine.memory_budget.limit_bytes == 5_000
            assert engine.memory_budget.partitions_evicted > 0
        finally:
            engine.close()
        assert [r.ranking for r in got] == [r.ranking for r in want]
        assert [r.baseline.scores for r in got] == [
            r.baseline.scores for r in want
        ]
