"""Tests for the experiment workload builders."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.workloads import (
    ExternalWebEngine,
    PAPER_SCALE,
    SMALL_SCALE,
    WorkloadScale,
    build_trec_workload,
    synthetic_task,
    zipf_workload,
)


class TestSyntheticTask:
    def test_shape(self):
        task = synthetic_task(100, num_specs=5)
        assert task.n == 100
        assert len(task.specializations) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_task(0)
        with pytest.raises(ValueError):
            synthetic_task(10, density=0.0)

    def test_deterministic(self):
        a = synthetic_task(50, seed=3)
        b = synthetic_task(50, seed=3)
        assert a.candidates.doc_ids == b.candidates.doc_ids
        d = a.candidates.doc_ids[0]
        for spec, _ in a.specializations:
            assert a.utilities.value(d, spec) == b.utilities.value(d, spec)

    def test_density_controls_sparsity(self):
        sparse = synthetic_task(200, density=0.05, seed=1)
        dense = synthetic_task(200, density=0.8, seed=1)
        assert sparse.utilities.density() < dense.utilities.density()

    def test_zipfian_spec_probabilities(self):
        task = synthetic_task(10, num_specs=4)
        probs = [p for _, p in task.specializations]
        assert probs == sorted(probs, reverse=True)

    def test_relevance_is_distribution(self):
        task = synthetic_task(50)
        assert sum(task.relevance.values()) == pytest.approx(1.0)


class TestScales:
    def test_builtin_scales(self):
        assert SMALL_SCALE.num_topics < PAPER_SCALE.num_topics
        assert PAPER_SCALE.num_topics == 50

    def test_custom_scale_usable(self):
        scale = WorkloadScale(
            name="tiny",
            num_topics=2,
            docs_per_aspect=3,
            background_docs=10,
            log_scale=0.02,
            candidates=30,
            k=5,
            cutoffs=(5,),
        )
        workload = build_trec_workload(scale)
        assert len(workload.testbed.topics) == 2
        assert workload.engine.partitions[0].num_documents == len(
            workload.corpus.collection
        )


class TestTrecWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        scale = WorkloadScale(
            name="tiny",
            num_topics=3,
            docs_per_aspect=4,
            background_docs=20,
            log_scale=0.03,
            candidates=40,
            k=8,
            cutoffs=(5,),
        )
        return build_trec_workload(scale, logs=("AOL", "MSN"))

    def test_both_logs_built(self, workload):
        assert set(workload.logs) == {"AOL", "MSN"}
        assert set(workload.miners) == {"AOL", "MSN"}

    def test_miners_trained(self, workload):
        assert workload.miner("AOL").recommender.is_trained

    def test_external_engine_is_prior_mixed(self, workload):
        external = workload.external_engine()
        assert isinstance(external, ExternalWebEngine)
        internal = workload.engine
        query = workload.corpus.topics[0].query
        assert external.search(query, 20).doc_ids != internal.search(
            query, 20
        ).doc_ids

    def test_zipf_stream_is_seeded_and_head_heavy(self, workload):
        stream = zipf_workload(workload, 300, seed=5)
        assert stream == zipf_workload(workload, 300, seed=5)
        assert len(stream) == 300
        head = workload.testbed.topics[0].query
        assert Counter(stream).most_common(1)[0][0] == head


class TestExternalWebEngine:
    def test_prior_is_deterministic(self, small_corpus):
        engine = ExternalWebEngine(small_corpus.collection)
        assert engine._prior("d000001") == engine._prior("d000001")
        assert engine._prior("d000001") != engine._prior("d000002")

    def test_pads_result_page(self, small_corpus):
        engine = ExternalWebEngine(small_corpus.collection)
        results = engine.search("zzz-no-match", k=30)
        assert len(results) == 30  # filled purely from the prior pool

    def test_prior_weight_validation(self, small_corpus):
        with pytest.raises(ValueError):
            ExternalWebEngine(small_corpus.collection, prior_weight=1.2)

    def test_zero_prior_weight_keeps_text_order(self, small_corpus):
        text_only = ExternalWebEngine(small_corpus.collection, prior_weight=0.0)
        query = small_corpus.topics[0].query
        from repro.retrieval.engine import SearchEngine
        from repro.retrieval.models import BM25

        reference = SearchEngine(small_corpus.collection, model=BM25())
        k = 10
        assert (
            text_only.search(query, k).doc_ids[:5]
            == reference.search(query, k).doc_ids[:5]
        )
