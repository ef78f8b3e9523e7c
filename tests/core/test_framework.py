"""Tests for the end-to-end diversification framework."""

from __future__ import annotations

import pickle

import pytest

from repro.core.ambiguity import SpecializationSet
from repro.core.framework import (
    DiversificationFramework,
    FrameworkConfig,
    default_diversifier,
    get_diversifier,
)
from repro.core.iaselect import IASelect
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.xquad import XQuAD


class TestGetDiversifier:
    def test_registry(self):
        # use_fast defaults to False: the instrumented references, which
        # are what the complexity experiments measure.
        assert type(get_diversifier("optselect")) is OptSelect
        assert isinstance(get_diversifier("XQUAD"), XQuAD)
        assert isinstance(get_diversifier("IASelect"), IASelect)
        assert isinstance(get_diversifier("mmr"), MMR)

    def test_kwargs_forwarded(self):
        algo = get_diversifier("optselect", strict_paper_pseudocode=True)
        assert algo.strict_paper_pseudocode

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown diversifier"):
            get_diversifier("pagerank")

    def test_use_fast_returns_kernel_variant(self):
        from repro.core.fast import FastOptSelect, FastXQuAD

        assert type(get_diversifier("optselect", use_fast=True)) is FastOptSelect
        assert type(get_diversifier("xquad", use_fast=True)) is FastXQuAD

    def test_use_fast_auto_detects(self):
        from repro.core.fast import FastOptSelect

        assert type(get_diversifier("optselect", use_fast=None)) is FastOptSelect


class TestFastKernelDefaults:
    def test_default_is_fast_when_numpy_present(self):
        from repro.core.fast import FastOptSelect

        assert type(default_diversifier()) is FastOptSelect

    def test_framework_inherits_fast_default(self, small_engine, small_miner):
        from repro.core.fast import FastOptSelect

        framework = DiversificationFramework(small_engine, small_miner)
        assert type(framework.diversifier) is FastOptSelect

    def test_use_fast_false_pins_reference(self, small_engine, small_miner):
        framework = DiversificationFramework(
            small_engine, small_miner, use_fast=False
        )
        assert type(framework.diversifier) is OptSelect

    def test_fast_default_framework_matches_reference_rankings(
        self, small_engine, small_miner, framework_factory, standard_config,
        small_corpus
    ):
        fast = DiversificationFramework(
            small_engine, small_miner, config=standard_config
        )
        reference = framework_factory()
        for topic in small_corpus.topics:
            assert (
                fast.diversify_query(topic.query).ranking
                == reference.diversify_query(topic.query).ranking
            )


class TestFrameworkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(candidates=0),
            dict(spec_results=-1),
            dict(lambda_=2.0),
            dict(threshold=-0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FrameworkConfig(**kwargs)


class TestPipeline:
    def test_ambiguous_query_is_diversified(
        self, small_framework, ambiguous_topic
    ):
        result = small_framework.diversify_query(ambiguous_topic.query)
        assert result.diversified
        assert result.algorithm == "OptSelect"
        assert len(result.ranking) == small_framework.config.k
        assert small_framework.build_task(
            result.query, result.specializations
        ) is not None
        assert len(result.specializations) >= 2

    def test_unambiguous_query_returns_baseline(self, small_framework):
        result = small_framework.diversify_query("zzz unknown query")
        assert not result.diversified
        assert result.ranking == []

    def test_rankings_drawn_from_baseline_candidates(
        self, small_framework, ambiguous_topic
    ):
        result = small_framework.diversify_query(ambiguous_topic.query)
        assert set(result.ranking) <= set(result.baseline.doc_ids)

    def test_result_is_an_answer_not_its_task(self, small_framework, small_corpus):
        """Results fill the result caches and cross process boundaries;
        the task behind one (every candidate's surrogate vector and
        utility row) is several times the answer and is not kept."""
        for topic in small_corpus.topics:
            result = small_framework.diversify_query(topic.query)
            assert result.diversified
            assert len(pickle.dumps(result)) < 8 * 1024

    def test_empty_specializations_are_not_diversified(self, small_engine):
        class FakeMiner:
            def mine(self, query):
                return SpecializationSet(query=query, items=())

        framework = DiversificationFramework(small_engine, FakeMiner())
        result = framework.diversify_query("whatever")
        assert not result.diversified

    def test_spec_list_cache_reused(self, small_engine, small_miner, ambiguous_topic):
        framework = DiversificationFramework(
            small_engine,
            small_miner,
            config=FrameworkConfig(k=5, candidates=50, spec_results=5),
        )
        framework.diversify_query(ambiguous_topic.query)
        specializations = framework.detect(ambiguous_topic.query)
        first = {
            spec: framework._spec_results(spec)[0]
            for spec, _ in specializations
        }
        framework.diversify_query(ambiguous_topic.query)
        for spec, results in first.items():
            assert framework._spec_results(spec)[0] is results

    def test_cache_info_counts_hits_and_misses(
        self, small_engine, small_miner, ambiguous_topic
    ):
        framework = DiversificationFramework(
            small_engine,
            small_miner,
            config=FrameworkConfig(k=5, candidates=50, spec_results=5),
        )
        assert framework.cache_info().hits == 0
        framework.diversify_query(ambiguous_topic.query)
        cold = framework.cache_info()
        assert cold.misses > 0 and cold.size > 0
        framework.diversify_query(ambiguous_topic.query)
        warm = framework.cache_info()
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits

    def test_spec_cache_is_bounded(self, small_engine, small_miner, ambiguous_topic):
        framework = DiversificationFramework(
            small_engine,
            small_miner,
            config=FrameworkConfig(k=5, candidates=50, spec_results=5),
            spec_cache_size=1,
        )
        framework.diversify_query(ambiguous_topic.query)
        info = framework.cache_info()
        assert info.size == 1
        assert info.evictions == info.misses - 1

    def test_prefetch_specializations_warms_cache(
        self, small_engine, small_miner, ambiguous_topic
    ):
        framework = DiversificationFramework(
            small_engine,
            small_miner,
            config=FrameworkConfig(k=5, candidates=50, spec_results=5),
        )
        specializations = framework.detect(ambiguous_topic.query)
        spec_queries = [spec for spec, _ in specializations]
        fetched = framework.prefetch_specializations(spec_queries)
        assert fetched == len(set(spec_queries))
        assert framework.prefetch_specializations(spec_queries) == 0
        framework.diversify_query(ambiguous_topic.query)
        assert framework.cache_info().hits >= len(spec_queries)

    def test_task_vectors_populated_for_mmr(
        self, small_engine, small_miner, ambiguous_topic
    ):
        framework = DiversificationFramework(
            small_engine,
            small_miner,
            MMR(),
            FrameworkConfig(k=5, candidates=50, spec_results=5),
        )
        result = framework.diversify_query(ambiguous_topic.query)
        assert result.diversified
        task = framework.build_task(result.query, result.specializations)
        assert task.vectors

    def test_threshold_flows_into_matrix(
        self, small_engine, small_miner, ambiguous_topic
    ):
        framework = DiversificationFramework(
            small_engine,
            small_miner,
            config=FrameworkConfig(k=5, candidates=50, spec_results=5, threshold=0.4),
        )
        result = framework.diversify_query(ambiguous_topic.query)
        task = framework.build_task(result.query, result.specializations)
        assert task.utilities.threshold == 0.4

    def test_algorithms_produce_different_rankings_sometimes(
        self, framework_factory, small_corpus
    ):
        """Across the detectable topics, at least one query must separate
        OptSelect from the baseline ranking — otherwise the pipeline is
        inert."""
        framework = framework_factory()
        differs = 0
        for topic in small_corpus.topics:
            result = framework.diversify_query(topic.query)
            if result.diversified and result.ranking != result.baseline.doc_ids[:10]:
                differs += 1
        assert differs >= 1

    def test_result_k_property(self, small_framework, ambiguous_topic):
        result = small_framework.diversify_query(ambiguous_topic.query)
        assert result.k == len(result.ranking)


class TestWarmMemoryEstimate:
    def _warmed(self, framework_factory, ambiguous_topic):
        framework = framework_factory()
        spec_queries = [spec for spec, _ in framework.detect(ambiguous_topic.query)]
        framework.prefetch_specializations(spec_queries)
        return framework

    def test_cold_framework_estimates_zero(self, framework_factory):
        assert framework_factory().warm_memory_estimate() == {
            "specializations": 0,
            "results": 0,
            "vectors": 0,
            "result_bytes": 0,
            "vector_bytes": 0,
            "total_bytes": 0,
        }

    def test_counts_match_the_exported_artifacts(
        self, framework_factory, ambiguous_topic
    ):
        framework = self._warmed(framework_factory, ambiguous_topic)
        artifacts = framework.export_warm_state()
        estimate = framework.warm_memory_estimate()
        assert estimate["specializations"] == len(artifacts) > 0
        assert estimate["results"] == sum(len(r) for r, _ in artifacts.values())
        assert estimate["vectors"] == sum(len(v) for _, v in artifacts.values())

    def test_total_is_results_plus_vectors(
        self, framework_factory, ambiguous_topic
    ):
        estimate = self._warmed(
            framework_factory, ambiguous_topic
        ).warm_memory_estimate()
        assert estimate["result_bytes"] > 0 and estimate["vector_bytes"] > 0
        assert estimate["total_bytes"] == (
            estimate["result_bytes"] + estimate["vector_bytes"]
        )

    def test_grows_with_each_warmed_specialization(
        self, framework_factory, ambiguous_topic
    ):
        framework = framework_factory()
        spec_queries = [spec for spec, _ in framework.detect(ambiguous_topic.query)]
        framework.prefetch_specializations(spec_queries[:1])
        one = framework.warm_memory_estimate()
        framework.prefetch_specializations(spec_queries)
        every = framework.warm_memory_estimate()
        assert one["specializations"] == 1
        assert every["specializations"] == len(set(spec_queries))
        assert every["total_bytes"] > one["total_bytes"]

    def test_installed_state_estimates_like_its_donor(
        self, framework_factory, ambiguous_topic
    ):
        donor = self._warmed(framework_factory, ambiguous_topic)
        receiver = framework_factory()
        receiver.install_warm_state(donor.export_warm_state())
        assert receiver.warm_memory_estimate() == donor.warm_memory_estimate()
