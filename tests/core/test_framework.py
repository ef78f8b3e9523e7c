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
from repro.experiments.workloads import PAPER_SCALE
from repro.retrieval.engine import EpochDelta
from repro.retrieval.similarity import TermVector
from repro.retrieval.store import read_warm_artifacts, write_store
from repro.serving.service import DiversificationService


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
        epoch = framework.engine.epoch
        first = {
            spec: framework._spec_results(spec, epoch)[0]
            for spec, _ in specializations
        }
        framework.diversify_query(ambiguous_topic.query)
        for spec, results in first.items():
            assert framework._spec_results(spec, epoch)[0] is results

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


# -- build_task vectorises only the R_q' results its candidates do not shadow ---


@pytest.fixture()
def vectorised(small_engine):
    """Every ``small_engine.snippet_vectors`` call while the test runs, as
    ``[(query, [doc_id, ...]), ...]``."""
    calls = []
    snippet_vectors = small_engine.snippet_vectors

    def recording(query, results):
        calls.append((query, [r.doc_id for r in results]))
        return snippet_vectors(query, results)

    small_engine.snippet_vectors = recording
    yield calls
    del small_engine.snippet_vectors


@pytest.fixture(scope="module")
def ambiguous_queries(small_corpus, small_miner):
    return [
        topic.query
        for topic in small_corpus.topics
        if small_miner.is_ambiguous(topic.query)
    ]


def spec_queries_of(framework, queries):
    return list(
        dict.fromkeys(s for q in queries for s, _ in framework.detect(q))
    )


def vectors_of(vectors):
    """A vector map with its keys and every vector's terms in order."""
    return [(d, list(v.weights.items())) for d, v in vectors.items()]


def partial_entries(framework):
    return [
        spec
        for spec, (_, results, vectors) in framework._spec_cache.snapshot()
        if results is not None and len(vectors) < len(results)
    ]


class TestShadowedSurrogates:
    """A candidate's q-biased vector shadows its q'-biased one in
    ``build_task``'s merge, so a cold query vectorises only the R_q'
    results outside R_q, and the cache entry it leaves may lack the rest
    until a caller without those candidates, or an export, completes it."""

    def test_a_cold_task_vectorises_only_results_outside_r_q(
        self, framework_factory, ambiguous_topic, vectorised
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        task = framework.build_task(query, specializations)
        candidates = set(task.candidates.doc_ids)
        (first, own), *rest = vectorised
        assert (first, own) == (query, task.candidates.doc_ids)
        by_spec = dict(rest)
        assert len(by_spec) == len(rest)  # each specialization at most once
        entries = {
            spec: framework._spec_cache.peek(spec) for spec, _ in specializations
        }
        assert {entry[0] for entry in entries.values()} == {framework.engine.epoch}
        results = {spec: entry[1] for spec, entry in entries.items()}
        for spec, spec_results in results.items():
            assert by_spec.get(spec, []) == [
                d for d in spec_results.doc_ids if d not in candidates
            ], spec
        assert sum(map(len, by_spec.values())) < sum(map(len, results.values()))
        assert partial_entries(framework)

    @pytest.mark.parametrize("algorithm", [OptSelect, XQuAD, IASelect, MMR])
    def test_cold_and_prewarmed_frameworks_build_the_same_task(
        self, framework_factory, ambiguous_queries, algorithm
    ):
        """One cold framework answers every query in turn, so later
        queries also meet entries earlier ones left partial."""
        cold = framework_factory(diversifier=algorithm())
        warm = framework_factory(diversifier=algorithm())
        warm.prefetch_specializations(spec_queries_of(warm, ambiguous_queries))
        k = cold.config.k
        for query in ambiguous_queries:
            specializations = cold.detect(query)
            got = cold.build_task(query, specializations)
            want = warm.build_task(query, specializations)
            assert vectors_of(got.vectors) == vectors_of(want.vectors), query
            for spec in want.utilities.specializations:
                assert got.utilities.useful_docs(spec) == (
                    want.utilities.useful_docs(spec)
                ), (query, spec)
            assert cold.diversifier.diversify(got, k) == (
                warm.diversifier.diversify(want, k)
            ), query
        assert warm.cache_info().misses == 0

    def test_a_second_query_vectorises_what_the_first_skipped_and_it_needs(
        self, framework_factory, ambiguous_topic, small_corpus, vectorised
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        first = framework.build_task(query, specializations)
        held = {
            spec: framework._spec_cache.peek(spec) for spec, _ in specializations
        }
        k = framework.config.candidates

        def needs_of(other):
            candidates = set(framework.engine.search(other, k).doc_ids)
            return {
                spec: [
                    d
                    for d in results.doc_ids
                    if d not in vectors and d not in candidates
                ]
                for spec, (_, results, vectors) in held.items()
            }

        other = next(
            topic.query
            for topic in small_corpus.topics
            if any(needs_of(topic.query).values())
        )
        needs = needs_of(other)
        vectorised.clear()
        misses = framework.cache_info().misses
        second = framework.build_task(other, specializations)
        (_, own), *rest = vectorised
        assert own == second.candidates.doc_ids
        by_spec = dict(rest)
        skipped = set(first.candidates.doc_ids)
        for spec, docs in needs.items():
            assert by_spec.get(spec, []) == docs, spec
            assert set(docs) <= skipped
            entry = framework._spec_cache.peek(spec)
            assert entry[0] == held[spec][0]  # the same epoch's entry
            assert entry[1] is held[spec][1]  # the held list, not a re-search
            assert all(held[spec][2][d] is entry[2][d] for d in held[spec][2])
        assert framework.cache_info().misses - misses == sum(
            bool(docs) for docs in needs.values()
        )

    def test_export_after_direct_queries_equals_a_fresh_prefetch(
        self, framework_factory, ambiguous_queries, tmp_path
    ):
        direct = framework_factory()
        for query in ambiguous_queries:
            direct.diversify_query(query)
        partial = partial_entries(direct)
        assert len(partial) > 1
        # A whole entry behind partial ones: completing them at export
        # must not move them past it.
        direct.prefetch_specializations(partial[:1])
        order, stats = list(direct._spec_cache), direct.cache_info()
        exported = direct.export_warm_state()
        assert list(direct._spec_cache) == order  # recency untouched
        assert direct.cache_info() == stats
        assert not partial_entries(direct)  # completed in place
        fresh = framework_factory()
        fresh.prefetch_specializations(spec_queries_of(fresh, ambiguous_queries))
        want = fresh.export_warm_state()
        assert exported.keys() == want.keys()
        for spec, (results, vectors) in exported.items():
            assert results.doc_ids == want[spec][0].doc_ids, spec
            assert results.scores == want[spec][0].scores, spec
            assert vectors_of(vectors) == vectors_of(want[spec][1]), spec

        store = write_store(
            tmp_path / "warm.sqlite3",
            direct.engine,
            {0: DiversificationService(direct).export_warm_payloads()},
        )
        shard = DiversificationService(framework_factory())
        assert shard.load_warm_store(store, 0) == len(exported)
        assert shard.warm(ambiguous_queries).fetched == 0
        got = shard.diversify_batch(ambiguous_queries)
        assert shard.framework.cache_info().misses == 0
        assert [r.ranking for r in got] == [
            direct.diversify_query(q).ranking for q in ambiguous_queries
        ]

    def test_install_replaces_a_partial_entry(
        self, framework_factory, ambiguous_topic
    ):
        query = ambiguous_topic.query
        donor = framework_factory()
        donor.prefetch_specializations(spec_queries_of(donor, [query]))
        receiver = framework_factory()
        receiver.build_task(query, receiver.detect(query))
        partial = partial_entries(receiver)
        assert partial
        artifacts = donor.export_warm_state()
        assert receiver.install_warm_state(artifacts) == len(partial)
        for spec in partial:
            assert receiver._spec_cache.peek(spec) == (
                receiver.engine.epoch, *artifacts[spec]
            )
        assert not partial_entries(receiver)

    def test_invalidate_drops_what_it_drops_on_whole_entries(
        self, framework_factory, ambiguous_topic, small_engine
    ):
        query = ambiguous_topic.query
        probe = framework_factory()
        task = probe.build_task(query, probe.detect(query))
        spec = partial_entries(probe)[0]
        _, results, vectors = probe._spec_cache.peek(spec)
        shadowed = next(d for d in results.doc_ids if d not in vectors)
        spec_terms = frozenset(small_engine.analyzer.analyze(spec))
        deltas = [
            EpochDelta(added=(shadowed,), removed=(shadowed,), stats_changed=False),
            EpochDelta(added=("alien0",), terms=spec_terms, stats_changed=False),
            EpochDelta(added=(task.candidates.doc_ids[-1],)),
            None,
        ]
        for delta in deltas:
            partial = framework_factory()
            partial.build_task(query, partial.detect(query))
            whole = framework_factory()
            whole.prefetch_specializations(spec_queries_of(whole, [query]))
            assert partial.invalidate_affected(delta) == (
                whole.invalidate_affected(delta)
            ), delta
            lists = [
                {s for s, (_, r, _) in f._spec_cache.snapshot() if r is not None}
                for f in (partial, whole)
            ]
            assert lists[0] == lists[1], delta
            kept = dict(whole._spec_cache.snapshot())
            for s, (_, _, held) in partial._spec_cache.snapshot():
                assert held.items() <= kept[s][2].items(), (delta, s)

    def test_an_empty_surrogate_vector_counts_as_present(
        self, framework_factory, ambiguous_topic, vectorised
    ):
        framework = framework_factory()
        spec = framework.detect(ambiguous_topic.query).items[0][0]
        framework.prefetch_specializations([spec])
        epoch, results, vectors = framework._spec_cache.peek(spec)
        doc, dropped = results.doc_ids[0], results.doc_ids[-1]
        empty = TermVector({})
        assert not empty and doc != dropped
        framework._spec_cache.put(
            spec,
            (
                epoch,
                results,
                {d: empty if d == doc else v for d, v in vectors.items() if d != dropped},
            ),
        )
        vectorised.clear()
        assert framework._spec_results(spec, epoch)[1][doc] is empty  # completed
        assert vectorised == [(spec, [dropped])]
        vectorised.clear()
        hits = framework.cache_info().hits
        assert framework._spec_results(spec, epoch)[1][doc] is empty
        assert framework.cache_info().hits == hits + 1
        assert framework.prefetch_specializations([spec]) == 0
        assert framework.export_warm_state()[spec][1][doc] is empty
        assert framework.invalidate_affected(EpochDelta(added=("alien0",))) == 1
        assert framework._spec_cache.peek(spec)[2][doc] is empty  # retained
        assert vectorised == []


# -- a query's own candidate vectors, kept for its next read ---------------------


class TestCandidateVectors:
    """``build_task`` keeps each query's candidate vectors, tagged with
    their epoch, in a store bounded to the vectors the spec cache can
    hold; the serving-side epoch tests are in ``tests/serving/test_ingest.py``."""

    def test_a_repeated_read_vectorises_no_candidate(
        self, framework_factory, ambiguous_topic, vectorised
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        first = framework.build_task(query, specializations)
        epoch, held = framework._candidate_vectors.peek(query)
        assert epoch == framework.engine.epoch
        assert list(held) == first.candidates.doc_ids
        assert all(held[d] is first.vectors[d] for d in held)
        vectorised.clear()
        stats = framework.cache_info()
        second = framework.build_task(query, specializations)
        assert [q for q, _ in vectorised] == []  # every spec entry serves it too
        assert vectors_of(second.vectors) == vectors_of(first.vectors)
        assert framework.cache_info().hits == stats.hits + len(specializations)
        assert framework.cache_info().misses == stats.misses

    @pytest.mark.parametrize("spec_cache_size", [1, 16, 4096])
    def test_the_store_holds_no_more_vectors_than_the_spec_cache(
        self, framework_factory, ambiguous_queries, spec_cache_size
    ):
        config = FrameworkConfig(k=10, candidates=12, spec_results=10)
        framework = framework_factory(config=config, spec_cache_size=spec_cache_size)
        bound = max(1, spec_cache_size * config.spec_results // config.candidates)
        assert framework._candidate_vectors.maxsize == bound
        queries = ambiguous_queries * 2
        for query in queries:
            framework.build_task(query, framework.detect(query))
        entries = framework._candidate_vectors.snapshot()
        assert len(entries) == min(bound, len(set(queries)))
        assert [q for q, _ in entries] == list(
            dict.fromkeys(reversed(queries))
        )[: len(entries)][::-1]  # the most recently read queries
        held = sum(len(vectors) for _, (_, vectors) in entries)
        assert held <= max(config.candidates, spec_cache_size * config.spec_results)

    def test_bench_and_paper_scale_bounds(self, framework_factory):
        for config, bound in [
            (FrameworkConfig(k=20, candidates=30, spec_results=8), 1092),
            (FrameworkConfig(k=100, candidates=PAPER_SCALE.candidates), 204),
        ]:
            assert framework_factory(config=config)._candidate_vectors.maxsize == bound

    def test_an_unknown_change_empties_the_store(
        self, framework_factory, ambiguous_queries
    ):
        framework = framework_factory()
        for query in ambiguous_queries:
            framework.build_task(query, framework.detect(query))
        assert len(framework._candidate_vectors) == len(ambiguous_queries)
        framework.invalidate_affected(None)
        assert len(framework._candidate_vectors) == 0

    def test_a_sweep_drops_changed_vectors_and_retags(
        self, framework_factory, ambiguous_topic
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        task = framework.build_task(query, framework.detect(query))
        changed = task.candidates.doc_ids[0]
        framework.invalidate_affected(
            EpochDelta(added=(changed,), removed=(changed,), stats_changed=False)
        )
        epoch, held = framework._candidate_vectors.peek(query)
        assert epoch == framework.engine.epoch
        assert list(held) == task.candidates.doc_ids[1:]
        framework._candidate_vectors.put(query, (epoch, {changed: task.vectors[changed]}))
        framework.invalidate_affected(EpochDelta(removed=(changed,)))
        assert framework._candidate_vectors.peek(query) is None  # left empty

    def test_warm_state_never_sees_candidate_vectors(
        self, framework_factory, ambiguous_queries, tmp_path
    ):
        """Export, its store rows and install are the spec cache's alone;
        the memory estimate prices the candidate vectors as vectors."""
        served = framework_factory()
        for query in ambiguous_queries:
            served.build_task(query, served.detect(query))
        bare = framework_factory()
        for query in ambiguous_queries:
            bare.build_task(query, bare.detect(query))
        bare._candidate_vectors.clear()
        assert len(served._candidate_vectors) == len(ambiguous_queries)
        payloads = DiversificationService(served).export_warm_payloads()
        assert payloads == DiversificationService(bare).export_warm_payloads()
        assert not set(payloads) & set(ambiguous_queries)
        store = write_store(
            tmp_path / "warm.sqlite3", served.engine, {0: payloads}
        )
        rows = read_warm_artifacts(store, 0)
        assert rows.keys() == payloads.keys()
        receiver = framework_factory()
        assert receiver.install_warm_state(rows) == len(rows)
        assert len(receiver._candidate_vectors) == 0

        with_candidates = served.warm_memory_estimate()
        without = bare.warm_memory_estimate()
        candidate_vectors = sum(
            len(v) for _, (_, v) in served._candidate_vectors.snapshot()
        )
        assert with_candidates["vectors"] == without["vectors"] + candidate_vectors
        assert with_candidates["specializations"] == without["specializations"]
        assert with_candidates["results"] == without["results"]
        assert with_candidates["vector_bytes"] > without["vector_bytes"]
