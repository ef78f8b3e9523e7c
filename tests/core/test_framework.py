"""Tests for the end-to-end diversification framework."""

from __future__ import annotations

import pickle
import random
import tracemalloc

import pytest

from repro.core import utility as utility_module
from repro.core.ambiguity import SpecializationSet
from repro.core.cache import LRUCache
from repro.core.framework import (
    DiversificationFramework,
    FrameworkConfig,
    default_diversifier,
    get_diversifier,
)
from repro.core.iaselect import IASelect
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.utility import UtilityMatrix, UtilityMemo
from repro.core.xquad import XQuAD
from repro.experiments.workloads import PAPER_SCALE
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import ResultList, SearchEngine
from repro.retrieval.similarity import TermVector
from repro.retrieval.store import (
    StoreBackedSearchEngine,
    read_warm_artifacts,
    write_store,
)
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
            spec: framework._spec_results(spec, epoch)
            for spec, _ in specializations
        }
        framework.diversify_query(ambiguous_topic.query)
        for spec, results in first.items():
            assert framework._spec_results(spec, epoch) is results

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


def memoised(framework):
    """The surrogate memo's ``(query, seq)`` keys."""
    return {key for key, _ in framework._surrogates.snapshot()}


def incomplete_lists(framework):
    """Specializations whose cached list has a result the memo holds no
    vector for (one a direct query's candidates shadowed)."""
    keys = memoised(framework)
    return [
        spec
        for spec, (_, results) in framework._spec_cache.snapshot()
        if any((spec, seq) not in keys for seq in results.seqs)
    ]


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
            "utilities": 0,
            "result_bytes": 0,
            "vector_bytes": 0,
            "utility_bytes": 0,
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
        assert estimate["vectors"] == len(
            {id(v) for _, vectors in artifacts.values() for v in vectors.values()}
        )

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

    def test_a_read_adds_its_utility_entries_to_the_total(
        self, framework_factory, ambiguous_topic
    ):
        framework = self._warmed(framework_factory, ambiguous_topic)
        warmed = framework.warm_memory_estimate()
        assert warmed["utilities"] == warmed["utility_bytes"] == 0
        query = ambiguous_topic.query
        framework.build_task(query, framework.detect(query))
        estimate = framework.warm_memory_estimate()
        assert estimate["utilities"] == len(framework._utilities) > 0
        assert estimate["result_bytes"] > 0 and estimate["vector_bytes"] > 0
        assert estimate["utility_bytes"] > 0
        assert estimate["total_bytes"] == (
            estimate["result_bytes"]
            + estimate["vector_bytes"]
            + estimate["utility_bytes"]
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

    def test_vector_bytes_are_what_the_memos_vectors_allocate(
        self, framework_factory, ambiguous_queries
    ):
        """Each distinct vector is priced once — a document-order vector
        is shared by every query whose windows keep that order — as its
        object, dict and floats: the term strings are the forward
        index's.  The estimate holds within 25% of what rebuilding those
        vectors allocates (term strings shared, floats fresh)."""
        framework = framework_factory()
        framework.prefetch_specializations(
            spec_queries_of(framework, ambiguous_queries)
        )
        for query in ambiguous_queries:
            framework.build_task(query, framework.detect(query))

        def distinct_held():
            held = [vector for _, vector in framework._surrogates.snapshot()]
            return held, list({id(v): v for v in held}.values())

        held, distinct = distinct_held()
        (query, seq), shared = framework._surrogates.snapshot()[0]
        framework._surrogates.put((query + " again", seq), shared)
        more, distinct_after = distinct_held()
        assert len(more) == len(held) + 1
        assert len(distinct_after) == len(distinct)
        distinct = distinct_after
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            copies = [
                TermVector.from_normalized(
                    {term: weight + 0.0 for term, weight in v.weights.items()}
                )
                for v in distinct
            ]
            measured = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(copies) == len(distinct)
        estimate = framework.warm_memory_estimate()
        assert estimate["vectors"] == len(distinct)
        assert 0.75 * measured <= estimate["vector_bytes"] <= 1.25 * measured

    def test_utility_bytes_are_what_the_memos_entries_allocate(
        self, framework_factory, ambiguous_queries
    ):
        """Each utility entry is priced as its tuples, its centroid's
        dict and floats and its cells' dict and floats; within 25% of
        what rebuilding the entries allocates (terms, queries and seqs
        shared, floats and tuples fresh)."""
        framework = framework_factory()
        for query in ambiguous_queries:
            framework.build_task(query, framework.detect(query))
        entries = [entry for _, entry in framework._utilities.snapshot()]
        assert entries
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            copies = [
                (
                    tuple((bias, seq) for bias, seq in key),
                    {term: weight + 0.0 for term, weight in centroid.items()},
                    {seq: value + 0.0 for seq, value in cells.items()},
                )
                for key, centroid, cells in entries
            ]
            measured = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(copies) == len(entries)
        estimate = framework.warm_memory_estimate()
        assert estimate["utilities"] == len(entries)
        assert 0.75 * measured <= estimate["utility_bytes"] <= 1.25 * measured


# -- build_task vectorises only the R_q' results its candidates do not shadow ---


@pytest.fixture()
def vectorised(small_engine):
    """Every ``small_engine.versioned_vectors`` call (the framework's one
    vectorisation) while the test runs, as ``[(query, [doc_id, ...]),
    ...]``."""
    calls = []
    versioned_vectors = small_engine.versioned_vectors

    def recording(query, results):
        calls.append((query, [r.doc_id for r in results]))
        return versioned_vectors(query, results)

    small_engine.versioned_vectors = recording
    yield calls
    del small_engine.versioned_vectors


class TestShadowedSurrogates:
    """A candidate's q-biased vector shadows its q'-biased one in
    ``build_task``'s merge, so a cold query vectorises only the R_q'
    results outside R_q, and the memo lacks the rest until a caller
    without those candidates, or an export, builds them."""

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
        assert {tag for tag, _ in entries.values()} == {framework.engine.epoch}
        results = {spec: entry[1] for spec, entry in entries.items()}
        for spec, spec_results in results.items():
            assert by_spec.get(spec, []) == [
                d for d in spec_results.doc_ids if d not in candidates
            ], spec
        assert sum(map(len, by_spec.values())) < sum(map(len, results.values()))
        assert incomplete_lists(framework)
        assert memoised(framework) == {
            (query, seq) for seq in task.candidates.seqs
        } | {
            (spec, seq)
            for spec, spec_results in results.items()
            for d, seq in zip(spec_results.doc_ids, spec_results.seqs)
            if d not in candidates
        }

    @pytest.mark.parametrize("algorithm", [OptSelect, XQuAD, IASelect, MMR])
    def test_cold_and_prewarmed_frameworks_build_the_same_task(
        self, framework_factory, ambiguous_queries, algorithm
    ):
        """One cold framework answers every query in turn, so later
        queries also meet lists earlier ones left incomplete."""
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
        built = dict(framework._surrogates.snapshot())
        k = framework.config.candidates

        def needs_of(other):
            candidates = set(framework.engine.search(other, k).doc_ids)
            return {
                spec: [
                    d
                    for d, seq in zip(results.doc_ids, results.seqs)
                    if (spec, seq) not in built and d not in candidates
                ]
                for spec, (_, results) in held.items()
            }

        other = next(
            topic.query
            for topic in small_corpus.topics
            if any(needs_of(topic.query).values())
        )
        needs = needs_of(other)
        vectorised.clear()
        stats = framework.cache_info()
        second = framework.build_task(other, specializations)
        (_, own), *rest = vectorised
        assert own == second.candidates.doc_ids
        by_spec = dict(rest)
        skipped = set(first.candidates.doc_ids)
        for spec, docs in needs.items():
            assert by_spec.get(spec, []) == docs, spec
            assert set(docs) <= skipped
            assert framework._spec_cache.peek(spec) is held[spec]  # no re-search
        for key, vector in built.items():
            assert framework._surrogates.peek(key) is vector
        after = framework.cache_info()
        assert after.misses == stats.misses
        assert after.hits == stats.hits + len(specializations)

    def test_export_after_direct_queries_equals_a_fresh_prefetch(
        self, framework_factory, ambiguous_queries, tmp_path
    ):
        direct = framework_factory()
        for query in ambiguous_queries:
            direct.diversify_query(query)
        incomplete = incomplete_lists(direct)
        assert len(incomplete) > 1
        order, stats = list(direct._spec_cache), direct.cache_info()
        exported = direct.export_warm_state()
        assert list(direct._spec_cache) == order  # recency untouched
        assert direct.cache_info() == stats
        assert not incomplete_lists(direct)  # the memo now holds the rest
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

    def test_install_completes_an_incomplete_list(
        self, framework_factory, ambiguous_topic
    ):
        """Installed lists carry the seqs the donor's search returned,
        and their vectors are memoised under them."""
        query = ambiguous_topic.query
        donor = framework_factory()
        donor.prefetch_specializations(spec_queries_of(donor, [query]))
        receiver = framework_factory()
        receiver.build_task(query, receiver.detect(query))
        incomplete = incomplete_lists(receiver)
        assert incomplete
        artifacts = donor.export_warm_state()
        assert receiver.install_warm_state(artifacts) == len(incomplete)
        for spec in incomplete:
            tag, results = receiver._spec_cache.peek(spec)
            assert tag == receiver.engine.epoch
            assert results.doc_ids == artifacts[spec][0].doc_ids
            assert results.scores == artifacts[spec][0].scores
            assert results.seqs == artifacts[spec][0].seqs
            for d, seq in zip(results.doc_ids, results.seqs):
                assert receiver._surrogates.peek((spec, seq)) is artifacts[spec][1][d]
        assert not incomplete_lists(receiver)
        assert receiver.install_warm_state(artifacts) == 0

    def test_a_drop_takes_the_same_lists_and_never_touches_the_memo(
        self, framework_factory, ambiguous_topic
    ):
        """A partial list (one whose candidates shadowed vectors) and a
        whole one drop alike; the memo keeps every vector."""
        query = ambiguous_topic.query
        partial = framework_factory()
        partial.build_task(query, partial.detect(query))
        assert incomplete_lists(partial)
        whole = framework_factory()
        whole.prefetch_specializations(spec_queries_of(whole, [query]))
        memo = [f._surrogates.snapshot() for f in (partial, whole)]
        held = len(partial._spec_cache)
        for framework in (partial, whole):
            assert framework.drop_before(framework.engine.epoch + 1) == held
            assert len(framework._spec_cache) == 0
        assert [f._surrogates.snapshot() for f in (partial, whole)] == memo

    def test_an_empty_surrogate_vector_counts_as_present(
        self, framework_factory, ambiguous_topic, vectorised
    ):
        framework = framework_factory()
        spec = framework.detect(ambiguous_topic.query).items[0][0]
        framework.prefetch_specializations([spec])
        epoch, results = framework._spec_cache.peek(spec)
        doc, key = results.doc_ids[0], (spec, results.seqs[0])
        empty = TermVector({})
        assert not empty
        framework._surrogates.put(key, empty)
        vectorised.clear()
        assert framework._vectors(spec, results)[doc] is empty
        assert framework.prefetch_specializations([spec]) == 0
        assert framework.export_warm_state()[spec][1][doc] is empty
        assert framework.drop_before(framework.engine.epoch + 1) == 1
        assert framework._surrogates.peek(key) is empty
        assert vectorised == []


# -- one memo for every surrogate vector, keyed by (query, seq) -------------------


class TestSurrogateMemo:
    """``build_task`` reuses a vector iff its ``(query, seq)`` was built
    before; nothing sweeps the memo, eviction bounds it.  The serving-side
    epoch tests are in ``tests/serving/test_ingest.py``."""

    def test_a_repeated_read_vectorises_nothing(
        self, framework_factory, ambiguous_topic, vectorised
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        first = framework.build_task(query, specializations)
        for d, seq in zip(first.candidates.doc_ids, first.candidates.seqs):
            assert framework._surrogates.peek((query, seq)) is first.vectors[d]
        vectorised.clear()
        stats = framework.cache_info()
        second = framework.build_task(query, specializations)
        assert vectorised == []
        assert list(second.vectors) == list(first.vectors)
        assert all(second.vectors[d] is v for d, v in first.vectors.items())
        assert framework.cache_info().hits == stats.hits + len(specializations)
        assert framework.cache_info().misses == stats.misses

    @pytest.mark.parametrize("spec_cache_size", [1, 4, 4096])
    def test_the_memo_holds_twice_what_the_spec_lists_hold(
        self, framework_factory, ambiguous_queries, spec_cache_size
    ):
        config = FrameworkConfig(k=10, candidates=12, spec_results=10)
        queries = ambiguous_queries * 2

        def served(size):
            framework = framework_factory(config=config, spec_cache_size=size)
            for query in queries:
                framework.build_task(query, framework.detect(query))
            return framework

        built = len(served(10**6)._surrogates)
        framework = served(spec_cache_size)
        bound = 2 * spec_cache_size * config.spec_results
        assert framework._surrogates.maxsize == bound
        assert len(framework._surrogates) == min(bound, built)
        assert (framework._surrogates.stats().evictions > 0) == (bound < built)

    def test_bench_and_paper_scale_bounds(self, framework_factory):
        for config, bound in [
            (FrameworkConfig(k=20, candidates=30, spec_results=8), 65_536),
            (FrameworkConfig(k=100, candidates=PAPER_SCALE.candidates), 163_840),
        ]:
            assert framework_factory(config=config)._surrogates.maxsize == bound

    def test_no_drop_touches_the_memo(
        self, framework_factory, ambiguous_queries, vectorised
    ):
        framework = framework_factory()
        tasks = {
            query: framework.build_task(query, framework.detect(query))
            for query in ambiguous_queries
        }
        held = framework._surrogates.snapshot()
        assert framework.drop_before(framework.engine.epoch + 1) > 0
        assert framework._surrogates.snapshot() == held
        vectorised.clear()
        for query, task in tasks.items():
            again = framework.build_task(query, framework.detect(query))
            assert vectors_of(again.vectors) == vectors_of(task.vectors), query
        assert vectorised == []  # the same snapshot: every (query, seq) built

    def test_a_drop_at_the_current_epoch_keeps_every_list(
        self, framework_factory, ambiguous_queries
    ):
        """``drop_before`` of the epoch the lists were searched at drops
        none of them: each stays, the same object, and the next read of
        every specialization is a hit."""
        framework = framework_factory()
        for query in ambiguous_queries:
            framework.build_task(query, framework.detect(query))
        held = framework._spec_cache.snapshot()
        assert held
        stats = framework.cache_info()
        assert framework.drop_before(framework.engine.epoch) == 0
        after = framework._spec_cache.snapshot()
        assert [key for key, _ in after] == [key for key, _ in held]
        assert all(a is b for (_, a), (_, b) in zip(after, held))
        for query in ambiguous_queries:
            framework.build_task(query, framework.detect(query))
        assert framework.cache_info().misses == stats.misses

    def test_a_drop_counts_only_the_lists_tagged_before_its_epoch(
        self, framework_factory, ambiguous_queries
    ):
        framework = framework_factory()
        for query in ambiguous_queries:
            framework.build_task(query, framework.detect(query))
        cache = framework._spec_cache
        epoch = framework.engine.epoch
        keys = list(cache)
        newer = set(keys[::2])
        for key in newer:
            cache.put(key, (epoch + 1, cache.peek(key)[1]), refresh=False)
        assert framework.drop_before(epoch + 1) == len(keys) - len(newer)
        assert list(cache) == [key for key in keys if key in newer]
        assert framework.drop_before(epoch + 1) == 0

    def test_a_specialization_that_analyses_to_nothing_has_no_results(
        self, framework_factory, ambiguous_topic
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        spec = framework.detect(query).items[0][0]
        specializations = SpecializationSet.from_frequencies(
            query, {spec: 3, "the of and": 1}
        )
        task = framework.build_task(query, specializations)
        assert task is not None
        _, empty = framework._spec_cache.peek("the of and")
        assert (len(empty), empty.seqs) == (0, [])
        want = framework_factory().build_task(
            query, SpecializationSet.from_frequencies(query, {spec: 1})
        )
        assert vectors_of(task.vectors) == vectors_of(want.vectors)

    def test_a_list_without_seqs_is_refused(self, framework_factory, ambiguous_topic):
        framework = framework_factory()
        query = ambiguous_topic.query
        results = framework.engine.search(query, 5)
        by_hand = ResultList(query, zip(results.doc_ids, results.scores))
        with pytest.raises(ValueError, match="carries no seqs"):
            framework._vectors(query, by_hand)

    def test_warm_state_never_sees_candidate_vectors(
        self, framework_factory, ambiguous_queries, tmp_path
    ):
        """Export, its store rows and install are the spec lists' alone;
        the memory estimate prices every distinct vector the memo holds."""
        served = framework_factory()
        for query in ambiguous_queries:
            served.build_task(query, served.detect(query))
        bare = framework_factory()
        bare.prefetch_specializations(spec_queries_of(bare, ambiguous_queries))
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
        assert {query for query, _ in memoised(receiver)} == set(rows)
        assert memoised(receiver) == memoised(bare)

        with_candidates = served.warm_memory_estimate()
        without = bare.warm_memory_estimate()
        assert with_candidates["vectors"] == len(
            {id(v) for _, v in served._surrogates.snapshot()}
        )
        assert with_candidates["vectors"] > without["vectors"]
        assert with_candidates["specializations"] == without["specializations"]
        assert with_candidates["results"] == without["results"]
        assert with_candidates["vector_bytes"] > without["vector_bytes"]


# -- one utility memo entry per (query, spec_query), keyed by what it read -------


@pytest.fixture()
def centroids(monkeypatch):
    """The spec query of every centroid ``UtilityMatrix.build`` sums while
    the test runs."""
    calls = []
    centroid = utility_module._centroid

    def recording(results, vectors):
        calls.append(results.query)
        return centroid(results, vectors)

    monkeypatch.setattr(utility_module, "_centroid", recording)
    return calls


def nonzero(matrix):
    """Which cells of *matrix* are stored, in order."""
    return {spec: list(row) for spec, row in matrix._by_spec.items()}


#: The surrogates of the hand-made reads of "q", by memo key.
SURROGATES = {
    ("q", 1): "apple pie crust",
    ("q", 2): "apple cider press",
    ("q", 3): "pie chart data",
    ("q", 4): "cider vinegar apple",
    ("q", 10): "apple orchard tour",
    ("s", 2): "cider press apple orchard",
    ("s", 10): "apple orchard cider",
    ("s", 11): "pie crust butter",
    ("s", 12): "apple pie recipe apple",
    ("r", 11): "butter crust flaky",
    ("r", 20): "chart data plot",
    ("r", 21): "pie chart pie",
}


def hand_read(entries, candidate_seqs, lists, threshold=0.0):
    """One read of "q" through ``build`` with *entries* as its memo, with
    the framework's merge: a candidate's vector is q-biased and shadows
    any other, else the first list holding a document lends its own.
    Returns ``(matrix, origins, cold)``, *cold* building the same inputs
    without the memo."""

    def result_list(query, seqs):
        return ResultList(query, [(f"d{seq}", 1.0) for seq in seqs], seqs)

    candidates = result_list("q", candidate_seqs)
    origins = {f"d{seq}": ("q", seq) for seq in candidate_seqs}
    spec_results = {}
    for spec, seqs in lists.items():
        spec_results[spec] = result_list(spec, seqs)
        for seq in seqs:
            origins.setdefault(f"d{seq}", (spec, seq))
    vectors = {
        doc_id: TermVector.from_terms(SURROGATES[origin].split())
        for doc_id, origin in origins.items()
    }
    memo = UtilityMemo(entries, "q", origins)
    matrix = UtilityMatrix.build(
        candidates, spec_results, vectors, threshold=threshold, memo=memo
    )
    return matrix, origins, lambda: UtilityMatrix.build(
        candidates, spec_results, vectors, threshold=threshold
    )


FIRST_READ = ([1, 2, 3, 4], {"r": [20, 21], "s": [10, 2, 11]})


class TestUtilityMemo:
    """``build`` reuses a centroid iff its list's key — its results'
    surrogate-memo keys in rank order — is the entry's, and a cell iff
    the entry holds its candidate's seq; a read that dots a cell stores
    its list's entry with its own candidates' cells only."""

    @pytest.mark.parametrize("threshold", [0.0, 0.4])
    @pytest.mark.parametrize(
        "candidate_seqs, lists, summed",
        [
            pytest.param(*FIRST_READ, [], id="unchanged"),
            pytest.param(
                [1, 2, 3, 4], {"r": [20, 21], "s": [11, 2, 10]}, ["s"], id="reorders"
            ),
            pytest.param(
                [1, 2, 3, 4, 10], FIRST_READ[1], ["s"], id="gains-a-shadowed-doc"
            ),
            pytest.param([1, 3, 4], FIRST_READ[1], ["s"], id="loses-a-shadowed-doc"),
            pytest.param(
                [1, 2, 3, 4],
                {"r": [20, 21], "s": [10, 2, 11, 12]},
                ["s"],
                id="changes-length",
            ),
            pytest.param([1, 2, 3, 4], {"r": [20, 21], "s": []}, ["s"], id="empties"),
            pytest.param(
                [1, 2, 3, 4],
                {"r": [20, 11], "s": [10, 2, 11]},
                ["r", "s"],
                id="borrows-another-lists-vector",
            ),
        ],
    )
    def test_a_second_read_equals_a_cold_build_and_replaces_changed_entries(
        self, centroids, candidate_seqs, lists, summed, threshold
    ):
        entries = LRUCache(8)
        matrix, _, cold = hand_read(entries, *FIRST_READ, threshold)
        assert centroids == ["r", "s"]
        assert matrix._by_spec == cold()._by_spec
        assert any(row for row in matrix._by_spec.values())
        centroids.clear()
        matrix, origins, cold = hand_read(entries, candidate_seqs, lists, threshold)
        assert centroids == summed
        assert matrix._by_spec == cold()._by_spec
        assert nonzero(matrix) == nonzero(cold())
        assert len(entries) == len(lists)
        for spec, seqs in lists.items():
            key, _, cells = entries.peek(("q", spec))
            assert key == tuple(origins[f"d{seq}"] for seq in seqs)
            if spec in summed:  # a changed key keeps no cell of the old one
                assert list(cells) == candidate_seqs

    def test_an_empty_list_is_an_entry_too(self, centroids):
        entries = LRUCache(8)
        for _ in range(2):
            matrix, _, _ = hand_read(entries, [1, 2], {"s": []})
            assert matrix._by_spec == {"s": {}}
        assert centroids == ["s"]
        assert entries.peek(("q", "s"))[2] == {1: 0.0, 2: 0.0}

    def test_a_vector_no_memo_keeps_is_used_and_not_stored(self, centroids):
        """A ``None`` origin (a vector built from another version than its
        seq) is read for this matrix only: its list's centroid and its
        candidate's cells are not stored, and a stored cell of its seq is
        not reused."""
        entries = LRUCache(8)
        hand_read(entries, *FIRST_READ)
        centroids.clear()
        candidates = ResultList("q", [("d1", 1.0), ("d2", 1.0)], [1, 2])
        spec_results = {"s": ResultList("s", [("d2", 1.0), ("d10", 1.0)], [2, 10])}
        other = TermVector.from_terms("apple cider".split())
        vectors = {
            "d1": TermVector.from_terms(SURROGATES["q", 1].split()),
            "d2": other,
            "d10": TermVector.from_terms(SURROGATES["s", 10].split()),
        }
        origins = {"d1": ("q", 1), "d2": None, "d10": ("s", 10)}
        stored = entries.snapshot()
        matrix = UtilityMatrix.build(
            candidates, spec_results, vectors, memo=UtilityMemo(entries, "q", origins)
        )
        assert centroids == ["s"]
        assert entries.snapshot() == stored
        assert matrix._by_spec == UtilityMatrix.build(
            candidates, spec_results, vectors
        )._by_spec

    @pytest.mark.parametrize("threshold", [0.0, 0.1])
    def test_seeded_ingest_reads_equal_cold_builds(
        self, tmp_path, small_corpus, small_miner, centroids, threshold
    ):
        """Reads repeated across a seeded sequence of add/remove epochs on
        a store-backed service: every read's matrix is a cold ``build`` of
        its own inputs, bit for bit, and the memo spares some centroids
        but not all."""
        collection = small_corpus.collection
        docs = [collection[doc_id] for doc_id in collection.doc_ids]
        live, pool = {d.doc_id: d for d in docs[:-8]}, docs[-8:]
        write_store(
            tmp_path / "live.sqlite3",
            SearchEngine(DocumentCollection(list(live.values()))),
        )
        engine = StoreBackedSearchEngine(tmp_path / "live.sqlite3")
        config = FrameworkConfig(
            k=10, candidates=12, spec_results=10, threshold=threshold
        )
        framework = DiversificationFramework(engine, small_miner, config=config)
        service = DiversificationService(framework)
        topics = [topic.query for topic in small_corpus.topics]
        queries = [query for query in topics if framework.detect(query)][:3]
        rng = random.Random(49)
        lists = summed = 0
        for step in range(6):
            for query in queries:
                specializations = framework.detect(query)
                centroids.clear()
                task = framework.build_task(query, specializations)
                summed += len(centroids)
                spec_results = {
                    spec: framework._spec_cache.peek(spec)[1]
                    for spec, _ in specializations
                }
                cold = UtilityMatrix.build(
                    task.candidates, spec_results, task.vectors, threshold=threshold
                )
                assert task.utilities._by_spec == cold._by_spec, (step, query)
                assert nonzero(task.utilities) == nonzero(cold), (step, query)
                lists += len(spec_results)
            query = queries[step % len(queries)]
            words = live[task.candidates.doc_ids[0]].text.split()
            adds = [
                pool.pop(rng.randrange(len(pool))),
                Document(f"strong{step}", " ".join([query] * 3 + words[:40])),
            ]
            removes = rng.sample(sorted(live), 1)
            service.ingest(adds, removes)
            del live[removes[0]]
            live.update((d.doc_id, d) for d in adds)
        assert 0 < summed < lists
        assert len(framework._utilities) <= framework._utilities.maxsize
        engine.close()

    def test_a_repeated_read_sums_no_centroid(
        self, framework_factory, ambiguous_topic, centroids
    ):
        framework = framework_factory()
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        first = framework.build_task(query, specializations)
        assert sorted(centroids) == sorted(spec for spec, _ in specializations)
        centroids.clear()
        second = framework.build_task(query, specializations)
        assert centroids == []
        assert second.utilities._by_spec == first.utilities._by_spec

    def test_the_memo_holds_one_entry_per_pair_up_to_the_spec_cache_bound(
        self, framework_factory, ambiguous_queries
    ):
        framework = framework_factory(spec_cache_size=3)
        pairs = set()
        for query in ambiguous_queries:
            specializations = framework.detect(query)
            framework.build_task(query, specializations)
            pairs.update((query, spec) for spec, _ in specializations)
        assert framework._utilities.maxsize == 3
        assert len(framework._utilities) == min(3, len(pairs)) > 0
        assert set(framework._utilities) <= pairs
