"""Tests for ResultList and the SearchEngine facade."""

from __future__ import annotations

import pytest

from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import ResultList, SearchEngine
from repro.retrieval.models import BM25
from repro.retrieval.similarity import TermVector
from repro.retrieval.snippets import SnippetExtractor


class TestResultList:
    def test_ranks_are_one_based(self):
        rl = ResultList("q", [("a", 2.0), ("b", 1.0)])
        assert rl[0].rank == 1
        assert rl.rank_of("b") == 2

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(ValueError):
            ResultList("q", [("a", 1.0), ("a", 0.5)])

    def test_contains(self):
        rl = ResultList("q", [("a", 2.0)])
        assert "a" in rl and "b" not in rl

    def test_iteration_and_len(self):
        rl = ResultList("q", [("a", 1.0), ("b", 0.5)])
        assert len(rl) == 2
        assert [r.doc_id for r in rl] == ["a", "b"]

    def test_unknown_rank_raises(self):
        with pytest.raises(KeyError):
            ResultList("q", []).rank_of("a")


class TestSearchEngine:
    @pytest.fixture()
    def engine(self, tiny_collection):
        return SearchEngine(tiny_collection)

    def test_topical_ranking(self, engine):
        results = engine.search("apple orchard")
        assert results.doc_ids[0] == "apple-fruit"

    def test_multi_term_beats_single_term(self, engine):
        results = engine.search("apple computer")
        assert results.doc_ids[0] in ("apple-pc", "apple-both")

    def test_k_limits_results(self, engine):
        assert len(engine.search("apple", k=2)) == 2

    def test_unmatched_query_empty(self, engine):
        assert len(engine.search("xylophone")) == 0

    def test_stopword_only_query_empty(self, engine):
        assert len(engine.search("the of and")) == 0

    def test_invalid_k(self, engine):
        with pytest.raises(ValueError):
            engine.search("apple", k=0)

    def test_scores_descending(self, engine):
        scores = engine.search("apple fruit").scores
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_tie_break(self, engine):
        a = engine.search("apple").doc_ids
        b = engine.search("apple").doc_ids
        assert a == b

    def test_model_swap_changes_scores(self, tiny_collection):
        dph = SearchEngine(tiny_collection)
        bm25 = SearchEngine(tiny_collection, model=BM25())
        q = "apple fruit"
        assert dph.search(q).scores != bm25.search(q).scores

    def test_snippet_for_result(self, engine):
        snippet = engine.snippet("apple orchard", "apple-fruit")
        assert snippet.doc_id == "apple-fruit"
        assert snippet.text

    def test_snippet_vectors_cover_all_results(self, engine):
        results = engine.search("apple")
        vectors = engine.snippet_vectors("apple", results)
        assert set(vectors) == set(results.doc_ids)

    def test_search_on_fixture_corpus(self, small_engine, small_corpus):
        topic = small_corpus.topics[0]
        results = small_engine.search(topic.query, k=30)
        assert len(results) > 0
        # Top results for a topic query are documents of that topic.
        top_labels = [
            small_corpus.labels.get(d, (None, None))[0]
            for d in results.doc_ids[:5]
        ]
        assert top_labels.count(topic.topic_id) >= 3


class TestBatchAPIs:
    @pytest.fixture()
    def engine(self, tiny_collection):
        return SearchEngine(tiny_collection)

    def test_search_batch_deduplicates(self, engine):
        batch = engine.search_batch(["apple", "banana", "apple"], k=3)
        assert set(batch) == {"apple", "banana"}
        assert batch["apple"].doc_ids == engine.search("apple", 3).doc_ids

    def test_search_batch_empty(self, engine):
        assert engine.search_batch([], k=3) == {}

    def test_whole_fit_documents_share_one_vector(self, tiny_collection):
        # A document that fits max_chars has one surrogate whatever the
        # query: the engine hands out the row's document-order vector,
        # kept by the first query, not a rebuilt copy.
        engine = SearchEngine(tiny_collection)
        by_query = {
            query: engine.snippet_vectors(query, engine.search(query))
            for query in ("apple", "fruit")
        }
        shared = set(by_query["apple"]) & set(by_query["fruit"])
        assert shared
        for doc_id in shared:
            document = tiny_collection[doc_id]
            assert len(document.full_text) <= engine.snippets.max_chars
            vector = by_query["apple"][doc_id]
            assert by_query["fruit"][doc_id] is vector
            assert vector is engine.forward_row(doc_id).ordered.vector
            assert list(vector.weights.items()) == list(
                TermVector.from_terms(
                    engine.forward_row(doc_id).terms
                ).weights.items()
            )

    def test_cut_documents_get_query_biased_vectors(self):
        text = (
            "apple orchards ripen early. filler words pad this sentence out. "
            "banana plantations flood late."
        )
        engine = SearchEngine(
            DocumentCollection([Document("d", text)]),
            snippet_extractor=SnippetExtractor(max_chars=40),
        )
        assert len(text) > engine.snippets.max_chars
        vectors = {
            query: engine.snippet_vectors(query, engine.search(query))["d"]
            for query in ("apple", "banana")
        }
        assert "appl" in vectors["apple"].weights
        assert "banana" in vectors["banana"].weights
        assert vectors["apple"].weights != vectors["banana"].weights
        # "apple" takes the windows as the document orders them, so it
        # gets the row's shared vector; "banana" jumps to the last one.
        shared = engine.forward_row("d").ordered.vector
        assert vectors["apple"] is shared
        assert vectors["banana"] is not shared
