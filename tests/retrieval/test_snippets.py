"""Tests for query-biased snippet extraction."""

from __future__ import annotations

import pytest

from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine
from repro.retrieval.similarity import TermVector
from repro.retrieval.snippets import ForwardRow, SnippetExtractor


@pytest.fixture()
def extractor():
    return SnippetExtractor(max_chars=120)


class TestSnippetExtractor:
    def test_respects_budget(self, extractor):
        text = "word " * 500
        snippet = extractor.extract("word", "d1", text)
        assert len(snippet.text) <= 120

    def test_snippet_carries_doc_id(self, extractor):
        assert extractor.extract("q", "d42", "some text").doc_id == "d42"

    def test_title_included_first(self, extractor):
        snippet = extractor.extract("query", "d1", "body only here", title="The Title")
        assert snippet.text.startswith("The Title")

    def test_query_biased_window_selection(self):
        extractor = SnippetExtractor(max_chars=60)
        text = (
            "nothing relevant here at all in this opening sentence. "
            "the leopard tank is a german vehicle. "
            "more filler content afterwards follows here."
        )
        snippet = extractor.extract("leopard tank", "d1", text)
        assert "leopard" in snippet.text

    def test_sentences_preferred_as_windows(self, extractor):
        text = "first sentence here. second sentence about apples. third one."
        snippet = extractor.extract("apples", "d1", text)
        assert "apples" in snippet.text

    def test_fixed_windows_without_punctuation(self):
        extractor = SnippetExtractor(max_chars=80, window_terms=5)
        tokens = ["filler"] * 30 + ["needle"] + ["filler"] * 30
        snippet = extractor.extract("needle", "d1", " ".join(tokens))
        assert "needle" in snippet.text

    def test_empty_document(self, extractor):
        assert extractor.extract("q", "d1", "").text == ""

    def test_empty_query_falls_back_to_leading_text(self, extractor):
        snippet = extractor.extract("", "d1", "alpha beta gamma. delta.")
        assert snippet.text  # still produces a surrogate

    def test_selected_windows_in_document_order(self):
        extractor = SnippetExtractor(max_chars=200)
        text = "apple one. filler. apple two. filler. apple three."
        snippet = extractor.extract("apple", "d1", text)
        first = snippet.text.find("one")
        second = snippet.text.find("two")
        assert -1 < first < second or second == -1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SnippetExtractor(max_chars=0)
        with pytest.raises(ValueError):
            SnippetExtractor(window_terms=0)

    def test_len_protocol(self, extractor):
        snippet = extractor.extract("q", "d", "abc def")
        assert len(snippet) == len(snippet.text)


# -- forward index ---------------------------------------------------------------


def surrogate_pair(extractor, query, text, title=""):
    """(oracle, forward) surrogate vectors of one document: the text path
    re-analysing the extracted snippet vs the forward row."""
    analyzer = extractor.analyzer
    document = Document("d", text, title)
    oracle = TermVector.from_terms(
        analyzer.analyze(extractor.extract(query, "d", text, title).text)
    )
    forward = extractor.surrogate_vector(
        set(analyzer.analyze(query)),
        extractor.analyse_document(document),
        document,
    )
    return oracle, forward


def assert_same_vector(oracle, forward):
    # Same keys in the same insertion order (it fixes the summation order
    # of every later dot product) and the same floats.
    assert list(forward.weights.items()) == list(oracle.weights.items())


class TestForwardIndexOracle:
    """``surrogate_vector`` over a forward row must equal re-analysing the
    text ``extract`` returns, on every truncation edge."""

    TEXT = "leopards are running fast. the tank division is relational. ponies graze."

    @pytest.mark.parametrize("max_chars", range(1, 90))
    def test_every_cut_position_with_and_without_title(self, max_chars):
        # Sweeps the cut through token middles, token ends, separators,
        # the title, and the one-over-budget final cut.
        extractor = SnippetExtractor(max_chars=max_chars)
        for title in ("", "Leopard tanks", " "):
            assert_same_vector(
                *surrogate_pair(extractor, "tank ponies", self.TEXT, title)
            )

    def test_cut_mid_token_keeps_the_stemmed_prefix(self):
        extractor = SnippetExtractor(max_chars=12)
        oracle, forward = surrogate_pair(extractor, "", "alpha relational beta")
        assert_same_vector(oracle, forward)
        assert "relat" not in forward.weights  # "alpha relati" -> "relati"
        assert set(forward.weights) == {"alpha", "relati"}

    def test_cut_exactly_on_a_token_end(self):
        extractor = SnippetExtractor(max_chars=len("alpha relational"))
        oracle, forward = surrogate_pair(extractor, "", "alpha relational beta")
        assert_same_vector(oracle, forward)
        assert set(forward.weights) == {"alpha", "relat"}

    def test_cut_inside_the_title_and_title_longer_than_budget(self):
        extractor = SnippetExtractor(max_chars=10)
        oracle, forward = surrogate_pair(
            extractor, "body", "body text here", title="Relational databases"
        )
        assert_same_vector(oracle, forward)
        assert set(forward.weights) == {"relat"}  # "Relational"[:10], no body

    def test_single_sentence_uses_the_window_terms_fallback(self):
        extractor = SnippetExtractor(max_chars=40, window_terms=3)
        text = "one two three four five six seven needle nine ten."
        oracle, forward = surrogate_pair(extractor, "needle", text)
        assert_same_vector(oracle, forward)
        assert "needl" in forward.weights
        row = extractor.analyse_document(Document("d", text))
        assert len(row.lengths) == 1 + 4  # title piece + ceil(10 / 3) windows

    def test_sentences_are_the_windows_when_there_are_several(self):
        extractor = SnippetExtractor(max_chars=40, window_terms=3)
        text = "one two three four. five six seven needle nine ten."
        row = extractor.analyse_document(Document("d", text))
        assert len(row.lengths) == 1 + 2
        assert_same_vector(*surrogate_pair(extractor, "needle", text))

    def test_empty_text_and_empty_everything(self, extractor):
        for text, title in (("", ""), ("", "Title only"), ("   ", " ")):
            oracle, forward = surrogate_pair(extractor, "query", text, title)
            assert_same_vector(oracle, forward)

    def test_all_stopword_windows_score_zero_but_still_fill_the_budget(self):
        extractor = SnippetExtractor(max_chars=30)
        text = "the of and to. is it was. apple pie."
        assert_same_vector(*surrogate_pair(extractor, "apple", text))
        assert_same_vector(*surrogate_pair(extractor, "the", text))

    def test_cut_token_that_becomes_a_stopword_is_dropped(self):
        extractor = SnippetExtractor(max_chars=len("apple the"))
        oracle, forward = surrogate_pair(extractor, "", "apple there pie")
        assert_same_vector(oracle, forward)
        assert set(forward.weights) == {"appl"}  # "there" cut to "the"

    def test_cut_stopword_that_becomes_a_term_is_kept(self):
        extractor = SnippetExtractor(max_chars=len("apple thei"))
        oracle, forward = surrogate_pair(extractor, "", "apple their pie")
        assert_same_vector(oracle, forward)
        assert set(forward.weights) == {"appl", "thei"}

    @pytest.mark.parametrize("max_chars", range(1, 40))
    def test_text_whose_lowercasing_changes_length(self, max_chars):
        # "İ".lower() is two characters: offsets into the lowered text
        # are not offsets into the text the budget cuts.
        extractor = SnippetExtractor(max_chars=max_chars, window_terms=4)
        text = "İstanbul aİb İİ KELVİN runningİK. second İ sentence here"
        for title in ("", "İzmir İ"):
            assert_same_vector(*surrogate_pair(extractor, "istanbul", text, title))

    def test_row_terms_are_the_indexed_terms_in_order(self, extractor):
        # The postings are counted from the row, so it must hold exactly
        # what indexing the full text would have analysed.
        for text, title in (
            (self.TEXT, "Leopard tanks"),
            ("no punctuation here at all " * 9, ""),
            ("İstanbul. aİb!", "İ"),
            ("", ""),
        ):
            document = Document("d", text, title)
            row = extractor.analyse_document(document)
            assert list(row.terms) == extractor.analyzer.analyze(document.full_text)
            assert ForwardRow.decode(row.encode()) == row


class TestPieceOffsets:
    """``starts`` lets a cut read the document; the vector never changes."""

    def test_windows_rejoined_across_odd_whitespace_fall_back(self):
        extractor = SnippetExtractor(max_chars=30, window_terms=3)
        text = "alpha\tbeta  gamma delta epsilon zeta eta theta relational iota"
        row = extractor.analyse_document(Document("d", text))
        # "alpha beta gamma" is not in the text; "delta epsilon zeta" is.
        assert list(row.starts) == [
            0, -1, text.index("delta"), text.index("eta theta"), text.index("iota")
        ]
        for max_chars in range(1, len(text) + 2):
            extractor = SnippetExtractor(max_chars=max_chars, window_terms=3)
            for query in ("", "alpha", "relational iota", "zeta beta"):
                assert_same_vector(*surrogate_pair(extractor, query, text))

    def test_a_rejoined_window_may_point_at_a_later_verbatim_copy(self):
        # Only the characters are read, so any copy serves; the search
        # moves forward only, so the window it jumped over falls back.
        text = "apple\tpie apple pie relational"
        row = SnippetExtractor(window_terms=2).analyse_document(Document("d", text))
        assert list(row.starts) == [0, 10, -1, text.index("relational")]
        for max_chars in range(1, len(text) + 2):
            extractor = SnippetExtractor(max_chars=max_chars, window_terms=2)
            assert_same_vector(*surrogate_pair(extractor, "pie", text))

    @pytest.mark.parametrize("max_chars", range(1, 40))
    def test_padded_title_is_cut_inside_its_stripped_text(self, max_chars):
        extractor = SnippetExtractor(max_chars=max_chars)
        title = "  Leopard tanks "
        text = "relational ponies graze. tanks roll."
        row = extractor.analyse_document(Document("d", text, title))
        assert row.starts[0] == 2 and row.lengths[0] == len("Leopard tanks")
        assert_same_vector(*surrogate_pair(extractor, "ponies", text, title))

    @pytest.mark.parametrize("title", ["", "Leopard tanks", "  padded  ", " "])
    @pytest.mark.parametrize(
        "text",
        [
            "ponies graze. tanks roll on. leopards are running",
            "one two three four five six seven eight nine relational",
            "",
        ],
    )
    def test_the_fit_boundary(self, title, text):
        # fit: the length of the whole surrogate.  At fit and above every
        # query gets the row's one shared vector; at fit - 1 (with a title
        # that is the one-over final cut) something is dropped.
        whole = SnippetExtractor(max_chars=10_000, window_terms=4)
        fit = len(whole.extract("", "d", text, title).text)
        document = Document("d", text, title)
        for max_chars in (fit - 1, fit, fit + 1):
            if max_chars < 1:
                continue
            extractor = SnippetExtractor(max_chars=max_chars, window_terms=4)
            row = extractor.analyse_document(document)
            for query in ("relational", "tanks ponies", ""):
                oracle, forward = surrogate_pair(extractor, query, text, title)
                assert_same_vector(oracle, forward)
                served = extractor.surrogate_vector(
                    set(extractor.analyzer.analyze(query)), row, document
                )
                assert (served is row.whole_vector()) == (max_chars >= fit)

    def test_the_query_path_never_re_splits_single_spaced_text(self, monkeypatch):
        words = "apple banana cherry relational running fig leopards ponies".split()
        documents = [
            Document(
                f"d{i}",
                " ".join(words[(i + j * j) % len(words)] for j in range(20 + 7 * i)),
                title=f"{words[i % len(words)]} report" if i % 2 else "",
            )
            for i in range(12)
        ]
        engine = SearchEngine(DocumentCollection(documents))
        queries = ("apple", "relational ponies", "fig running leopards")
        expected = {
            query: {
                d.doc_id: surrogate_pair(engine.snippets, query, d.text, d.title)[0]
                for d in documents
            }
            for query in queries
        }

        def no_splitting(self, text):
            raise AssertionError("the query path re-split a document")

        monkeypatch.setattr(SnippetExtractor, "_windows", no_splitting)
        everything = engine.search(" ".join(words), k=100)
        assert len(everything) == len(documents)
        cut = 0
        for query in queries:
            served = engine.snippet_vectors(query, everything)
            for doc_id, vector in served.items():
                assert_same_vector(expected[query][doc_id], vector)
                cut += vector is not engine.forward_row(doc_id).whole_vector()
        assert cut  # the test would be vacuous if every document fit
