"""Tests for query-biased snippet extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # query gets the row's one shared vector, the whole document's;
        # at fit - 1 (with a title that is the one-over final cut)
        # something is dropped, even in document order.
        whole = SnippetExtractor(max_chars=10_000, window_terms=4)
        fit = len(whole.extract("", "d", text, title).text)
        document = Document("d", text, title)
        for max_chars in (fit - 1, fit, fit + 1):
            if max_chars < 1:
                continue
            extractor = SnippetExtractor(max_chars=max_chars, window_terms=4)
            row = extractor.analyse_document(document)
            in_order, _ = extract_selection(extractor, "", text, title, True)
            kept_whole = in_order == list(enumerate(row.lengths))
            assert kept_whole == (max_chars >= fit)
            for query in ("relational", "tanks ponies", ""):
                oracle, forward = surrogate_pair(extractor, query, text, title)
                assert_same_vector(oracle, forward)
                served = extractor.surrogate_vector(
                    set(extractor.analyzer.analyze(query)), row, document
                )
                if kept_whole:
                    assert served is row.ordered.vector
                    assert_same_vector(TermVector.from_terms(row.terms), served)

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
        counted = 0
        for query in queries:
            served = engine.snippet_vectors(query, everything)
            for doc_id, vector in served.items():
                assert_same_vector(expected[query][doc_id], vector)
                ordered = engine.forward_row(doc_id).ordered
                counted += ordered is None or vector is not ordered.vector
        # The test would be vacuous if every surrogate were the shared one.
        assert counted


# -- the document-order surrogate --------------------------------------------------


def extract_selection(extractor, query, text, title, document_order=False):
    """The ``(piece, characters kept)`` pairs ``extract`` keeps, title
    first, re-derived from its text loop — with the query's window scores,
    or with the windows taken in document order — and the text they join
    to."""
    analyzer = extractor.analyzer
    query_terms = set(analyzer.analyze(query))
    windows = extractor._windows(text)
    ranked = []
    for position, window in enumerate(windows):
        terms = analyzer.analyze(window)
        coverage = len(query_terms.intersection(terms))
        matches = sum(term in query_terms for term in terms)
        score = extractor._score(coverage, matches, len(terms), position)
        ranked.append((0.0 if document_order else -score, position))
    ranked.sort()
    title_take = min(len(title.strip()), extractor.max_chars) if title else 0
    budget = extractor.max_chars - title_take
    chosen = []
    for _, position in ranked:
        if budget <= 0:
            break
        take = min(len(windows[position]), budget)
        chosen.append((position + 1, take))
        budget -= take + 1
    chosen.sort()
    pieces = [title.strip()[:title_take]] if title else []
    pieces += [windows[piece - 1][:take] for piece, take in chosen]
    joined = " ".join(pieces)
    over = len(joined) - extractor.max_chars
    if over > 0:  # the final cut shortens the last piece
        piece, take = chosen[-1]
        chosen[-1] = (piece, take - over)
    return [(0, title_take), *chosen], joined[: extractor.max_chars]


# Words whose cuts turn stopwords into terms and back, whose lower-casing
# is longer (İ) or ASCII from non-ASCII (K, the Kelvin sign); separators
# that make sentence windows, and tabs and double spaces that re-joined
# token windows do not reproduce (``starts == -1``).
_WORDS = [
    "tanks", "ponies", "graze", "relational", "running", "leopards", "the",
    "there", "their", "of", "a", "İstanbul", "aİb", "\u212aelvin", "straße",
]
_SEPARATORS = [" ", " ", " ", "  ", "\t", ". ", "! ", "\n", ", "]
texts = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=40
).map(lambda pairs: "".join(word + sep for word, sep in pairs))
titles = st.one_of(
    st.sampled_from(["", " ", "  padded  "]),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join),
)


@st.composite
def documents_and_queries(draw):
    """A document, a query mostly of its own words (so it re-ranks its
    windows), and two budgets around the document's length."""
    text, title = draw(texts), draw(titles)
    words = text.split() or _WORDS
    query = " ".join(draw(st.lists(st.sampled_from(words), max_size=3)))
    budgets = st.integers(min_value=1, max_value=len(title) + len(text) + 2)
    return Document("d", text, title), query, draw(budgets), draw(budgets)


class TestDocumentOrderSurrogate:
    @settings(max_examples=500, deadline=None)
    @given(documents_and_queries(), st.integers(min_value=1, max_value=8))
    def test_served_vector_is_the_oracle_and_shared_iff_in_document_order(
        self, case, window_terms
    ):
        # The row is served under max_chars, then other_chars, then
        # max_chars again: whichever budget first takes its document-order
        # selection keeps that one, and every later serve, under either
        # budget, must stay exact.
        document, query, max_chars, other_chars = case
        text, title = document.text, document.title
        first = SnippetExtractor(max_chars=max_chars, window_terms=window_terms)
        other = SnippetExtractor(max_chars=other_chars, window_terms=window_terms)
        row = first.analyse_document(document)
        for serving in (first, other, first):
            kept = row.ordered
            oracle, forward = surrogate_pair(serving, query, text, title)
            served = serving.surrogate_vector(
                set(serving.analyzer.analyze(query)), row, document
            )
            assert_same_vector(oracle, forward)
            assert_same_vector(oracle, served)
            selection, joined = extract_selection(serving, query, text, title)
            assert joined == serving.extract(query, "d", text, title).text
            if kept is not None:
                assert row.ordered is kept
                assert (served is kept.vector) == (selection == kept.selection)
            elif selection == extract_selection(serving, "", text, title, True)[0]:
                assert row.ordered == (selection, served)
                assert served is row.ordered.vector
            else:
                assert row.ordered is None

    def test_the_same_pieces_cut_elsewhere_are_not_the_document_order(self):
        # Document order keeps all of window 1 and cuts window 2; "pie"
        # ranks window 2 first, keeps it whole and cuts window 1.
        text = "apple orchards ripen early. pie."
        extractor = SnippetExtractor(max_chars=len("apple orchards ripen early.") + 2)
        document = Document("d", text)
        row = extractor.analyse_document(document)
        oracle, served = surrogate_pair(extractor, "pie", text)
        assert extract_selection(extractor, "pie", text, "")[0] == [
            (0, 0), (1, 24), (2, 4)
        ]
        assert_same_vector(oracle, served)
        assert_same_vector(oracle, extractor.surrogate_vector({"pie"}, row, document))
        assert row.ordered is None  # not the document order: nothing kept
        shared = extractor.surrogate_vector({"appl"}, row, document)
        assert row.ordered == ([(0, 0), (1, 27), (2, 1)], shared)
        assert extractor.surrogate_vector({"pie"}, row, document) is not shared
        assert extractor.surrogate_vector({"appl"}, row, document) is shared

    def test_a_row_that_arrives_bare_counts_each_surrogate_once(self, monkeypatch):
        # A row decoded from the store or unpickled has no document-order
        # surrogate: its first serves count their selection once, whether
        # or not it is the document order, and the document-order count is
        # kept for the serves after it.
        text = "apple orchards ripen early. pie."
        extractor = SnippetExtractor(max_chars=len("apple orchards ripen early.") + 2)
        document = Document("d", text)
        row = ForwardRow.decode(extractor.analyse_document(document).encode())
        counted = []
        count = SnippetExtractor._count

        def spy(self, selection, row, document):
            counted.append(list(selection))
            return count(self, selection, row, document)

        monkeypatch.setattr(SnippetExtractor, "_count", spy)
        for query, calls in (({"pie"}, 1), ({"pie"}, 2), ({"appl"}, 3), ({"appl"}, 3)):
            extractor.surrogate_vector(query, row, document)
            assert len(counted) == calls
        assert counted == [
            [(0, 0), (1, 24), (2, 4)],
            [(0, 0), (1, 24), (2, 4)],
            [(0, 0), (1, 27), (2, 1)],
        ]
