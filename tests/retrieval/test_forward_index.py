"""The forward index under mutation and transport.

The rows that serve the surrogates are built once per document and then
travel: into pickles, into the store's ``documents.forward`` column and
back, and across the store's epochs.  Wherever they end up,
they must be the rows a from-scratch build of the final collection holds
— and the surrogate vectors served from them must be the vectors of the
re-analysed snippet text (``SnippetExtractor.extract``, the oracle).
"""

from __future__ import annotations

import json
import pickle
import sqlite3

import pytest

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine
from repro.retrieval.index import DocumentIndex
from repro.retrieval.similarity import TermVector
from repro.retrieval.snippets import ForwardRow, SnippetExtractor
from repro.retrieval.store import (
    SCHEMA_VERSION,
    StoreBackedSearchEngine,
    StoreError,
    append_epoch,
    write_store,
)

PARTITIONS = 3
PROBES = ["apple running", "banana fig relational", "cherry", "the of"]


def make_docs(n: int, prefix: str = "d") -> list[Document]:
    """Documents long enough that ``max_chars`` cuts most surrogates, in
    both window modes (every third one has sentence punctuation)."""
    vocab = [
        "apple", "banana", "cherry", "running", "relational", "fig", "the",
        "there", "leopards", "İstanbul",
    ]
    docs = []
    for i in range(n):
        words = [vocab[(i * 3 + j * j) % len(vocab)] for j in range(30 + i % 25)]
        joiner = ". " if i % 3 == 0 else " "
        text = joiner.join(
            " ".join(words[k:k + 6]) for k in range(0, len(words), 6)
        )
        docs.append(Document(f"{prefix}{i}", text, title=f"{vocab[i % 7]} t{i}"))
    return docs


def rows_of(engine) -> dict:
    return {
        doc_id: engine.forward_row(doc_id) for doc_id in engine.collection.doc_ids
    }


def starts_of(engine) -> dict:
    """Every row's piece offsets (``ForwardRow.__eq__`` compares them too;
    this names them, and checks each one locates its piece verbatim)."""
    out = {}
    for doc_id, row in rows_of(engine).items():
        document = engine.collection[doc_id]
        pieces = [document.title.strip(), *engine.snippets._windows(document.text)]
        sources = [document.title] + [document.text] * (len(pieces) - 1)
        assert [
            source[start:start + len(piece)]
            for piece, start, source in zip(pieces, row.starts, sources)
        ] == pieces  # make_docs is single-spaced: no -1 fallbacks
        out[doc_id] = list(row.starts)
    return out


def vectors_of(engine) -> dict:
    """Every probe's surrogate vectors, as order-preserving item lists."""
    out = {}
    for query in PROBES:
        results = engine.search(query, k=40)
        out[query] = {
            doc_id: list(vector.weights.items())
            for doc_id, vector in engine.snippet_vectors(query, results).items()
        }
    return out


def oracle_vectors_of(engine) -> dict:
    out = {}
    for query in PROBES:
        results = engine.search(query, k=40)
        out[query] = {
            r.doc_id: list(
                TermVector.from_terms(
                    engine.analyzer.analyze(engine.snippet(query, r.doc_id).text)
                ).weights.items()
            )
            for r in results
        }
    return out


class CountingAnalyzer(Analyzer):
    def __init__(self):
        super().__init__()
        self.analysed: list[str] = []

    def analyze(self, text):
        self.analysed.append(text)
        return super().analyze(text)


class TestEngineServesTheOracle:
    @pytest.mark.parametrize("flavour", ["single", "partitioned", "store"])
    def test_snippet_vectors_equal_reanalysed_snippets(self, flavour, tmp_path):
        collection = DocumentCollection(make_docs(40))
        if flavour == "single":
            engine = SearchEngine(collection)
        else:
            engine = SearchEngine(collection, num_partitions=PARTITIONS)
            if flavour == "store":
                write_store(tmp_path / "s.sqlite3", engine)
                engine = StoreBackedSearchEngine(tmp_path / "s.sqlite3")
        served = vectors_of(engine)
        assert served == oracle_vectors_of(engine)
        assert any(vectors for vectors in served.values())

    def test_query_path_analyses_the_query_and_cut_tails_only(self):
        analyzer = CountingAnalyzer()
        engine = SearchEngine(DocumentCollection(make_docs(40)), analyzer=analyzer)
        results = engine.search("apple running", k=40)
        analyzer.analysed.clear()
        engine.snippet_vectors("apple running", results)
        assert analyzer.analysed[0] == "apple running"
        tails = analyzer.analysed[1:]
        # At most one stretch per cut piece (two pieces can be cut: the
        # window the budget ran out in and, with a title, the last
        # character of the surrogate), each shorter than a token or two.
        assert len(tails) <= 2 * len(results)
        assert sum(len(analyzer.analyze(t)) for t in tails) <= len(tails)
        assert "apple running" not in tails

    def test_extractor_must_share_the_engine_analyzer(self):
        collection = DocumentCollection(make_docs(3))
        with pytest.raises(ValueError, match="analyzer"):
            SearchEngine(
                collection,
                analyzer=Analyzer(),
                snippet_extractor=SnippetExtractor(analyzer=Analyzer()),
            )
        extractor = SnippetExtractor(max_chars=50, window_terms=4)
        engine = SearchEngine(collection, snippet_extractor=extractor)
        assert engine.analyzer is extractor.analyzer
        assert engine.partitions[0].extractor is extractor


class TestRowsFollowMutation:
    def test_index_document_matches_a_rebuild(self):
        docs = make_docs(12)
        index = DocumentIndex.from_collection(DocumentCollection(docs[:9]))
        for document in docs[9:]:
            index.index_document(document)
        rebuilt = DocumentIndex.from_collection(DocumentCollection(docs))
        for document in docs:
            row = index.forward_row(document.doc_id)
            assert row == rebuilt.forward_row(document.doc_id)
            assert row.starts == rebuilt.forward_row(document.doc_id).starts
        assert index.members() == rebuilt.members()

    def test_append_epoch_and_refresh_match_a_rebuild(self, tmp_path):
        docs = make_docs(30)
        path = tmp_path / "live.sqlite3"
        write_store(
            path,
            SearchEngine(
                DocumentCollection(docs[:24]), num_partitions=PARTITIONS
            ),
        )
        live = StoreBackedSearchEngine(path)
        warmed = vectors_of(live)  # fill the document LRU before the appends
        before = live.snapshot()
        append_epoch(path, docs[24:27], ["d1", "d7"])
        append_epoch(path, docs[27:] + [docs[1]], ["d24"])
        evicted = []
        evict_pages = live.page_cache.evict_pages
        live.page_cache.evict_pages = lambda keys: (
            evicted.append(set(keys)) or evict_pages(keys)
        )
        assert live.refresh() == 2
        final = [d for d in docs[:24] if d.doc_id not in {"d1", "d7"}]
        final += docs[25:27] + docs[27:] + [docs[1]]
        rebuilt = SearchEngine(
            DocumentCollection(final), num_partitions=PARTITIONS
        )
        assert live.collection.doc_ids == rebuilt.collection.doc_ids
        assert rows_of(live) == rows_of(rebuilt)
        assert starts_of(live) == starts_of(rebuilt)
        assert vectors_of(live) == vectors_of(rebuilt) != warmed
        assert vectors_of(live) == oracle_vectors_of(live)
        # The evicted pages are read off the rows: every term of every
        # changed document.
        assert {term for _, term in evicted[0]} == {
            term
            for document in docs[24:] + [docs[1], docs[7]]
            for term in live.analyzer.analyze(document.full_text)
        }
        # A reader pinned to the old epoch still reads the old rows.
        with live.pinned(before):
            assert live.forward_row("d7") == rows_of(
                SearchEngine(DocumentCollection([docs[7]]))
            )["d7"]


class TestRowsSurviveTransport:
    def test_pickled_partitioned_engine_serves_identical_vectors(self):
        engine = SearchEngine(
            DocumentCollection(make_docs(30)), num_partitions=PARTITIONS
        )
        clone = pickle.loads(pickle.dumps(engine))
        assert rows_of(clone) == rows_of(engine)
        assert starts_of(clone) == starts_of(engine)
        assert vectors_of(clone) == vectors_of(engine)

    def test_reattached_store_engine_serves_identical_vectors(self, tmp_path):
        built = SearchEngine(
            DocumentCollection(make_docs(30)), num_partitions=PARTITIONS
        )
        path = write_store(tmp_path / "s.sqlite3", built)
        attached = StoreBackedSearchEngine(path)
        reattached = pickle.loads(pickle.dumps(attached))
        assert rows_of(attached) == rows_of(built)
        assert starts_of(attached) == starts_of(built) == starts_of(reattached)
        assert vectors_of(attached) == vectors_of(built)
        assert vectors_of(reattached) == vectors_of(built)

    def test_rows_differing_only_in_starts_are_not_equal(self):
        document = make_docs(1)[0]
        row = SnippetExtractor().analyse_document(document)
        terms, ends, bounds, lengths, starts = row.__getstate__()
        assert ForwardRow(terms, ends, bounds, lengths, starts) == row
        moved = [starts[0] + 1, *starts[1:]]
        assert ForwardRow(terms, ends, bounds, lengths, moved) != row

    def test_the_document_order_surrogate_is_derived_state(self):
        # Kept by the first query that takes it, shared, priced once — and
        # not part of the row's identity or of what travels: a decoded or
        # unpickled row keeps its own on first use.
        extractor = SnippetExtractor()
        document = make_docs(1)[0]
        index = DocumentIndex(extractor)
        index.index_document(document)
        row = index.forward_row(document.doc_id)
        assert row.ordered is None
        before = row.memory_bytes()
        # The empty query scores windows by position alone: it takes
        # them in document order.
        vector = extractor.surrogate_vector(set(), row, document)
        selection, kept = row.ordered
        assert kept is vector
        assert extractor.surrogate_vector(set(), row, document) is vector
        assert row.memory_bytes() - before > 24 * len(vector)
        oracle = TermVector.from_terms(
            extractor.analyzer.analyze(
                extractor.extract("", "d", document.text, document.title).text
            )
        )
        assert list(vector.weights.items()) == list(oracle.weights.items())
        fresh = ForwardRow.decode(row.encode())
        clone = pickle.loads(pickle.dumps(row))
        assert clone.memory_bytes() == fresh.memory_bytes()
        for travelled in (fresh, clone):
            assert travelled == row and travelled.encode() == row.encode()
            assert travelled.ordered is None
            before = travelled.memory_bytes()
            served = extractor.surrogate_vector(set(), travelled, document)
            assert travelled.memory_bytes() - before > 24 * len(vector)
            assert travelled.ordered.selection == selection
            assert served is travelled.ordered.vector and served is not vector
            assert list(served.weights.items()) == list(vector.weights.items())

    def test_rows_share_one_string_per_term(self, tmp_path):
        built = SearchEngine(
            DocumentCollection(make_docs(12)), num_partitions=PARTITIONS
        )
        attached = StoreBackedSearchEngine(
            write_store(tmp_path / "s.sqlite3", built)
        )
        seen: dict[str, str] = {}
        for row in rows_of(attached).values():
            for term in row.terms:
                assert seen.setdefault(term, term) is term


class TestStoreSchema:
    def _downgrade_to_v2(self, path) -> None:
        """Turn a fresh store into what the previous commit wrote."""
        connection = sqlite3.connect(path)
        connection.execute("ALTER TABLE documents DROP COLUMN forward")
        connection.execute("DELETE FROM meta WHERE key = 'window_terms'")
        connection.execute(
            "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
        )
        connection.commit()
        connection.close()

    def test_v2_store_is_rejected_naming_both_versions(self, tmp_path):
        path = write_store(
            tmp_path / "old.sqlite3",
            SearchEngine(
                DocumentCollection(make_docs(6)), num_partitions=PARTITIONS
            ),
        )
        self._downgrade_to_v2(path)
        assert SCHEMA_VERSION == 7
        for attempt in (
            lambda: StoreBackedSearchEngine(path),
            lambda: append_epoch(path, make_docs(1, prefix="n")),
        ):
            with pytest.raises(StoreError) as exc_info:
                attempt()
            message = str(exc_info.value)
            assert "old.sqlite3" in message
            assert "version 2" in message and "version 7" in message

    def test_v3_store_is_rejected_naming_both_versions(self, tmp_path):
        path = write_store(
            tmp_path / "v3.sqlite3",
            SearchEngine(
                DocumentCollection(make_docs(6)), num_partitions=PARTITIONS
            ),
        )
        # What a v3 writer wrote: four lists per forward blob.
        connection = sqlite3.connect(path)
        for seq, blob in connection.execute(
            "SELECT seq, forward FROM documents"
        ).fetchall():
            lists = json.loads(blob)
            assert len(lists) == 5
            connection.execute(
                "UPDATE documents SET forward = ? WHERE seq = ?",
                (json.dumps(lists[:4]).encode("utf-8"), seq),
            )
        connection.execute(
            "UPDATE meta SET value = '3' WHERE key = 'schema_version'"
        )
        connection.commit()
        connection.close()
        for attempt in (
            lambda: StoreBackedSearchEngine(path),
            lambda: append_epoch(path, make_docs(1, prefix="n")),
        ):
            with pytest.raises(StoreError) as exc_info:
                attempt()
            message = str(exc_info.value)
            assert "v3.sqlite3" in message
            assert "version 3" in message and "version 7" in message

    def test_window_terms_mismatch_is_a_typed_error(self, tmp_path):
        built = SearchEngine(
            DocumentCollection(make_docs(12)),
            num_partitions=PARTITIONS,
            snippet_extractor=SnippetExtractor(window_terms=5),
        )
        path = write_store(tmp_path / "w5.sqlite3", built)
        with pytest.raises(StoreError) as exc_info:
            StoreBackedSearchEngine(path)  # stock extractor: window_terms=24
        message = str(exc_info.value)
        assert "w5.sqlite3" in message
        assert "window_terms=5" in message and "24" in message
        attached = StoreBackedSearchEngine(
            path, snippet_extractor=SnippetExtractor(window_terms=5)
        )
        assert vectors_of(attached) == vectors_of(built)

    def test_append_epoch_windows_new_documents_like_the_store(self, tmp_path):
        docs = make_docs(16)
        extractor = SnippetExtractor(window_terms=5)
        path = write_store(
            tmp_path / "w5.sqlite3",
            SearchEngine(
                DocumentCollection(docs[:12]),
                num_partitions=PARTITIONS,
                snippet_extractor=extractor,
            ),
        )
        append_epoch(path, docs[12:], analyzer=extractor.analyzer)
        live = StoreBackedSearchEngine(path, snippet_extractor=extractor)
        rebuilt = SearchEngine(
            DocumentCollection(docs),
            num_partitions=PARTITIONS,
            snippet_extractor=SnippetExtractor(window_terms=5),
        )
        assert rows_of(live) == rows_of(rebuilt)
