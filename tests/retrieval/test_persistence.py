"""Tests for JSON-lines persistence of collections and query logs."""

from __future__ import annotations

import pytest

from repro.querylog.records import QueryLog, QueryRecord
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.persistence import (
    dump_collection,
    dump_query_log,
    load_collection,
    load_query_log,
)


class TestCollectionRoundTrip:
    def test_documents_preserved(self, tmp_path, tiny_collection):
        path = tmp_path / "docs.jsonl"
        dump_collection(tiny_collection, path)
        loaded = load_collection(path)
        assert loaded.doc_ids == tiny_collection.doc_ids
        for doc_id in loaded.doc_ids:
            assert loaded[doc_id].text == tiny_collection[doc_id].text
            assert loaded[doc_id].title == tiny_collection[doc_id].title

    def test_metadata_preserved(self, tmp_path):
        coll = DocumentCollection(
            [Document("d1", "x", metadata={"topic_id": 3, "aspect": 1})]
        )
        path = tmp_path / "docs.jsonl"
        dump_collection(coll, path)
        assert load_collection(path)["d1"].metadata == {
            "topic_id": 3,
            "aspect": 1,
        }

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        dump_collection(DocumentCollection(), path)
        assert len(load_collection(path)) == 0

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_collection(path)

    def test_loaded_collection_is_searchable(self, tmp_path, tiny_collection):
        from repro.retrieval.engine import SearchEngine

        path = tmp_path / "docs.jsonl"
        dump_collection(tiny_collection, path)
        engine = SearchEngine(load_collection(path))
        assert engine.search("apple orchard").doc_ids[0] == "apple-fruit"


class TestQueryLogRoundTrip:
    @pytest.fixture()
    def log(self):
        return QueryLog(
            [
                QueryRecord(
                    10.5, "u1", "apple", results=("d1", "d2"), clicks=("d1",)
                ),
                QueryRecord(20.0, "u2", "banana bread"),
            ],
            name="roundtrip",
        )

    def test_records_preserved(self, tmp_path, log):
        path = tmp_path / "log.jsonl"
        dump_query_log(log, path)
        loaded = load_query_log(path, name="roundtrip")
        assert len(loaded) == len(log)
        for a, b in zip(log, loaded):
            assert (a.timestamp, a.user_id, a.query) == (
                b.timestamp,
                b.user_id,
                b.query,
            )
            assert a.results == b.results
            assert a.clicks == b.clicks

    def test_loaded_log_feeds_the_miner(self, tmp_path, small_log):
        from repro.querylog.specializations import SpecializationMiner

        path = tmp_path / "log.jsonl"
        dump_query_log(small_log, path)
        loaded = load_query_log(path, name=small_log.name)
        miner = SpecializationMiner(loaded).build()
        assert miner.recommender.is_trained

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(ValueError, match=":1:"):
            load_query_log(path)


class TestAtomicWrites:
    """Dumpers must never leave a half-written artifact: writes go to a
    temp file that only replaces the target on success, so a crash
    mid-dump leaves the previous version intact and no temp litter."""

    def test_partial_write_preserves_original(self, tmp_path, tiny_collection):
        path = tmp_path / "docs.jsonl"
        dump_collection(tiny_collection, path)
        original = path.read_text()

        class Boom(RuntimeError):
            pass

        def exploding_docs():
            yield Document("ok-doc", "written before the crash")
            raise Boom("disk full, say")

        with pytest.raises(Boom):
            dump_collection(exploding_docs(), path)
        # The crashed dump replaced nothing and cleaned up after itself.
        assert path.read_text() == original
        assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]
        assert load_collection(path).doc_ids == tiny_collection.doc_ids

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        path = tmp_path / "never.jsonl"

        def exploding():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            dump_collection(exploding(), path)
        assert list(tmp_path.iterdir()) == []
