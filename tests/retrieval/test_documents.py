"""Tests for Document and DocumentCollection."""

from __future__ import annotations

import pytest

from repro.retrieval.documents import Document, DocumentCollection


class TestDocument:
    def test_requires_doc_id(self):
        with pytest.raises(ValueError):
            Document(doc_id="", text="x")

    def test_full_text_includes_title(self):
        doc = Document("d1", "body text", title="A Title")
        assert doc.full_text == "A Title\nbody text"

    def test_full_text_without_title(self):
        assert Document("d1", "body").full_text == "body"

    def test_len_is_text_length(self):
        assert len(Document("d1", "abcd")) == 4

    def test_metadata_defaults_empty_and_not_compared(self):
        a = Document("d1", "x", metadata={"k": 1})
        b = Document("d1", "x", metadata={"k": 2})
        assert a == b

    def test_frozen(self):
        doc = Document("d1", "x")
        with pytest.raises(AttributeError):
            doc.text = "y"


class TestDocumentCollection:
    def test_add_and_get(self):
        coll = DocumentCollection()
        coll.add(Document("d1", "alpha"))
        assert coll["d1"].text == "alpha"

    def test_constructor_accepts_iterable(self):
        coll = DocumentCollection([Document("a", "x"), Document("b", "y")])
        assert len(coll) == 2

    def test_duplicate_doc_id_rejected(self):
        coll = DocumentCollection([Document("d1", "x")])
        with pytest.raises(ValueError, match="duplicate"):
            coll.add(Document("d1", "y"))

    def test_ordinals_follow_insertion_order(self):
        coll = DocumentCollection([Document("a", "x"), Document("b", "y")])
        assert coll.ordinal("a") == 0
        assert coll.ordinal("b") == 1

    def test_contains(self):
        coll = DocumentCollection([Document("a", "x")])
        assert "a" in coll
        assert "z" not in coll

    def test_get_with_default(self):
        coll = DocumentCollection()
        assert coll.get("nope") is None
        sentinel = Document("s", "x")
        assert coll.get("nope", sentinel) is sentinel

    def test_iteration_preserves_order(self):
        docs = [Document(f"d{i}", "x") for i in range(5)]
        coll = DocumentCollection(docs)
        assert [d.doc_id for d in coll] == [f"d{i}" for i in range(5)]

    def test_doc_ids_property(self):
        coll = DocumentCollection([Document("a", "x"), Document("b", "y")])
        assert coll.doc_ids == ["a", "b"]

    def test_extend(self):
        coll = DocumentCollection()
        coll.extend([Document("a", "x"), Document("b", "y")])
        assert len(coll) == 2

    def test_missing_lookup_raises(self):
        with pytest.raises(KeyError):
            DocumentCollection()["missing"]
