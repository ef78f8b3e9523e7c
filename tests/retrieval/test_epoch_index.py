"""Tests for epoch-versioned live updates at the index and engine layer.

The identity contract is byte-level: after any sequence of
``apply_updates`` batches, the engine must be indistinguishable — global
statistics, rankings AND scores — from a from-scratch build over the
final collection (survivors in their original insertion order, added
documents appended in batch order), and its sequence numbers must be
that build's ordinals up to an order-preserving relabelling.  The snapshot side of
the contract is isolation: a query pinned to epoch N never observes any
part of epoch N+1, even when the publish lands mid-query.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine
from repro.retrieval.index import InvertedIndex

from tests.retrieval.search_oracle import assert_same_order


def make_docs(n: int, prefix: str = "d") -> list[Document]:
    vocab = ["apple", "banana", "cherry", "durian", "elder", "fig", "grape"]
    docs = []
    for i in range(n):
        words = [vocab[(i + j) % len(vocab)] for j in range(3 + i % 4)]
        docs.append(Document(f"{prefix}{i}", " ".join(words), title=f"t{i}"))
    return docs


def seqs_of(index: InvertedIndex) -> dict[str, int]:
    return {doc_id: seq for seq, doc_id in index.members()}


def assert_indexes_identical(got: InvertedIndex, want: InvertedIndex):
    """Full structural equality — ids, lengths, postings — with ordinals
    compared up to an order-preserving relabelling."""
    assert got.num_documents == want.num_documents
    assert got.total_tokens == want.total_tokens
    got_seqs, want_seqs = seqs_of(got), seqs_of(want)
    assert_same_order(got_seqs, want_seqs)
    relabel = {got_seqs[doc_id]: want_seqs[doc_id] for doc_id in got_seqs}
    for seq, doc_id in got.members():
        assert got.document_length(seq) == want.document_length(relabel[seq])
    assert sorted(got.vocabulary()) == sorted(want.vocabulary())
    for term in want.vocabulary():
        g, w = got.postings(term), want.postings(term)
        assert [relabel[seq] for seq in g.ordinals] == w.ordinals, term
        assert g.tfs == w.tfs, term
        assert g.collection_frequency == w.collection_frequency, term


def assert_engines_identical(got, want, queries):
    for query in queries:
        g, w = got.search(query, k=50), want.search(query, k=50)
        assert g.doc_ids == w.doc_ids, query
        assert g.scores == w.scores, query


PROBES = ["apple", "banana fig", "cherry grape", "durian elder apple"]


class TestIndexRemoval:
    def test_removal_identical_to_rebuild(self):
        docs = make_docs(9)
        index = InvertedIndex.from_collection(DocumentCollection(docs))
        index.remove_document("d3")
        index.remove_document("d0")
        survivors = [d for d in docs if d.doc_id not in {"d3", "d0"}]
        rebuilt = InvertedIndex.from_collection(DocumentCollection(survivors))
        assert_indexes_identical(index, rebuilt)

    def test_remove_then_reindex_moves_document_to_end(self):
        docs = make_docs(5)
        index = InvertedIndex.from_collection(DocumentCollection(docs))
        index.remove_document("d1")
        index.index_document(docs[1])
        reordered = [d for d in docs if d.doc_id != "d1"] + [docs[1]]
        rebuilt = InvertedIndex.from_collection(DocumentCollection(reordered))
        assert_indexes_identical(index, rebuilt)

    def test_remove_unknown_raises(self):
        index = InvertedIndex.from_collection(DocumentCollection(make_docs(3)))
        with pytest.raises(ValueError, match="not indexed"):
            index.remove_document("nope")

    def test_term_leaves_vocabulary_when_last_posting_goes(self):
        docs = [
            Document("a", "apple banana"),
            Document("b", "banana zebra"),
        ]
        index = InvertedIndex.from_collection(DocumentCollection(docs))
        assert "zebra" in index
        index.remove_document("b")
        assert "zebra" not in index
        assert "banana" in index

    def test_copy_is_independent(self):
        index = InvertedIndex.from_collection(DocumentCollection(make_docs(6)))
        clone = index.copy()
        clone.remove_document("d2")
        clone.index_document(Document("extra", "apple zebra"))
        assert index.num_documents == 6
        assert "zebra" not in index
        # Removal renumbers nothing: d3 keeps its seq in both.
        assert index.ordinal("d3") == clone.ordinal("d3") == 3
        survivors = [d for d in make_docs(6) if d.doc_id != "d2"]
        rebuilt = InvertedIndex.from_collection(
            DocumentCollection(survivors + [Document("extra", "apple zebra")])
        )
        assert_same_order(seqs_of(clone), seqs_of(rebuilt))

    def test_removed_seq_is_never_reissued(self):
        index = InvertedIndex.from_collection(DocumentCollection(make_docs(4)))
        last = index.remove_document("d3")
        assert last == 3
        assert index.index_document(Document("n0", "apple")) == 4
        assert index.remove_document("n0") == 4
        assert index.index_document(Document("d3", "fig")) == 5
        assert sorted(seqs_of(index).values()) == [0, 1, 2, 5]

    def test_reingested_document_gets_a_seq_above_every_live_one(self):
        index = InvertedIndex.from_collection(DocumentCollection(make_docs(5)))
        index.remove_document("d1")
        seq = index.index_document(make_docs(5)[1])
        assert seq > max(s for d, s in seqs_of(index).items() if d != "d1")

    def test_explicit_seq_below_the_next_is_refused(self):
        index = InvertedIndex.from_collection(DocumentCollection(make_docs(3)))
        with pytest.raises(ValueError, match="below the next"):
            index.index_document(Document("n0", "apple"), seq=2)
        assert index.index_document(Document("n0", "apple"), seq=10) == 10
        assert index.index_document(Document("n1", "apple")) == 11


@pytest.fixture()
def engine():
    return SearchEngine(
        DocumentCollection(make_docs(20)), num_partitions=3
    )


class TestEngineEpochs:
    def test_apply_updates_identical_to_rebuild(self, engine):
        docs = make_docs(20)
        adds1 = make_docs(3, prefix="n")
        engine.apply_updates(add_documents=adds1, remove_doc_ids=["d4", "d11"])
        adds2 = [Document("n9", "fig grape apple apple")]
        engine.apply_updates(add_documents=adds2, remove_doc_ids=["n1", "d0"])
        removed = {"d4", "d11", "n1", "d0"}
        final = [d for d in docs + adds1 if d.doc_id not in removed] + adds2
        fresh = SearchEngine(
            DocumentCollection(final), num_partitions=3
        )
        assert engine.epoch == 2
        assert engine.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(engine, fresh, PROBES)

    def test_remove_then_reingest_same_batch_moves_to_end(self, engine):
        docs = make_docs(20)
        replacement = Document("d5", "apple apple zebra")
        engine.apply_updates(
            add_documents=[replacement], remove_doc_ids=["d5"]
        )
        final = [d for d in docs if d.doc_id != "d5"] + [replacement]
        fresh = SearchEngine(
            DocumentCollection(final), num_partitions=3
        )
        assert engine.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(engine, fresh, PROBES + ["zebra"])

    def test_remove_then_reingest_across_batches(self, engine):
        docs = make_docs(20)
        engine.apply_updates(remove_doc_ids=["d2"])
        engine.apply_updates(add_documents=[docs[2]])
        final = [d for d in docs if d.doc_id != "d2"] + [docs[2]]
        fresh = SearchEngine(
            DocumentCollection(final), num_partitions=3
        )
        assert engine.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(engine, fresh, PROBES)

    def test_delta_describes_the_batch(self, engine):
        snapshot = engine.apply_updates(
            add_documents=[Document("n0", "zebra yak")],
            remove_doc_ids=["d7"],
        )
        delta = snapshot.delta
        assert delta.added == ("n0",)
        assert delta.removed == ("d7",)
        assert delta.stats_changed  # token totals moved
        assert {"zebra", "yak"} <= set(delta.terms)
        assert delta.changed_ids == frozenset({"n0", "d7"})

    def test_balanced_swap_reports_stats_unchanged(self, engine):
        # Replace a doc with one of the same analyzed length: N and
        # total_tokens are preserved, so cached scores stay valid and
        # the delta says so.
        old = engine.collection["d0"]
        length = len(Analyzer().analyze(old.full_text))
        replacement = Document("swap0", " ".join(["zebra"] * length))
        snapshot = engine.apply_updates(
            add_documents=[replacement], remove_doc_ids=["d0"]
        )
        assert not snapshot.delta.stats_changed

    def test_validation_errors(self, engine):
        with pytest.raises(ValueError, match="must change the collection"):
            engine.apply_updates()
        with pytest.raises(ValueError, match="duplicate removal"):
            engine.apply_updates(remove_doc_ids=["d1", "d1"])
        with pytest.raises(ValueError, match="unknown doc_id"):
            engine.apply_updates(remove_doc_ids=["ghost"])
        with pytest.raises(ValueError, match="duplicate doc_id in batch"):
            engine.apply_updates(
                add_documents=[Document("x", "a b"), Document("x", "c d")]
            )
        with pytest.raises(ValueError, match="duplicate doc_id"):
            engine.apply_updates(add_documents=[Document("d3", "a b")])
        # A failed preparation publishes nothing.
        assert engine.epoch == 0

    def test_stale_preparation_refused(self, engine):
        first = engine.prepare_epoch(add_documents=[Document("a1", "apple")])
        second = engine.prepare_epoch(add_documents=[Document("a2", "fig")])
        assert engine.publish(first) == 1
        with pytest.raises(ValueError, match="stale epoch preparation"):
            engine.publish(second)
        assert engine.epoch == 1
        assert "a2" not in engine.collection

    def test_prepare_does_not_disturb_serving(self, engine):
        before = engine.search("apple", k=20)
        prepared = engine.prepare_epoch(
            add_documents=[Document("n0", "apple apple apple")],
            remove_doc_ids=["d0"],
        )
        # Prepared but unpublished: the served epoch is untouched.
        assert engine.epoch == 0
        assert "d0" in engine.collection
        mid = engine.search("apple", k=20)
        assert mid.doc_ids == before.doc_ids
        assert mid.scores == before.scores
        engine.publish(prepared)
        assert engine.epoch == 1
        assert "d0" not in engine.collection

    def test_pinned_query_races_publish(self, engine):
        """A query pinned to epoch N sees none of epoch N+1, even when
        the publish lands while the query is mid-flight."""
        reference = engine.search("apple", k=20)
        in_pin = threading.Event()
        release = threading.Event()
        pinned_result = {}

        def pinned_reader():
            with engine.pinned() as snap:
                in_pin.set()
                assert release.wait(10)
                # The publish has happened by now; this thread must
                # still read epoch N in full.
                pinned_result["epoch"] = snap.epoch
                pinned_result["results"] = engine.search("apple", k=20)
                pinned_result["has_new"] = "racer" in engine.collection

        reader = threading.Thread(target=pinned_reader)
        reader.start()
        assert in_pin.wait(10)
        engine.apply_updates(
            add_documents=[Document("racer", "apple apple apple apple")]
        )
        assert engine.epoch == 1
        release.set()
        reader.join(10)
        assert pinned_result["epoch"] == 0
        assert not pinned_result["has_new"]
        assert pinned_result["results"].doc_ids == reference.doc_ids
        assert pinned_result["results"].scores == reference.scores
        # Unpinned reads on the main thread see epoch N+1.
        assert "racer" in engine.collection
        assert "racer" in engine.search("apple", k=20).doc_ids

    def test_pickle_round_trip_after_updates(self, engine):
        engine.apply_updates(
            add_documents=make_docs(2, prefix="p"), remove_doc_ids=["d1"]
        )
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.epoch == engine.epoch
        assert clone.collection.doc_ids == engine.collection.doc_ids
        assert_engines_identical(clone, engine, PROBES)
        # The restored engine can keep publishing epochs.
        clone.apply_updates(remove_doc_ids=["p0"])
        assert clone.epoch == engine.epoch + 1
