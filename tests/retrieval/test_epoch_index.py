"""Tests for sequence numbers at the index layer and epoch-versioned
serving at the engine layer.

An index numbers its documents once, in indexing order, and never hands
a number out twice.  An engine changes its collection only through a
store: a batch is appended to the store file and the attached engine
publishes it as the next epoch on ``refresh()``.  The snapshot side of
the contract is isolation: a query pinned to epoch N never observes any
part of epoch N+1, even when the refresh lands mid-query.  A store-backed
snapshot does not meet it yet for reads that miss its caches (they read
the store's current rows), so those two gates are strict ``xfail``s that
turn into failures the day the store serves an epoch by itself.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine, stable_shard
from repro.retrieval.index import InvertedIndex
from repro.retrieval.store import (
    StoreBackedSearchEngine,
    StoreError,
    append_epoch,
    write_store,
)


def make_docs(n: int, prefix: str = "d") -> list[Document]:
    vocab = ["apple", "banana", "cherry", "durian", "elder", "fig", "grape"]
    docs = []
    for i in range(n):
        words = [vocab[(i + j) % len(vocab)] for j in range(3 + i % 4)]
        docs.append(Document(f"{prefix}{i}", " ".join(words), title=f"t{i}"))
    return docs


def assert_engines_identical(got, want, queries):
    for query in queries:
        g, w = got.search(query, k=50), want.search(query, k=50)
        assert g.doc_ids == w.doc_ids, query
        assert g.scores == w.scores, query


PROBES = ["apple", "banana fig", "cherry grape", "durian elder apple"]


class TestIndexSeqs:
    def test_explicit_seq_below_the_next_is_refused(self):
        index = InvertedIndex.from_collection(DocumentCollection(make_docs(3)))
        with pytest.raises(ValueError, match="below the next"):
            index.index_document(Document("n0", "apple"), seq=2)
        assert index.index_document(Document("n0", "apple"), seq=10) == 10
        assert index.index_document(Document("n1", "apple")) == 11


@pytest.fixture()
def engine(tmp_path):
    path = tmp_path / "index.sqlite3"
    write_store(path, SearchEngine(DocumentCollection(make_docs(20)), 3))
    engine = StoreBackedSearchEngine(path)
    yield engine
    engine.close()


def publish(engine, adds=(), removes=()):
    append_epoch(engine.store_path, adds, removes)
    return engine.refresh()


#: Why the isolation gates are expected to fail on a store-backed engine.
STORE_READS_ARE_CURRENT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a store-backed snapshot reads the store's current rows on a "
    "cache miss: a document added by a later epoch is a member",
)


class TestEngineEpochs:
    def test_refresh_identical_to_rebuild(self, engine):
        docs = make_docs(20)
        adds1 = make_docs(3, prefix="n")
        assert publish(engine, adds1, ["d4", "d11"]) == 1
        adds2 = [Document("n9", "fig grape apple apple")]
        assert publish(engine, adds2, ["n1", "d0"]) == 2
        removed = {"d4", "d11", "n1", "d0"}
        final = [d for d in docs + adds1 if d.doc_id not in removed] + adds2
        fresh = SearchEngine(DocumentCollection(final), num_partitions=3)
        assert engine.epoch == 2
        assert engine.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(engine, fresh, PROBES)

    def test_remove_then_reingest_same_batch_moves_to_end(self, engine):
        docs = make_docs(20)
        replacement = Document("d5", "apple apple zebra")
        publish(engine, [replacement], ["d5"])
        final = [d for d in docs if d.doc_id != "d5"] + [replacement]
        fresh = SearchEngine(DocumentCollection(final), num_partitions=3)
        assert engine.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(engine, fresh, PROBES + ["zebra"])

    def test_remove_then_reingest_across_batches(self, engine):
        docs = make_docs(20)
        publish(engine, removes=["d2"])
        publish(engine, [docs[2]])
        final = [d for d in docs if d.doc_id != "d2"] + [docs[2]]
        fresh = SearchEngine(DocumentCollection(final), num_partitions=3)
        assert engine.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(engine, fresh, PROBES)

    def test_a_refresh_over_two_epochs_evicts_their_pages_and_carries_the_rest(
        self, engine, monkeypatch
    ):
        """One refresh over two logged epochs evicts the pages both name,
        in one pass, and carries every cached document row but the
        changed doc_ids'."""
        victim = engine.collection["d3"]
        for doc_id in ("d1", "d5"):
            engine.collection[doc_id]
        evicted = []
        evict_pages = engine.page_cache.evict_pages
        monkeypatch.setattr(
            engine.page_cache,
            "evict_pages",
            lambda keys: evicted.append(set(keys)) or evict_pages(keys),
        )
        append_epoch(engine.store_path, [Document("n0", "zebra")], ["d3"])
        append_epoch(engine.store_path, [Document("n1", "yak")], ["n0"])
        assert engine.refresh() == 2
        analyze = Analyzer().analyze
        assert evicted == [
            {(stable_shard("n0", 3), "zebra"), (stable_shard("n1", 3), "yak")}
            | {(stable_shard("d3", 3), t) for t in analyze(victim.full_text)}
        ]
        carried = engine.snapshot().collection.cached_entries(())
        assert {doc_id for doc_id, _ in carried} == {"d1", "d5"}

    def test_a_same_token_count_swap_publishes_like_any_epoch(
        self, engine, monkeypatch
    ):
        """A swap that keeps N and the token total is no special case: the
        refresh evicts both documents' pages, carries the other cached
        rows, and the engine equals a rebuild of the new collection."""
        docs = make_docs(20)
        old = engine.collection["d0"]
        engine.collection["d2"]
        analyze = Analyzer().analyze
        swap = Document("swap0", " ".join(["zebra"] * len(analyze(old.full_text))))
        before = engine.snapshot()
        evicted = []
        evict_pages = engine.page_cache.evict_pages
        monkeypatch.setattr(
            engine.page_cache,
            "evict_pages",
            lambda keys: evicted.append(set(keys)) or evict_pages(keys),
        )
        assert publish(engine, [swap], ["d0"]) == 1
        after = engine.snapshot()
        assert (after.num_documents, after.total_tokens) == (
            before.num_documents, before.total_tokens,
        )
        assert evicted == [
            {(stable_shard("swap0", 3), "zebra")}
            | {(stable_shard("d0", 3), t) for t in analyze(old.full_text)}
        ]
        carried = after.collection.cached_entries(())
        assert {doc_id for doc_id, _ in carried} == {"d2"}
        fresh = SearchEngine(
            DocumentCollection([d for d in docs if d.doc_id != "d0"] + [swap]),
            num_partitions=3,
        )
        assert_engines_identical(engine, fresh, PROBES + ["zebra"])

    def test_a_refused_append_publishes_nothing(self, engine):
        before = engine.search("apple", k=20)
        for adds, removes in (
            ((), ()),
            ((), ["ghost"]),
            ((), ["d1", "d1"]),
            ([Document("x", "a b"), Document("x", "c d")], ()),
            ([Document("d3", "a b")], ()),
        ):
            with pytest.raises(StoreError):
                append_epoch(engine.store_path, adds, removes)
        assert engine.refresh() == 0
        assert engine.epoch == 0
        after = engine.search("apple", k=20)
        assert (after.doc_ids, after.scores) == (before.doc_ids, before.scores)

    @STORE_READS_ARE_CURRENT
    def test_pinned_query_races_publish(self, engine):
        """A query pinned to epoch N sees none of epoch N+1, even when
        the refresh lands while the query is mid-flight."""
        reference = engine.search("apple", k=20)
        in_pin = threading.Event()
        release = threading.Event()
        pinned_result = {}

        def pinned_reader():
            with engine.pinned() as snap:
                in_pin.set()
                assert release.wait(10)
                # The refresh has happened by now; this thread must
                # still read epoch N in full.
                pinned_result["epoch"] = snap.epoch
                pinned_result["results"] = engine.search("apple", k=20)
                pinned_result["has_new"] = "racer" in engine.collection

        reader = threading.Thread(target=pinned_reader)
        reader.start()
        assert in_pin.wait(10)
        publish(engine, [Document("racer", "apple apple apple apple")])
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

    @STORE_READS_ARE_CURRENT
    def test_an_append_is_invisible_until_refresh(self, engine):
        """An epoch appended to the store is not served — no postings, no
        document rows, no statistics — until the engine refreshes onto it."""
        reference = engine.search("apple", k=20)
        victim = reference.doc_ids[0]
        row = engine.forward_row(victim)
        append_epoch(
            engine.store_path,
            [Document("racer", "apple apple apple apple")],
            [victim],
        )
        for _ in range(2):  # the second pass reads from the caches
            got = engine.search("apple", k=20)
            assert (got.doc_ids, got.scores) == (
                reference.doc_ids, reference.scores
            )
            assert "racer" not in engine.collection
            assert engine.forward_row(victim) == row
        assert engine.refresh() == 1
        assert "racer" in engine.search("apple", k=20).doc_ids
        assert victim not in engine.collection

    def test_pickle_round_trip_after_updates(self, engine):
        publish(engine, make_docs(2, prefix="p"), ["d1"])
        clone = pickle.loads(pickle.dumps(engine))
        try:
            assert clone.epoch == engine.epoch
            assert clone.collection.doc_ids == engine.collection.doc_ids
            assert_engines_identical(clone, engine, PROBES)
            # The restored engine keeps following the store's epochs.
            append_epoch(engine.store_path, (), ["p0"])
            assert clone.refresh() == engine.epoch + 1
        finally:
            clone.close()
