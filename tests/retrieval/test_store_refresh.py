"""What a store-backed engine keeps across ``refresh()``: everything but
what the epochs' ``epoch_log`` rows name.  Cached document rows survive
unless their doc_id was added or removed, and posting pages (absent-term
entries included) unless their ``(partition, term)`` row was rewritten.
Store access is counted by wrapping the ``IndexStore`` methods."""

from __future__ import annotations

import sqlite3

import pytest

from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine, stable_shard
from repro.retrieval.snippets import SnippetExtractor
from repro.retrieval.store import (
    IndexStore,
    StoreBackedSearchEngine,
    StoreError,
    append_epoch,
    write_store,
)
from tests.retrieval.search_oracle import assert_same_order

PARTITIONS = 4
WORDS = ["apple", "banana", "cherry", "durian", "elder", "fig", "grape"]


def shard_of(doc_id: str) -> int:
    return stable_shard(doc_id, PARTITIONS, 0)


def make_docs(n: int) -> list[Document]:
    return [
        Document(
            f"d{i}",
            " ".join(WORDS[(i + j) % len(WORDS)] for j in range(3 + i % 4)),
            title=f"title {i}",
        )
        for i in range(n)
    ]


def doc_for(shard: int, text: str, prefix: str = "new") -> Document:
    """A fresh document that hashes to partition *shard*."""
    for i in range(1000):
        if shard_of(f"{prefix}{i}") == shard:
            return Document(f"{prefix}{i}", text)
    raise AssertionError("no id found")


@pytest.fixture
def docs():
    return make_docs(24)


@pytest.fixture
def store_path(tmp_path, docs):
    path = tmp_path / "index.sqlite3"
    write_store(path, SearchEngine(DocumentCollection(docs), PARTITIONS))
    return path


@pytest.fixture
def engine(store_path):
    engine = StoreBackedSearchEngine(store_path)
    yield engine
    engine.close()


@pytest.fixture
def calls(monkeypatch):
    """Arguments of every ``IndexStore.document_row`` / ``doc_id_at`` /
    ``postings`` call, by method name."""
    seen = {"document_row": [], "doc_id_at": [], "postings": []}
    for name, log in seen.items():
        original = getattr(IndexStore, name)

        def counted(store, *args, _original=original, _log=log):
            _log.append(args)
            return _original(store, *args)

        monkeypatch.setattr(IndexStore, name, counted)
    return seen


def forward_of(document: Document):
    return SnippetExtractor().analyse_document(document)


class TestRowsAcrossRefresh:
    def test_rows_outside_the_rewritten_partition_are_not_fetched_again(
        self, engine, store_path, docs, calls
    ):
        lookup = engine._forward_lookup()
        for document in docs:
            assert lookup(document.doc_id)[:2] == (forward_of(document), document)
        assert len(calls["document_row"]) == len(docs)
        arrival = doc_for(2, "apple fig")
        assert any(shard_of(d.doc_id) == 2 for d in docs)
        append_epoch(store_path, [arrival])
        engine.refresh()
        del calls["document_row"][:]
        lookup = engine._forward_lookup()
        for document in docs + [arrival]:
            assert lookup(document.doc_id)[:2] == (forward_of(document), document)
        # Not even the rewritten partition's other rows: only the arrival.
        assert calls["document_row"] == [(arrival.doc_id,)]

    def test_search_results_keep_their_seqs_across_a_removal(
        self, engine, store_path, docs, calls
    ):
        """A removal moves no other document's seq, so the seq → doc_id
        entries cached before it still resolve the refreshed epoch's
        results, and every row — the removed document's partition's
        included — still comes from the cache."""
        before = engine.search("apple banana", 50)
        engine.snippet_vectors("apple banana", before)
        victim = docs[0].doc_id
        append_epoch(store_path, (), [victim])
        engine.refresh()
        for log in calls.values():
            del log[:]
        after = engine.search("apple banana", 50)
        assert victim in before and victim not in after
        assert set(after.doc_ids) == set(before.doc_ids) - {victim}
        assert calls["doc_id_at"] == []  # every seq was resolved before
        assert any(shard_of(d) == shard_of(victim) for d in after.doc_ids)
        engine.snippet_vectors("apple banana", after)
        assert calls["document_row"] == []

    @pytest.mark.parametrize("refresh_each_epoch", [True, False])
    def test_removed_then_readded_serves_the_new_text(
        self, engine, store_path, docs, refresh_each_epoch
    ):
        old = docs[3]
        collection = engine.collection
        assert collection[old.doc_id].text == old.text
        append_epoch(store_path, (), [old.doc_id])
        if refresh_each_epoch:
            engine.refresh()
            assert old.doc_id not in engine.collection
            with pytest.raises(KeyError):
                engine.collection[old.doc_id]
            with pytest.raises(KeyError):
                engine.forward_row(old.doc_id)
        new = Document(old.doc_id, "grape grape elder", title="rewritten")
        append_epoch(store_path, [new])
        engine.refresh()
        assert engine.epoch == 2
        assert engine.collection[old.doc_id] == new
        assert engine.forward_row(old.doc_id) == forward_of(new)
        # Re-ingested: after every live document, as a rebuild orders it.
        store = engine.store
        final = [d.doc_id for d in docs if d.doc_id != old.doc_id] + [new.doc_id]
        assert_same_order(
            {doc_id: store.seq_of(doc_id) for doc_id in final},
            {doc_id: position for position, doc_id in enumerate(final)},
        )
        # The view attached before the epochs still serves what it cached.
        assert collection[old.doc_id].text == old.text

    def test_repeated_query_after_an_unrelated_epoch_probes_no_seq(
        self, engine, store_path, docs, calls
    ):
        before = engine.search("apple banana", 50)
        assert len(calls["doc_id_at"]) == len(before)
        append_epoch(store_path, [doc_for(1, "zebra yak")])
        engine.refresh()
        del calls["doc_id_at"][:]
        after = engine.search("apple banana", 50)
        assert after.doc_ids == before.doc_ids
        assert calls["doc_id_at"] == []

    def test_removed_seq_is_never_reissued(self, engine, store_path, docs):
        store = engine.store
        last = docs[-1].doc_id
        removed_seq = store.seq_of(last)
        assert removed_seq == store.next_seq - 1
        append_epoch(store_path, (), [last])
        append_epoch(store_path, [Document("n0", "fig"), docs[-1]])
        engine.refresh()
        assert store.seq_of("n0") == removed_seq + 1
        assert store.seq_of(last) == removed_seq + 2
        assert store.doc_id_at(removed_seq) is None
        assert store.next_seq == removed_seq + 3

    def test_older_view_cannot_write_into_the_new_cache(
        self, engine, store_path, docs, calls
    ):
        old_view = engine.collection
        elsewhere = next(d for d in docs if shard_of(d.doc_id) != 1)
        append_epoch(store_path, [doc_for(1, "cherry")])
        engine.refresh()
        new_view = engine.collection
        assert new_view is not old_view
        assert old_view[elsewhere.doc_id] == elsewhere  # fetched by the old view
        assert len(calls["document_row"]) == 1
        assert new_view[elsewhere.doc_id] == elsewhere  # ... and again by the new
        assert len(calls["document_row"]) == 2
        assert new_view[elsewhere.doc_id] == elsewhere
        assert len(calls["document_row"]) == 2


class TestExactRefresh:
    def test_reader_two_epochs_behind_refetches_only_what_changed(
        self, engine, store_path, docs, calls
    ):
        """Remove d, re-add d with new text, and add another document to
        d's partition, in two epochs the reader skips: after one refresh
        it serves exactly what a fresh attach serves, having re-read only
        the rewritten postings rows and the changed documents' rows."""
        query = "apple banana grape"
        before = engine.search(query, 50)
        engine.snippet_vectors(query, before)
        old = next(d for d in docs if d.doc_id in before and "grape" in d.text)
        shard = shard_of(old.doc_id)
        new = Document(old.doc_id, "grape grape elder", title="rewritten")
        neighbour = doc_for(shard, "apple durian banana")
        append_epoch(store_path, (), [old.doc_id])
        append_epoch(store_path, [new, neighbour])
        for log in calls.values():
            del log[:]

        evicted = []
        evict_pages = engine.page_cache.evict_pages
        engine.page_cache.evict_pages = lambda keys: (
            evicted.append(set(keys)) or evict_pages(keys)
        )
        assert engine.refresh() == 2
        changed_terms = {
            term for d in (old, new, neighbour) for term in forward_of(d).terms
        }
        assert evicted == [{(shard, term) for term in changed_terms}]
        after = engine.search(query, 50)
        vectors = engine.snippet_vectors(query, after)
        query_terms = set(engine.analyzer.analyze(query))
        assert sorted(calls["postings"]) == sorted(
            (shard, term) for term in query_terms & changed_terms
        )
        changed = {old.doc_id, neighbour.doc_id}
        assert {doc_id for (doc_id,) in calls["document_row"]} == {
            d for d in after.doc_ids if d in changed or d not in before
        }
        # The rewritten partition kept its unchanged members' rows.
        assert any(
            shard_of(d) == shard and d not in changed and d in before
            for d in after.doc_ids
        )

        fresh = StoreBackedSearchEngine(store_path)
        try:
            want = fresh.search(query, 50)
            assert [(r.doc_id, r.score) for r in after] == [
                (r.doc_id, r.score) for r in want
            ]
            assert {d: list(v.weights.items()) for d, v in vectors.items()} == {
                d: list(v.weights.items())
                for d, v in fresh.snippet_vectors(query, want).items()
            }
        finally:
            fresh.close()

    def test_a_missing_log_row_is_a_store_error(self, engine, store_path):
        append_epoch(store_path, [doc_for(0, "fig")])
        append_epoch(store_path, [doc_for(1, "fig", prefix="other")])
        connection = sqlite3.connect(store_path)
        connection.execute("DELETE FROM epoch_log WHERE epoch = 1")
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="epoch_log holds 1 of the 2"):
            engine.refresh()
        assert engine.epoch == 0


class TestAbsentTerms:
    def test_one_probe_per_partition_until_an_epoch_adds_the_term(
        self, engine, store_path, calls
    ):
        assert len(engine.search("zebra", 5)) == 0
        assert sorted(calls["postings"]) == [(p, "zebra") for p in range(PARTITIONS)]
        # Another qtf is another impact list, so the partitions are asked
        # again — and answer from the page cache.
        assert len(engine.search("zebra zebra", 5)) == 0
        assert len(calls["postings"]) == PARTITIONS
        stats = engine.page_cache_info()
        assert (stats.hits, stats.misses) == (PARTITIONS, PARTITIONS)
        assert stats.pages == PARTITIONS

        arrival = doc_for(3, "zebra crossing")
        append_epoch(store_path, [arrival])
        engine.refresh()
        assert engine.page_cache_info().pages == PARTITIONS - 1
        assert engine.search("zebra", 5).doc_ids == [arrival.doc_id]
        assert calls["postings"][PARTITIONS:] == [(3, "zebra")]

    def test_page_cache_counters_stay_consistent(self, engine, store_path):
        for query in ("apple", "zebra", "apple zebra", "banana apple apple"):
            engine.search(query, 5)
        append_epoch(store_path, [doc_for(0, "apple zebra")])
        engine.refresh()
        for query in ("apple", "zebra", "fig zebra"):
            engine.search(query, 5)
        # 4 distinct (term, qtf) gathered before the epoch, 3 after it.
        stats = engine.page_cache_info()
        assert stats.hits + stats.misses == (4 + 3) * PARTITIONS
        cache = engine.page_cache
        assert stats.pages == len(cache._pages)
        assert stats.resident_bytes == sum(n for _, n in cache._pages.values())
        assert stats.resident_bytes == sum(
            cache.partition_bytes(p) for p in range(PARTITIONS)
        )
        absent = [key for key, (page, _) in cache._pages.items() if not page]
        assert {term for _, term in absent} == {"zebra"}
        assert all(n > 0 for _, n in cache._pages.values())
