"""Tests for incremental store writes: ``append_epoch``, epoch-aware
attach (``expected_epoch`` / :class:`StaleEpochError`), and the
store-backed engine's ``refresh()`` path.

The store-side identity gate mirrors the in-memory one: a store that
absorbed appends must serve byte-identically to a store written from
scratch over the final collection, and a reader must be able to tell —
with a typed, self-describing error — when it attached a store that has
been rolled back behind the epoch it needs.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import threading

import pytest

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine, stable_shard
from repro.retrieval.store import (
    IndexStore,
    StaleEpochError,
    StoreBackedSearchEngine,
    StoreError,
    append_epoch,
    write_store,
)
from tests.retrieval.search_oracle import assert_same_order

PARTITIONS = 3
PROBES = ["apple", "banana fig", "cherry grape", "durian elder apple"]


def make_docs(n: int, prefix: str = "d") -> list[Document]:
    vocab = ["apple", "banana", "cherry", "durian", "elder", "fig", "grape"]
    docs = []
    for i in range(n):
        words = [vocab[(i + j) % len(vocab)] for j in range(3 + i % 4)]
        docs.append(Document(f"{prefix}{i}", " ".join(words), title=f"t{i}"))
    return docs


def build_store(path, docs):
    engine = SearchEngine(
        DocumentCollection(docs), num_partitions=PARTITIONS
    )
    write_store(path, engine)
    return engine


def assert_engines_identical(got, want, queries=PROBES):
    for query in queries:
        g, w = got.search(query, k=50), want.search(query, k=50)
        assert g.doc_ids == w.doc_ids, query
        assert g.scores == w.scores, query


def assert_stores_identical(got_path, want_path):
    """Every stored statistic, length and posting of *got_path* equals
    *want_path*'s, with seqs compared up to an order-preserving
    relabelling."""
    got, want = IndexStore(got_path), IndexStore(want_path)
    try:
        assert (got.num_documents, got.total_tokens) == (
            want.num_documents,
            want.total_tokens,
        )
        got_seqs = {d: got.seq_of(d) for d in got.doc_ids()}
        want_seqs = {d: want.seq_of(d) for d in want.doc_ids()}
        assert_same_order(got_seqs, want_seqs)
        relabel = {got_seqs[d]: want_seqs[d] for d in got_seqs}
        assert [row[1:] for row in got.partition_table()] == [
            row[1:] for row in want.partition_table()
        ]
        for p in range(got.num_partitions):
            assert {relabel[s]: n for s, n in got.lengths(p).items()} == (
                want.lengths(p)
            )
            assert got.vocabulary(p) == want.vocabulary(p)
            for term in want.vocabulary(p):
                g, w = got.postings(p, term), want.postings(p, term)
                assert [relabel[s] for s in g.ordinals] == w.ordinals, term
                assert (g.tfs, g.collection_frequency) == (
                    w.tfs,
                    w.collection_frequency,
                ), term
    finally:
        got.close()
        want.close()


class TestEpochLog:
    def test_one_row_per_epoch_names_its_change(self, tmp_path):
        path = tmp_path / "log.sqlite3"
        docs = make_docs(9)
        build_store(path, docs)
        connection = sqlite3.connect(path)
        assert connection.execute("SELECT COUNT(*) FROM epoch_log").fetchone() == (0,)
        adds = [Document("n0", "apple zebra"), Document("n1", "fig")]
        append_epoch(path, adds, ["d2"])
        ((epoch, added, removed, postings),) = connection.execute(
            "SELECT epoch, added, removed, postings FROM epoch_log"
        ).fetchall()
        connection.close()
        assert epoch == 1
        assert json.loads(added) == [["n0", 9], ["n1", 10]]
        assert json.loads(removed) == [["d2", 2]]
        analyzer = Analyzer()
        want: dict[int, set[str]] = {}
        for doc in adds + [docs[2]]:
            shard = stable_shard(doc.doc_id, PARTITIONS)
            want.setdefault(shard, set()).update(analyzer.analyze(doc.full_text))
        assert {p: set(terms) for p, terms in json.loads(postings)} == want

        store = IndexStore(path)
        try:
            assert store.changes(0, 1) == (
                ("n0", "n1"),
                ("d2",),
                {(p, t) for p, ts in want.items() for t in ts},
            )
        finally:
            store.close()


class TestAppendEpoch:
    def test_append_identical_to_rewritten_store(self, tmp_path):
        docs = make_docs(18)
        incremental = tmp_path / "incremental.sqlite3"
        build_store(incremental, docs)
        adds = make_docs(4, prefix="n")
        assert append_epoch(incremental, adds[:2], ["d3"]) == 1
        assert append_epoch(incremental, adds[2:], ["n0", "d10"]) == 2

        removed = {"d3", "n0", "d10"}
        final = [d for d in docs + adds[:2] if d.doc_id not in removed]
        final += adds[2:]
        scratch = tmp_path / "scratch.sqlite3"
        build_store(scratch, final)

        live = StoreBackedSearchEngine(incremental)
        fresh = StoreBackedSearchEngine(scratch)
        assert live.epoch == 2
        assert live.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(live, fresh)
        assert_stores_identical(incremental, scratch)

    def test_batch_larger_than_one_id_chunk(self, tmp_path):
        docs = make_docs(8)
        path = tmp_path / "store.sqlite3"
        build_store(path, docs)
        adds = make_docs(600, prefix="n")
        append_epoch(path, adds, ["d7"])  # 601 ids: two chunks
        append_epoch(path, (), ["n599", "n550", "d0"])
        removed = {"d7", "n599", "n550", "d0"}
        final = [d for d in docs + adds if d.doc_id not in removed]
        scratch = tmp_path / "scratch.sqlite3"
        build_store(scratch, final)
        assert_stores_identical(path, scratch)

    def test_untouched_partitions_keep_their_epoch_tag(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = make_docs(18)
        build_store(path, docs)
        # A pure append touches only the shards its documents route to.
        append_epoch(path, [Document("solo", "zebra yak")], [])
        store = IndexStore(path)
        try:
            tags = [
                store.partition_epoch(p) for p in range(store.num_partitions)
            ]
        finally:
            store.close()
        assert store.store_epoch == 1
        assert tags.count(1) == 1  # exactly one shard rewritten
        assert tags.count(0) == store.num_partitions - 1

    def test_validation_errors(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        build_store(path, make_docs(8))
        with pytest.raises(StoreError, match="must change the collection"):
            append_epoch(path)
        with pytest.raises(StoreError, match="cannot remove unknown doc_id"):
            append_epoch(path, (), ["ghost"])
        with pytest.raises(StoreError, match="duplicate removal"):
            append_epoch(path, (), ["d1", "d1"])
        with pytest.raises(StoreError, match="duplicate doc_id in batch"):
            append_epoch(
                path, [Document("x", "a b"), Document("x", "c d")], ()
            )
        with pytest.raises(StoreError, match="already stored"):
            append_epoch(path, [Document("d2", "a b")], ())
        # The batch's stored rows are read in bounded IN (...) chunks; a
        # clash past the first chunk is still caught.
        with pytest.raises(StoreError, match="already stored: 'd5'"):
            append_epoch(path, make_docs(600, prefix="n") + make_docs(6)[5:], ())
        # No failed attempt advanced the epoch.
        store = IndexStore(path)
        try:
            assert store.store_epoch == 0
        finally:
            store.close()

    def test_remove_then_reingest_moves_to_end(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = make_docs(10)
        build_store(path, docs)
        replacement = Document("d4", "apple apple zebra")
        append_epoch(path, [replacement], ["d4"])
        final = [d for d in docs if d.doc_id != "d4"] + [replacement]
        scratch = tmp_path / "scratch.sqlite3"
        build_store(scratch, final)
        live = StoreBackedSearchEngine(path)
        fresh = StoreBackedSearchEngine(scratch)
        assert live.collection.doc_ids == fresh.collection.doc_ids
        assert_engines_identical(live, fresh, PROBES + ["zebra"])
        assert_stores_identical(path, scratch)

    def test_term_leaves_the_vocabulary_with_its_last_posting(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = [Document("a", "apple banana"), Document("b", "banana zebra")]
        build_store(path, docs)
        engine = StoreBackedSearchEngine(path)
        try:
            assert engine.search("zebra", 5).doc_ids == ["b"]
            append_epoch(path, (), ["b"])
            engine.refresh()
            assert len(engine.search("zebra", 5)) == 0
            assert engine.search("banana", 5).doc_ids == ["a"]
        finally:
            engine.close()
        scratch = tmp_path / "scratch.sqlite3"
        build_store(scratch, docs[:1])
        assert_stores_identical(path, scratch)
        store = IndexStore(path)
        try:
            vocabulary = {t for p in range(PARTITIONS) for t in store.vocabulary(p)}
        finally:
            store.close()
        assert "zebra" not in vocabulary and "banana" in vocabulary

    def test_reingested_document_gets_a_seq_above_every_live_one(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        build_store(path, make_docs(10))
        append_epoch(path, (), ["d4"])
        append_epoch(path, [Document("d4", "fig")], ["d9"])
        store = IndexStore(path)
        try:
            seqs = {d: store.seq_of(d) for d in store.doc_ids()}
            assert seqs["d4"] == 10 == max(seqs.values())
            assert store.next_seq == 11
        finally:
            store.close()

    def test_removed_seq_is_never_reissued(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        build_store(path, make_docs(4))
        append_epoch(path, (), ["d3"])
        append_epoch(path, [Document("n0", "apple")], ())
        append_epoch(path, (), ["n0"])
        append_epoch(path, [Document("d3", "fig")], ())
        store = IndexStore(path)
        try:
            seqs = {d: store.seq_of(d) for d in store.doc_ids()}
            assert seqs == {"d0": 0, "d1": 1, "d2": 2, "d3": 5}
            assert store.next_seq == 6
        finally:
            store.close()


class CountingConnection(sqlite3.Connection):
    """Records ``total_changes`` of every connection when it closes."""

    closed: list[int] = []

    def close(self):
        CountingConnection.closed.append(self.total_changes)
        super().close()


class TestAppendIsODelta:
    BATCH = [Document("n0", "apple zebra yak"), Document("n1", "fig quince")]

    def changes_of_append(self, tmp_path, monkeypatch, n: int) -> int:
        path = tmp_path / f"n{n}.sqlite3"
        build_store(path, make_docs(n))  # no warm artifacts to prune
        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3,
            "connect",
            lambda *args, **kw: real_connect(*args, factory=CountingConnection, **kw),
        )
        CountingConnection.closed = []
        append_epoch(path, self.BATCH, ["d0"])
        monkeypatch.setattr(sqlite3, "connect", real_connect)
        (changes,) = CountingConnection.closed
        return changes

    def test_rows_written_do_not_grow_with_the_collection(
        self, tmp_path, monkeypatch
    ):
        small = self.changes_of_append(tmp_path, monkeypatch, 200)
        large = self.changes_of_append(tmp_path, monkeypatch, 2000)
        analyzer = Analyzer()
        pairs = {
            (stable_shard(doc.doc_id, PARTITIONS), term)
            for doc in self.BATCH + make_docs(1)
            for term in analyzer.analyze(doc.full_text)
        }
        touched = {shard for shard, _ in pairs}
        # documents: 1 delete + 2 inserts; meta: num_documents,
        # total_tokens, store_epoch, next_seq; one row per touched
        # partition and per changed (partition, term); one epoch_log row.
        assert small == large == 3 + 4 + len(touched) + len(pairs) + 1


class PausingAnalyzer(Analyzer):
    """Blocks in its first document analysis until released."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def analyze_with_ends(self, text):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(10)
        return super().analyze_with_ends(text)


class TestConcurrentWriters:
    def test_second_writer_waits_for_the_first(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = make_docs(12)
        build_store(path, docs)
        first = Document("a1", "apple zebra")
        second = Document("b1", "banana yak")
        epochs, errors = [], []

        def write(*args, **kw):
            try:
                epochs.append(append_epoch(path, *args, **kw))
            except BaseException as exc:  # surfaced by the asserts below
                errors.append(exc)

        pausing = PausingAnalyzer()
        writer_a = threading.Thread(
            target=write, args=([first], ["d1"]), kwargs={"analyzer": pausing}
        )
        writer_a.start()
        assert pausing.entered.wait(10)  # A holds the lock, mid-analysis
        writer_b = threading.Thread(target=write, args=([second],))
        writer_b.start()
        writer_b.join(0.5)
        assert writer_b.is_alive() and not epochs  # B waits on the lock
        pausing.release.set()
        writer_a.join(10)
        writer_b.join(10)
        assert not writer_a.is_alive() and not writer_b.is_alive()
        assert not errors
        assert sorted(epochs) == [1, 2]
        live = StoreBackedSearchEngine(path)
        assert live.epoch == 2
        assert live.search("zebra", 5).doc_ids == ["a1"]
        assert live.search("yak", 5).doc_ids == ["b1"]
        final = [d for d in docs if d.doc_id != "d1"] + [first, second]
        assert live.collection.doc_ids == [d.doc_id for d in final]
        scratch = tmp_path / "scratch.sqlite3"
        build_store(scratch, final)
        assert_stores_identical(path, scratch)


class TestRefresh:
    def test_refresh_advances_to_latest_epoch(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = make_docs(12)
        build_store(path, docs)
        engine = StoreBackedSearchEngine(path)
        assert engine.epoch == 0
        append_epoch(path, [Document("n0", "zebra apple")], ["d1"])
        append_epoch(path, (), ["d2"])
        # Until refresh() the attached engine keeps serving its epoch.
        assert engine.epoch == 0
        assert engine.refresh() == 2
        assert engine.epoch == 2
        final = [
            d for d in docs if d.doc_id not in {"d1", "d2"}
        ] + [Document("n0", "zebra apple")]
        scratch = tmp_path / "scratch.sqlite3"
        build_store(scratch, final)
        assert_engines_identical(
            engine, StoreBackedSearchEngine(scratch), PROBES + ["zebra"]
        )

    def test_refresh_noop_at_latest(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        build_store(path, make_docs(8))
        engine = StoreBackedSearchEngine(path)
        assert engine.refresh() == 0
        assert engine.epoch == 0

    def test_refresh_detects_store_rollback(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = make_docs(8)
        build_store(path, docs)
        append_epoch(path, [Document("n0", "zebra")], [])
        engine = StoreBackedSearchEngine(path)
        assert engine.epoch == 1
        # The store's meta is rolled back in place behind the engine's
        # back (a botched restore-from-backup); refresh must refuse to
        # time-travel the collection.
        import sqlite3

        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE meta SET value = '0' WHERE key = 'store_epoch'"
            )
        with pytest.raises(StaleEpochError) as excinfo:
            engine.refresh()
        assert excinfo.value.found == 0
        assert excinfo.value.expected == 1


class TestStaleAttach:
    def test_attach_below_expected_epoch_fails_fast(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        build_store(path, make_docs(8))
        append_epoch(path, [Document("n0", "zebra")], [])
        with pytest.raises(StaleEpochError) as excinfo:
            StoreBackedSearchEngine(path, expected_epoch=5)
        error = excinfo.value
        assert error.found == 1
        assert error.expected == 5
        assert "stale epoch 1" in str(error)
        assert "at least epoch 5" in str(error)
        assert isinstance(error, StoreError)

    def test_attach_at_or_above_expected_epoch_succeeds(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        build_store(path, make_docs(8))
        append_epoch(path, [Document("n0", "zebra")], [])
        engine = StoreBackedSearchEngine(path, expected_epoch=1)
        assert engine.epoch == 1
        # A newer store than expected is fine — the floor is the
        # respawn contract, not an exact pin.
        newer = StoreBackedSearchEngine(path, expected_epoch=0)
        assert newer.epoch == 1

    def test_pickle_recipe_carries_epoch_floor(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        docs = make_docs(8)
        build_store(path, docs)
        append_epoch(path, [Document("n0", "zebra apple")], [])
        engine = StoreBackedSearchEngine(path)
        blob = pickle.dumps(engine)
        clone = pickle.loads(blob)
        assert clone.epoch == 1
        assert_engines_identical(clone, engine, PROBES + ["zebra"])
        # Roll the store back behind the pickled floor: rehydration (the
        # worker-respawn path) must fail with the typed error instead
        # of silently serving the older collection.
        build_store(path, docs)
        with pytest.raises(StaleEpochError) as excinfo:
            pickle.loads(blob)
        assert excinfo.value.found == 0
        assert excinfo.value.expected == 1
