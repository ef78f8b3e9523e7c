"""Tests for the durable index store: write/attach identity, posting
page cache bounds, the enforced memory budget with LRU partition
eviction, schema validation, concurrent attach, and the warm-artifact
round trip through SQLite."""

from __future__ import annotations

import json
import multiprocessing
import pickle
import sqlite3

import pytest

from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import (
    MemoryBudget,
    SearchEngine,
    stable_shard,
)
from repro.retrieval.store import (
    SCHEMA_VERSION,
    IndexStore,
    PostingPageCache,
    StoreBackedCollection,
    StoreBackedSearchEngine,
    StoreError,
    append_epoch,
    decode_warm_artifact,
    encode_warm_artifact,
    read_warm_artifacts,
    write_store,
)
from repro.serving.service import DiversificationService

K = 20


@pytest.fixture(scope="module")
def built_engine(small_corpus):
    return SearchEngine(small_corpus.collection, 3)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, built_engine):
    path = tmp_path_factory.mktemp("store") / "index.sqlite3"
    write_store(path, built_engine)
    return path


def assert_identical(expected, got, query):
    __tracebackhide__ = True
    assert [r.doc_id for r in got] == [r.doc_id for r in expected], query
    assert got.scores == expected.scores, query


class TestWriteAttachIdentity:
    def test_rankings_and_scores_identical(
        self, built_engine, store_path, topic_queries
    ):
        engine = StoreBackedSearchEngine(store_path)
        try:
            # Attach reads no postings: nothing paged in, nothing missed.
            assert engine.memory_estimate()["postings_bytes"] == 0
            info = engine.page_cache_info()
            assert (info.pages, info.misses) == (0, 0)
            for query in topic_queries:
                assert_identical(
                    built_engine.search(query, K), engine.search(query, K), query
                )
            # Only what the probes touched is resident.
            assert (
                engine.memory_estimate()["total_bytes"]
                < built_engine.memory_estimate()["total_bytes"]
            )
        finally:
            engine.close()

    def test_empty_result_query(self, built_engine, store_path):
        engine = StoreBackedSearchEngine(store_path)
        try:
            query = "zzznonexistentterm"
            assert len(built_engine.search(query, K)) == 0
            assert len(engine.search(query, K)) == 0
        finally:
            engine.close()

    def test_global_statistics_round_trip(self, built_engine, store_path):
        store = IndexStore(store_path)
        try:
            assert store.num_partitions == built_engine.num_partitions
            assert store.num_documents == len(built_engine.collection)
            assert store.total_tokens == sum(
                index.total_tokens for index in built_engine.partitions
            )
        finally:
            store.close()

    def test_average_document_length_matches_exactly(
        self, built_engine, store_path
    ):
        engine = StoreBackedSearchEngine(store_path)
        try:
            # The DFR model's avg_dl must come out as the *same float*,
            # or scores drift — exact ints in, exact division out.
            assert (
                engine.snapshot().average_document_length
                == built_engine.snapshot().average_document_length
            )
        finally:
            engine.close()

    def test_snippet_vectors_identical(
        self, built_engine, store_path, topic_queries
    ):
        query = topic_queries[0]
        reference = built_engine.search(query, 5)
        engine = StoreBackedSearchEngine(store_path)
        try:
            results = engine.search(query, 5)
            got = engine.snippet_vectors(query, results)
            expected = built_engine.snippet_vectors(query, reference)
            assert {d: v.weights for d, v in got.items()} == {
                d: v.weights for d, v in expected.items()
            }
        finally:
            engine.close()

    def test_pickle_round_trip_re_attaches(self, store_path, topic_queries):
        engine = StoreBackedSearchEngine(store_path, memory_budget=10_000_000)
        try:
            expected = engine.search(topic_queries[0], K)
            clone = pickle.loads(pickle.dumps(engine))
            try:
                assert clone.memory_budget.limit_bytes == 10_000_000
                assert_identical(
                    expected, clone.search(topic_queries[0], K), topic_queries[0]
                )
            finally:
                clone.close()
        finally:
            engine.close()

    def test_failed_write_preserves_previous_store(
        self, built_engine, tmp_path, topic_queries
    ):
        """A writer that dies after the postings are in leaves the
        previous store attachable and no tmp file behind."""
        path = write_store(tmp_path / "index.sqlite3", built_engine)
        original = path.read_bytes()

        class DiskFull(RuntimeError):
            pass

        class FailingPayloads(dict):
            def items(self):
                raise DiskFull("warm rows never arrive")

        with pytest.raises(DiskFull):
            write_store(path, built_engine, FailingPayloads({0: {}}))
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        engine = StoreBackedSearchEngine(path)
        try:
            assert_identical(
                built_engine.search(topic_queries[0], K),
                engine.search(topic_queries[0], K),
                topic_queries[0],
            )
        finally:
            engine.close()


class TestPageCache:
    def test_capacity_is_enforced(self, built_engine, store_path, topic_queries):
        engine = StoreBackedSearchEngine(store_path, page_cache_bytes=20_000)
        try:
            for query in topic_queries:
                assert_identical(
                    built_engine.search(query, K), engine.search(query, K), query
                )
                stats = engine.page_cache_info()
                # A single oversized page may be resident alone; otherwise
                # the cache never exceeds its capacity.
                assert (
                    stats.resident_bytes <= 20_000 or stats.pages == 1
                )
            assert engine.page_cache_info().evictions > 0
        finally:
            engine.close()

    def test_hits_on_repeated_query(
        self, built_engine, tmp_path, topic_queries, monkeypatch
    ):
        """A repeated query is served from the impact memo — neither the
        store nor the page cache is touched; once an epoch rewrites some
        postings rows the impacts are re-derived, re-reading only the
        rewritten rows the query needs: none here, since the added
        document shares no term with it."""
        path = write_store(tmp_path / "index.sqlite3", built_engine)
        engine = StoreBackedSearchEngine(path)
        probes = []
        fetch = IndexStore.postings
        monkeypatch.setattr(
            IndexStore,
            "postings",
            lambda store, p, term: probes.append((p, term)) or fetch(store, p, term),
        )
        try:
            query = topic_queries[0]
            terms = set(engine.analyzer.analyze(query))
            first = engine.search(query, K)
            assert sorted(probes) == sorted((p, t) for p in range(3) for t in terms)
            before = engine.page_cache_info()
            assert_identical(first, engine.search(query, K), query)
            assert len(probes) == 3 * len(terms)
            stats = engine.page_cache_info()
            assert (stats.hits, stats.misses) == (before.hits, before.misses)

            fresh = Document("fresh-doc", "entirely unrelated filler words")
            assert terms.isdisjoint(engine.analyzer.analyze(fresh.full_text))
            append_epoch(path, [fresh])
            engine.refresh()
            del probes[:]
            assert engine.search(query, K).doc_ids == first.doc_ids
            assert probes == []
            after = engine.page_cache_info()
            assert after.misses == stats.misses
            assert after.hits - stats.hits == 3 * len(terms) > 0

            # An epoch that does hold a query term re-reads exactly that
            # (partition, term) row.
            term = sorted(terms)[0]
            matching = Document("matching-doc", f"{term} filler")
            rewritten = stable_shard(matching.doc_id, 3, built_engine.seed)
            append_epoch(path, [matching])
            engine.refresh()
            engine.search(query, K)
            assert probes == [(rewritten, term)]
        finally:
            engine.close()

    def test_oversized_page_admitted_alone(self):
        cache = PostingPageCache(capacity_bytes=10)
        from repro.retrieval.index import PostingList

        page = PostingList()
        page.ordinals.extend(range(100))
        page.tfs.extend([1] * 100)
        cache.put((0, "big"), page, 5000)
        assert cache.get((0, "big")) is page
        assert cache.stats().pages == 1


class TestMemoryBudget:
    def test_resident_stays_under_budget_with_identical_results(
        self, built_engine, store_path, topic_queries
    ):
        limit = 5_000
        engine = StoreBackedSearchEngine(store_path, memory_budget=limit)
        try:
            for query in topic_queries:
                assert_identical(
                    built_engine.search(query, K), engine.search(query, K), query
                )
                resident = sum(p.resident_bytes() for p in engine.partitions)
                assert resident <= limit
            budget = engine.memory_budget
            assert budget.enforcements > 0
            assert budget.partitions_evicted > 0
            assert budget.bytes_evicted > 0
        finally:
            engine.close()

    def test_eviction_then_repage_identity(
        self, built_engine, store_path, topic_queries
    ):
        engine = StoreBackedSearchEngine(store_path)
        try:
            query = topic_queries[0]
            expected = built_engine.search(query, K)
            assert_identical(expected, engine.search(query, K), query)
            for partition in engine.partitions:
                partition.evict()
            assert sum(p.resident_bytes() for p in engine.partitions) == 0
            assert_identical(expected, engine.search(query, K), query)
        finally:
            engine.close()

    def test_in_memory_engine_rejects_budget(self, built_engine):
        with pytest.raises(ValueError, match="not evictable"):
            built_engine.set_memory_budget(1_000_000)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)


class TestSchemaValidation:
    def test_malformed_db_names_file(self, tmp_path):
        path = tmp_path / "garbage.sqlite3"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.raises(StoreError, match="garbage.sqlite3"):
            IndexStore(path)

    def test_plain_sqlite_without_meta_fails_fast(self, tmp_path):
        path = tmp_path / "other.sqlite3"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="other.sqlite3"):
            IndexStore(path)

    def test_older_schema_names_both_versions(self, tmp_path):
        path = tmp_path / "old.sqlite3"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', '0')"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError) as excinfo:
            IndexStore(path)
        message = str(excinfo.value)
        assert "old.sqlite3" in message
        assert "0" in message
        assert str(SCHEMA_VERSION) in message

    def test_v6_store_refused_by_reader_and_writer_unmodified(
        self, tmp_path, tiny_collection
    ):
        built = SearchEngine(tiny_collection, 2)
        query = "apple computer"
        results = built.search(query, 3)
        # What a v6 writer left: warm payloads whose results carry no seq.
        payload = json.loads(
            encode_warm_artifact(
                query, results, built.snippet_vectors(query, results)
            )
        )
        payload["results"] = [row[:2] for row in payload["results"]]
        path = write_store(
            tmp_path / "v6.sqlite3", built, {0: {query: json.dumps(payload)}}
        )
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '6' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert SCHEMA_VERSION == 7
        for attempt in (
            lambda: IndexStore(path),
            lambda: append_epoch(path, [Document("n0", "apple")], ["banana"]),
        ):
            with pytest.raises(StoreError) as excinfo:
                attempt()
            message = str(excinfo.value)
            assert "v6.sqlite3" in message
            assert "version 6" in message and "version 7" in message
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v6.sqlite3"]

    def test_v5_store_refused_by_reader_and_writer_unmodified(
        self, tmp_path, tiny_collection
    ):
        path = write_store(
            tmp_path / "v5.sqlite3", SearchEngine(tiny_collection, 2)
        )
        # What a v5 writer left: no epoch log.
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE epoch_log")
        conn.execute("UPDATE meta SET value = '5' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert SCHEMA_VERSION == 7
        for attempt in (
            lambda: IndexStore(path),
            lambda: append_epoch(path, [Document("n0", "apple")], ["banana"]),
        ):
            with pytest.raises(StoreError) as excinfo:
                attempt()
            message = str(excinfo.value)
            assert "v5.sqlite3" in message
            assert "version 5" in message and "version 7" in message
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v5.sqlite3"]

    def test_v4_store_refused_by_reader_and_writer_unmodified(
        self, tmp_path, tiny_collection
    ):
        path = write_store(
            tmp_path / "v4.sqlite3", SearchEngine(tiny_collection, 2)
        )
        # What a v4 writer left: dense ordinals, global-ordinal maps, no
        # next_seq.
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE documents RENAME COLUMN seq TO ordinal")
        conn.execute("ALTER TABLE partitions RENAME COLUMN seqs TO global_ordinals")
        conn.execute("DELETE FROM meta WHERE key = 'next_seq'")
        conn.execute("UPDATE meta SET value = '4' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        assert SCHEMA_VERSION == 7
        for attempt in (
            lambda: IndexStore(path),
            lambda: append_epoch(path, [Document("n0", "apple")], ["banana"]),
        ):
            with pytest.raises(StoreError) as excinfo:
                attempt()
            message = str(excinfo.value)
            assert "v4.sqlite3" in message
            assert "version 4" in message and "version 7" in message
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v4.sqlite3"]

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(StoreError):
            IndexStore(tmp_path / "missing.sqlite3")


class TestEmptyPartitions:
    def test_more_partitions_than_documents(self, tmp_path, tiny_collection):
        built = SearchEngine(tiny_collection, 8)
        path = tmp_path / "sparse.sqlite3"
        write_store(path, built)
        engine = StoreBackedSearchEngine(path)
        try:
            assert engine.num_partitions == 8
            for query in ("apple computer", "banana fruit", "orchard"):
                assert_identical(
                    built.search(query, 5), engine.search(query, 5), query
                )
        finally:
            engine.close()


def _attach_and_search(store_path, query, k, out):
    engine = StoreBackedSearchEngine(store_path)
    try:
        out.put([(r.doc_id, r.score) for r in engine.search(query, k)])
    finally:
        engine.close()


class TestConcurrentAttach:
    def test_two_processes_attach_the_same_store(
        self, built_engine, store_path, topic_queries
    ):
        query = topic_queries[0]
        expected = [
            (r.doc_id, r.score) for r in built_engine.search(query, K)
        ]
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        workers = [
            ctx.Process(
                target=_attach_and_search, args=(store_path, query, K, out)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        results = [out.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
        assert results == [expected, expected]

    def test_parent_attach_survives_fork_use(self, store_path, topic_queries):
        # The parent's own attached engine must keep working after other
        # processes opened the same file (WAL read-only attach).
        engine = StoreBackedSearchEngine(store_path)
        try:
            first = engine.search(topic_queries[0], K)
            second = engine.search(topic_queries[0], K)
            assert [r.doc_id for r in first] == [r.doc_id for r in second]
        finally:
            engine.close()


class TestStoreBackedCollection:
    def test_surface_matches_original(self, small_corpus, store_path):
        store = IndexStore(store_path)
        collection = StoreBackedCollection(store)
        original = small_corpus.collection
        try:
            assert len(collection) == len(original)
            assert collection.doc_ids == original.doc_ids
            doc_id = original.doc_ids[0]
            assert doc_id in collection
            assert collection[doc_id].text == original[doc_id].text
            assert collection[doc_id].title == original[doc_id].title
            assert collection[doc_id].metadata == original[doc_id].metadata
            assert collection.get("not-a-doc") is None
            assert "not-a-doc" not in collection
            assert [d.doc_id for d in collection] == original.doc_ids
        finally:
            store.close()

    def test_missing_doc_raises_keyerror(self, store_path):
        store = IndexStore(store_path)
        try:
            with pytest.raises(KeyError):
                StoreBackedCollection(store)["nope"]
        finally:
            store.close()


class TestWarmArtifactsInStore:
    """Warm artifacts (spec result lists + snippet vectors) survive the
    store round-trip bit-exactly: a hydrated service has to serve the
    *identical* rankings the warming service served."""

    @pytest.fixture()
    def warmed(self, framework_factory, topic_queries):
        service = DiversificationService(framework_factory())
        service.warm(topic_queries)
        return service

    @pytest.fixture()
    def warm_store(self, tmp_path, warmed):
        """A store whose shard-0 rows are *warmed*'s artifacts."""
        return write_store(
            tmp_path / "warm.sqlite3",
            warmed.framework.engine,
            {0: warmed.export_warm_payloads()},
        )

    def test_payloads_round_trip_exactly(self, warmed, warm_store):
        artifacts = warmed.framework.export_warm_state()
        assert artifacts
        loaded = read_warm_artifacts(warm_store, 0)
        assert set(loaded) == set(artifacts)
        for spec_query, (results, vectors) in artifacts.items():
            got_results, got_vectors = loaded[spec_query]
            assert got_results.doc_ids == results.doc_ids
            assert got_results.scores == results.scores  # floats exact
            assert set(got_vectors) == set(vectors)
            for doc_id, vector in vectors.items():
                assert got_vectors[doc_id].weights == vector.weights
                assert got_vectors[doc_id].norm == vector.norm
        assert read_warm_artifacts(warm_store, 1) == {}

    def test_hydrated_service_serves_identical_rankings(
        self, warmed, warm_store, framework_factory, topic_queries
    ):
        want = [r.ranking for r in warmed.diversify_batch(topic_queries)]
        fresh = DiversificationService(framework_factory())
        saved = len(warmed.framework.export_warm_state())
        assert fresh.load_warm_store(warm_store, 0) == saved
        got = [r.ranking for r in fresh.diversify_batch(topic_queries)]
        assert got == want
        # The offline phase never re-derived: every artifact was a hit.
        assert fresh.framework.cache_info().misses == 0
        # Re-warming fetches nothing either.
        assert fresh.warm(topic_queries).fetched == 0

    def test_rows_hold_the_encoded_payloads(self, warmed, warm_store):
        """encode/decode_warm_artifact are the single source of truth:
        each ``warm_artifacts`` row is exactly the encoded payload, a
        ``{"q", "results", "vectors"}`` object that decodes bit-exactly."""
        connection = sqlite3.connect(warm_store)
        try:
            rows = dict(
                connection.execute(
                    "SELECT spec_query, payload FROM warm_artifacts"
                    " WHERE shard = 0"
                )
            )
        finally:
            connection.close()
        assert rows == warmed.export_warm_payloads()
        artifacts = warmed.framework.export_warm_state()
        for spec_query, payload in rows.items():
            assert set(json.loads(payload)) == {"q", "results", "vectors"}
            got_query, (results, vectors) = decode_warm_artifact(
                payload, "row"
            )
            assert got_query == spec_query
            want_results, want_vectors = artifacts[spec_query]
            assert results.doc_ids == want_results.doc_ids
            assert results.scores == want_results.scores
            assert results.seqs == want_results.seqs
            assert {d: v.weights for d, v in vectors.items()} == {
                d: v.weights for d, v in want_vectors.items()
            }

    def test_install_skips_present_entries(self, warmed):
        artifacts = warmed.framework.export_warm_state()
        assert warmed.framework.install_warm_state(artifacts) == 0

    @pytest.mark.parametrize(
        "payload, problem",
        [
            ("nope", "invalid JSON"),
            ('{"results": [], "vectors": {}}', "malformed"),  # no "q"
            ('{"q": "ok", "results": [["d1"]], "vectors": {}}', "malformed"),
            # A v6 row: a result without its seq.
            ('{"q": "ok", "results": [["d1", 1.0]], "vectors": {}}', "malformed"),
        ],
    )
    def test_corrupt_row_names_path_shard_and_spec(
        self, tmp_path, tiny_collection, payload, problem
    ):
        """A hand-corrupted row fails with a ValueError naming the file,
        the shard and the row's spec query, not a bare KeyError."""
        built = SearchEngine(tiny_collection, 2)
        query = "apple computer"
        results = built.search(query, 3)
        good = encode_warm_artifact(
            query, results, built.snippet_vectors(query, results)
        )
        path = write_store(
            tmp_path / "warm.sqlite3",
            built,
            {1: {query: good, "apple pie": good}},
        )
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE warm_artifacts SET payload = ? WHERE spec_query = ?",
                (payload, "apple pie"),
            )
        connection.close()
        with pytest.raises(ValueError) as raised:
            read_warm_artifacts(path, 1)
        message = str(raised.value)
        for part in (str(path), "[shard=1]", "'apple pie'", problem):
            assert part in message

    def test_a_same_token_count_swap_deletes_every_row(self, tmp_path, warmed):
        """An epoch that keeps N and the token total, and whose one
        added document shares no term with any stored specialization or
        result, still deletes every shard's rows: each epoch drops every
        cached score."""
        engine = warmed.framework.engine
        payloads = warmed.export_warm_payloads()
        path = write_store(
            tmp_path / "warm.sqlite3", engine, {0: payloads, 1: payloads}
        )
        victim = engine.collection[engine.collection.doc_ids[-1]]
        length = len(engine.analyzer.analyze(victim.full_text))
        swap = Document("swap0", " ".join(["qqzb"] * length))
        store = IndexStore(path)
        try:
            before = (store.num_documents, store.total_tokens)
        finally:
            store.close()
        assert append_epoch(
            path, [swap], [victim.doc_id], analyzer=engine.analyzer
        ) == 1
        store = IndexStore(path)
        try:
            assert (store.num_documents, store.total_tokens) == before
        finally:
            store.close()
        assert read_warm_artifacts(path, 0) == read_warm_artifacts(path, 1) == {}

    def test_a_refused_append_keeps_every_row(self, warmed, warm_store):
        held = read_warm_artifacts(warm_store, 0).keys()
        assert held
        with pytest.raises(StoreError, match="cannot remove unknown doc_id"):
            append_epoch(warm_store, [Document("n0", "zebra")], ["ghost"])
        assert read_warm_artifacts(warm_store, 0).keys() == held

    def test_store_without_warm_rows_reads_empty(self, store_path):
        assert read_warm_artifacts(store_path, 0) == {}
