"""Live ingest through the serving layer: epoch-consistent serving.

Ingest goes through a store: the batch is appended to the store file and
every attached engine refreshes.  The serving-side half of the
live-ingest identity gate: after any interleaved sequence of ingest
batches and queries, a store-backed service (single, sharded under any
backend, respawned on the process backend, or fronted by HTTP) must serve
results field-identical — rankings *and* baseline scores — to a cold
in-memory service built from scratch over the final collection.  The
concurrency half is snapshot isolation: a query in flight when an epoch
publishes returns results consistent with exactly one epoch, and its
(now stale) result is never served at a later epoch.  An in-memory
service is read-only and says so with a typed error.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import multiprocessing
import pickle
import random
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.framework import DiversificationFramework
from repro.core.utility import UtilityMatrix, _centroid
from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import (
    EngineSnapshot,
    ResultList,
    SearchEngine,
    partition_collection,
)
from repro.retrieval.index import DocumentIndex
from repro.retrieval.store import (
    IndexStore,
    StoreBackedSearchEngine,
    append_epoch,
    read_warm_artifacts,
    write_store,
)
from repro.serving import (
    BACKEND_NAMES,
    AsyncDiversificationService,
    DiversificationHTTPServer,
    DiversificationService,
    ShardedDiversificationService,
    persist_store,
    result_payload,
)
from repro.serving.backends import WorkerDiedError
from repro.serving.service import ReadOnlyError

from tests.conftest import STANDARD_CONFIG, run_on_threads
from tests.retrieval.test_store_epochs import assert_stores_identical

from .aio import RecordingBackend, run, settle
from .faults import (
    CRASH_BEFORE_REPLY,
    CRASH_ON_SEND,
    HANG,
    Fault,
    FaultInjectingBackend,
    FaultSchedule,
)
from .test_http import error_code, get, post, post_raw

PARTITIONS = 3
NUM_SHARDS = 3
HOLDOUT = 8


# -- corpus split and identity helpers -------------------------------------------


@pytest.fixture(scope="module")
def corpus_docs(small_corpus):
    collection = small_corpus.collection
    return [collection[doc_id] for doc_id in collection.doc_ids]


@pytest.fixture(scope="module")
def initial_docs(corpus_docs):
    """The collection every service starts from: all but the holdout."""
    return corpus_docs[:-HOLDOUT]


@pytest.fixture(scope="module")
def holdout_docs(corpus_docs):
    """Real corpus documents kept back to be ingested live."""
    return corpus_docs[-HOLDOUT:]


@pytest.fixture(scope="module")
def batches(initial_docs, holdout_docs):
    """Two ingest batches: adds from the holdout plus removals of both
    an original document and a document added by the previous batch."""
    return [
        (holdout_docs[:4], [initial_docs[5].doc_id]),
        (
            holdout_docs[4:],
            [initial_docs[17].doc_id, holdout_docs[0].doc_id],
        ),
    ]


def apply_to_docs(docs, batches):
    """The from-scratch view of the final collection: survivors in their
    original order, added documents appended in batch order."""
    docs = list(docs)
    for adds, removes in batches:
        removed = set(removes)
        docs = [d for d in docs if d.doc_id not in removed] + list(adds)
    return docs


def make_engine(docs, num_partitions=PARTITIONS, analyzer=None):
    return SearchEngine(
        DocumentCollection(docs), num_partitions=num_partitions,
        analyzer=analyzer,
    )


def make_service(miner, docs, num_partitions=PARTITIONS):
    """An in-memory service: the cold reference, and read-only."""
    return DiversificationService(
        DiversificationFramework(
            make_engine(docs, num_partitions), miner, config=STANDARD_CONFIG
        )
    )


def make_store_engine(path, docs, num_partitions=PARTITIONS, analyzer=None):
    """Write *docs* as the store at *path* and attach an engine to it."""
    write_store(path, make_engine(docs, num_partitions, analyzer=analyzer))
    return StoreBackedSearchEngine(path, analyzer=analyzer)


def make_live_service(path, miner, docs, num_partitions=PARTITIONS):
    """A service that ingests: its engine is attached to a store at *path*
    holding *docs*."""
    return DiversificationService(
        DiversificationFramework(
            make_store_engine(path, docs, num_partitions),
            miner,
            config=STANDARD_CONFIG,
        )
    )


def publish(engine, adds=(), removes=()):
    """Append one epoch to *engine*'s store and refresh onto it; returns
    the published snapshot."""
    append_epoch(engine.store_path, adds, removes, analyzer=engine.analyzer)
    engine.refresh()
    return engine.snapshot()


@pytest.fixture(scope="module")
def workload(small_corpus):
    queries = [topic.query for topic in small_corpus.topics]
    return queries + list(reversed(queries))


@pytest.fixture(scope="module")
def reference(small_miner, initial_docs, batches, workload):
    """The cold from-scratch run over the final collection — what every
    live-ingested service must serve byte-identically."""
    service = make_service(small_miner, apply_to_docs(initial_docs, batches))
    return service.diversify_batch(workload)


def assert_results_equal(got, want):
    __tracebackhide__ = True
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.query == w.query
        assert g.ranking == w.ranking
        assert g.diversified == w.diversified
        assert g.algorithm == w.algorithm
        assert g.baseline.doc_ids == w.baseline.doc_ids
        assert g.baseline.scores == w.baseline.scores


def publish_rebuilt(engine, docs, adds):
    """Publish *docs* on the in-memory *engine* as its next epoch, built
    from scratch; *adds* are the documents the batch added.  Numbered as
    ``append_epoch`` numbers a store: a survivor keeps its seq and each
    added document takes the next seq never issued, so a seq names one
    document version for good (what the framework's surrogate memo is
    keyed by); the engine keeps the next seq to issue.  A pinned query
    keeps its whole snapshot; returns the published epoch."""
    current = engine.snapshot()
    next_seq = getattr(engine, "next_rebuilt_seq", max(current.doc_ids) + 1)
    added = {d.doc_id for d in adds}
    kept = {d: seq for seq, d in current.doc_ids.items() if d not in added}
    seq_of = {}
    for document in docs:
        if document.doc_id in kept:
            seq_of[document.doc_id] = kept[document.doc_id]
        else:
            seq_of[document.doc_id] = next_seq
            next_seq += 1
    engine.next_rebuilt_seq = next_seq
    collection = DocumentCollection(docs)
    partitions = tuple(
        DocumentIndex.from_collection(
            part, engine.snippets, seqs=[seq_of[d.doc_id] for d in part]
        )
        for part in partition_collection(
            collection, engine.num_partitions, engine.seed
        )
    )
    num_documents = sum(p.num_documents for p in partitions)
    total_tokens = sum(p.total_tokens for p in partitions)
    with engine._epoch_lock:
        engine._snapshot = EngineSnapshot(
            epoch=current.epoch + 1,
            collection=collection,
            partitions=partitions,
            doc_ids={seq: doc_id for doc_id, seq in seq_of.items()},
            num_documents=num_documents,
            total_tokens=total_tokens,
            average_document_length=total_tokens / num_documents,
        )
    return current.epoch + 1


# -- single service --------------------------------------------------------------


class TestServiceIngest:
    @pytest.mark.parametrize("num_partitions", [PARTITIONS, 1])
    def test_ingest_identical_to_cold_rebuild(
        self, tmp_path, small_miner, initial_docs, batches, workload,
        reference, num_partitions,
    ):
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs, num_partitions
        )
        service.warm(set(workload))
        service.diversify_batch(workload)  # serve (and cache) epoch 0
        for index, (adds, removes) in enumerate(batches):
            epoch = service.ingest(
                add_documents=adds, remove_doc_ids=removes
            )
            assert epoch == index + 1
        assert service.current_epoch() == len(batches)
        assert_results_equal(service.diversify_batch(workload), reference)
        stats = service.get_stats()
        assert stats.epochs_published == len(batches)
        assert stats.documents_ingested == sum(len(a) for a, _ in batches)
        assert stats.documents_removed == sum(len(r) for _, r in batches)

    def test_a_same_token_count_swap_drops_every_list_and_result(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        """An epoch that keeps N and the token total (one document out,
        one of the same analysed length in) still drops every spec list
        and cached result, and the next read equals a cold rebuild."""
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        service.warm(set(workload))
        alien = Document("alien0", "zzqa wwxo vvrt")
        service.ingest(add_documents=[alien])
        service.diversify_batch(workload)  # refill every cache at epoch 1
        lists = service.spec_cache_info().size
        results = service.result_cache_info()
        assert lists and results.size == len(set(workload))
        invalidations = service.stats.warm_invalidations
        length = len(Analyzer().analyze(alien.full_text))
        swap = Document("alien1", " ".join(["qqzb"] * length))
        engine = service.framework.engine

        def stats():
            snapshot = engine.snapshot()
            return snapshot.num_documents, snapshot.total_tokens

        before = stats()
        assert service.ingest([swap], [alien.doc_id]) == 2
        assert stats() == before
        assert service.stats.warm_invalidations == invalidations + lists
        assert service.spec_cache_info().size == 0
        assert service.result_cache_info().size == 0
        served = service.diversify_batch(workload)
        assert service.result_cache_info().misses == (
            results.misses + len(set(workload))
        )
        fresh = make_service(
            small_miner,
            apply_to_docs(initial_docs, [([alien], []), ([swap], ["alien0"])]),
        )
        assert_results_equal(served, fresh.diversify_batch(workload))
        engine.close()

    def test_warm_invalidations_sum_the_lists_each_epoch_drops(
        self, tmp_path, small_miner, initial_docs, batches, workload
    ):
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        dropped = 0
        for epoch, (adds, removes) in enumerate(batches, start=1):
            service.diversify_batch(workload)
            held = service.spec_cache_info().size
            assert held
            assert service.ingest(adds, removes) == epoch
            dropped += held
            assert service.stats.warm_invalidations == dropped
            assert service.spec_cache_info().size == 0
        assert service.stats.epochs_published == len(batches)
        service.framework.engine.close()

    def test_an_epoch_drop_moves_no_cache_counter(
        self, tmp_path, small_miner, initial_docs, holdout_docs, workload
    ):
        """The drop frees the caches without counting a hit, a miss or
        an eviction in either of them."""
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        service.diversify_batch(workload)

        def counters():
            return [
                (info.hits, info.misses, info.evictions)
                for info in (service.spec_cache_info(), service.result_cache_info())
            ]

        before = counters()
        service.ingest(add_documents=holdout_docs[:1])
        assert counters() == before
        assert service.spec_cache_info().size == 0
        assert service.result_cache_info().size == 0
        service.framework.engine.close()

    def test_append_to_store_writes_without_publishing(
        self, tmp_path, small_miner, initial_docs, holdout_docs
    ):
        """``append_to_store`` writes the store's next epoch without
        publishing it to the serving engine."""
        path = tmp_path / "append.sqlite3"
        service = make_live_service(path, small_miner, initial_docs)
        assert service.append_to_store(holdout_docs[:1]) is None
        assert service.current_epoch() == 0  # written, not yet published
        assert StoreBackedSearchEngine(path).epoch == 1


class TestReadOnly:
    """An in-memory engine serves the collection it was built over: every
    ingest entry point refuses with one typed error naming the way to a
    store, and changes nothing."""

    def test_every_entry_point_raises_read_only(
        self, small_miner, initial_docs, holdout_docs, workload
    ):
        service = make_service(small_miner, initial_docs)
        before = service.diversify_batch(workload)
        calls = (
            lambda: service.ingest(holdout_docs[:1]),
            lambda: service.ingest(remove_doc_ids=[initial_docs[0].doc_id]),
            lambda: service.append_to_store(holdout_docs[:1]),
            lambda: service.apply_updates(holdout_docs[:1]),
        )
        for call in calls:
            with pytest.raises(ReadOnlyError, match="persist_store") as excinfo:
                call()
        assert service.current_epoch() == 0
        assert service.get_stats().epochs_published == 0
        assert_results_equal(service.diversify_batch(workload), before)
        # A process-backed cluster re-raises it from shard 0: it pickles.
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert type(clone) is ReadOnlyError
        assert str(clone) == str(excinfo.value)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_cluster_raises_it_from_shard_zero(
        self, small_miner, initial_docs, holdout_docs, backend
    ):
        if backend == "process" and "fork" not in (
            multiprocessing.get_all_start_methods()
        ):
            pytest.skip("no fork on this platform")
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                make_engine(initial_docs), small_miner, config=STANDARD_CONFIG
            ),
            num_shards=2,
            backend=backend,
        )
        try:
            with pytest.raises(ReadOnlyError, match="persist_store"):
                cluster.ingest(add_documents=holdout_docs[:1])
            with pytest.raises(ReadOnlyError, match="persist_store"):
                cluster.apply_updates(add_documents=holdout_docs[:1])
            assert cluster.current_epoch() == 0
            assert cluster.cluster_stats().epochs_published == 0
        finally:
            cluster.close()


# -- what an epoch keeps: every surrogate vector, keyed by (query, seq) ----------


def vectors_of(artifact):
    """An artifact's vectors with their terms in insertion order."""
    return {d: list(v.weights.items()) for d, v in artifact[1].items()}


class TestVectorsOutliveLists:
    def test_refetch_after_a_stats_change_vectorises_only_what_it_lacks(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(
            engine, small_miner, config=STANDARD_CONFIG
        )
        specs = list(
            dict.fromkeys(
                q for query in workload for q, _ in framework.detect(query)
            )
        )
        framework.prefetch_specializations(specs)
        before = framework.export_warm_state()
        spec_query, (results, _) = next(
            (q, artifact) for q, artifact in before.items() if len(artifact[0])
        )
        victim = next(d for d in initial_docs if d.doc_id == results.doc_ids[0])
        rewritten = Document(victim.doc_id, victim.text + " zzqa", victim.title)
        snapshot = publish(
            engine,
            [rewritten, Document("alien0", "zzqa wwxo")],
            [victim.doc_id],
        )
        assert framework.drop_before(snapshot.epoch) == len(before)
        assert framework.export_warm_state() == {}
        changed_ids = {victim.doc_id, "alien0"}
        retained = {
            q: {d for d in artifact[1] if d not in changed_ids}
            for q, artifact in before.items()
        }
        assert victim.doc_id in before[spec_query][1]
        assert victim.doc_id not in retained[spec_query]

        vectorised: dict[str, list[str]] = {}
        versioned_vectors = engine.versioned_vectors

        def recording(query, results):
            vectorised.setdefault(query, []).extend(r.doc_id for r in results)
            return versioned_vectors(query, results)

        engine.versioned_vectors = recording
        assert framework.prefetch_specializations(specs) == len(specs)
        after = framework.export_warm_state()
        assert victim.doc_id in after[spec_query][0]
        for q in specs:
            assert vectorised.get(q, []) == [
                d for d in after[q][0].doc_ids if d not in retained[q]
            ], q
        assert victim.doc_id in vectorised[spec_query]
        assert sum(map(len, vectorised.values())) < sum(
            len(artifact[0]) for artifact in after.values()
        )

        final = apply_to_docs(
            initial_docs,
            [([rewritten, Document("alien0", "zzqa wwxo")], [victim.doc_id])],
        )
        fresh = DiversificationFramework(
            make_engine(final), small_miner, config=STANDARD_CONFIG
        )
        fresh.prefetch_specializations(specs)
        want = fresh.export_warm_state()
        for q in specs:
            assert after[q][0].doc_ids == want[q][0].doc_ids, q
            assert after[q][0].scores == want[q][0].scores, q
            assert vectors_of(after[q]) == vectors_of(want[q]), q
        for query in dict.fromkeys(workload):
            assert (
                framework.diversify_query(query).ranking
                == fresh.diversify_query(query).ranking
            ), query

    def test_a_dropped_list_is_a_spec_cache_miss(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(
            engine, small_miner, config=STANDARD_CONFIG
        )
        query = ambiguous_topic.query
        framework.diversify_query(query)
        specs = len(framework.detect(query))
        assert specs and len(framework.export_warm_state()) == specs
        epoch = publish(engine, [Document("alien0", "zzqa wwxo")]).epoch
        assert framework.drop_before(epoch) == specs
        stats = framework.cache_info()
        assert stats.size == 0  # the lists go; their vectors stay memoised
        assert framework.warm_memory_estimate()["vectors"] > 0
        framework.diversify_query(query)
        after = framework.cache_info()
        assert (after.hits, after.misses) == (stats.hits, stats.misses + specs)
        framework.diversify_query(query)
        assert framework.cache_info().hits == after.hits + specs

    def test_a_fetch_racing_a_drop_keeps_no_changed_vector(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        """A fetch pinned to epoch 2, published but not dropped yet,
        finds only a list tagged epoch 1 and searches: the document epoch
        2 rewrote comes back under its new seq, so it is vectorised
        afresh and no vector of its old version is read; the list it puts
        after the drop landed mid-fetch serves the next fetch."""
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(
            engine, small_miner, config=STANDARD_CONFIG
        )
        spec_query = next(
            q for query in workload for q, _ in framework.detect(query)
        )
        framework.prefetch_specializations([spec_query])
        victim = framework.export_warm_state()[spec_query][0].doc_ids[0]
        old = next(d for d in initial_docs if d.doc_id == victim)
        epoch1 = publish(engine, [Document("alien0", "zzqa wwxo")])
        framework.drop_before(epoch1.epoch)  # keeps every vector
        rewritten = Document(victim, f"{old.text} zzqb", old.title)
        epoch2 = publish(engine, [rewritten], [victim])  # not dropped yet

        entered, release = threading.Event(), threading.Event()
        search_batch = engine.search_batch

        def blocking(queries, k):
            entered.set()
            assert release.wait(10)
            return search_batch(queries, k)

        engine.search_batch = blocking
        fetch = threading.Thread(
            target=framework.prefetch_specializations, args=([spec_query],)
        )
        fetch.start()
        assert entered.wait(10)
        framework.drop_before(epoch2.epoch)  # lands mid-fetch
        release.set()
        fetch.join(10)
        assert not fetch.is_alive()
        engine.search_batch = search_batch

        raced = framework._spec_cache.peek(spec_query)
        assert raced[0] == epoch2.epoch and victim in raced[1]
        assert framework.prefetch_specializations([spec_query]) == 0
        results, vectors = framework.export_warm_state()[spec_query]
        assert victim in results
        fresh = engine.snippet_vectors(spec_query, results)
        assert vectors_of((results, vectors)) == vectors_of((results, fresh))

    def test_no_stale_vector_survives_concurrent_epochs(
        self, small_miner, initial_docs, workload
    ):
        """Readers fill the framework's caches and the result cache while
        a writer re-ingests documents the spec lists hold, with new text,
        every epoch.  Afterwards no entry is tagged past the final epoch,
        every list and result of an entry tagged with it (what a read
        reuses) equals what the final epoch computes from scratch, and
        so does every memoised vector of a seq the final epoch holds, and
        every utility centroid and cell whose seqs it holds: a changed
        document took a new seq, and no put let a stale entry pass for a
        current one.  Each epoch is a from-scratch build
        swapped in (:func:`publish_rebuilt`): this gates the caches'
        drops, and a store-backed snapshot is not isolated from a
        concurrent append yet."""
        engine = make_engine(initial_docs)
        framework = DiversificationFramework(
            engine, small_miner, config=STANDARD_CONFIG
        )
        service = DiversificationService(framework)
        queries = list(dict.fromkeys(workload))
        for query in queries:
            framework.diversify_query(query)
        texts = {d.doc_id: d for d in initial_docs}
        docs = list(initial_docs)
        done = threading.Event()
        errors = []

        def read(serve):
            try:
                while not done.is_set():
                    for query in queries:
                        serve(query)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
                done.set()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [
            threading.Thread(target=read, args=(serve,))
            for serve in [framework.diversify_query, service.diversify] * 2
        ]
        try:
            for reader in readers:
                reader.start()
            for epoch in range(1, 11):
                held = framework.export_warm_state()
                victim = next(
                    d
                    for _, (results, _) in sorted(held.items())
                    for d in results.doc_ids
                    if d in texts
                ) if held else next(iter(texts))
                old = texts.pop(victim)
                texts[victim] = Document(victim, f"{old.text} zz{epoch}", old.title)
                adds = [texts[victim], Document(f"alien{epoch}", "zzqa wwxo")]
                docs = [d for d in docs if d.doc_id != victim] + adds
                published = publish_rebuilt(engine, docs, adds)
                framework.drop_before(published)
                service._result_cache.discard(lambda e: e[0] < published)
        finally:
            done.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(switch)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors, errors

        k = STANDARD_CONFIG.spec_results
        current = 0
        for spec_query, (tag, results) in framework._spec_cache.snapshot():
            assert tag <= engine.epoch, spec_query
            if tag != engine.epoch:
                continue  # never reused: a read is pinned to the final epoch
            current += 1
            want = engine.search(spec_query, k)
            assert results.doc_ids == want.doc_ids, spec_query
            assert results.scores == want.scores, spec_query
            assert results.seqs == want.seqs, spec_query
        assert current
        live = engine.snapshot().doc_ids
        checked = 0
        for (query, seq), vector in framework._surrogates.snapshot():
            if seq not in live:
                continue  # a version only a read pinned before it reaches
            doc_id = live[seq]
            fresh = engine.snippet_vectors(query, ResultList(query, [(doc_id, 0.0)]))
            assert vectors_of((None, {doc_id: vector})) == vectors_of((None, fresh))
            checked += 1
        assert checked

        def fresh_vector(query, seq):
            doc_id = live[seq]
            results = ResultList(query, [(doc_id, 0.0)])
            return engine.snippet_vectors(query, results)[doc_id]

        checked = 0
        for (query, spec), (key, centroid, cells) in framework._utilities.snapshot():
            if not all(seq in live for _, seq in key):
                continue  # a list only a read pinned before it reaches
            results = ResultList(spec, [(live[seq], 0.0) for _, seq in key])
            vectors = {live[seq]: fresh_vector(bias, seq) for bias, seq in key}
            assert _centroid(results, vectors) == centroid, (query, spec)
            for seq, total in cells.items():
                if seq not in live:
                    continue
                candidate = ResultList(query, [(live[seq], 0.0)])
                want = UtilityMatrix.build(
                    candidate,
                    {spec: results},
                    {**vectors, live[seq]: fresh_vector(query, seq)},
                )
                assert want.value(live[seq], spec) == (
                    min(1.0, total) if total > 0 else 0.0
                ), (query, spec, seq)
            checked += 1
        assert checked
        cold = make_service(small_miner, docs)
        for query, (tag, result) in service._result_cache.snapshot():
            assert tag <= engine.epoch, query
            if tag == engine.epoch:
                assert_results_equal([result], cold.diversify_batch([query]))


# -- the memo's rule along epochs: reused iff its (query, seq) was built -----------


#: Short candidate lists, so an added document pushes an unchanged one out.
SHORT_CONFIG = dataclasses.replace(STANDARD_CONFIG, candidates=12)


@contextlib.contextmanager
def recording_vectors(engine):
    """Every ``engine.versioned_vectors`` call (the framework's one
    vectorisation) in the block, as ``[(query, [doc_id, ...]), ...]``."""
    calls = []
    versioned_vectors = engine.versioned_vectors

    def recording(query, results):
        calls.append((query, [r.doc_id for r in results]))
        return versioned_vectors(query, results)

    engine.versioned_vectors = recording
    try:
        yield calls
    finally:
        del engine.versioned_vectors


def own_vectorised(calls, query):
    """The doc_ids vectorised with *query*'s own bias."""
    return [d for q, docs in calls if q == query for d in docs]


def unbuilt(keys, query, results, shadowed=()):
    """The doc_ids of *results* outside *shadowed* whose ``(query, seq)``
    is not among the memo *keys*: what the memo's rule vectorises."""
    return [
        d
        for d, seq in zip(results.doc_ids, results.seqs)
        if d not in shadowed and (query, seq) not in keys
    ]


def memo_keys(framework):
    return {key for key, _ in framework._surrogates.snapshot()}


def task_vectors(task):
    """A task's vector map: keys in order, each vector's terms in order."""
    return [(d, list(v.weights.items())) for d, v in task.vectors.items()]


def strong_documents(query, base, count):
    """Documents that enter *query*'s top candidates: the query three
    times over 40 words of *base*, a document already about it."""
    words = base.text.split()
    return [
        Document(f"strong{i}", " ".join([query] * 3 + words[i:i + 40]))
        for i in range(count)
    ]


class TestSurrogateMemo:
    def test_a_repeated_read_after_an_epoch_vectorises_only_new_candidates(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        service = DiversificationService(framework)
        query = ambiguous_topic.query
        before = service.diversify(query).baseline
        seqs = dict(zip(before.doc_ids, before.seqs))
        held = {d: framework._surrogates.peek((query, s)) for d, s in seqs.items()}
        assert None not in held.values()
        removed = before.doc_ids[3]
        top = next(d for d in initial_docs if d.doc_id == before.doc_ids[0])
        memo = framework._surrogates.snapshot()
        service.ingest(strong_documents(query, top, 2), [removed])
        assert framework._surrogates.snapshot() == memo  # nothing swept

        with recording_vectors(engine) as calls:
            after = service.diversify(query).baseline
        new = [d for d in after.doc_ids if d not in seqs]
        assert {"strong0", "strong1"} <= set(new)
        assert own_vectorised(calls, query) == new
        vectors = {}
        for d, seq in zip(after.doc_ids, after.seqs):
            vectors[d] = framework._surrogates.peek((query, seq))
            if d in seqs:  # an unchanged document keeps its seq and vector
                assert seq == seqs[d] and vectors[d] is held[d]
        fresh = engine.snippet_vectors(query, after)
        assert vectors_of((None, vectors)) == vectors_of((None, fresh))
        engine.close()

    def test_seeded_ingest_reads_equal_fresh_builds(
        self, tmp_path, small_miner, initial_docs, holdout_docs, workload
    ):
        """Reads repeated across a seeded sequence of epochs — one removes
        a candidate, a later one re-adds its doc_id with other text, and
        one rewrites a candidate in place — build the task a cold
        framework builds over a from-scratch build of the same collection
        (keys, order and floats of every vector), vectorise exactly the
        results whose ``(query, seq)`` the memo lacks, and serve what a
        cold rebuild serves."""
        rng = random.Random(43)
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        service = DiversificationService(framework)
        queries = [q for q in dict.fromkeys(workload) if framework.detect(q)][:3]
        first = service.diversify_batch(queries)
        victim = next(d for d in initial_docs if d.doc_id == first[0].baseline.doc_ids[1])
        rewritten = next(
            d for d in initial_docs if d.doc_id == first[1].baseline.doc_ids[2]
        )
        pool = list(holdout_docs)
        live = list(initial_docs)
        reused = 0
        for step in range(6):
            adds = [pool.pop(rng.randrange(len(pool)))]
            protected = {victim.doc_id, rewritten.doc_id}
            removes = rng.sample(
                [d.doc_id for d in live if d.doc_id not in protected], 1
            )
            if step == 1:
                removes.append(victim.doc_id)
            if step == 3:
                adds.append(
                    Document(victim.doc_id, f"{queries[0]} {victim.text} zzqb", victim.title)
                )
            if step == 4:
                adds.append(
                    Document(rewritten.doc_id, f"{rewritten.text} zzqc", rewritten.title)
                )
                removes.append(rewritten.doc_id)
            service.ingest(adds, removes)
            live = apply_to_docs(live, [(adds, removes)])
            cold = DiversificationFramework(
                make_engine(live), small_miner, config=SHORT_CONFIG
            )
            for query in queries:
                specializations = framework.detect(query)
                keys = memo_keys(framework)
                with recording_vectors(engine) as calls:
                    task = framework.build_task(query, specializations)
                candidates = task.candidates
                want_calls = [(query, unbuilt(keys, query, candidates))] + [
                    (spec, unbuilt(keys, spec, results, candidates))
                    for spec, results in (
                        (spec, framework._spec_cache.peek(spec)[1])
                        for spec, _ in specializations
                    )
                ]
                assert calls == [c for c in want_calls if c[1]], (step, query)
                reused += len(candidates) - len(own_vectorised(calls, query))
                want = cold.build_task(query, specializations)
                assert task_vectors(task) == task_vectors(want), (step, query)
            assert_results_equal(
                service.diversify_batch(queries),
                DiversificationService(cold).diversify_batch(queries),
            )
        assert reused > 0
        engine.close()

    def test_a_rewrite_leaves_each_pin_its_own_version(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        """After a rewrite, with no drop in between, a read pinned to the
        previous snapshot gets the old version's vector (memoised under
        the old seq) and a read at the new epoch the new one (built
        under the new seq), each equal to ``snippet_vectors`` under its
        own pin."""
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        first = framework.build_task(query, specializations)
        old = engine.snapshot()
        victim = first.candidates.doc_ids[0]
        text = next(d for d in initial_docs if d.doc_id == victim)
        rewrite = Document(victim, f"{query} zzqb {text.text}", text.title)
        publish(engine, [rewrite], [victim])
        tasks, pinned = {}, {}
        for snapshot in (old, engine.snapshot()):
            with engine.pinned(snapshot):
                with recording_vectors(engine) as calls:
                    task = tasks[snapshot.epoch] = framework.build_task(
                        query, specializations
                    )
                pinned[snapshot.epoch] = engine.snippet_vectors(
                    query, task.candidates
                )[victim]
            position = task.candidates.doc_ids.index(victim)
            seq = task.candidates.seqs[position]
            assert framework._surrogates.peek((query, seq)) is task.vectors[victim]
            assert own_vectorised(calls, query) == (
                [] if snapshot is old else [victim]
            )
        assert tasks[old.epoch].vectors[victim] is first.vectors[victim]
        versions = [list(v.weights.items()) for v in pinned.values()]
        assert versions[0] != versions[1]
        assert [
            list(task.vectors[victim].weights.items()) for task in tasks.values()
        ] == versions
        engine.close()

    def test_a_stale_pin_that_misses_its_caches_memoises_no_other_version(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        """A read pinned to a superseded store snapshot whose page cache
        is cold reads the store's current postings, so it meets a
        rewritten candidate under its new seq while its own document
        cache still holds the old row.  The vector it builds from that
        row is served to it but not memoised under the new seq: after
        ``refresh()`` the read equals a cold build of the new
        collection."""
        query = ambiguous_topic.query
        reference = make_engine(initial_docs)
        victim = reference.search(query, SHORT_CONFIG.candidates).doc_ids[0]
        old_doc = next(d for d in initial_docs if d.doc_id == victim)
        rewrite = Document(victim, f"{query} zzqb {old_doc.text}", old_doc.title)
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        specializations = framework.detect(query)
        old = engine.snapshot()
        engine.forward_row(victim)  # the old row, cached by the old snapshot
        # Another handle publishes the rewrite; this engine has not refreshed.
        append_epoch(engine.store_path, [rewrite], [victim], analyzer=engine.analyzer)
        engine.page_cache.clear()
        new_seq = engine.store.seq_of(victim)
        with engine.pinned(old):
            stale = framework.build_task(query, specializations)
        position = stale.candidates.doc_ids.index(victim)
        assert stale.candidates.seqs[position] == new_seq  # the gap happened
        assert (query, new_seq) not in memo_keys(framework)

        engine.refresh()
        framework.drop_before(engine.epoch)
        task = framework.build_task(query, specializations)
        live = apply_to_docs(initial_docs, [([rewrite], [victim])])
        cold = DiversificationFramework(make_engine(live), small_miner, config=SHORT_CONFIG)
        assert task_vectors(task) == task_vectors(
            cold.build_task(query, specializations)
        )
        engine.close()

    def test_a_stale_pin_stores_no_utility_that_read_another_version(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        """The same gap: the stale read's centroids and cells that read
        the old row's vector are served to it and not stored, so the
        utility memo holds nothing under the new seq, and the read after
        ``refresh()`` scores what a cold build of the new collection
        scores.  The victim is the candidate in the fewest spec lists, so
        the lists without it store their centroids."""
        query = ambiguous_topic.query
        reference = make_engine(initial_docs)
        specializations = small_miner.mine(query)
        spec_lists = [
            reference.search(spec, SHORT_CONFIG.spec_results)
            for spec, _ in specializations
        ]
        victim = min(
            reference.search(query, SHORT_CONFIG.candidates).doc_ids,
            key=lambda d: sum(d in results for results in spec_lists),
        )
        old_doc = next(d for d in initial_docs if d.doc_id == victim)
        rewrite = Document(victim, f"{query} zzqb {old_doc.text}", old_doc.title)
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        old = engine.snapshot()
        engine.forward_row(victim)
        append_epoch(engine.store_path, [rewrite], [victim], analyzer=engine.analyzer)
        engine.page_cache.clear()
        new_seq = engine.store.seq_of(victim)
        with engine.pinned(old):
            stale = framework.build_task(query, specializations)
        position = stale.candidates.doc_ids.index(victim)
        assert stale.candidates.seqs[position] == new_seq  # the gap happened
        assert stale.utilities.row(victim)  # the old row's vector was scored
        entries = [entry for _, entry in framework._utilities.snapshot()]
        assert entries
        for key, _, cells in entries:
            assert new_seq not in cells
            assert (query, new_seq) not in key

        engine.refresh()
        framework.drop_before(engine.epoch)
        task = framework.build_task(query, specializations)
        live = apply_to_docs(initial_docs, [([rewrite], [victim])])
        cold = DiversificationFramework(make_engine(live), small_miner, config=SHORT_CONFIG)
        want = cold.build_task(query, specializations)
        assert task.utilities._by_spec == want.utilities._by_spec
        assert task.utilities.row(victim) != stale.utilities.row(victim)
        engine.close()

    def test_a_read_pinned_to_the_previous_epoch_reuses_its_vectors(
        self, small_miner, initial_docs, ambiguous_topic
    ):
        engine = make_engine(initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        first = framework.build_task(query, specializations)
        old = engine.snapshot()
        adds = [Document("alien0", "zzqa wwxo")]
        framework.drop_before(publish_rebuilt(engine, list(initial_docs) + adds, adds))
        with engine.pinned(old):
            with recording_vectors(engine) as calls:
                task = framework.build_task(query, specializations)
            fresh = engine.snippet_vectors(query, task.candidates)
        assert calls == []  # every (query, seq) of epoch 0 was built
        assert task_vectors(task) == task_vectors(first)
        assert vectors_of((None, {d: task.vectors[d] for d in fresh})) == (
            vectors_of((None, fresh))
        )

    def test_a_read_between_refresh_and_drop_vectorises_only_new_versions(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        """Epoch 1 rewrites a candidate.  A read after ``refresh()``
        published it but before the drop meets the rewrite under its new
        seq and vectorises it, not the old version's vector; the drop
        leaves the memo alone, so the next read vectorises nothing."""
        engine = make_store_engine(tmp_path / "live.sqlite3", initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        candidates = framework.build_task(query, specializations).candidates
        old = next(d for d in initial_docs if d.doc_id == candidates.doc_ids[0])
        new = Document(old.doc_id, f"{old.text} zzqb", old.title)
        snapshot = publish(engine, [new], [old.doc_id])  # not dropped yet
        keys = memo_keys(framework)
        with recording_vectors(engine) as calls:
            task = framework.build_task(query, specializations)
        assert old.doc_id in task.candidates.doc_ids
        assert own_vectorised(calls, query) == unbuilt(keys, query, task.candidates)
        assert old.doc_id in own_vectorised(calls, query)
        fresh = engine.snippet_vectors(query, task.candidates)
        assert vectors_of((None, {d: task.vectors[d] for d in fresh})) == (
            vectors_of((None, fresh))
        )
        framework.drop_before(snapshot.epoch)
        with recording_vectors(engine) as calls:
            again = framework.build_task(query, specializations)
        assert calls == []
        assert task_vectors(again) == task_vectors(task)
        engine.close()

    def test_a_read_between_refresh_and_drop_caches_no_stale_result(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        """A read pinned to the new epoch between ``refresh()`` and the
        drops, whose result is cached after them, ranked on no spec list
        of the old epoch: an entry tagged with it is not reused."""
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        framework, engine = service.framework, service.framework.engine
        query = ambiguous_topic.query
        service.warm([query])
        service.append_to_store([Document("alien0", "zzqa wwxo")])

        published, dropped = threading.Event(), threading.Event()
        drop_before = framework.drop_before

        def gated(epoch):
            published.set()
            assert dropped.wait(10)
            return drop_before(epoch)

        framework.drop_before = gated
        ingest = threading.Thread(target=service.apply_updates)
        ingest.start()
        assert published.wait(10)

        used = {}
        spec_results = framework._spec_results
        diversify_detected = framework.diversify_detected

        def recording(spec_query, epoch):
            used[spec_query] = results = spec_results(spec_query, epoch)
            return results

        def after_the_drop(query, specializations):
            result = diversify_detected(query, specializations)
            dropped.set()
            ingest.join(10)
            return result  # the service caches it now

        framework._spec_results = recording
        framework.diversify_detected = after_the_drop
        try:
            service.diversify(query)
        finally:
            dropped.set()
            ingest.join(10)
            del framework._spec_results, framework.drop_before
            del framework.diversify_detected
        assert not ingest.is_alive() and used
        k = framework.config.spec_results
        current = {
            spec: [(r.doc_id, r.score) for r in engine.search(spec, k)]
            for spec in used
        }
        stale = [
            spec
            for spec, results in used.items()
            if [(r.doc_id, r.score) for r in results] != current[spec]
        ]
        assert service._result_cache.peek(query) is None or not stale, stale
        engine.close()


# -- one tag rule for every cache of derived state -------------------------------


class TestEpochTags:
    def test_a_read_pinned_to_an_older_epoch_ranks_on_its_lists(
        self, small_miner, initial_docs, ambiguous_topic
    ):
        """Epoch 1 adds a document to a spec list and to the query's
        candidates, so a read at epoch 1 leaves the memo without its
        shadowed q'-biased vector.  A read pinned to epoch 0 afterwards
        reuses no list of epoch 1: it builds epoch 0's task, and never
        asks epoch 0 for a document it does not hold."""
        engine = make_engine(initial_docs)
        framework = DiversificationFramework(engine, small_miner, config=SHORT_CONFIG)
        query = ambiguous_topic.query
        specializations = framework.detect(query)
        old = engine.snapshot()
        want = framework.build_task(query, specializations)
        spec_query = specializations.items[0][0]
        top = next(d for d in initial_docs if d.doc_id == want.candidates.doc_ids[0])
        joiner = Document("alien0", " ".join([spec_query] * 3 + top.text.split()[:40]))
        epoch = publish_rebuilt(engine, list(initial_docs) + [joiner], [joiner])
        framework.drop_before(epoch)
        current = framework.build_task(query, specializations)
        assert joiner.doc_id in current.candidates.doc_ids
        with engine.pinned(old):
            got = framework.build_task(query, specializations)
        tag, results = framework._spec_cache.peek(spec_query)
        assert tag == epoch and joiner.doc_id in results
        seq = results.seqs[results.rank_of(joiner.doc_id) - 1]
        assert (spec_query, seq) not in framework._surrogates  # shadowed
        assert got.candidates.doc_ids == want.candidates.doc_ids
        assert task_vectors(got) == task_vectors(want)
        for spec in want.utilities.specializations:
            assert got.utilities.useful_docs(spec) == want.utilities.useful_docs(spec)
        k = framework.config.k
        assert framework.diversifier.diversify(got, k) == (
            framework.diversifier.diversify(want, k)
        )

    def test_cached_serves_nothing_between_refresh_and_drop(
        self, tmp_path, small_miner, initial_docs, ambiguous_topic
    ):
        """Between ``refresh()`` and the drop the cached result is still
        held, tagged with the previous epoch, and ``cached()`` answers
        ``None``: the tag rule, not the drop, keeps reads current.  The
        drop then frees it."""
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        engine = service.framework.engine
        query = ambiguous_topic.query
        result = service.diversify(query)
        assert service.cached(query) is result
        alien = Document("alien0", "zzqa wwxo vvrt")
        service.append_to_store([alien])
        engine.refresh()
        hits = service.result_cache_info().hits
        assert service.cached(query) is None
        assert service.result_cache_info().hits == hits
        assert service._result_cache.peek(query) == (0, result)
        service.apply_updates([alien])
        assert service._result_cache.peek(query) is None
        engine.close()

    def test_a_second_drop_for_one_epoch_keeps_what_is_current(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        """A shard re-sync runs ``apply_updates``' drops again for the
        epoch it already published: every spec and result entry at that
        epoch stays, the very same object, as does the memo."""
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        framework = service.framework
        queries = list(dict.fromkeys(workload))
        service.diversify_batch(queries)
        epoch = service.ingest(add_documents=[Document("alien0", "zzqa wwxo")])
        service.diversify_batch(queries)
        caches = (framework._spec_cache, service._result_cache)
        before = [cache.snapshot() for cache in caches]
        assert all(before)
        memo = framework._surrogates.snapshot()
        invalidations = service.stats.warm_invalidations
        assert service.apply_updates() == epoch
        for cache, held in zip(caches, before):
            after = cache.snapshot()
            assert [key for key, _ in after] == [key for key, _ in held]
            assert all(a is b for (_, a), (_, b) in zip(after, held))
        assert service.stats.warm_invalidations == invalidations
        assert {entry[0] for held in before for _, entry in held} == {epoch}
        assert framework._surrogates.snapshot() == memo
        framework.engine.close()


# -- sharded clusters ------------------------------------------------------------


class TestShardedIngest:
    @pytest.mark.parametrize("fanout", ["inline", "thread"])
    def test_shared_engine_advances_once(
        self, tmp_path, small_miner, initial_docs, holdout_docs, monkeypatch,
        fanout,
    ):
        """In-process shards share one engine object: an ingest batch
        publishes ONE epoch — the first shard's refresh attaches it, the
        others find the engine current, also when the shards refresh
        concurrently, each on its own thread — while every shard still
        drops from its caches and counts the batch."""
        engine = make_store_engine(tmp_path / "shared.sqlite3", initial_docs)
        attaches = []
        attach = engine._attach_snapshot
        monkeypatch.setattr(
            engine,
            "_attach_snapshot",
            lambda previous: attaches.append(previous) or attach(previous),
        )
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                engine, small_miner, config=STANDARD_CONFIG
            ),
            num_shards=NUM_SHARDS,
        )
        try:
            if fanout == "inline":
                epoch = cluster.ingest(add_documents=holdout_docs[:2])
            else:
                adds = holdout_docs[:2]
                cluster.services[0].append_to_store(adds)
                epoch = max(run_on_threads(
                    lambda shard=shard: shard.apply_updates(adds)
                    for shard in cluster.services
                ))
            assert epoch == 1
            assert cluster.current_epoch() == 1
            assert len(attaches) == 1
            stats = cluster.cluster_stats()
            assert stats.epochs_published == 1  # max-merged, not summed
            assert stats.documents_ingested == 2
            for shard_stats in cluster.shard_stats():
                assert shard_stats.epochs_published == 1
        finally:
            cluster.close()

    def test_every_shard_drops_its_own_lists_and_results(
        self, tmp_path, small_miner, initial_docs, holdout_docs, workload
    ):
        """Shards over one shared engine each drop their own caches on an
        ingest, and the cluster's ``warm_invalidations`` sums what every
        shard dropped."""
        engine = make_store_engine(tmp_path / "shared.sqlite3", initial_docs)
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                engine, small_miner, config=STANDARD_CONFIG
            ),
            num_shards=NUM_SHARDS,
            backend="inline",
        )
        try:
            cluster.diversify_batch(workload)
            held = [shard.spec_cache_info().size for shard in cluster.services]
            assert sum(map(bool, held)) > 1
            assert cluster.result_cache_info().size
            assert cluster.ingest(add_documents=holdout_docs[:1]) == 1
            assert cluster.spec_cache_info().size == 0
            assert cluster.result_cache_info().size == 0
            assert [
                stats.warm_invalidations for stats in cluster.shard_stats()
            ] == held
            assert cluster.cluster_stats().warm_invalidations == sum(held)
        finally:
            cluster.close()

    def test_store_append_analyses_with_the_engine_analyzer(
        self, tmp_path, small_miner, initial_docs
    ):
        """The cluster's one durable append analyses added documents with
        the shard engine's analyzer, not the stock one: the store equals a
        from-scratch write of the final collection under that analyzer."""
        analyzer = Analyzer(use_stemming=False)
        added = Document("live0", "jumping oranges")
        live = tmp_path / "live.sqlite3"
        write_store(live, make_engine(initial_docs, analyzer=analyzer))
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                StoreBackedSearchEngine(live, analyzer=analyzer),
                small_miner,
                config=STANDARD_CONFIG,
            ),
            num_shards=2,
            backend="inline",
        )
        try:
            assert cluster.ingest(add_documents=[added]) == 1
        finally:
            cluster.close()
        scratch = tmp_path / "scratch.sqlite3"
        write_store(
            scratch, make_engine(initial_docs + [added], analyzer=analyzer)
        )
        assert_stores_identical(live, scratch)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_identity_under_every_backend(
        self, tmp_path, small_miner, initial_docs, batches, workload,
        reference, backend,
    ):
        if backend == "process" and "fork" not in (
            multiprocessing.get_all_start_methods()
        ):
            pytest.skip("no fork on this platform")
        store_path = tmp_path / "cluster.sqlite3"
        write_store(store_path, make_engine(initial_docs))
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            ),
            num_shards=NUM_SHARDS,
            backend=backend,
        )
        try:
            cluster.diversify_batch(workload)  # pre-ingest traffic
            for adds, removes in batches:
                cluster.ingest(add_documents=adds, remove_doc_ids=removes)
            assert cluster.current_epoch() == len(batches)
            assert_results_equal(cluster.diversify_batch(workload), reference)
        finally:
            cluster.close()


# -- process workers: respawn rehydrates to the latest epoch --------------------


class TestReplicatedIngest:
    def test_respawn_rehydrates_to_latest_epoch(
        self, tmp_path, small_miner, initial_docs, batches, workload, reference
    ):
        """The coordinator appends each batch to the store once; every
        shard refreshes.  A worker killed after the ingests respawns
        from the store already at the latest epoch — no failover can
        time-travel the collection."""
        store_path = tmp_path / "ingest.sqlite3"
        write_store(store_path, make_engine(initial_docs))

        def factory(shard):
            return DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            )

        backend = FaultInjectingBackend()
        cluster = ShardedDiversificationService.from_factory(
            factory, num_shards=2, backend=backend
        )
        try:
            for adds, removes in batches:
                cluster.ingest(add_documents=adds, remove_doc_ids=removes)
            assert cluster.current_epoch() == len(batches)
            spawned_before = len(backend.spawned)
            backend.kill_worker(0)
            got = cluster.diversify_batch(workload)
            assert_results_equal(got, reference)
            # The kill really forced a respawn (a fresh store attach).
            assert len(backend.spawned) > spawned_before
            assert cluster.current_epoch() == len(batches)
        finally:
            cluster.close()

    @pytest.mark.parametrize("kind", [CRASH_BEFORE_REPLY, HANG])
    def test_append_is_not_resent_after_its_worker_dies(
        self, tmp_path, small_miner, initial_docs, kind
    ):
        """An append whose worker dies (or hangs past its budget and is
        buried) before replying may already be durable, so it is not
        resent: the store gains exactly one epoch and the death surfaces
        as ``WorkerDiedError``.  The batch moves one stored document
        (remove, then add it back), which a resend would repeat as a
        second epoch.  Before the error surfaces, every shard is brought
        to the store's epoch, so the cluster never serves two epochs at
        once."""
        store_path = tmp_path / "ingest.sqlite3"
        write_store(store_path, make_engine(initial_docs))
        schedule = FaultSchedule().at(0, 0, Fault(kind))
        backend = FaultInjectingBackend(schedule=schedule)
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            ),
            num_shards=2,
            backend=backend,
        )
        doc = initial_docs[3]
        try:
            with pytest.raises(WorkerDiedError) as excinfo:
                cluster.ingest(add_documents=[doc], remove_doc_ids=[doc.doc_id])
            assert backend.broadcast("current_epoch") == {0: 1, 1: 1}
        finally:
            cluster.close()
        assert excinfo.value.shard == 0
        assert "append_to_store" in str(excinfo.value)
        store = IndexStore(store_path)
        try:
            assert store.store_epoch == 1
        finally:
            store.close()

    def test_append_that_never_reached_its_worker_is_sent_again(
        self, tmp_path, small_miner, initial_docs
    ):
        """A worker that dies before the append is delivered cannot have
        committed it, so the append goes to the respawned worker and the
        ingest succeeds with exactly one epoch."""
        store_path = tmp_path / "ingest.sqlite3"
        write_store(store_path, make_engine(initial_docs))
        schedule = FaultSchedule().at(0, 0, Fault(CRASH_ON_SEND))
        backend = FaultInjectingBackend(schedule=schedule)
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            ),
            num_shards=2,
            backend=backend,
        )
        doc = initial_docs[3]
        try:
            cluster.ingest(add_documents=[doc], remove_doc_ids=[doc.doc_id])
            assert backend.broadcast("current_epoch") == {0: 1, 1: 1}
            assert backend.replication_stats()[0] == {
                "respawns": 1,
                "failovers": 1,
            }
        finally:
            cluster.close()
        store = IndexStore(store_path)
        try:
            assert store.store_epoch == 1
        finally:
            store.close()

    def test_respawn_after_ingest_hydrates_no_stale_warm_rows(
        self, tmp_path, small_miner, initial_docs, batches, workload, reference
    ):
        """Warm rows persisted at epoch 0 embed that epoch's N and avg_dl.
        A stats-changing ingest prunes them from the store, so a worker
        respawned afterwards hydrates nothing stale and still serves the
        cold rebuild's results."""
        engine = make_engine(initial_docs)
        donor = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                engine, small_miner, config=STANDARD_CONFIG
            ),
            num_shards=2,
            backend="inline",
        )
        try:
            donor.warm(set(workload))
            store_path = persist_store(
                tmp_path / "warm.sqlite3", engine, donor
            )
        finally:
            donor.close()
        assert read_warm_artifacts(store_path, 0)

        backend = FaultInjectingBackend()
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: DiversificationFramework(
                StoreBackedSearchEngine(store_path),
                small_miner,
                config=STANDARD_CONFIG,
            ),
            num_shards=2,
            backend=backend,
        )
        try:
            for adds, removes in batches:
                cluster.ingest(add_documents=adds, remove_doc_ids=removes)
            for shard in range(2):
                assert read_warm_artifacts(store_path, shard) == {}
            backend.kill_worker(0)
            assert_results_equal(cluster.diversify_batch(workload), reference)
            assert backend.replication_stats()[0]["respawns"] == 1
        finally:
            cluster.close()


# -- snapshot isolation under a concurrent publish -------------------------------


class TestPublishRace:
    def test_in_flight_query_serves_exactly_one_epoch(
        self, tmp_path, small_miner, initial_docs, topic_queries
    ):
        """A query mid-flight when an epoch publishes returns results
        consistent with the epoch it pinned — and its stale result is
        cached tagged with that epoch, so the next serve computes the new
        epoch."""
        target = topic_queries[0]
        alien = Document("racer", "zzqa zzqa zzqa")
        ref_epoch0 = make_service(small_miner, initial_docs).diversify(target)
        ref_epoch1 = make_service(
            small_miner, list(initial_docs) + [alien]
        ).diversify(target)

        service = make_live_service(
            tmp_path / "race.sqlite3", small_miner, initial_docs
        )
        engine = service.framework.engine
        original = engine.search
        entered, release = threading.Event(), threading.Event()
        state = {"fired": False}

        def blocking_search(query, *args, **kwargs):
            # Block the first search of the target *before* it computes:
            # the publish lands while we wait, yet the pinned snapshot
            # must still serve the old epoch in full.
            if query == target and not state["fired"]:
                state["fired"] = True
                entered.set()
                assert release.wait(10)
            return original(query, *args, **kwargs)

        engine.search = blocking_search
        result_box = {}
        thread = threading.Thread(
            target=lambda: result_box.update(got=service.diversify(target))
        )
        thread.start()
        assert entered.wait(10)
        assert service.ingest(add_documents=[alien]) == 1
        release.set()
        thread.join(10)
        assert not thread.is_alive()

        # The in-flight query saw epoch 0, entirely.
        assert_results_equal([result_box["got"]], [ref_epoch0])
        # Its stale result is not served at epoch 1: re-serving computes
        # epoch 1 (N changed, so even an identical ranking has new scores).
        assert_results_equal([service.diversify(target)], [ref_epoch1])


# -- async front-end: each admitted batch sees one epoch -------------------------


class TurnstileBackend(RecordingBackend):
    """Recording delegate whose every dispatch waits for one turn the
    test grants: the batcher is held between two batches on purpose."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.turns = threading.Semaphore(0)

    def diversify_batch(self, queries):
        assert self.turns.acquire(timeout=15.0), "test granted no turn"
        return super().diversify_batch(queries)


class TestAsyncEpochConsistency:
    def test_each_batch_serves_one_epoch(
        self, tmp_path, small_miner, initial_docs, holdout_docs, topic_queries
    ):
        queries = topic_queries[:3]
        service = make_live_service(
            tmp_path / "async.sqlite3", small_miner, initial_docs
        )
        backend = TurnstileBackend(service)
        ref_epoch0 = make_service(
            small_miner, initial_docs
        ).diversify_batch(queries)
        ref_epoch1 = make_service(
            small_miner, list(initial_docs) + list(holdout_docs[:2])
        ).diversify_batch(queries)

        async def scenario():
            async with AsyncDiversificationService(backend) as front:
                try:
                    first = [
                        asyncio.create_task(front.submit(q)) for q in queries
                    ]
                    await settle()  # one batch, waiting for its turn
                    second = [
                        asyncio.create_task(front.submit(q)) for q in queries
                    ]
                    await settle()  # queued behind it
                    backend.turns.release()
                    got_first = await asyncio.gather(*first)
                    # The publish lands while the second batch, already
                    # dispatched, waits for its turn.
                    assert service.ingest(add_documents=holdout_docs[:2]) == 1
                    backend.turns.release()
                    return got_first, await asyncio.gather(*second)
                finally:
                    backend.turns.release(2)

        got_first, got_second = run(scenario())
        assert backend.batches == [queries, queries]
        assert_results_equal(got_first, ref_epoch0)
        assert_results_equal(got_second, ref_epoch1)


# -- HTTP ingest surface ---------------------------------------------------------


def delete(url: str) -> tuple[int, dict]:
    request = urllib.request.Request(url, method="DELETE")
    try:
        with urllib.request.urlopen(request, timeout=30) as rsp:
            return rsp.status, json.load(rsp)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


@pytest.fixture()
def ingest_server(tmp_path, small_miner, initial_docs):
    service = make_live_service(
        tmp_path / "http.sqlite3", small_miner, initial_docs
    )
    with DiversificationHTTPServer(service) as srv:
        yield srv
    service.framework.engine.close()


class TestHTTPIngest:
    def test_ingest_lifecycle(self, ingest_server, holdout_docs):
        url = ingest_server.base_url
        doc = holdout_docs[0]
        status, body = post(
            f"{url}/documents",
            {"doc_id": doc.doc_id, "text": doc.text, "title": doc.title},
        )
        assert (status, body["epoch"]) == (200, 1)
        assert (body["ingested"], body["removed"]) == (1, 0)

        status, body = post(
            f"{url}/documents",
            {
                "documents": [
                    {"doc_id": d.doc_id, "text": d.text}
                    for d in holdout_docs[1:3]
                ],
                "remove": [doc.doc_id],
            },
        )
        assert (status, body["epoch"]) == (200, 2)
        assert (body["ingested"], body["removed"]) == (2, 1)

        status, body = delete(f"{url}/documents/{holdout_docs[1].doc_id}")
        assert (status, body["epoch"]) == (200, 3)

        status, health = get(f"{url}/health")
        assert (status, health["epoch"]) == (200, 3)
        status, stats = get(f"{url}/stats")
        assert status == 200
        ingest = stats["backend"]["ingest"]
        assert ingest["documents_ingested"] == 3
        assert ingest["documents_removed"] == 2
        assert ingest["epochs_published"] == 3

    def test_error_paths(self, ingest_server, holdout_docs):
        url = ingest_server.base_url
        status, body = post(f"{url}/documents", {"documents": [], "remove": []})
        assert (status, error_code(body)) == (422, "invalid_body")
        status, body = delete(f"{url}/documents/ghost")
        assert (status, error_code(body)) == (404, "unknown_document")
        doc = holdout_docs[0]
        post(f"{url}/documents", {"doc_id": doc.doc_id, "text": doc.text})
        status, body = post(
            f"{url}/documents", {"doc_id": doc.doc_id, "text": doc.text}
        )
        assert (status, error_code(body)) == (409, "conflict")
        status, body = post(f"{url}/documents", {"doc_id": "x"})
        assert (status, error_code(body)) == (422, "invalid_document")
        status, body = get(f"{url}/documents")
        assert status == 405

    def test_unconfirmed_write_answers_503(
        self, ingest_server, holdout_docs, monkeypatch
    ):
        """A write whose appending worker died may or may not be in the
        store: both write endpoints answer 503 ``write_unconfirmed``
        pointing at ``GET /health``, not a generic 500."""

        def died(*args, **kwargs):
            raise WorkerDiedError(
                "shard 0: 'append_to_store' was delivered and its worker died",
                shards=(0,),
            )

        monkeypatch.setattr(ingest_server.service, "ingest", died)
        url = ingest_server.base_url
        doc = holdout_docs[0]
        status, body = post(
            f"{url}/documents", {"doc_id": doc.doc_id, "text": doc.text}
        )
        assert (status, error_code(body)) == (503, "write_unconfirmed")
        assert "GET /health" in body["error"]["message"]
        status, body = delete(f"{url}/documents/{doc.doc_id}")
        assert (status, error_code(body)) == (503, "write_unconfirmed")

    def test_in_memory_service_answers_read_only(
        self, small_miner, initial_docs, holdout_docs
    ):
        """An in-memory service is read-only: both write endpoints answer
        409 ``read_only`` naming the way to a store, and the epoch stays."""
        service = make_service(small_miner, initial_docs)
        with DiversificationHTTPServer(service) as srv:
            url = srv.base_url
            doc = holdout_docs[0]
            status, body = post(
                f"{url}/documents", {"doc_id": doc.doc_id, "text": doc.text}
            )
            assert (status, error_code(body)) == (409, "read_only")
            assert "persist_store" in body["error"]["message"]
            status, body = delete(f"{url}/documents/{initial_docs[0].doc_id}")
            assert (status, error_code(body)) == (409, "read_only")
            status, health = get(f"{url}/health")
            assert (status, health["epoch"]) == (200, 0)

    def test_hit_after_an_ingest_serves_the_new_result(
        self, ingest_server, holdout_docs, workload
    ):
        """The reply memo serves a hit's bytes only while the service
        answers the result they were encoded from: after a stats-changing
        ingest (N and the mean length move every score), a hit carries
        the new result."""
        query = workload[0]
        post_raw(ingest_server, {"query": query})
        _, before = post_raw(ingest_server, {"query": query})  # memoised hit
        doc = holdout_docs[0]
        status, _ = post(
            f"{ingest_server.base_url}/documents",
            {"doc_id": doc.doc_id, "text": doc.text},
        )
        assert status == 200
        post_raw(ingest_server, {"query": query})
        _, after = post_raw(ingest_server, {"query": query})
        result = ingest_server.service.cached(query)
        assert after == json.dumps(result_payload(result)).encode("utf-8")
        assert after != before
