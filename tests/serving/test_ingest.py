"""Live ingest through the serving layer: epoch-consistent serving.

Ingest goes through a store: the batch is appended to the store file and
every attached engine refreshes.  The serving-side half of the
live-ingest identity gate: after any interleaved sequence of ingest
batches and queries, a store-backed service (single, sharded under any
backend, replicated through a respawn, or fronted by HTTP) must serve
results field-identical — rankings *and* baseline scores — to a cold
in-memory service built from scratch over the final collection.  The
concurrency half is snapshot isolation: a query in flight when an epoch
publishes returns results consistent with exactly one epoch, and its
(now stale) result never re-enters the caches.  An in-memory service is
read-only and says so with a typed error.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import pickle
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.framework import DiversificationFramework
from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import EpochDelta, ResultList, SearchEngine
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
)
from repro.serving.backends import WorkerDiedError
from repro.serving.service import ReadOnlyError

from tests.conftest import STANDARD_CONFIG
from tests.retrieval.test_store_epochs import assert_stores_identical

from .aio import ManualClock, RecordingBackend, run
from .faults import CRASH_BEFORE_REPLY, Fault, FaultInjectingBackend, FaultSchedule
from .test_http import error_code, get, post

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


def publish_rebuilt(engine, docs, adds, removed):
    """Publish *docs* on the in-memory *engine* as its next epoch, built
    from scratch, with the delta of the batch that produced them (*adds*
    and the *removed* documents).  A pinned query keeps its whole
    snapshot; returns the delta."""
    current = engine.snapshot()
    fresh = make_engine(docs, engine.num_partitions).snapshot()
    delta = EpochDelta(
        added=tuple(d.doc_id for d in adds),
        removed=tuple(d.doc_id for d in removed),
        terms=frozenset(
            term
            for document in adds + removed
            for term in engine.analyzer.analyze(document.full_text)
        ),
        stats_changed=(fresh.num_documents, fresh.total_tokens)
        != (current.num_documents, current.total_tokens),
    )
    with engine._epoch_lock:
        engine._snapshot = dataclasses.replace(
            fresh, epoch=current.epoch + 1, delta=delta
        )
    return delta


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

    def test_balanced_alien_swap_keeps_warm_state(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        """A stats-preserving swap whose vocabulary is disjoint from the
        query space invalidates nothing: zero warm drops, and cached
        end-to-end results keep serving as hits."""
        service = make_live_service(
            tmp_path / "live.sqlite3", small_miner, initial_docs
        )
        service.warm(set(workload))
        alien = Document("alien0", "zzqa wwxo vvrt")
        service.ingest(add_documents=[alien])  # N changed: wholesale drop
        assert service.stats.warm_invalidations > 0
        service.diversify_batch(workload)  # refill every cache at epoch 1
        invalidations = service.stats.warm_invalidations
        hits_before = service.result_cache_info().hits
        misses_before = service.result_cache_info().misses

        length = len(Analyzer().analyze(alien.full_text))
        swap = Document("alien1", " ".join(["qqzb"] * length))
        epoch = service.ingest(
            add_documents=[swap], remove_doc_ids=[alien.doc_id]
        )
        assert epoch == 2
        # The surgical path fired: no warm artifact was dropped ...
        assert service.stats.warm_invalidations == invalidations
        served = service.diversify_batch(workload)
        # ... and every result survived the sweep to serve from cache:
        # one hit per distinct query, not a single new miss.
        assert (
            service.result_cache_info().hits
            == hits_before + len(set(workload))
        )
        assert service.result_cache_info().misses == misses_before
        fresh = make_service(
            small_miner,
            apply_to_docs(initial_docs, [([alien], []), ([swap], ["alien0"])]),
        )
        assert_results_equal(served, fresh.diversify_batch(workload))

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


# -- what an epoch keeps: surrogate vectors of unchanged documents ---------------


def vectors_of(artifact):
    """An artifact's vectors with their terms in insertion order."""
    return {d: list(v.weights.items()) for d, v in artifact[1].items()}


class TestRetainedVectors:
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
        delta = snapshot.delta
        assert delta.stats_changed and victim.doc_id in delta.changed_ids
        assert framework.invalidate_affected(delta) == len(before)
        assert framework.export_warm_state() == {}
        retained = {
            q: {d for d in artifact[1] if d not in delta.changed_ids}
            for q, artifact in before.items()
        }
        assert victim.doc_id in before[spec_query][1]
        assert victim.doc_id not in retained[spec_query]

        vectorised: dict[str, list[str]] = {}
        snippet_vectors = engine.snippet_vectors

        def recording(query, results):
            vectorised.setdefault(query, []).extend(r.doc_id for r in results)
            return snippet_vectors(query, results)

        engine.snippet_vectors = recording
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

    def test_a_retained_entry_is_a_spec_cache_miss(
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
        delta = publish(engine, [Document("alien0", "zzqa wwxo")]).delta
        assert framework.invalidate_affected(delta) == specs
        stats = framework.cache_info()
        assert stats.size == specs  # retained vectors, under the same bound
        assert framework.warm_memory_estimate()["vectors"] > 0
        framework.diversify_query(query)
        after = framework.cache_info()
        assert (after.hits, after.misses) == (stats.hits, stats.misses + specs)
        framework.diversify_query(query)
        assert framework.cache_info().hits == after.hits + specs

    def test_a_fetch_racing_a_sweep_keeps_no_changed_vector(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        """A fetch that read a retained-vectors entry after epoch 2
        published but before its sweep, and finishes after the sweep,
        would cache the old vector of the document epoch 2 rewrote: it
        is discarded instead, and the next fetch vectorises that
        document afresh."""
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
        framework.invalidate_affected(epoch1.delta)  # keeps every vector
        rewritten = Document(victim, f"{old.text} zzqb", old.title)
        epoch2 = publish(engine, [rewritten], [victim])  # not swept yet

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
        framework.invalidate_affected(epoch2.delta)  # lands mid-fetch
        release.set()
        fetch.join(10)
        assert not fetch.is_alive()
        engine.search_batch = search_batch

        assert spec_query not in framework.export_warm_state()
        framework.prefetch_specializations([spec_query])
        results, vectors = framework.export_warm_state()[spec_query]
        assert victim in results
        fresh = engine.snippet_vectors(spec_query, results)
        assert vectors_of((results, vectors)) == vectors_of((results, fresh))

    def test_no_stale_vector_survives_concurrent_epochs(
        self, small_miner, initial_docs, workload
    ):
        """Readers fill the spec cache while a writer re-ingests documents
        its lists hold, with new text, every epoch.  Afterwards every
        cached list and every cached vector — retained or not — equals
        what the final epoch computes from scratch: no sweep let a
        vector of a changed document ride along.  Each epoch is a
        from-scratch build swapped in (:func:`publish_rebuilt`): this
        gates the framework's sweeps, and a store-backed snapshot is
        not isolated from a concurrent append yet."""
        engine = make_engine(initial_docs)
        framework = DiversificationFramework(
            engine, small_miner, config=STANDARD_CONFIG
        )
        queries = list(dict.fromkeys(workload))
        for query in queries:
            framework.diversify_query(query)
        texts = {d.doc_id: d for d in initial_docs}
        docs = list(initial_docs)
        done = threading.Event()
        errors = []

        def read():
            try:
                while not done.is_set():
                    for query in queries:
                        framework.diversify_query(query)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
                done.set()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(4)]
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
                delta = publish_rebuilt(engine, docs, adds, [old])
                framework.invalidate_affected(delta)
        finally:
            done.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(switch)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors, errors

        k = STANDARD_CONFIG.spec_results
        for spec_query, (results, vectors) in framework._spec_cache.snapshot():
            if results is not None:
                want = engine.search(spec_query, k)
                assert results.doc_ids == want.doc_ids, spec_query
                assert results.scores == want.scores, spec_query
            fresh = engine.snippet_vectors(
                spec_query, ResultList(spec_query, [(d, 0.0) for d in vectors])
            )
            assert vectors_of((None, vectors)) == vectors_of((None, fresh))

    def test_store_backed_swap_drops_what_the_oracle_delta_drops(
        self, tmp_path, small_miner, initial_docs, workload
    ):
        """A stats-preserving swap read off the store's epoch log is the
        oracle's delta: the two changed doc_ids and the union of their
        analysed terms, computed here.  A twin service swept by that
        oracle delta drops the same artifacts and results and keeps the
        same vectors, and both serve the cold rebuild's results."""
        stored = make_live_service(
            tmp_path / "swap.sqlite3", small_miner, initial_docs
        )
        twin = make_live_service(
            tmp_path / "twin.sqlite3", small_miner, initial_docs
        )
        services = (stored, twin)
        for service in services:
            service.warm(set(workload))
            service.diversify_batch(workload)
        held = stored.framework.export_warm_state()
        victim_id = next(d for _, (r, _) in held.items() for d in r.doc_ids)
        victim = next(d for d in initial_docs if d.doc_id == victim_id)
        analyzer = Analyzer()
        length = len(analyzer.analyze(victim.full_text))
        swap = Document("swap0", " ".join(["qqzb"] * length))
        oracle = EpochDelta(
            added=(swap.doc_id,),
            removed=(victim_id,),
            terms=frozenset(
                term
                for document in (victim, swap)
                for term in analyzer.analyze(document.full_text)
            ),
            stats_changed=False,
        )
        twin_engine = twin.framework.engine
        published = twin_engine.snapshot
        twin_engine.snapshot = lambda: dataclasses.replace(
            published(), delta=oracle
        )
        for service in services:
            assert service.ingest([swap], [victim_id]) == 1
        assert stored.framework.engine.snapshot().delta == oracle
        assert 0 < stored.stats.warm_invalidations == (
            twin.stats.warm_invalidations
        ) < len(held)
        assert stored.framework.export_warm_state().keys() == (
            twin.framework.export_warm_state().keys()
        )
        assert stored.warm_memory_estimate() == twin.warm_memory_estimate()
        assert stored.result_cache_info() == twin.result_cache_info()
        cold = make_service(
            small_miner, apply_to_docs(initial_docs, [([swap], [victim_id])])
        ).diversify_batch(workload)
        assert_results_equal(stored.diversify_batch(workload), cold)
        assert_results_equal(twin.diversify_batch(workload), cold)
        assert stored.result_cache_info() == twin.result_cache_info()
        for service in services:
            service.framework.engine.close()


# -- sharded clusters ------------------------------------------------------------


class TestShardedIngest:
    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_shared_engine_advances_once(
        self, tmp_path, small_miner, initial_docs, holdout_docs, monkeypatch,
        backend,
    ):
        """In-process shards share one engine object: an ingest batch
        publishes ONE epoch — the first shard's refresh attaches it, the
        others find the engine current, also when the shards refresh
        concurrently on threads — while every shard still sweeps its
        caches and counts the batch."""
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
            backend=backend,
        )
        try:
            epoch = cluster.ingest(add_documents=holdout_docs[:2])
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


# -- replicated serving: respawn rehydrates to the latest epoch ------------------


class TestReplicatedIngest:
    def test_respawn_rehydrates_to_latest_epoch(
        self, tmp_path, small_miner, initial_docs, batches, workload, reference
    ):
        """The coordinator appends each batch to the store once; every
        replica refreshes.  A replica killed after the ingests respawns
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

        backend = FaultInjectingBackend(replicas=2)
        cluster = ShardedDiversificationService.from_factory(
            factory, num_shards=2, backend=backend
        )
        try:
            for adds, removes in batches:
                cluster.ingest(add_documents=adds, remove_doc_ids=removes)
            assert cluster.current_epoch() == len(batches)
            spawned_before = len(backend.spawned)
            backend.kill_replica(0)
            got = cluster.diversify_batch(workload)
            assert_results_equal(got, reference)
            # The kill really forced a respawn (a fresh store attach).
            assert len(backend.spawned) > spawned_before
            assert cluster.current_epoch() == len(batches)
        finally:
            cluster.close()

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_append_is_not_resent_after_its_worker_dies(
        self, tmp_path, small_miner, initial_docs, replicas
    ):
        """An append whose worker dies before replying may already be
        durable, so it is not resent: the store gains exactly one epoch
        and the death surfaces as ``WorkerDiedError``.  The batch moves
        one stored document (remove, then add it back), which a resend
        would repeat as a second epoch.  Before the error surfaces, every
        shard and every replica is brought to the store's epoch, so the
        cluster never serves two epochs at once."""
        store_path = tmp_path / "ingest.sqlite3"
        write_store(store_path, make_engine(initial_docs))
        # Shard 0's round-robin pick for its first call is replica 0.
        schedule = FaultSchedule().at(0, 0, 0, Fault(CRASH_BEFORE_REPLY))
        backend = FaultInjectingBackend(replicas=replicas, schedule=schedule)
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
            for shard in range(2):
                assert backend.invoke_replicas(shard, "current_epoch") == (
                    [1] * replicas
                )
        finally:
            cluster.close()
        assert excinfo.value.shard == 0
        assert "append_to_store" in str(excinfo.value)
        store = IndexStore(store_path)
        try:
            assert store.store_epoch == 1
        finally:
            store.close()

    def test_respawn_after_ingest_hydrates_no_stale_warm_rows(
        self, tmp_path, small_miner, initial_docs, batches, workload, reference
    ):
        """Warm rows persisted at epoch 0 embed that epoch's N and avg_dl.
        A stats-changing ingest prunes them from the store, so a replica
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

        backend = FaultInjectingBackend(replicas=2)
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
            backend.kill_replica(0)
            assert_results_equal(cluster.diversify_batch(workload), reference)
            assert backend.replication_stats()[0].respawns == (1, 0)
        finally:
            cluster.close()


# -- snapshot isolation under a concurrent publish -------------------------------


class TestPublishRace:
    def test_in_flight_query_serves_exactly_one_epoch(
        self, tmp_path, small_miner, initial_docs, topic_queries
    ):
        """A query mid-flight when an epoch publishes returns results
        consistent with the epoch it pinned — and its stale result is
        refused by the cache, so the next serve computes the new epoch."""
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
        # Its stale result was refused by the cache: re-serving computes
        # epoch 1 (N changed, so even an identical ranking has new scores).
        assert_results_equal([service.diversify(target)], [ref_epoch1])


# -- async front-end: each admitted batch sees one epoch -------------------------


class TestAsyncEpochConsistency:
    def test_each_window_serves_one_epoch(
        self, tmp_path, small_miner, initial_docs, holdout_docs, topic_queries
    ):
        queries = topic_queries[:3]
        service = make_live_service(
            tmp_path / "async.sqlite3", small_miner, initial_docs
        )
        backend = RecordingBackend(service)
        ref_epoch0 = make_service(
            small_miner, initial_docs
        ).diversify_batch(queries)
        ref_epoch1 = make_service(
            small_miner, list(initial_docs) + list(holdout_docs[:2])
        ).diversify_batch(queries)

        async def scenario():
            clock = ManualClock()
            front = AsyncDiversificationService(
                backend,
                inline=True,
                clock=clock,
                max_batch_size=10,
                max_wait_s=0.005,
            )
            async with front:
                first = [
                    asyncio.create_task(front.submit(q)) for q in queries
                ]
                await clock.advance(0.005)
                assert all(task.done() for task in first)
                # The publish lands between admission windows.
                assert service.ingest(add_documents=holdout_docs[:2]) == 1
                second = [
                    asyncio.create_task(front.submit(q)) for q in queries
                ]
                await clock.advance(0.005)
                assert all(task.done() for task in second)
                return (
                    [task.result() for task in first],
                    [task.result() for task in second],
                )

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
