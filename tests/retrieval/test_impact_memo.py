"""Identity tests for the impact memo: every engine flavour, under DPH and
BM25, must return the doc_ids and the score floats of the per-posting
oracle (``search_oracle.py``) — on a first search, a repeated one, a
specialization sharing the query's terms, and, on the store-backed
engine (the one whose collection changes), across epochs and under a
pin.  The model an engine scores with is fixed at construction."""

from __future__ import annotations

import contextlib
import pickle
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import index as index_module
from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine
from repro.retrieval.models import BM25, DPH
from repro.retrieval.store import (
    StoreBackedSearchEngine,
    append_epoch,
    write_store,
)
from tests.retrieval.search_oracle import assert_oracle, oracle_search

ANALYZER = Analyzer()
#: Content words, two stop words and (never in a document) "zebra".
VOCABULARY = ["apple", "banana", "cherry", "durian", "elder", "fig", "the", "of"]
MODELS = {"DPH": DPH, "BM25": BM25}
FLAVOURS = ["plain", "partitioned-1", "partitioned-4", "store"]

texts = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8).map(" ".join)
collections = st.lists(texts, min_size=1, max_size=10).map(
    lambda bodies: [Document(f"d{i}", body) for i, body in enumerate(bodies)]
)
#: Repeats give qtf 2 and 3; "zebra" is absent; "the of" and "" analyse
#: to nothing.
queries = st.lists(
    st.sampled_from(VOCABULARY + ["zebra"]), min_size=0, max_size=5
).map(" ".join)
cutoffs = st.integers(min_value=1, max_value=12)


@contextlib.contextmanager
def engine_of(flavour: str, documents, model):
    collection = DocumentCollection(documents)
    if flavour == "plain":
        yield SearchEngine(collection, model=model)
    elif flavour.startswith("partitioned"):
        yield SearchEngine(
            collection, int(flavour.rsplit("-", 1)[1]), model=model
        )
    else:  # "store" over 4 partitions, "store-N" over N
        partitions = int(flavour.rsplit("-", 1)[1]) if "-" in flavour else 4
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "index.sqlite3"
            write_store(path, SearchEngine(collection, partitions, model=model))
            engine = StoreBackedSearchEngine(path, model=model)
            try:
                yield engine
            finally:
                engine.close()


def memo_of(engine):
    return engine._index_state()[1]


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("flavour", FLAVOURS)
class TestSearchEqualsOracle:
    @given(collections, queries, st.sampled_from(VOCABULARY), cutoffs)
    @settings(max_examples=20, deadline=None)
    def test_first_repeated_and_specialization(
        self, flavour, model_name, documents, query, extra, k
    ):
        with engine_of(flavour, documents, MODELS[model_name]()) as engine:
            assert_oracle(engine, documents, query, k)
            assert_oracle(engine, documents, query, k)
            # A specialization: q plus a term, one of q's terms doubled.
            assert_oracle(engine, documents, f"{query} {extra}", k)
            assert_oracle(engine, documents, f"{extra} {query} {query}", k)
            assert_oracle(engine, documents, query, 1)


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("flavour", ["store-1", "store-2", "store"])
class TestSearchEqualsOracleAcrossEpochs:
    @given(collections, collections, queries, cutoffs)
    @settings(max_examples=15, deadline=None)
    def test_after_an_epoch_that_changes_n(
        self, flavour, model_name, documents, arrivals, query, k
    ):
        adds = [Document(f"new{i}", d.text) for i, d in enumerate(arrivals)]
        removes = [documents[0].doc_id] if len(documents) > 1 else []
        final = [d for d in documents if d.doc_id not in removes] + adds
        with engine_of(flavour, documents, MODELS[model_name]()) as engine:
            assert_oracle(engine, documents, query, k)
            append_epoch(engine.store_path, adds, removes)
            engine.refresh()
            assert_oracle(engine, final, query, k)
            assert_oracle(engine, final, query, k)

    @given(collections, st.data(), queries, cutoffs)
    @settings(max_examples=15, deadline=None)
    def test_after_a_removal_and_a_reingest_refreshed_at_once(
        self, flavour, model_name, documents, data, query, k
    ):
        """One refresh over two epochs: a document removed by the first
        and re-ingested, with new text, by the second moves to the end."""
        victim = data.draw(st.sampled_from(documents))
        reborn = Document(victim.doc_id, data.draw(texts))
        final = [d for d in documents if d is not victim] + [reborn]
        with engine_of(flavour, documents, MODELS[model_name]()) as engine:
            assert_oracle(engine, documents, query, k)
            append_epoch(engine.store_path, (), [victim.doc_id])
            append_epoch(engine.store_path, [reborn])
            assert engine.refresh() == 2
            assert engine.collection.doc_ids[-1] == victim.doc_id
            assert_oracle(engine, final, query, k)


@pytest.mark.parametrize("model_name", MODELS)
class TestSnapshotsAndMutation:
    @given(collections, collections, queries, cutoffs)
    @settings(max_examples=15, deadline=None)
    def test_pinned_query_reads_its_own_epochs_impacts(
        self, model_name, documents, arrivals, query, k
    ):
        with engine_of("store", documents, MODELS[model_name]()) as engine:
            before = engine.snapshot()
            assert_oracle(engine, documents, query, k)
            adds = [Document(f"new{i}", d.text) for i, d in enumerate(arrivals)]
            append_epoch(engine.store_path, adds)
            engine.refresh()
            assert engine.snapshot().impacts.lists == {}  # a publish starts empty
            assert_oracle(engine, documents + adds, query, k)
            with engine.pinned(before):
                assert_oracle(engine, documents, query, k)
                assert memo_of(engine) is before.impacts
            assert_oracle(engine, documents + adds, query, k)


DOCUMENTS = [
    Document("d0", "apple banana apple"),
    Document("d1", "banana cherry"),
    Document("d2", "cherry durian elder apple"),
    Document("d3", "fig"),
]


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_model_is_fixed_at_construction(flavour):
    """The memoised impacts embed the model's scores, so a model swapped
    in afterwards would serve the old model's floats: refused."""
    with engine_of(flavour, DOCUMENTS, DPH()) as engine:
        engine.search("apple", 3)
        with pytest.raises(AttributeError):
            engine.model = BM25()
        assert engine.model.name == "DPH"
        assert_oracle(engine, DOCUMENTS, "apple", 3)


@pytest.mark.parametrize("flavour", FLAVOURS)
class TestDerivedState:
    def test_not_pickled(self, flavour):
        with engine_of(flavour, DOCUMENTS, DPH()) as engine:
            engine.search("apple", 3)
            one = pickle.dumps(engine)
            for query in ("banana", "cherry fig", "apple apple durian"):
                engine.search(query, 3)
            assert memo_of(engine).postings > 0
            assert len(pickle.dumps(engine)) == len(one)
            clone = pickle.loads(one)
            try:
                assert memo_of(clone).lists == {}
                assert_oracle(clone, DOCUMENTS, "apple banana", 3)
            finally:
                if flavour == "store":
                    clone.close()

    def test_bounded(self, flavour, monkeypatch):
        monkeypatch.setattr(index_module, "_IMPACT_MEMO_CAP", 4)
        with engine_of(flavour, DOCUMENTS, DPH()) as engine:
            for query in ("apple", "banana", "cherry", "apple apple", "fig elder"):
                assert_oracle(engine, DOCUMENTS, query, 4)
                memo = memo_of(engine)
                assert memo.postings == sum(len(i) for _, i in memo.lists.values())
                assert memo.postings <= 4

    def test_priced_in_memory_estimate(self, flavour):
        with engine_of(flavour, DOCUMENTS, DPH()) as engine:
            engine.search("apple zebra", 3)  # pages in what the estimate prices
            memo_of(engine).clear()
            before = engine.memory_estimate()
            engine.search("apple zebra", 3)
            after = engine.memory_estimate()
            priced = memo_of(engine).memory_bytes()
            assert priced >= 16 * 2 + 2 * 256  # two lists, "apple" in two documents
            assert after["postings_bytes"] - before["postings_bytes"] == priced
            assert after["total_bytes"] - before["total_bytes"] == priced


def test_memory_budget_drops_the_memo_first():
    with engine_of("store", DOCUMENTS, DPH()) as engine:
        engine.search("apple", 3)
        assert memo_of(engine).postings == 2
        budget = engine.set_memory_budget(1)
        assert_oracle(engine, DOCUMENTS, "banana", 3)
        assert budget.enforcements == 1
        # Only the list gathered after the enforcement pass is left.
        assert list(memo_of(engine).lists) == [("banana", 1)]
        assert_oracle(engine, DOCUMENTS, "apple banana", 3)


def test_concurrent_searches_keep_the_memo_consistent(monkeypatch):
    """More searching threads than cores over one engine, a cap small
    enough that the memo is cleared all the time: a lost update would
    leave ``postings`` disagreeing with the lists held, or past the cap."""
    monkeypatch.setattr(index_module, "_IMPACT_MEMO_CAP", 6)
    engine = SearchEngine(DocumentCollection(DOCUMENTS), 2)
    queries = ["apple", "banana cherry", "apple apple fig", "durian elder", "cherry"]
    want = {q: oracle_search(DOCUMENTS, q, 4, engine.model, ANALYZER) for q in queries}
    wrong: list[str] = []

    def worker(offset: int) -> None:
        for i in range(300):
            query = queries[(i + offset) % len(queries)]
            got = [(r.doc_id, r.score) for r in engine.search(query, 4)]
            if got != want[query]:
                wrong.append(query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    memo = memo_of(engine)
    assert memo.postings == sum(len(i) for _, i in memo.lists.values()) <= 6
