"""Shared fixtures: a small deterministic corpus/engine/log stack.

Session-scoped so the expensive builds (corpus generation, indexing,
query-log synthesis, miner training) happen once for the whole suite.
Tests must treat these as read-only.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.core.optselect import OptSelect
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.trec import build_testbed
from repro.querylog.specializations import SpecializationMiner
from repro.querylog.synthesis import AOL_PROFILE, generate_query_log
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(
        CorpusConfig(
            num_topics=6,
            docs_per_aspect=8,
            background_docs=80,
            seed=7,
        )
    )


@pytest.fixture(scope="session")
def small_testbed(small_corpus):
    return build_testbed(small_corpus)


@pytest.fixture(scope="session")
def small_engine(small_corpus):
    return SearchEngine(small_corpus.collection)


@pytest.fixture(scope="session")
def small_log(small_corpus):
    return generate_query_log(small_corpus, AOL_PROFILE.scaled(0.08))


@pytest.fixture(scope="session")
def small_miner(small_log):
    return SpecializationMiner(small_log).build()


#: The standard small-scale config shared by framework/serving tests.
STANDARD_CONFIG = FrameworkConfig(k=10, candidates=80, spec_results=10)


def run_on_threads(calls) -> list:
    """Run every zero-argument callable on its own thread, released
    together through a barrier; return the results in order and re-raise
    the first failure.  The concurrent-caller cover for shards that
    share one in-process engine."""
    calls = list(calls)
    start = threading.Barrier(len(calls))
    results: list = [None] * len(calls)
    errors: list = []

    def run(i, call):
        start.wait()
        try:
            results[i] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i, call), daemon=True)
        for i, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


@pytest.fixture(scope="session")
def standard_config():
    return STANDARD_CONFIG


@pytest.fixture(scope="session")
def small_framework(small_engine, small_miner):
    return DiversificationFramework(
        small_engine, small_miner, OptSelect(), STANDARD_CONFIG
    )


@pytest.fixture(scope="session")
def framework_factory(small_engine, small_miner):
    """Factory for *fresh* (cold-cache) frameworks at the standard small
    scale.  Serving tests need a new framework per test so cache counters
    start from zero; this deduplicates the per-module copies of the same
    constructor call.  Pass ``diversifier=``/``config=``/``engine=`` to
    override the defaults (reference OptSelect, :data:`STANDARD_CONFIG`,
    the in-memory small engine)."""

    def make(diversifier=None, config=None, engine=None, **kwargs):
        return DiversificationFramework(
            engine if engine is not None else small_engine,
            small_miner,
            diversifier if diversifier is not None else OptSelect(),
            config or STANDARD_CONFIG,
            **kwargs,
        )

    return make


@pytest.fixture()
def fresh_framework(framework_factory):
    """A cold-cache framework, new for every test."""
    return framework_factory()


@pytest.fixture(scope="session")
def topic_queries(small_corpus):
    """Every corpus topic's root query, in topic order."""
    return [topic.query for topic in small_corpus.topics]


@pytest.fixture(scope="session")
def ambiguous_topic(small_corpus, small_miner):
    """A corpus topic whose root query the miner actually detects."""
    for topic in small_corpus.topics:
        if small_miner.is_ambiguous(topic.query):
            return topic
    pytest.skip("no detectable ambiguous topic in the small fixture log")


@pytest.fixture()
def tiny_collection():
    """A handful of hand-written documents for retrieval unit tests."""
    return DocumentCollection(
        [
            Document("apple-pc", "apple computer iphone store macbook laptop",
                     title="Apple Inc"),
            Document("apple-fruit", "apple fruit orchard harvest cider tree",
                     title="Apple fruit"),
            Document("apple-both", "apple computer and apple fruit together"),
            Document("banana", "banana fruit tropical yellow"),
            Document("empty-ish", "the of and to"),
        ]
    )
