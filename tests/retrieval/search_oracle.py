"""The per-posting search loop the engines ran before impacts were
memoised, kept as the independent reference the engine tests compare
against: a from-scratch inverted index over the documents, one
``model.score`` per posting per search, nothing remembered between
calls."""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Mapping

from repro.retrieval.documents import DocumentCollection
from repro.retrieval.index import InvertedIndex


def oracle_index(documents, analyzer=None) -> InvertedIndex:
    """The from-scratch, undivided index :func:`oracle_search` scores over."""
    return InvertedIndex.from_collection(DocumentCollection(documents), analyzer)


def oracle_search(documents, query, k, model, analyzer):
    index = oracle_index(documents, analyzer)
    n_docs, avg_dl = index.num_documents, index.average_document_length
    accumulators: dict[int, float] = {}
    for term, qtf in Counter(analyzer.analyze(query)).items():
        postings = index.postings(term)
        if postings is None:
            continue
        df, cf = postings.document_frequency, postings.collection_frequency
        for ordinal, tf in zip(postings.ordinals, postings.tfs):
            contribution = model.score(
                tf, index.document_length(ordinal), df, cf, n_docs, avg_dl,
                key_frequency=float(qtf),
            )
            if ordinal in accumulators:
                accumulators[ordinal] += contribution
            else:
                accumulators[ordinal] = contribution
    top = heapq.nsmallest(
        k, accumulators.items(), key=lambda item: (-item[1], item[0])
    )
    return [(index.doc_id(ordinal), score) for ordinal, score in top]


def assert_oracle(engine, documents, query, k):
    """*engine* ranks *query* exactly as the oracle over *documents* with
    the engine's model and analyzer: same doc_ids, same score floats."""
    __tracebackhide__ = True
    got = [(r.doc_id, r.score) for r in engine.search(query, k)]
    want = oracle_search(documents, query, k, engine.model, engine.analyzer)
    assert got == want, (query, got, want)


def assert_same_order(got: Mapping[str, int], want: Mapping[str, int]):
    """Two ordinal assignments (``doc_id -> ordinal``) over the same
    documents induce the same order: one is the other up to an
    order-preserving relabelling.  That is all a ranking reads of
    ordinals — posting order and the ``(score desc, ordinal asc)``
    tie-break — so a never-reused sequence number may stand in for a
    from-scratch build's dense position."""
    __tracebackhide__ = True
    assert set(got) == set(want)
    assert sorted(got, key=got.__getitem__) == sorted(want, key=want.__getitem__)
