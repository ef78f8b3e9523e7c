"""The per-posting search loop the engines ran before impacts were
memoised, kept as the oracle of ``test_impact_memo.py``: a from-scratch
inverted index over the documents, one ``model.score`` per posting per
search, nothing remembered between calls."""

from __future__ import annotations

import heapq
from collections import Counter

from repro.retrieval.documents import DocumentCollection
from repro.retrieval.index import InvertedIndex


def oracle_search(documents, query, k, model, analyzer):
    index = InvertedIndex.from_collection(DocumentCollection(documents), analyzer)
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
