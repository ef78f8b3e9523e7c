"""Retrieval substrate: the paper's Terrier-equivalent search engine.

Provides text analysis (tokenizer, stopwords, Porter stemmer), an inverted
index, DFR/BM25 weighting models, query-biased snippet extraction, cosine
similarity, and the :class:`~repro.retrieval.engine.SearchEngine`
producing the ranked result lists ``R_q`` that the diversification
algorithms re-rank.

The engine holds its index as ``num_partitions`` hash-placed partitions
(one by default) with collection-global statistics, so its rankings do
not depend on the partition count; :mod:`repro.retrieval.engine` also
holds the scale-out pieces: :func:`~repro.retrieval.engine.stable_shard`
(the hash router shared with the sharded serving layer) and
:func:`~repro.retrieval.engine.partition_collection`.

:mod:`repro.retrieval.store` makes the substrate durable:
:func:`~repro.retrieval.store.write_store` persists a built engine
(postings, documents, collection-global statistics, warm artifacts) into
one SQLite file, and :class:`StoreBackedSearchEngine` *attaches* it
read-only — paging postings through a bounded LRU
:class:`~repro.retrieval.store.PostingPageCache` — with rankings and
scores byte-identical to the in-memory build.
:class:`~repro.retrieval.engine.MemoryBudget` turns the estimate into an
enforced resident limit with LRU whole-partition eviction.
"""

from repro.retrieval.store import StoreBackedSearchEngine

__all__ = ["StoreBackedSearchEngine"]
