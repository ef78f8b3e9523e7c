"""Retrieval substrate: the paper's Terrier-equivalent search engine.

Provides text analysis (tokenizer, stopwords, Porter stemmer), an inverted
index, DFR/BM25 weighting models, query-biased snippet extraction, cosine
similarity, and the :class:`SearchEngine` producing the ranked result
lists ``R_q`` that the diversification algorithms re-rank.

The engine holds its index as ``num_partitions`` hash-placed partitions
(one by default) with collection-global statistics, so its rankings do
not depend on the partition count; :mod:`repro.retrieval.sharding`
names the scale-out pieces: :func:`stable_shard` (the hash router shared
with the sharded serving layer), :func:`partition_collection`, and
:class:`PartitionedSearchEngine` (the same class as :class:`SearchEngine`).

:mod:`repro.retrieval.store` makes the substrate durable:
:func:`write_store` persists a built engine (postings, documents,
collection-global statistics, warm artifacts) into one SQLite file, and
:class:`StoreBackedSearchEngine` *attaches* it read-only — paging
postings through a bounded LRU :class:`PostingPageCache` — with
rankings and scores byte-identical to the in-memory build.
:class:`MemoryBudget` turns the estimate into an enforced resident
limit with LRU whole-partition eviction.
"""

from repro.retrieval.analysis import ENGLISH_STOPWORDS, Analyzer, PorterStemmer, tokenize
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import ResultList, SearchEngine, SearchResult
from repro.retrieval.index import DocumentIndex, InvertedIndex, Posting, PostingList
from repro.retrieval.models import BM25, DPH, TFIDF, WeightingModel, get_model
from repro.retrieval.persistence import (
    dump_collection,
    dump_query_log,
    load_collection,
    load_query_log,
)
from repro.retrieval.sharding import (
    BuildReport,
    MemoryBudget,
    PartitionedSearchEngine,
    partition_collection,
    stable_shard,
)
from repro.retrieval.similarity import TermVector, cosine, delta
from repro.retrieval.snippets import ForwardRow, Snippet, SnippetExtractor
from repro.retrieval.store import (
    IndexStore,
    PageCacheStats,
    StoreBackedSearchEngine,
    StoreError,
    write_store,
)

__all__ = [
    "ENGLISH_STOPWORDS",
    "Analyzer",
    "PorterStemmer",
    "tokenize",
    "Document",
    "DocumentCollection",
    "ResultList",
    "SearchEngine",
    "SearchResult",
    "DocumentIndex",
    "InvertedIndex",
    "Posting",
    "PostingList",
    "BM25",
    "DPH",
    "TFIDF",
    "WeightingModel",
    "get_model",
    "dump_collection",
    "dump_query_log",
    "load_collection",
    "load_query_log",
    "BuildReport",
    "MemoryBudget",
    "PartitionedSearchEngine",
    "partition_collection",
    "stable_shard",
    "TermVector",
    "cosine",
    "delta",
    "ForwardRow",
    "Snippet",
    "SnippetExtractor",
    "IndexStore",
    "PageCacheStats",
    "StoreBackedSearchEngine",
    "StoreError",
    "write_store",
]
