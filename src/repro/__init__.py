"""repro — reproduction of "Efficient Diversification of Web Search Results".

Capannini, Nardini, Perego, Silvestri — PVLDB 4(7), 2011.

The package is organised by subsystem (see docs/ARCHITECTURE.md for the
layer table):

* :mod:`repro.core` — OptSelect, xQuAD, IASelect, MMR, Algorithm 1,
  the utility measure and the end-to-end framework;
* :mod:`repro.retrieval` — the Terrier-equivalent search engine (Porter
  stemmer, inverted index, DPH/DFR, snippets, cosine similarity);
* :mod:`repro.querylog` — query-log model, Query-Flow-Graph sessions,
  Search-Shortcuts recommender, synthetic AOL/MSN logs, specialization
  mining;
* :mod:`repro.corpus` — synthetic ClueWeb-B substitute and the TREC
  diversity testbed (topics/subtopics/qrels/run files);
* :mod:`repro.evaluation` — α-NDCG, IA-P, intent-aware metrics,
  Wilcoxon significance, TREC-style runner;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import (CorpusConfig, generate_corpus, build_testbed,
                       SearchEngine, SpecializationMiner,
                       generate_query_log, AOL_PROFILE,
                       DiversificationFramework, OptSelect)

    corpus = generate_corpus(CorpusConfig(num_topics=10))
    engine = SearchEngine(corpus.collection)
    log = generate_query_log(corpus, AOL_PROFILE.scaled(0.2))
    miner = SpecializationMiner(log).build()
    framework = DiversificationFramework(engine, miner, OptSelect())
    result = framework.diversify_query(corpus.topics[0].query)
"""

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.core.optselect import OptSelect
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.trec import build_testbed
from repro.querylog.specializations import SpecializationMiner
from repro.querylog.synthesis import AOL_PROFILE, generate_query_log
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.engine import SearchEngine
from repro.retrieval.models import BM25
from repro.retrieval.similarity import TermVector, cosine
from repro.serving.async_service import AsyncDiversificationService
from repro.serving.service import DiversificationService
from repro.serving.sharded import ShardedDiversificationService

__version__ = "1.0.0"

__all__ = [
    "AOL_PROFILE",
    "AsyncDiversificationService",
    "BM25",
    "CorpusConfig",
    "DiversificationFramework",
    "DiversificationService",
    "Document",
    "DocumentCollection",
    "FrameworkConfig",
    "OptSelect",
    "SearchEngine",
    "ShardedDiversificationService",
    "SpecializationMiner",
    "TermVector",
    "build_testbed",
    "cosine",
    "generate_corpus",
    "generate_query_log",
    "__version__",
]
