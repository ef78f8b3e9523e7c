"""Seeded inputs and the stepwise (traced) pipeline.

Every random choice of a run's request streams — query order, Zipf
stream, hold-out and removal schedule, synthetic-task seeds — comes from
:func:`derive` of the one ``--seed``; the corpus and query log come from
the fixed :data:`CORPUS_SEED`.  The system under test receives only the
generated inputs.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.trec import build_testbed
from repro.evaluation.metrics import alpha_ndcg
from repro.querylog.specializations import MinerConfig, SpecializationMiner
from repro.querylog.synthesis import AOL_PROFILE, generate_query_log
from repro.retrieval.analysis import Analyzer
from repro.retrieval.engine import SearchEngine


#: The corpus and query log are the same for every ``--seed``: two corpora
#: from different seeds differ by ~+-5-10% in tokens analysed per query,
#: which would spend a third of a latency bound on input variance alone.
#: ``--seed`` drives the request streams over that corpus instead.
CORPUS_SEED = 42


def derive(seed: int, label: str) -> int:
    """A stable sub-seed of *seed* for one named random choice."""
    raw = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big") % (2**31)


@dataclass(frozen=True)
class BenchScale:
    """Corpus size of one workload.

    The repo's ``PAPER_SCALE`` costs ~18 s to set up and ~0.4 s per cold
    query on 2 cores; the driver's time cap (92 runs, each with several
    set-ups) leaves ~37 s per run.  These scales keep the corpus *shape*
    (ambiguous topics with 3–8 Zipf-popular aspects, polluted background)
    and shrink its size.
    """

    num_topics: int
    docs_per_aspect: int
    background_docs: int
    log_scale: float


#: pipeline_cold: 25 distinct ambiguous topics, ~1.5k documents.
PIPELINE_SCALE = BenchScale(25, 10, 150, 0.30)
#: serve_hot_http: the topic/document counts of the repo's SMALL_SCALE
#: (~0.8k docs).
SERVING_SCALE = BenchScale(12, 10, 150, 0.15)
#: ingest_mixed: SERVING_SCALE plus 150 background documents.  Its hold-out
#: (350 documents, 8 ingested per pass) takes that many out again, so the
#: store starts at the same ~0.56k documents and a run can last 43 passes.
INGEST_SCALE = BenchScale(12, 10, 300, 0.15)
#: ``--quick`` smoke runs.
QUICK_SCALE = BenchScale(10, 4, 40, 0.12)

#: Tokens per document (the generator's default is 80-200).  Short documents
#: are what makes a cold query ~40 ms instead of ~100 ms at unchanged |R_q|,
#: |R_q'| and k, so that one run repeats each query >=25 times — few enough
#: repeats and best-of-passes cannot find an op's floor on a noisy machine.
DOC_LENGTH = (20, 50)

#: |R_q| = 30, |R_q'| = 8, k = 20 on every corpus workload: a cold query
#: then analyses ~70 documents.  k = 20 keeps alpha-NDCG@20 defined.
FRAMEWORK_CONFIG = FrameworkConfig(k=20, candidates=30, spec_results=8)


class TimingAnalyzer(Analyzer):
    """An :class:`Analyzer` that counts its own calls, tokens and busy time.

    Injected through the public ``SearchEngine(analyzer=...)`` parameter in
    traced runs.  :meth:`record` switches counting off by shadowing
    ``analyze`` with the base-class method on the instance, so untraced
    passes of a traced run execute exactly the plain code path.
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.tokens = 0
        self.busy_s = 0.0

    def analyze(self, text: str) -> list[str]:
        start = time.perf_counter()
        terms = super().analyze(text)
        self.busy_s += time.perf_counter() - start
        self.calls += 1
        self.tokens += len(terms)
        return terms

    def record(self, on: bool) -> None:
        if on:
            self.__dict__.pop("analyze", None)
        else:
            self.analyze = Analyzer.analyze.__get__(self)

    def snapshot(self) -> tuple[int, int, float]:
        return self.calls, self.tokens, self.busy_s


@dataclass
class Stack:
    """Corpus, testbed, detector and engine of one set-up."""

    corpus: object
    testbed: object
    miner: SpecializationMiner
    engine: SearchEngine | None
    queries: list[str]
    stages: dict[str, float]


def build_stack(
    scale: BenchScale,
    seed: int,
    analyzer: Analyzer | None = None,
    index: bool = True,
) -> Stack:
    """Corpus -> query log -> miner -> (in-memory) index, each stage timed.

    ``queries`` are the testbed's topic queries in a seed-shuffled order.
    ``index=False`` leaves the engine to the caller (store-backed set-ups).
    """
    stages: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    corpus = generate_corpus(
        CorpusConfig(
            num_topics=scale.num_topics,
            docs_per_aspect=scale.docs_per_aspect,
            background_docs=scale.background_docs,
            doc_length=DOC_LENGTH,
            seed=derive(CORPUS_SEED, "corpus"),
        )
    )
    testbed = build_testbed(corpus)
    lap("corpus_s")
    log = generate_query_log(
        corpus,
        AOL_PROFILE.scaled(scale.log_scale),
        seed=derive(CORPUS_SEED, "querylog"),
    )
    lap("querylog_s")
    miner = SpecializationMiner(log, MinerConfig()).build()
    lap("miner_s")
    engine = None
    if index:
        engine = SearchEngine(corpus.collection, analyzer=analyzer)
        lap("index_s")
    queries = [topic.query for topic in testbed.topics]
    random.Random(derive(seed, "query-order")).shuffle(queries)
    return Stack(corpus, testbed, miner, engine, queries, stages)


def make_framework(engine, miner) -> DiversificationFramework:
    """A fresh framework (cold specialization cache) at the bench config."""
    return DiversificationFramework(engine, miner, config=FRAMEWORK_CONFIG)


def zipf_stream(queries: list[str], count: int, seed: int, s: float = 1.0):
    """A Zipf(s) stream over *queries* (rank = position in the list)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** s for rank in range(len(queries))]
    return rng.choices(queries, weights=weights, k=count)


def mean_alpha_ndcg_20(testbed, rankings: dict[str, list[str]]) -> float:
    """Mean alpha-NDCG@20 of ``{query: ranking}`` against the testbed qrels."""
    by_query = {topic.query: topic.topic_id for topic in testbed.topics}
    scores = [
        alpha_ndcg(ranking, by_query[query], testbed.qrels, cutoff=20)
        for query, ranking in rankings.items()
    ]
    return sum(scores) / len(scores) if scores else 0.0


def index_layers(engine, documents: int, build_s: float) -> dict[str, float]:
    """The ``index.*`` per-layer metrics of any engine flavour."""
    partitions = getattr(engine, "partitions", None) or (engine.index,)
    return {
        "index.build_s": build_s,
        "index.docs_s": documents / build_s,
        "index.postings": sum(p.num_postings for p in partitions),
        "index.memory_bytes": engine.memory_estimate()["total_bytes"],
    }


def postings_scored(engine, terms) -> int:
    """Postings a ``search`` over *terms* walks: the summed document
    frequency of its distinct terms (read without touching the page cache)."""
    partitions = getattr(engine, "partitions", None) or (engine.index,)
    return sum(
        partition.document_frequency(term)
        for term in set(terms)
        for partition in partitions
    )


_PLAIN_ANALYZER = Analyzer()


def traced_query(tracer, engine, miner, query, spec_cache, diversifier):
    """One query, driven step by step through the public functions
    ``DiversificationFramework.build_task`` composes, a span around each.

    *spec_cache* plays the framework's specialization LRU (a dict the
    caller clears to make a pass cold).  Returns ``(ranking, root span)``;
    callers assert the ranking equals the untraced framework's, so
    *diversifier* is the framework default (``default_diversifier()``).
    """
    config = FRAMEWORK_CONFIG
    probe = engine.analyzer if hasattr(engine.analyzer, "snapshot") else None
    searched: list[tuple[dict, str]] = []

    def search(text: str, k: int):
        with tracer.span("retrieve", probe=probe) as span:
            results = engine.search(text, k)
        searched.append((span, text))
        return results

    def surrogates(text: str, results):
        with tracer.span("surrogate", probe=probe, docs=len(results)):
            return engine.snippet_vectors(text, results)

    with tracer.span("query") as root:
        with tracer.span("detect") as span:
            specializations = miner.mine(query)
        span["specs"] = len(specializations)
        if not specializations:
            ranking = search(query, config.k).doc_ids
        else:
            candidates = search(query, config.candidates)
            vectors = dict(surrogates(query, candidates))
            spec_results = {}
            lookups = hits = 0
            for spec_query, _probability in specializations:
                lookups += 1
                cached = spec_cache.get(spec_query)
                if cached is None:
                    results = search(spec_query, config.spec_results)
                    cached = (results, surrogates(spec_query, results))
                    spec_cache[spec_query] = cached
                else:
                    hits += 1
                spec_results[spec_query] = cached[0]
                for doc_id, vector in cached[1].items():
                    vectors.setdefault(doc_id, vector)
            root["spec_lookups"], root["spec_hits"] = lookups, hits
            with tracer.span("utility") as span:
                matrix = UtilityMatrix.build(
                    candidates,
                    spec_results,
                    vectors,
                    threshold=config.threshold,
                )
            span["cosine_pairs"] = len(candidates) * sum(
                len(results) for results in spec_results.values()
            )
            span["density"] = matrix.density()
            with tracer.span("task"):
                task = DiversificationTask.create(
                    query=query,
                    candidates=candidates,
                    specializations=specializations,
                    utilities=matrix,
                    lambda_=config.lambda_,
                    relevance_method=config.relevance_method,
                )
            with tracer.span("densify"):
                task.arrays()
            with tracer.span("select"):
                ranking = diversifier.diversify(task, config.k)
    # Counts are attached after the op closes so they cost it nothing.
    for span, text in searched:
        span["postings_scored"] = postings_scored(
            engine, _PLAIN_ANALYZER.analyze(text)
        )
    return ranking, root
