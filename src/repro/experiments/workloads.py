"""Workload builders shared by the experiment harnesses and benchmarks.

Two kinds of workload:

* :func:`synthetic_task` — a :class:`~repro.core.task.DiversificationTask`
  with synthetic utilities/relevance, used by the efficiency experiments
  (Tables 1 and 2).  The paper times the *diversification step itself*
  ("the time required ... to diversify the list of retrieved documents"),
  with utilities coming from precomputed structures, so the timing
  workload needs no retrieval engine — just realistic utility sparsity.

* :class:`TrecWorkload` / :func:`build_trec_workload` — the full pipeline
  (corpus → engine → logs → miner → testbed) behind the effectiveness
  experiments (Table 3, Figure 1, the Appendix C recall measure).  Built
  once and shared: constructing it is the expensive part of those
  experiments.  :func:`zipf_workload` draws a repeating query stream
  over its topics for the offline pipeline's warm phase.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.core.ambiguity import SpecializationSet
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix
from repro.corpus.generator import CorpusConfig, SyntheticCorpus, generate_corpus
from repro.corpus.trec import DiversityTestbed, build_testbed
from repro.corpus.vocabulary import ZipfSampler
from repro.querylog.records import QueryLog
from repro.querylog.specializations import MinerConfig, SpecializationMiner
from repro.querylog.synthesis import AOL_PROFILE, MSN_PROFILE, generate_query_log
from repro.retrieval.documents import DocumentCollection
from repro.retrieval.engine import ResultList, SearchEngine
from repro.retrieval.models import BM25

__all__ = [
    "synthetic_task",
    "ExternalWebEngine",
    "TrecWorkload",
    "build_trec_workload",
    "zipf_workload",
    "SMALL_SCALE",
    "PAPER_SCALE",
]


def synthetic_task(
    n: int,
    num_specs: int = 8,
    density: float = 0.25,
    seed: int = 7,
    lambda_: float = 0.15,
    with_vectors: bool = False,
) -> DiversificationTask:
    """A diversification task over *n* synthetic candidates.

    * specialisation probabilities are Zipfian over *num_specs* intents
    * each candidate is useful (Ũ > 0) for a given specialization with
      probability *density*; positive utilities are uniform in (0, 1]
    * relevance decays with rank, like a real retrieval score curve
    * ``with_vectors`` additionally attaches random sparse surrogate
      vectors (over a 40-term vocabulary) so vector-based algorithms
      (MMR) can run on the synthetic workload too

    Deterministic given *seed*.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = random.Random(seed)
    doc_ids = [f"d{i:07d}" for i in range(n)]
    # Score curve ~ 1/sqrt(rank): steep head, long flat tail.
    candidates = ResultList(
        "synthetic", [(d, 1.0 / (i + 1) ** 0.5) for i, d in enumerate(doc_ids)]
    )
    zipf = ZipfSampler(num_specs, s=1.0)
    spec_names = [f"spec{j}" for j in range(num_specs)]
    specializations = SpecializationSet(
        query="synthetic",
        items=tuple(
            (spec_names[j], zipf.probability(j)) for j in range(num_specs)
        ),
    )
    values: dict[str, dict[str, float]] = {s: {} for s in spec_names}
    for doc_id in doc_ids:
        for spec in spec_names:
            if rng.random() < density:
                values[spec][doc_id] = rng.random()
    matrix = UtilityMatrix(values, doc_ids)
    task = DiversificationTask.create(
        query="synthetic",
        candidates=candidates,
        specializations=specializations,
        utilities=matrix,
        lambda_=lambda_,
        relevance_method="sum",
    )
    if with_vectors:
        from repro.retrieval.similarity import TermVector

        vocabulary = [f"term{t}" for t in range(40)]
        task.vectors = {
            doc_id: TermVector(
                {
                    term: rng.random()
                    for term in rng.sample(vocabulary, rng.randint(0, 8))
                }
            )
            for doc_id in doc_ids
        }
    return task


# ---------------------------------------------------------------------------
# Full-pipeline workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadScale:
    """Size knobs of the full-pipeline workload."""

    name: str
    num_topics: int
    docs_per_aspect: int
    background_docs: int
    log_scale: float
    candidates: int
    k: int
    spec_results: int = 20
    cutoffs: tuple[int, ...] = (5, 10, 20, 100)


#: Fast scale for tests and default benchmark runs (seconds, not minutes).
SMALL_SCALE = WorkloadScale(
    name="small",
    num_topics=12,
    docs_per_aspect=10,
    background_docs=150,
    log_scale=0.15,
    candidates=120,
    k=30,
    cutoffs=(5, 10, 20),
)

#: The 50-topic scale mirroring the TREC 2009 diversity task shape.
PAPER_SCALE = WorkloadScale(
    name="paper",
    num_topics=50,
    docs_per_aspect=25,
    background_docs=800,
    log_scale=1.0,
    candidates=400,
    k=100,
    cutoffs=(5, 10, 20, 100),
)


@dataclass
class TrecWorkload:
    """Everything the effectiveness experiments need, built once."""

    scale: WorkloadScale
    corpus: SyntheticCorpus
    testbed: DiversityTestbed
    engine: SearchEngine
    logs: dict[str, QueryLog]
    miners: dict[str, SpecializationMiner]
    #: tasks[log_name][topic_id] — diversification task at threshold c=0,
    #: or None when Algorithm 1 did not fire for the topic's query.
    tasks: dict[str, dict[int, DiversificationTask]] = field(default_factory=dict)

    def miner(self, log_name: str = "AOL") -> SpecializationMiner:
        return self.miners[log_name]

    def external_engine(self) -> "ExternalWebEngine":
        """A second, differently-ranked engine playing Yahoo! BOSS
        (Appendix C re-ranks an *external* WSE's results)."""
        return ExternalWebEngine(self.corpus.collection)


class ExternalWebEngine(SearchEngine):
    """A stand-in for the external WSE of Appendix C (Yahoo! BOSS).

    A commercial engine's ranking mixes textual relevance with signals
    our corpus cannot model (link popularity, freshness, clicks), so its
    top results for an ambiguous query correlate only weakly with the
    specialization result lists mined from the paper's own index — which
    is exactly why re-ranking them by utility gains so much (Figure 1's
    5–10× ratios).  We model the missing signals as a deterministic
    per-document static prior mixed with BM25::

        score' = (1 − w) · minmax(BM25) + w · prior(doc_id)

    with ``prior`` a hash-based pseudo-random value in [0, 1] — the same
    document always gets the same prior, different documents are
    incomparable on text alone.
    """

    def __init__(
        self,
        collection: DocumentCollection,
        prior_weight: float = 0.9,
        prior_seed: int = 99,
    ) -> None:
        if not 0.0 <= prior_weight <= 1.0:
            raise ValueError("prior_weight must lie in [0, 1]")
        super().__init__(collection, model=BM25())
        self.prior_weight = prior_weight
        self.prior_seed = prior_seed

    def _prior(self, doc_id: str) -> float:
        # Deterministic, platform-stable hash → [0, 1).
        h = hashlib.blake2b(
            f"{self.prior_seed}:{doc_id}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(h, "big") / 2**64

    def _prior_ranked_pool(self) -> list[str]:
        """All doc_ids by descending static prior (computed lazily once)."""
        pool = getattr(self, "_pool", None)
        if pool is None:
            pool = sorted(
                (d.doc_id for d in self.collection),
                key=lambda doc_id: -self._prior(doc_id),
            )
            self._pool = pool
        return pool

    def search(self, query: str, k: int = 1000) -> ResultList:
        text_ranked = super().search(query, max(k * 3, k))
        w = self.prior_weight
        mixed: list[tuple[str, float]] = []
        matched: set[str] = set()
        if len(text_ranked):
            scores = text_ranked.scores
            lo, hi = min(scores), max(scores)
            span = (hi - lo) or 1.0
            for r in text_ranked:
                matched.add(r.doc_id)
                mixed.append(
                    (
                        r.doc_id,
                        (1.0 - w) * ((r.score - lo) / span)
                        + w * self._prior(r.doc_id),
                    )
                )
        # A web engine always fills its result page: pad with documents
        # "matched" through signals outside our corpus model (anchors,
        # clicks, freshness), ranked by the static prior alone.
        if len(mixed) < k:
            for doc_id in self._prior_ranked_pool():
                if len(mixed) >= k:
                    break
                if doc_id not in matched:
                    mixed.append((doc_id, w * self._prior(doc_id) * 0.999))
        mixed.sort(key=lambda item: (-item[1], item[0]))
        top = mixed[:k]
        return ResultList(query, top, [self.seq_of(doc_id) for doc_id, _ in top])


def build_trec_workload(
    scale: WorkloadScale = SMALL_SCALE,
    seed: int = 42,
    logs: tuple[str, ...] = ("AOL",),
    miner_config: MinerConfig | None = None,
) -> TrecWorkload:
    """Build corpus, engine, logs, miners and testbed at the given scale."""
    corpus = generate_corpus(
        CorpusConfig(
            num_topics=scale.num_topics,
            docs_per_aspect=scale.docs_per_aspect,
            background_docs=scale.background_docs,
            seed=seed,
        )
    )
    testbed = build_testbed(corpus)
    engine = SearchEngine(corpus.collection)
    profiles = {"AOL": AOL_PROFILE, "MSN": MSN_PROFILE}
    logs_built: dict[str, QueryLog] = {}
    miners: dict[str, SpecializationMiner] = {}
    for log_name in logs:
        profile = profiles[log_name].scaled(scale.log_scale)
        log = generate_query_log(corpus, profile)
        logs_built[log_name] = log
        miners[log_name] = SpecializationMiner(
            log, miner_config or MinerConfig()
        ).build()
    return TrecWorkload(
        scale=scale,
        corpus=corpus,
        testbed=testbed,
        engine=engine,
        logs=logs_built,
        miners=miners,
    )


def zipf_workload(
    workload: TrecWorkload, num_queries: int, seed: int = 13
) -> list[str]:
    """A Zipf-repeating query stream over the testbed's topic queries.

    Web traffic repeats: the head query dominates, the tail is long.
    Weighting topic i by 1/(i+1) reproduces that shape, which is exactly
    the regime batching and result caching are built for.
    """
    rng = random.Random(seed)
    queries = [topic.query for topic in workload.testbed.topics]
    weights = [1.0 / (i + 1) for i in range(len(queries))]
    return rng.choices(queries, weights=weights, k=num_queries)

