"""Synthetic query-log generation (AOL-like and MSN-like profiles).

The paper trains its specialization miner on the AOL (~20M queries, ~650k
users, March–May 2006) and MSN (~15M queries, one month of 2006) logs
(Appendix B).  Neither log is redistributable, so this module generates
logs with the same statistical shape at laptop scale:

* **session mixture** — ambiguous sessions that start with a root query
  and refine it into aspect-specific specializations, sessions issuing a
  specialization directly, abandoned ambiguous sessions, and noise
  sessions about nothing in particular;
* **Zipfian popularity** — of topics across sessions, of aspects within a
  topic (replaying the corpus ground truth so that mined ``P(q'|q)``
  should converge to the generator's popularities), and of user activity;
* **position-biased clicks** — clicks concentrate on top results, and a
  clicked final query makes the session "satisfactory", feeding the
  Search-Shortcuts recommender.

Profiles :data:`AOL_PROFILE` and :data:`MSN_PROFILE` mirror the two logs'
relative size, duration and user-base shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.corpus.generator import AmbiguousTopic, SyntheticCorpus
from repro.corpus.vocabulary import Vocabulary, ZipfSampler
from repro.querylog.records import QueryLog, QueryRecord

__all__ = ["LogProfile", "AOL_PROFILE", "MSN_PROFILE", "generate_query_log"]


@dataclass(frozen=True)
class LogProfile:
    """Shape parameters of a synthetic log.

    The absolute counts are laptop-scale; :func:`scaled` multiplies them
    while preserving the profile's shape.
    """

    name: str
    num_sessions: int = 6000
    num_users: int = 1200
    duration_days: float = 30.0
    #: Fraction of sessions that are about one of the corpus' ambiguous
    #: topics (the rest are background noise missions).
    topical_fraction: float = 0.7
    #: Among topical sessions: probability the user first issues the
    #: ambiguous root query (otherwise they go straight to a
    #: specialization).
    root_first_probability: float = 0.55
    #: Given a root query was issued: probability the user refines it
    #: (otherwise the ambiguous session is abandoned).
    refinement_probability: float = 0.75
    #: Probability that a result at rank r is clicked decays as
    #: click_base / r (position bias).
    click_base: float = 0.65
    #: Probability that a noise session refines its query (adds a term).
    #: Real users refine all kinds of queries, not only the corpus'
    #: ambiguous topics; these rare refinements are what keeps the
    #: Appendix C recall measure below 100% — the miner can only learn
    #: the popular ones.
    noise_refinement_probability: float = 0.35
    #: Zipf skew of the noise-query vocabulary: a head of popular noise
    #: queries recurs often enough to be mined, the tail does not.
    noise_zipf_s: float = 1.1
    #: Topic popularity skew across sessions.
    topic_zipf_s: float = 0.9
    #: User activity skew.
    user_zipf_s: float = 1.1
    results_per_query: int = 10
    seed: int = 1234

    def scaled(self, factor: float) -> "LogProfile":
        """A copy with session and user counts multiplied by *factor*."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            num_sessions=max(1, int(self.num_sessions * factor)),
            num_users=max(1, int(self.num_users * factor)),
        )


#: AOL: three months, larger and noisier user base.
AOL_PROFILE = LogProfile(
    name="AOL",
    num_sessions=8000,
    num_users=1600,
    duration_days=92.0,
    topical_fraction=0.65,
    user_zipf_s=1.2,
    seed=20060301,
)

#: MSN: one month, smaller, slightly more focused sessions.
MSN_PROFILE = LogProfile(
    name="MSN",
    num_sessions=6000,
    num_users=1000,
    duration_days=31.0,
    topical_fraction=0.7,
    user_zipf_s=1.0,
    seed=20060501,
)


def _background_terms(corpus: SyntheticCorpus, limit: int = 500) -> list[str]:
    """Corpus vocabulary minus reserved topic/aspect terms (noise queries)."""
    reserved = {t for topic in corpus.topics for t in topic.terms} | {
        t
        for topic in corpus.topics
        for aspect in topic.aspects
        for t in aspect.terms
    }
    vocab = Vocabulary(corpus.config.vocabulary_size, seed=corpus.config.seed)
    return [w for w in vocab.words if w not in reserved][:limit]


class _LogBuilder:
    """Stateful helper that emits the records of one synthetic log."""

    def __init__(self, corpus: SyntheticCorpus, profile: LogProfile, seed: int | None):
        self.corpus = corpus
        self.profile = profile
        self.rng = random.Random(profile.seed if seed is None else seed)
        self.topic_sampler = ZipfSampler(len(corpus.topics), s=profile.topic_zipf_s)
        self.user_sampler = ZipfSampler(profile.num_users, s=profile.user_zipf_s)
        self.records: list[QueryRecord] = []
        self._background = _background_terms(corpus)
        self._noise_sampler = ZipfSampler(
            len(self._background), s=profile.noise_zipf_s
        )

    # -- sampling helpers ---------------------------------------------------------

    def _aspect_index(self, topic: AmbiguousTopic) -> int:
        """Sample an aspect according to its ground-truth popularity."""
        draw = self.rng.random()
        acc = 0.0
        for i, aspect in enumerate(topic.aspects):
            acc += aspect.popularity
            if draw <= acc:
                return i
        return len(topic.aspects) - 1

    def _results_for_aspect(self, topic: AmbiguousTopic, aspect_index: int) -> tuple[str, ...]:
        docs = self.corpus.documents_of_aspect(topic.topic_id, aspect_index)
        if not docs:
            return ()
        k = min(self.profile.results_per_query, len(docs))
        return tuple(self.rng.sample(docs, k))

    def _results_for_root(self, topic: AmbiguousTopic) -> tuple[str, ...]:
        """Root queries surface a popularity-weighted mix of aspect docs."""
        pool: list[str] = []
        for i, aspect in enumerate(topic.aspects):
            docs = self.corpus.documents_of_aspect(topic.topic_id, i)
            want = max(1, round(aspect.popularity * self.profile.results_per_query))
            if docs:
                pool.extend(self.rng.sample(docs, min(want, len(docs))))
        self.rng.shuffle(pool)
        return tuple(pool[: self.profile.results_per_query])

    def _clicks(self, results: tuple[str, ...], engaged: bool) -> tuple[str, ...]:
        if not engaged or not results:
            return ()
        clicks = [
            doc
            for rank, doc in enumerate(results, start=1)
            if self.rng.random() < self.profile.click_base / rank
        ]
        return tuple(clicks)

    def _noise_term(self) -> str:
        return self._background[self._noise_sampler.sample(self.rng)]

    def _noise_query(self) -> str:
        n_terms = 1 if self.rng.random() < 0.7 else 2
        terms: list[str] = []
        while len(terms) < n_terms:
            term = self._noise_term()
            if term not in terms:
                terms.append(term)
        return " ".join(terms)

    # -- session emission -----------------------------------------------------------

    def emit_sessions(self) -> None:
        duration = self.profile.duration_days * 86_400.0
        for _ in range(self.profile.num_sessions):
            user = f"u{self.user_sampler.sample(self.rng):06d}"
            start = self.rng.uniform(0.0, duration)
            if self.rng.random() < self.profile.topical_fraction:
                self._emit_topical_session(user, start)
            else:
                self._emit_noise_session(user, start)

    def _emit_topical_session(self, user: str, start: float) -> None:
        topic = self.corpus.topics[self.topic_sampler.sample(self.rng)]
        t = start
        if self.rng.random() < self.profile.root_first_probability:
            results = self._results_for_root(topic)
            refines = self.rng.random() < self.profile.refinement_probability
            # Abandoned ambiguous sessions still click sometimes.
            clicks = self._clicks(results, engaged=not refines and self.rng.random() < 0.5)
            self.records.append(
                QueryRecord(t, user, topic.query, results=results, clicks=clicks)
            )
            if not refines:
                return
            n_refinements = 1 if self.rng.random() < 0.8 else 2
            for _ in range(n_refinements):
                t += self.rng.uniform(5.0, 120.0)
                aspect_index = self._aspect_index(topic)
                aspect = topic.aspects[aspect_index]
                results = self._results_for_aspect(topic, aspect_index)
                clicks = self._clicks(results, engaged=True)
                self.records.append(
                    QueryRecord(t, user, aspect.query, results=results, clicks=clicks)
                )
        else:
            aspect_index = self._aspect_index(topic)
            aspect = topic.aspects[aspect_index]
            results = self._results_for_aspect(topic, aspect_index)
            clicks = self._clicks(results, engaged=True)
            self.records.append(
                QueryRecord(t, user, aspect.query, results=results, clicks=clicks)
            )

    def _noise_results(self) -> tuple[str, ...]:
        return tuple(
            f"noise-{self.rng.randrange(10_000):05d}"
            for _ in range(self.profile.results_per_query)
        )

    def _emit_noise_session(self, user: str, start: float) -> None:
        t = start
        query = self._noise_query()
        refines = self.rng.random() < self.profile.noise_refinement_probability
        clicks = self._clicks(self._noise_results(), engaged=not refines)
        results = self._noise_results()
        self.records.append(
            QueryRecord(t, user, query, results=results, clicks=clicks)
        )
        if refines:
            # A genuine specialization of a non-topical query: append a
            # (Zipf-sampled) extra term, click the refined results.
            extra = self._noise_term()
            if extra not in query.split():
                t += self.rng.uniform(5.0, 120.0)
                refined = f"{query} {extra}"
                results = self._noise_results()
                self.records.append(
                    QueryRecord(
                        t,
                        user,
                        refined,
                        results=results,
                        clicks=self._clicks(results, engaged=True),
                    )
                )
        elif self.rng.random() < 0.4:
            # Unrelated follow-up query in the same sitting.
            t += self.rng.uniform(5.0, 120.0)
            query = self._noise_query()
            results = self._noise_results()
            self.records.append(
                QueryRecord(
                    t,
                    user,
                    query,
                    results=results,
                    clicks=self._clicks(results, engaged=self.rng.random() < 0.6),
                )
            )


def generate_query_log(
    corpus: SyntheticCorpus,
    profile: LogProfile = AOL_PROFILE,
    seed: int | None = None,
) -> QueryLog:
    """Generate a synthetic query log replaying *corpus* ground truth.

    Deterministic given (*corpus*, *profile*, *seed*); *seed* overrides the
    profile's seed so several independent logs can share a profile.

    >>> from repro.corpus.generator import CorpusConfig, generate_corpus
    >>> corpus = generate_corpus(CorpusConfig(num_topics=3, background_docs=10))
    >>> log = generate_query_log(corpus, MSN_PROFILE.scaled(0.01))
    >>> len(log) > 0
    True
    """
    builder = _LogBuilder(corpus, profile, seed)
    builder.emit_sessions()
    return QueryLog(builder.records, name=profile.name)
