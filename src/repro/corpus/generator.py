"""Synthetic ambiguous-topic web corpus (the ClueWeb-B substitute).

The paper evaluates on ClueWeb09-B with the 50 TREC 2009 Web-track
diversity topics.  That collection cannot be bundled, so this module
generates a corpus with the same *shape*:

* a set of **ambiguous topics** — each a short root query (e.g. the
  paper's "leopard") with 3–8 **aspects** (e.g. "leopard mac os x",
  "leopard tank", "leopard pictures"), matching the TREC topics' 3–8
  subtopics;
* per-aspect document sets sampled from aspect-specific unigram language
  models mixed with topic terms and Zipfian background vocabulary;
* background noise documents that are relevant to nothing;
* ground-truth (topic, aspect) labels in each document's metadata, from
  which :mod:`repro.corpus.trec` derives subtopic-level judgements.

Aspect popularity within a topic is Zipf-distributed — this is the ground
truth that the query-log generator (:mod:`repro.querylog.synthesis`)
replays and that Algorithm 1 later tries to recover as ``P(q'|q)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus.vocabulary import LanguageModel, Vocabulary, ZipfSampler
from repro.retrieval.documents import Document, DocumentCollection

__all__ = ["Aspect", "AmbiguousTopic", "CorpusConfig", "SyntheticCorpus", "generate_corpus"]


@dataclass(frozen=True)
class Aspect:
    """One interpretation (subtopic) of an ambiguous topic."""

    name: str
    query: str
    terms: tuple[str, ...]
    popularity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError("popularity must lie in [0, 1]")


@dataclass(frozen=True)
class AmbiguousTopic:
    """A root query plus its aspects; popularities sum to 1."""

    topic_id: int
    query: str
    terms: tuple[str, ...]
    aspects: tuple[Aspect, ...]

    def __post_init__(self) -> None:
        total = sum(a.popularity for a in self.aspects)
        if self.aspects and abs(total - 1.0) > 1e-9:
            raise ValueError(f"aspect popularities must sum to 1, got {total}")

    @property
    def aspect_queries(self) -> list[str]:
        return [a.query for a in self.aspects]

    def popularity_of(self, aspect_query: str) -> float:
        for aspect in self.aspects:
            if aspect.query == aspect_query:
                return aspect.popularity
        return 0.0


@dataclass
class CorpusConfig:
    """Knobs of the synthetic corpus generator.

    Defaults produce the 50-topic testbed used by the Table 3 and Figure 1
    experiments at laptop scale.
    """

    num_topics: int = 50
    min_aspects: int = 3
    max_aspects: int = 8
    docs_per_aspect: int = 30
    background_docs: int = 500
    doc_length: tuple[int, int] = (80, 200)
    vocabulary_size: int = 4000
    topic_term_count: int = 3
    aspect_term_count: int = 4
    aspect_zipf_s: float = 1.0
    # Mixture weights for aspect documents: aspect terms, topic terms,
    # background vocabulary.  Aspect terms dominate so that specializations
    # retrieve clearly separated result lists, like distinct web subtopics.
    mixture: tuple[float, float, float] = (0.45, 0.2, 0.35)
    # Popularity skew of the root-query signal: documents of a popular
    # aspect mention the topic's root terms more often (on the real web,
    # the dominant interpretation of an ambiguous query owns most of the
    # anchor text and on-page occurrences of the query string).  The
    # topic-term mixture weight is scaled by
    # ``floor + (1 - floor) * popularity / max_popularity``; the skew is
    # what gives the *baseline* ranking its bias toward the head aspect —
    # the bias diversification then has to undo (Table 3's headroom).
    popularity_skew_floor: float = 0.25
    # Fraction of background documents polluted with a few occurrences of
    # a random topic's terms: query-matching but useless results, so the
    # baseline's precision is realistically below 1.
    background_pollution: float = 0.35
    # Among polluted documents: probability of also mimicking the topic's
    # *head aspect* vocabulary (spam/aggregator pages copy the popular
    # interpretation's wording).  Such pages acquire snippet similarity to
    # the specialization lists without being relevant to anything — the
    # trap that punishes algorithms ignoring relevance (IASelect) and
    # that the utility threshold c is meant to clean up.
    aspect_mimicry: float = 0.5
    seed: int = 42

    def validate(self) -> None:
        if self.num_topics <= 0:
            raise ValueError("num_topics must be positive")
        if not 2 <= self.min_aspects <= self.max_aspects:
            raise ValueError("need 2 <= min_aspects <= max_aspects")
        if self.docs_per_aspect <= 0:
            raise ValueError("docs_per_aspect must be positive")
        if self.doc_length[0] <= 0 or self.doc_length[0] > self.doc_length[1]:
            raise ValueError("invalid doc_length range")
        if any(w < 0 for w in self.mixture) or sum(self.mixture) <= 0:
            raise ValueError("mixture weights must be non-negative, not all zero")
        if not 0.0 <= self.popularity_skew_floor <= 1.0:
            raise ValueError("popularity_skew_floor must lie in [0, 1]")
        if not 0.0 <= self.background_pollution <= 1.0:
            raise ValueError("background_pollution must lie in [0, 1]")
        if not 0.0 <= self.aspect_mimicry <= 1.0:
            raise ValueError("aspect_mimicry must lie in [0, 1]")


@dataclass
class SyntheticCorpus:
    """The generated collection plus its ground truth."""

    config: CorpusConfig
    topics: list[AmbiguousTopic]
    collection: DocumentCollection
    # doc_id -> (topic_id, aspect index)  for aspect documents only
    labels: dict[str, tuple[int, int]] = field(default_factory=dict)

    def topic_by_query(self, query: str) -> AmbiguousTopic | None:
        for topic in self.topics:
            if topic.query == query:
                return topic
        return None

    def documents_of_aspect(self, topic_id: int, aspect_index: int) -> list[str]:
        return [
            doc_id
            for doc_id, (t, a) in self.labels.items()
            if t == topic_id and a == aspect_index
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SyntheticCorpus(topics={len(self.topics)}, "
            f"docs={len(self.collection)})"
        )


def _make_topics(config: CorpusConfig, vocab: Vocabulary, rng: random.Random) -> list[AmbiguousTopic]:
    """Carve topic and aspect terms out of the head of the vocabulary.

    Reserved terms are removed from the background pool, so a topic's
    identity terms are discriminative (as real entity names are).
    """
    topics: list[AmbiguousTopic] = []
    cursor = 0
    words = vocab.words
    for topic_id in range(1, config.num_topics + 1):
        topic_terms = tuple(words[cursor : cursor + config.topic_term_count])
        cursor += config.topic_term_count
        n_aspects = rng.randint(config.min_aspects, config.max_aspects)
        zipf = ZipfSampler(n_aspects, s=config.aspect_zipf_s)
        popularities = [zipf.probability(i) for i in range(n_aspects)]
        aspects = []
        root_query = topic_terms[0]
        for aspect_index in range(n_aspects):
            aspect_terms = tuple(
                words[cursor : cursor + config.aspect_term_count]
            )
            cursor += config.aspect_term_count
            aspects.append(
                Aspect(
                    name=f"topic{topic_id}-aspect{aspect_index}",
                    query=f"{root_query} {aspect_terms[0]}",
                    terms=aspect_terms,
                    popularity=popularities[aspect_index],
                )
            )
        if cursor >= len(words) // 2:
            raise ValueError(
                "vocabulary too small for the requested number of topics; "
                "increase CorpusConfig.vocabulary_size"
            )
        topics.append(
            AmbiguousTopic(
                topic_id=topic_id,
                query=root_query,
                terms=topic_terms,
                aspects=tuple(aspects),
            )
        )
    return topics


def generate_corpus(config: CorpusConfig | None = None) -> SyntheticCorpus:
    """Generate the synthetic corpus described in the module docstring.

    Deterministic for a fixed :attr:`CorpusConfig.seed`.

    >>> corpus = generate_corpus(CorpusConfig(num_topics=2, background_docs=5,
    ...                                       docs_per_aspect=3))
    >>> len(corpus.topics)
    2
    """
    config = config or CorpusConfig()
    config.validate()
    rng = random.Random(config.seed)
    vocab = Vocabulary(config.vocabulary_size, seed=config.seed)
    topics = _make_topics(config, vocab, rng)

    reserved = {t for topic in topics for t in topic.terms}
    reserved |= {t for topic in topics for a in topic.aspects for t in a.terms}
    background_terms = [w for w in vocab.words if w not in reserved]
    background_lm = LanguageModel.zipfian(background_terms, s=1.05)

    collection = DocumentCollection()
    labels: dict[str, tuple[int, int]] = {}
    doc_counter = 0
    w_aspect, w_topic, w_background = config.mixture

    for topic in topics:
        topic_lm = LanguageModel.uniform(list(topic.terms))
        max_popularity = max(a.popularity for a in topic.aspects)
        for aspect_index, aspect in enumerate(topic.aspects):
            aspect_lm = LanguageModel.uniform(list(aspect.terms))
            # Popular aspects mention the root terms more often; the
            # weight shaved off the topic component goes to background so
            # document lengths stay comparable across aspects.
            skew = config.popularity_skew_floor + (
                1.0 - config.popularity_skew_floor
            ) * (aspect.popularity / max_popularity)
            doc_lm = LanguageModel.mixture(
                [
                    (aspect_lm, w_aspect),
                    (topic_lm, w_topic * skew),
                    (background_lm, w_background + w_topic * (1.0 - skew)),
                ]
            )
            for _ in range(config.docs_per_aspect):
                doc_counter += 1
                doc_id = f"d{doc_counter:06d}"
                length = rng.randint(*config.doc_length)
                body = " ".join(doc_lm.sample(rng, length))
                title = f"{topic.query} {aspect.terms[0]} {aspect.terms[1]}"
                collection.add(
                    Document(
                        doc_id=doc_id,
                        text=body,
                        title=title,
                        metadata={
                            "topic_id": topic.topic_id,
                            "aspect": aspect_index,
                        },
                    )
                )
                labels[doc_id] = (topic.topic_id, aspect_index)

    for _ in range(config.background_docs):
        doc_counter += 1
        doc_id = f"d{doc_counter:06d}"
        length = rng.randint(*config.doc_length)
        tokens = background_lm.sample(rng, length)
        if topics and rng.random() < config.background_pollution:
            # Inject a handful of some topic's terms: the document will
            # match that topic's queries without being relevant to any
            # aspect (spam/off-topic pages mentioning the entity).  The
            # root term is injected preferentially so polluted documents
            # rank competitively for the ambiguous query itself — the
            # paper's candidate lists are mostly such noise, which is what
            # IA-P penalises when it reaches the top ranks.
            polluter = rng.choice(topics)
            for _ in range(rng.randint(4, 12)):
                term = (
                    polluter.terms[0]
                    if rng.random() < 0.5
                    else rng.choice(polluter.terms)
                )
                tokens.insert(rng.randrange(len(tokens) + 1), term)
            if rng.random() < config.aspect_mimicry:
                head_aspect = polluter.aspects[0]
                for _ in range(rng.randint(6, 16)):
                    tokens.insert(
                        rng.randrange(len(tokens) + 1),
                        rng.choice(head_aspect.terms),
                    )
        collection.add(
            Document(
                doc_id=doc_id,
                text=" ".join(tokens),
                title="",
                metadata={"topic_id": None, "aspect": None},
            )
        )

    return SyntheticCorpus(
        config=config, topics=topics, collection=collection, labels=labels
    )
