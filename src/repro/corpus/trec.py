"""TREC 2009 Web track Diversity-task data model and file formats.

The paper's effectiveness study (Section 5, Table 3) follows the TREC 2009
Web track Diversity task: 50 topics, each with 3–8 manually identified
subtopics and relevance judgements *at subtopic level*.  This module
provides:

* the data model — :class:`Subtopic`, :class:`DiversityTopic`,
  :class:`DiversityQrels`, :class:`DiversityTestbed`;
* :func:`build_testbed` — derive a testbed from the synthetic corpus
  ground truth (each aspect becomes a subtopic, every document of that
  aspect is judged relevant to it);
* parsers/writers for the standard file formats, so real TREC data can be
  plugged in when available: diversity qrels (``topic subtopic doc rel``)
  and run files (``topic Q0 doc rank score tag``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.corpus.generator import SyntheticCorpus

__all__ = [
    "Subtopic",
    "DiversityTopic",
    "DiversityQrels",
    "DiversityTestbed",
    "build_testbed",
    "parse_diversity_qrels",
    "format_diversity_qrels",
    "format_run",
    "parse_run",
]


@dataclass(frozen=True)
class Subtopic:
    """One aspect of a TREC diversity topic (numbers are 1-based)."""

    number: int
    description: str = ""
    kind: str = "inf"

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise ValueError("subtopic numbers are 1-based")


@dataclass(frozen=True)
class DiversityTopic:
    """A TREC diversity topic: query plus its subtopics."""

    topic_id: int
    query: str
    subtopics: tuple[Subtopic, ...] = ()
    kind: str = "ambiguous"

    @property
    def num_subtopics(self) -> int:
        return len(self.subtopics)


class DiversityQrels:
    """Subtopic-level binary relevance judgements.

    Stored as ``topic_id -> subtopic_number -> set of doc_ids`` (graded
    judgements collapse to binary, as in the official diversity-task
    evaluation).

    >>> qrels = DiversityQrels()
    >>> qrels.add(1, 1, "d1")
    >>> qrels.is_relevant(1, 1, "d1"), qrels.is_relevant(1, 2, "d1")
    (True, False)
    """

    def __init__(self) -> None:
        self._judgements: dict[int, dict[int, set[str]]] = {}

    def add(self, topic_id: int, subtopic: int, doc_id: str) -> None:
        self._judgements.setdefault(topic_id, {}).setdefault(subtopic, set()).add(
            doc_id
        )

    def is_relevant(self, topic_id: int, subtopic: int, doc_id: str) -> bool:
        return doc_id in self._judgements.get(topic_id, {}).get(subtopic, ())

    def is_relevant_any(self, topic_id: int, doc_id: str) -> bool:
        """Relevant to at least one subtopic (the adhoc-style judgement)."""
        return any(
            doc_id in docs for docs in self._judgements.get(topic_id, {}).values()
        )

    def relevant_docs(self, topic_id: int, subtopic: int) -> frozenset[str]:
        return frozenset(self._judgements.get(topic_id, {}).get(subtopic, ()))

    def subtopic_numbers(self, topic_id: int) -> list[int]:
        return sorted(self._judgements.get(topic_id, {}))

    def relevant_subtopics(self, topic_id: int, doc_id: str) -> frozenset[int]:
        """The set of subtopics *doc_id* is relevant to — the per-document
        judgement vector consumed by α-NDCG and IA-P."""
        return frozenset(
            number
            for number, docs in self._judgements.get(topic_id, {}).items()
            if doc_id in docs
        )

    @property
    def topic_ids(self) -> list[int]:
        return sorted(self._judgements)

    def num_judgements(self) -> int:
        return sum(
            len(docs)
            for per_topic in self._judgements.values()
            for docs in per_topic.values()
        )


@dataclass
class DiversityTestbed:
    """Topics plus qrels — everything the evaluation needs."""

    topics: list[DiversityTopic]
    qrels: DiversityQrels
    name: str = "synthetic-diversity-testbed"
    subtopic_probabilities: dict[int, dict[int, float]] = field(default_factory=dict)

    def topic(self, topic_id: int) -> DiversityTopic:
        for topic in self.topics:
            if topic.topic_id == topic_id:
                return topic
        raise KeyError(f"no topic {topic_id}")

    def probability(self, topic_id: int, subtopic: int) -> float:
        """Ground-truth subtopic weight P(subtopic | topic).

        Uniform when the testbed carries no popularity information, as the
        official IA-P evaluation assumes.
        """
        per_topic = self.subtopic_probabilities.get(topic_id)
        if per_topic and subtopic in per_topic:
            return per_topic[subtopic]
        n = self.topic(topic_id).num_subtopics
        return 1.0 / n if n else 0.0

    def __len__(self) -> int:
        return len(self.topics)


def build_testbed(corpus: SyntheticCorpus) -> DiversityTestbed:
    """Derive a diversity testbed from synthetic-corpus ground truth.

    Each :class:`~repro.corpus.generator.AmbiguousTopic` becomes a TREC
    topic whose subtopics are its aspects (subtopic ``i+1`` = aspect ``i``);
    every document generated for an aspect is judged relevant to the
    corresponding subtopic.  Ground-truth aspect popularities are preserved
    as subtopic probabilities (used by intent-aware metrics).
    """
    topics: list[DiversityTopic] = []
    qrels = DiversityQrels()
    probabilities: dict[int, dict[int, float]] = {}
    for topic in corpus.topics:
        subtopics = tuple(
            Subtopic(number=i + 1, description=aspect.query)
            for i, aspect in enumerate(topic.aspects)
        )
        topics.append(
            DiversityTopic(
                topic_id=topic.topic_id, query=topic.query, subtopics=subtopics
            )
        )
        probabilities[topic.topic_id] = {
            i + 1: aspect.popularity for i, aspect in enumerate(topic.aspects)
        }
    for doc_id, (topic_id, aspect_index) in corpus.labels.items():
        qrels.add(topic_id, aspect_index + 1, doc_id)
    return DiversityTestbed(
        topics=topics, qrels=qrels, subtopic_probabilities=probabilities
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_diversity_qrels(lines: Iterable[str]) -> DiversityQrels:
    """Parse official diversity qrels: ``topic subtopic doc relevance``.

    Lines with relevance <= 0 are ignored (non-relevant judgements).
    """
    qrels = DiversityQrels()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"qrels line {line_no}: expected 4 fields, got {line!r}")
        topic_id, subtopic, doc_id, relevance = parts
        if int(relevance) > 0:
            qrels.add(int(topic_id), int(subtopic), doc_id)
    return qrels


def format_diversity_qrels(qrels: DiversityQrels) -> str:
    """Serialise *qrels* in the official 4-column format."""
    out = []
    for topic_id in qrels.topic_ids:
        for subtopic in qrels.subtopic_numbers(topic_id):
            for doc_id in sorted(qrels.relevant_docs(topic_id, subtopic)):
                out.append(f"{topic_id} {subtopic} {doc_id} 1")
    return "\n".join(out) + ("\n" if out else "")


def format_run(
    rankings: dict[int, list[tuple[str, float]]], tag: str = "repro"
) -> str:
    """Serialise per-topic rankings in the 6-column TREC run format."""
    lines = []
    for topic_id in sorted(rankings):
        for rank, (doc_id, score) in enumerate(rankings[topic_id], start=1):
            lines.append(f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {tag}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_run(lines: Iterable[str]) -> dict[int, list[tuple[str, float]]]:
    """Parse a TREC run file back into per-topic (doc_id, score) lists.

    Documents are returned in rank order as recorded in the file.
    """
    by_topic: dict[int, list[tuple[int, str, float]]] = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"run line {line_no}: expected 6 fields, got {line!r}")
        topic_id, _q0, doc_id, rank, score, _tag = parts
        by_topic.setdefault(int(topic_id), []).append(
            (int(rank), doc_id, float(score))
        )
    return {
        topic_id: [(doc_id, score) for _, doc_id, score in sorted(entries)]
        for topic_id, entries in by_topic.items()
    }
