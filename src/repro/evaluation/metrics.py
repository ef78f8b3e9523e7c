"""Diversity-aware IR evaluation metrics.

The paper evaluates with the two official TREC 2009 Web-track Diversity
metrics (Section 5):

* **α-NDCG** (Clarke et al., SIGIR'08) — cumulative gain where a
  document's gain for subtopic ``s`` is discounted by ``(1 − α)^r`` with
  ``r`` the number of earlier results already relevant to ``s``; α = 0.5
  "to give an equal weight to relevance and diversity".  The ideal gain
  vector is built greedily, the standard practice (exact ideal is
  NP-hard).
* **IA-P** (intent-aware precision, Agrawal et al., WSDM'09) —
  Σ_s P(s|q) · Precision@k restricted to subtopic ``s``.

Also provided, for the ``python -m repro.evaluation.cli`` report: the
classic NDCG and Precision, ERR-IA (Chapelle et al., used by later TREC
diversity tracks) and subtopic recall (Zhai et al.).

All metric functions share the signature ``(ranking, topic_id, qrels,
...)`` where *ranking* is a sequence of doc_ids (best first) and *qrels*
a :class:`~repro.corpus.trec.DiversityQrels`.  Subtopic probabilities
default to uniform, as in the official track evaluation; passing the
testbed's ground-truth popularities is supported everywhere.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.corpus.trec import DiversityQrels

__all__ = [
    "alpha_ndcg",
    "intent_aware_precision",
    "precision_at",
    "ndcg",
    "err_ia",
    "subtopic_recall",
    "METRICS",
]


def _subtopic_probabilities(
    qrels: DiversityQrels,
    topic_id: int,
    probabilities: Mapping[int, float] | None,
) -> dict[int, float]:
    """Normalised P(s|q); uniform over judged subtopics when not given."""
    subtopics = qrels.subtopic_numbers(topic_id)
    if not subtopics:
        return {}
    if probabilities:
        weights = {s: probabilities.get(s, 0.0) for s in subtopics}
        total = sum(weights.values())
        if total > 0:
            return {s: w / total for s, w in weights.items()}
    return {s: 1.0 / len(subtopics) for s in subtopics}


# ---------------------------------------------------------------------------
# α-NDCG
# ---------------------------------------------------------------------------

def _alpha_gain_sequence(
    ranking: Sequence[str],
    topic_id: int,
    qrels: DiversityQrels,
    alpha: float,
    cutoff: int,
) -> list[float]:
    """Per-rank novelty-discounted gains of *ranking* up to *cutoff*."""
    seen: dict[int, int] = {}
    gains: list[float] = []
    for doc_id in ranking[:cutoff]:
        relevant_to = qrels.relevant_subtopics(topic_id, doc_id)
        gain = 0.0
        for subtopic in relevant_to:
            gain += (1.0 - alpha) ** seen.get(subtopic, 0)
        gains.append(gain)
        for subtopic in relevant_to:
            seen[subtopic] = seen.get(subtopic, 0) + 1
    return gains


def _dcg(gains: Sequence[float]) -> float:
    return sum(g / math.log2(i + 2) for i, g in enumerate(gains))


def _ideal_alpha_gains(
    topic_id: int, qrels: DiversityQrels, alpha: float, cutoff: int
) -> list[float]:
    """Greedy ideal gain vector over all judged relevant documents."""
    pool: dict[str, frozenset[int]] = {}
    for subtopic in qrels.subtopic_numbers(topic_id):
        for doc_id in qrels.relevant_docs(topic_id, subtopic):
            if doc_id not in pool:
                pool[doc_id] = qrels.relevant_subtopics(topic_id, doc_id)
    seen: dict[int, int] = {}
    gains: list[float] = []
    remaining = dict(pool)
    while remaining and len(gains) < cutoff:
        best_doc, best_gain = None, -1.0
        for doc_id, subtopics in remaining.items():
            gain = sum((1.0 - alpha) ** seen.get(s, 0) for s in subtopics)
            if gain > best_gain or (gain == best_gain and doc_id < best_doc):
                best_doc, best_gain = doc_id, gain
        gains.append(best_gain)
        for s in remaining.pop(best_doc):
            seen[s] = seen.get(s, 0) + 1
    return gains


def alpha_ndcg(
    ranking: Sequence[str],
    topic_id: int,
    qrels: DiversityQrels,
    alpha: float = 0.5,
    cutoff: int = 10,
) -> float:
    """α-NDCG@cutoff (Clarke et al.); 0 when the topic has no judgements.

    With ``alpha = 0`` this is classic binary NDCG computed over "relevant
    to any subtopic" — the equivalence the paper notes in Section 5.
    """
    if not 0.0 <= alpha < 1.0 + 1e-12:
        raise ValueError("alpha must lie in [0, 1]")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    ideal = _ideal_alpha_gains(topic_id, qrels, alpha, cutoff)
    idcg = _dcg(ideal)
    if idcg == 0.0:
        return 0.0
    gains = _alpha_gain_sequence(ranking, topic_id, qrels, alpha, cutoff)
    return _dcg(gains) / idcg


# ---------------------------------------------------------------------------
# Intent-aware precision and friends
# ---------------------------------------------------------------------------

def intent_aware_precision(
    ranking: Sequence[str],
    topic_id: int,
    qrels: DiversityQrels,
    cutoff: int = 10,
    probabilities: Mapping[int, float] | None = None,
) -> float:
    """IA-P@cutoff = Σ_s P(s|q) · (relevant-to-s in top cutoff) / cutoff."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    p = _subtopic_probabilities(qrels, topic_id, probabilities)
    if not p:
        return 0.0
    top = ranking[:cutoff]
    total = 0.0
    for subtopic, weight in p.items():
        hits = sum(1 for d in top if qrels.is_relevant(topic_id, subtopic, d))
        total += weight * hits / cutoff
    return total


def precision_at(
    ranking: Sequence[str], topic_id: int, qrels: DiversityQrels, cutoff: int = 10
) -> float:
    """Classic P@cutoff with "relevant to any subtopic" judgements."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    top = ranking[:cutoff]
    hits = sum(1 for d in top if qrels.is_relevant_any(topic_id, d))
    return hits / cutoff


def ndcg(
    ranking: Sequence[str],
    topic_id: int,
    qrels: DiversityQrels,
    cutoff: int = 10,
) -> float:
    """Binary NDCG@cutoff (Järvelin & Kekäläinen) over any-subtopic
    relevance — equal to α-NDCG with α = 0."""
    return alpha_ndcg(ranking, topic_id, qrels, alpha=0.0, cutoff=cutoff)


def err_ia(
    ranking: Sequence[str],
    topic_id: int,
    qrels: DiversityQrels,
    cutoff: int = 20,
    probabilities: Mapping[int, float] | None = None,
    max_grade_probability: float = 0.5,
) -> float:
    """ERR-IA (Chapelle et al.): cascade-model expected reciprocal rank,
    averaged over subtopics with weights P(s|q).

    Binary judgements: a relevant document stops the cascade with
    probability *max_grade_probability*.
    """
    p = _subtopic_probabilities(qrels, topic_id, probabilities)
    total = 0.0
    for subtopic, weight in p.items():
        not_stopped = 1.0
        err = 0.0
        for i, doc_id in enumerate(ranking[:cutoff], start=1):
            if qrels.is_relevant(topic_id, subtopic, doc_id):
                err += not_stopped * max_grade_probability / i
                not_stopped *= 1.0 - max_grade_probability
        total += weight * err
    return total


def subtopic_recall(
    ranking: Sequence[str],
    topic_id: int,
    qrels: DiversityQrels,
    cutoff: int = 20,
) -> float:
    """S-recall@cutoff (Zhai et al.): fraction of subtopics covered."""
    subtopics = qrels.subtopic_numbers(topic_id)
    if not subtopics:
        return 0.0
    top = ranking[:cutoff]
    covered = sum(
        1
        for s in subtopics
        if any(qrels.is_relevant(topic_id, s, d) for d in top)
    )
    return covered / len(subtopics)


#: Name → callable registry used by the evaluation CLI.  Every metric
#: here accepts (ranking, topic_id, qrels) positionally and ``cutoff=``
#: by keyword (α-NDCG's fourth positional parameter is ``alpha``).
METRICS = {
    "alpha-ndcg": alpha_ndcg,
    "ia-p": intent_aware_precision,
    "ndcg": ndcg,
    "precision": precision_at,
    "err-ia": err_ia,
    "s-recall": subtopic_recall,
}
