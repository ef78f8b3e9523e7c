"""Turning retrieval scores into the relevance probability P(d|q).

Both xQuAD (Eq. 5) and MaxUtility Diversify(k) (Eq. 7) mix the utility
signal with "the likelihood of document d being observed given q", written
P(d|q).  The paper does not specify how the baseline DPH score becomes a
probability, so this module offers the standard choices and documents the
default (min–max normalisation — monotone, bounded in [0, 1], and
parameter free, in keeping with DPH itself).
"""

from __future__ import annotations

import math

from repro.retrieval.engine import ResultList

__all__ = [
    "minmax_relevance",
    "sum_relevance",
    "softmax_relevance",
    "reciprocal_rank_relevance",
    "estimate_relevance",
]


def minmax_relevance(results: ResultList) -> dict[str, float]:
    """Min–max normalise scores into [0, 1] (the library default).

    A single-result list maps to 1.0; an empty list to {}.
    """
    if not len(results):
        return {}
    scores = results.scores
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return {r.doc_id: 1.0 for r in results}
    span = hi - lo
    return {r.doc_id: (r.score - lo) / span for r in results}


def sum_relevance(results: ResultList) -> dict[str, float]:
    """Score-mass normalisation: P(d|q) = score(d) / Σ scores (clamped ≥ 0).

    This treats the retrieval scores as unnormalised probability mass, the
    reading under which xQuAD's Eq. (5) was designed: P(d|q) is a proper
    distribution over the candidate list, so per-document differences are
    small and the λ-weighted diversity term can reorder documents.  This
    is the framework default.

    Negative scores (possible with DFR models on poor matches) are
    clamped to zero before normalising.
    """
    if not len(results):
        return {}
    clamped = {r.doc_id: max(r.score, 0.0) for r in results}
    total = sum(clamped.values())
    if total <= 0:
        uniform = 1.0 / len(results)
        return {doc_id: uniform for doc_id in clamped}
    return {doc_id: score / total for doc_id, score in clamped.items()}


def softmax_relevance(results: ResultList, temperature: float = 1.0) -> dict[str, float]:
    """Softmax over scores: a proper distribution summing to 1."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if not len(results):
        return {}
    peak = max(results.scores)
    exps = {r.doc_id: math.exp((r.score - peak) / temperature) for r in results}
    total = sum(exps.values())
    return {doc_id: value / total for doc_id, value in exps.items()}


def reciprocal_rank_relevance(results: ResultList) -> dict[str, float]:
    """Score-free fallback: P(d|q) = 1 / rank(d).

    Useful when re-ranking third-party lists that expose order but not
    scores (the Appendix C setting with an external WSE).
    """
    return {r.doc_id: 1.0 / r.rank for r in results}


_ESTIMATORS = {
    "minmax": minmax_relevance,
    "sum": sum_relevance,
    "softmax": softmax_relevance,
    "reciprocal": reciprocal_rank_relevance,
}


def estimate_relevance(results: ResultList, method: str = "minmax") -> dict[str, float]:
    """Dispatch to a named estimator.

    >>> rl = ResultList("q", [("d1", 4.0), ("d2", 2.0)])
    >>> estimate_relevance(rl)["d1"]
    1.0
    """
    try:
        estimator = _ESTIMATORS[method]
    except KeyError:
        raise ValueError(
            f"unknown relevance estimator {method!r}; choose from {sorted(_ESTIMATORS)}"
        ) from None
    return estimator(results)
