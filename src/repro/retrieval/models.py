"""Document weighting models for the retrieval substrate.

The paper (Section 5) retrieves the initial result lists ``R_q`` with the
parameter-free **DPH** Divergence-From-Randomness model (Amati et al.,
TREC 2007 blog track), as implemented in Terrier.  This module implements
DPH exactly as published, together with BM25 and a Robertson TF-IDF used in
tests and ablations.

Every model exposes the same per-term interface::

    score(tf, doc_length, document_frequency, collection_frequency,
          num_documents, average_document_length, key_frequency=1.0)

so the matching/scoring loop in :mod:`repro.retrieval.engine` is model
agnostic, mirroring Terrier's ``WeightingModel`` contract.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

__all__ = ["WeightingModel", "DPH", "BM25", "TFIDF"]

_LOG2 = math.log(2.0)


def _log2(x: float) -> float:
    return math.log(x) / _LOG2


class WeightingModel(ABC):
    """Scores one (term, document) match given collection statistics."""

    name: str = "abstract"

    @abstractmethod
    def score(
        self,
        tf: float,
        doc_length: float,
        document_frequency: int,
        collection_frequency: int,
        num_documents: int,
        average_document_length: float,
        key_frequency: float = 1.0,
    ) -> float:
        """Return the contribution of a term occurring ``tf`` times."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class DPH(WeightingModel):
    """The DPH hypergeometric DFR model (parameter free).

    Following the Terrier reference implementation::

        f     = tf / dl
        norm  = (1 - f)^2 / (tf + 1)
        score = kf * norm * ( tf * log2( (tf * avdl / dl) * (N / CF) )
                              + 0.5 * log2( 2 * pi * tf * (1 - f) ) )

    where ``N`` is the number of documents and ``CF`` the term's collection
    frequency.  ``f`` is clamped slightly below 1 so that documents made of
    a single repeated term do not produce ``log(0)``.
    """

    name = "DPH"

    def score(
        self,
        tf: float,
        doc_length: float,
        document_frequency: int,
        collection_frequency: int,
        num_documents: int,
        average_document_length: float,
        key_frequency: float = 1.0,
    ) -> float:
        if tf <= 0 or doc_length <= 0:
            return 0.0
        f = tf / doc_length
        if f >= 1.0:
            f = 1.0 - 1e-9
        norm = (1.0 - f) * (1.0 - f) / (tf + 1.0)
        population = max(collection_frequency, 1)
        expected = (tf * average_document_length / doc_length) * (
            num_documents / population
        )
        if expected <= 0:
            return 0.0
        gain = tf * _log2(expected) + 0.5 * _log2(2.0 * math.pi * tf * (1.0 - f))
        return key_frequency * norm * gain


class BM25(WeightingModel):
    """Okapi BM25 with the usual ``k1``/``b``/``k3`` parameterisation."""

    name = "BM25"

    def __init__(self, k1: float = 1.2, b: float = 0.75, k3: float = 8.0) -> None:
        if k1 < 0 or not 0 <= b <= 1:
            raise ValueError("BM25 requires k1 >= 0 and 0 <= b <= 1")
        self.k1 = k1
        self.b = b
        self.k3 = k3

    def score(
        self,
        tf: float,
        doc_length: float,
        document_frequency: int,
        collection_frequency: int,
        num_documents: int,
        average_document_length: float,
        key_frequency: float = 1.0,
    ) -> float:
        if tf <= 0:
            return 0.0
        avdl = average_document_length or 1.0
        denom = tf + self.k1 * (1.0 - self.b + self.b * doc_length / avdl)
        term_weight = tf * (self.k1 + 1.0) / denom
        idf = math.log(
            (num_documents - document_frequency + 0.5)
            / (document_frequency + 0.5)
            + 1.0
        )
        qtf = key_frequency
        query_weight = (self.k3 + 1.0) * qtf / (self.k3 + qtf)
        return term_weight * idf * query_weight


class TFIDF(WeightingModel):
    """Robertson TF with a smoothed IDF (Terrier's ``TF_IDF`` model)."""

    name = "TF_IDF"

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b

    def score(
        self,
        tf: float,
        doc_length: float,
        document_frequency: int,
        collection_frequency: int,
        num_documents: int,
        average_document_length: float,
        key_frequency: float = 1.0,
    ) -> float:
        if tf <= 0:
            return 0.0
        avdl = average_document_length or 1.0
        robertson_tf = (
            self.k1 * tf / (tf + self.k1 * (1.0 - self.b + self.b * doc_length / avdl))
        )
        idf = math.log(num_documents / (document_frequency or 1) + 1.0)
        return key_frequency * robertson_tf * idf

