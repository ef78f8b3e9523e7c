"""Document similarity: sparse term vectors and the cosine behind the paper's δ.

Equation (2) of the paper defines the document distance used by the
utility measure::

    δ(d1, d2) = 1 − cosine(d1, d2)

with δ non-negative and symmetric (Section 3.1).  The paper computes the
similarity over *snippets* ("we applied the utility function in (1) to the
snippets returned by the Terrier search engine instead of applying it to
the whole documents", Section 5) — so vectors here are cheap to build from
short texts.

:class:`TermVector` is an L2-normalised sparse bag-of-terms vector; cosine
between two normalised vectors reduces to a sparse dot product.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping

from repro.retrieval.analysis import Analyzer

__all__ = ["TermVector", "cosine"]


class TermVector:
    """An L2-normalised sparse term-weight vector.

    The constructor accepts raw non-negative (term → weight) mappings;
    weights are normalised so that ``||v|| == 1`` unless the vector is empty.

    Vectors are immutable by contract: nothing writes ``weights`` after
    construction, and the engines hand one object to many requests (a
    document's document-order surrogate has a single vector).

    >>> v = TermVector({"apple": 2.0, "fruit": 1.0})
    >>> round(v.norm, 6)
    1.0
    """

    __slots__ = ("weights", "norm")

    def __init__(self, weights: Mapping[str, float]) -> None:
        _require_non_negative(weights)
        self._normalize(weights)

    def _normalize(self, weights: Mapping[str, float]) -> None:
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            self.weights = {t: w / norm for t, w in weights.items() if w != 0}
            self.norm = 1.0
        else:
            self.weights = {}
            self.norm = 0.0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "TermVector":
        """Build a term-frequency vector from pre-analysed terms."""
        return cls.from_counts(Counter(terms))

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "TermVector":
        """Build a term-frequency vector from ``{term: count >= 1}``,
        trusted: no sign check, and *counts* fixes the term order."""
        vector = cls.__new__(cls)
        vector._normalize(counts)
        return vector

    @classmethod
    def from_text(cls, text: str, analyzer: Analyzer | None = None) -> "TermVector":
        """Analyse *text* and build its term-frequency vector."""
        analyzer = analyzer or Analyzer()
        return cls.from_terms(analyzer.analyze(text))

    @classmethod
    def from_normalized(cls, weights: Mapping[str, float]) -> "TermVector":
        """Rebuild a vector whose weights are already unit-normalised.

        Re-running the constructor on a saved vector would divide by a
        norm that is only *approximately* 1.0, perturbing the weights in
        the last bits — enough to flip floating-point ties downstream.
        The index store (:mod:`repro.retrieval.store`) therefore restores
        warm vectors through here, byte-identical to what was saved.
        """
        _require_non_negative(weights)
        vector = cls.__new__(cls)
        vector.weights = {t: w for t, w in weights.items() if w != 0}
        vector.norm = 1.0 if vector.weights else 0.0
        return vector

    @classmethod
    def from_text_idf(
        cls,
        text: str,
        idf: Mapping[str, float],
        analyzer: Analyzer | None = None,
        default_idf: float = 0.0,
    ) -> "TermVector":
        """Build a TF·IDF weighted vector using the supplied IDF table."""
        analyzer = analyzer or Analyzer()
        counts = Counter(analyzer.analyze(text))
        return cls(
            {t: tf * idf.get(t, default_idf) for t, tf in counts.items()}
        )

    # -- operations -------------------------------------------------------------

    def dot(self, other: "TermVector") -> float:
        """Sparse dot product; iterates over the smaller vector, in its
        term insertion order.  On a length tie the vector whose term
        sequence sorts first is iterated, so the summation order — and
        the result, bit for bit — is independent of argument order."""
        a, b = self.weights, other.weights
        if len(b) < len(a) or (len(b) == len(a) and list(b) < list(a)):
            a, b = b, a
        return sum(w * b[t] for t, w in a.items() if t in b)

    def __len__(self) -> int:
        return len(self.weights)

    def __bool__(self) -> bool:
        return bool(self.weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TermVector(terms={len(self.weights)})"


def _require_non_negative(weights: Mapping[str, float]) -> None:
    if any(w < 0 for w in weights.values()):
        raise ValueError("term weights must be non-negative")


def cosine(v1: TermVector, v2: TermVector) -> float:
    """Cosine similarity in ``[0, 1]`` (vectors are non-negative).

    Empty vectors have similarity 0 with everything, including themselves —
    an empty snippet carries no evidence of similarity.
    """
    if not v1 or not v2:
        return 0.0
    # Vectors are already unit length; clamp for floating point safety.
    return min(1.0, max(0.0, v1.dot(v2)))

