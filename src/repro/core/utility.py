"""The paper's utility measure (Definition 2) and the utility matrix.

Equation (1)::

    U(d | R_q') = Σ_{d' ∈ R_q'}  (1 − δ(d, d')) / rank(d', R_q')

"a result d ∈ R_q is more useful for specialization q' if it is very
similar to a highly ranked item contained in the results list R_q'".
δ is the cosine distance of Equation (2), computed between *snippets*
(document surrogates).

The normalised utility divides by the harmonic number of |R_q'| — the
value Eq. (1) would take if d were at distance 0 from every result::

    Ũ(d | R_q') = U(d | R_q') / H_{|R_q'|}          ∈ [0, 1]

Section 5 additionally forces the utility to 0 when it falls below a
threshold ``c`` — the knob swept in Table 3.

:class:`UtilityMatrix` precomputes Ũ for every candidate × specialization
pair once; every diversification algorithm then reads it in O(1), so the
algorithms' measured complexity (Table 2) reflects selection work, not
similarity computation — matching the paper's setting where utilities
come from precomputed specialization lists (Section 4.1).  It evaluates
Eq. (1) by algebra (see :meth:`UtilityMatrix.build`);
:func:`repro.core.objectives.utility` and
:func:`~repro.core.objectives.normalized_utility` evaluate it pair by pair
and are the reference oracle the tests hold ``build`` to — nothing on the
request path calls them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector

__all__ = ["harmonic_number", "UtilityMatrix"]


def harmonic_number(n: int) -> float:
    """The n-th harmonic number H_n = Σ_{i=1..n} 1/i (H_0 = 0).

    >>> harmonic_number(3)
    1.8333333333333333
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(1.0 / i for i in range(1, n + 1))


class UtilityMatrix:
    """Precomputed Ũ(d | R_q') for candidates × specializations.

    Stored sparsely: zero utilities (including thresholded ones) take no
    space, and :meth:`useful_docs` exposes the paper's ``R_q ⋈ q'`` —
    the candidates with strictly positive utility for a specialization,
    used by the MaxUtility Diversify(k) proportionality constraint.
    """

    def __init__(
        self,
        values: Mapping[str, Mapping[str, float]],
        candidates: Iterable[str],
        threshold: float = 0.0,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.threshold = threshold
        self.candidates: list[str] = list(candidates)
        self._by_spec: dict[str, dict[str, float]] = {}
        for spec, row in values.items():
            kept = {}
            for doc_id, value in row.items():
                if value < 0 or value > 1 + 1e-9:
                    raise ValueError(
                        f"normalised utility out of range: {value} for"
                        f" ({doc_id!r}, {spec!r})"
                    )
                if value > 0 and value >= threshold:
                    kept[doc_id] = min(value, 1.0)
            self._by_spec[spec] = kept

    # -- constructors ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        candidates: ResultList,
        spec_results: Mapping[str, ResultList],
        vectors: Mapping[str, TermVector],
        threshold: float = 0.0,
    ) -> "UtilityMatrix":
        """Compute Ũ for every candidate against every specialization list.

        *vectors* holds surrogate vectors for both the candidates and the
        specialization results (one shared vector space).

        Ũ is linear in the candidate's unit vector d̂, so Eq. (1) is one
        dot product against a rank-weighted centroid per specialization::

            Ũ(d | R_q') = d̂ · c_q',   c_q' = Σ_{d' ∈ R_q'} d̂' / (rank(d') · H_n)

        — O(Σ nnz(R_q') + |R_q|·|S_q|·nnz(d)) instead of |R_q|·Σ|R_q'|
        cosines.  Weights are non-negative (:class:`TermVector` rejects
        others), so the non-zero cells are exactly those of the pairwise
        :func:`repro.core.objectives.normalized_utility` and values agree
        to a few ULP.
        """
        cand_weights = [
            (c.doc_id, vectors[c.doc_id].weights)
            for c in candidates
            if c.doc_id in vectors
        ]
        # Summation order (rank order, then each vector's term insertion
        # order) fixes the last bits: docs/ARCHITECTURE.md, "floating-point
        # contract".  Changing it means regenerating the golden file.
        values: dict[str, dict[str, float]] = {}
        for spec, results in spec_results.items():
            h = harmonic_number(len(results))
            centroid: dict[str, float] = {}
            for result in results:
                spec_vector = vectors.get(result.doc_id)
                if spec_vector is None:
                    continue
                scale = 1.0 / (result.rank * h)
                for term, weight in spec_vector.weights.items():
                    centroid[term] = centroid.get(term, 0.0) + weight * scale
            row = values[spec] = {}
            for doc_id, weights in cand_weights:
                total = 0.0
                for term, weight in weights.items():
                    if term in centroid:
                        total += weight * centroid[term]
                if total > 0:
                    row[doc_id] = min(1.0, total)
        return cls(values, candidates.doc_ids, threshold=threshold)

    # -- access ------------------------------------------------------------------

    @property
    def specializations(self) -> list[str]:
        return list(self._by_spec)

    def value(self, doc_id: str, spec: str) -> float:
        """Ũ(d|R_q'), zero when unknown or thresholded away."""
        return self._by_spec.get(spec, {}).get(doc_id, 0.0)

    def row(self, doc_id: str) -> dict[str, float]:
        """All non-zero utilities of one candidate."""
        return {
            spec: values[doc_id]
            for spec, values in self._by_spec.items()
            if doc_id in values
        }

    def useful_docs(self, spec: str) -> dict[str, float]:
        """The paper's ``R_q ⋈ q'``: candidates with Ũ > 0 for *spec*."""
        return dict(self._by_spec.get(spec, {}))

    def is_useful(self, doc_id: str, spec: str) -> bool:
        return doc_id in self._by_spec.get(spec, {})

    def with_threshold(self, threshold: float) -> "UtilityMatrix":
        """A re-thresholded copy (cheap: values are already computed).

        Table 3 sweeps ``c`` over nine values; recomputing utilities each
        time would dominate, so experiments build the matrix once at
        ``c = 0`` and re-threshold.
        """
        return UtilityMatrix(self._by_spec, self.candidates, threshold=threshold)

    def density(self) -> float:
        """Fraction of non-zero cells — a workload statistic for benches."""
        cells = len(self.candidates) * max(1, len(self._by_spec))
        nonzero = sum(len(v) for v in self._by_spec.values())
        return nonzero / cells if cells else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UtilityMatrix(candidates={len(self.candidates)}, "
            f"specs={len(self._by_spec)}, threshold={self.threshold})"
        )
