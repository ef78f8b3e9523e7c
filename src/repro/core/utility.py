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
request path calls them.  A :class:`UtilityMemo` lets ``build`` reuse, on
a later read of the same query, every centroid and cell whose inputs that
read left unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import NamedTuple

from repro.core.cache import LRUCache
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector

__all__ = ["harmonic_number", "UtilityMatrix", "UtilityMemo"]


def harmonic_number(n: int) -> float:
    """The n-th harmonic number H_n = Σ_{i=1..n} 1/i (H_0 = 0).

    >>> harmonic_number(3)
    1.8333333333333333
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(1.0 / i for i in range(1, n + 1))


class UtilityMemo(NamedTuple):
    """What one read of *query* lends :meth:`UtilityMatrix.build` to reuse.

    ``entries`` maps ``(query, spec_query)`` to ``(key, centroid, cells)``:
    the list key the centroid c_q′ was summed for, c_q′ itself, and the
    raw Ũ (before the clamp and the threshold) of each candidate seq
    dotted against it.  ``origins`` names this read's vectors: each
    doc_id's surrogate-memo key ``(biasing query, seq)``, or ``None`` for
    a vector built from another version than its seq, which no memo keeps.

    A list's key is its results' origins in rank order.  Positions fix
    the ranks and H_n, and an origin fixes its vector, shadowed or not (a
    seq names one document version), so a matching key reproduces c_q′
    at any epoch, and a cell keyed by the candidate's seq reproduces its
    dot.  A key or a candidate with a ``None`` origin is computed for this
    read and not stored.
    """

    entries: LRUCache
    query: str
    origins: Mapping[str, tuple[str, int] | None]


def _centroid(
    results: ResultList, vectors: Mapping[str, TermVector]
) -> dict[str, float]:
    """c_q′ = Σ d̂′ / (rank(d′) · H_n) over the results that have a vector."""
    h = harmonic_number(len(results))
    centroid: dict[str, float] = {}
    for result in results:
        spec_vector = vectors.get(result.doc_id)
        if spec_vector is None:
            continue
        scale = 1.0 / (result.rank * h)
        for term, weight in spec_vector.weights.items():
            centroid[term] = centroid.get(term, 0.0) + weight * scale
    return centroid


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
        memo: UtilityMemo | None = None,
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

        With a *memo* (:class:`UtilityMemo`), a list whose key matches
        its entry reuses the entry's centroid and every cell it holds;
        only the other cells are dotted, and a read that dots any stores
        its list's entry with exactly its own candidates' cells, so a
        changed key replaces the entry.  Reused values are this method's
        own floats, so the matrix is bit-identical either way.
        """
        origins = memo.origins if memo is not None else {}
        cand_weights = []  # (doc_id, weights, the seq its cells are kept under)
        for c in candidates:
            vector = vectors.get(c.doc_id)
            if vector is not None:
                origin = origins.get(c.doc_id)
                cand_weights.append((c.doc_id, vector.weights, origin and origin[1]))
        # Summation order (rank order, then each vector's term insertion
        # order) fixes the last bits: docs/ARCHITECTURE.md, "floating-point
        # contract".  Changing it means regenerating the golden file.
        values: dict[str, dict[str, float]] = {}
        for spec, results in spec_results.items():
            key = entry = None
            if memo is not None:
                key = tuple(origins.get(r.doc_id) for r in results)
                entry = memo.entries.get((memo.query, spec))
            if entry is not None and entry[0] == key:
                _, centroid, cells = entry
            else:
                centroid, cells = _centroid(results, vectors), {}
            row = values[spec] = {}
            dotted = {}
            for doc_id, weights, seq in cand_weights:
                total = cells.get(seq)
                if total is None:
                    total = 0.0
                    for term, weight in weights.items():
                        if term in centroid:
                            total += weight * centroid[term]
                    if seq is not None:
                        dotted[seq] = total
                if total > 0:
                    row[doc_id] = min(1.0, total)
            if dotted and None not in key:
                if cells:  # keep this read's candidates' cells, no others
                    dotted.update(
                        (s, cells[s]) for _, _, s in cand_weights if s in cells
                    )
                memo.entries.put((memo.query, spec), (key, centroid, dotted))
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
