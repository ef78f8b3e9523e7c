"""Dense task representation — the shared substrate of the fast kernels.

A :class:`TaskArrays` is the dense (numpy) view of one
:class:`~repro.core.task.DiversificationTask`:

* ``doc_ids`` — the candidates of ``R_q`` in baseline-rank order;
* ``by_spec`` — the utilities Ũ(d|R_q') stored **spec-major**, one
  C-contiguous ``m × n`` matrix whose row j holds specialization j's
  utility for every candidate (zero where the sparse
  :class:`~repro.core.utility.UtilityMatrix` has no entry);
* ``probabilities`` — the specialization distribution P(q'|q) (length m);
* ``relevance`` — P(d|q) per candidate (length n).

Spec-major is the layout the kernels read: a greedy pick's scores are
one ``weights @ by_spec``, OptSelect's heap routing walks one contiguous
row per specialization, and :meth:`head`'s truncation is a row slice,
not a copy.

It is built **once per task** (lazily, via
:meth:`DiversificationTask.arrays`) and consumed by every kernel-backed
diversifier in :mod:`repro.core.fast`, so a batch of algorithms — or the
serving layer ranking the same task under several configurations — pays
the densification cost a single time.  Construction is one pass over the
non-zero utilities, positioned through the rank map the candidate
:class:`~repro.retrieval.engine.ResultList` already holds.

numpy is an optional dependency: importing this module without numpy
raises ``ImportError`` with a clear message and the pure-Python
algorithms keep working.
"""

from __future__ import annotations

try:
    import numpy as _np
except ImportError as _exc:  # pragma: no cover - environment dependent
    raise ImportError(
        "repro.core.arrays requires numpy; install it or use the pure-Python "
        "algorithms in repro.core"
    ) from _exc

from itertools import chain, repeat
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.task import DiversificationTask

__all__ = ["TaskArrays"]


class TaskArrays:
    """Dense ``(doc_ids, U[m×n], p[m], rel[n])`` views of one task.

    Instances are read-only by convention: every kernel treats the arrays
    as constants and keeps its mutable state (coverage, residuals, taken
    masks) in private copies.
    """

    __slots__ = (
        "doc_ids",
        "spec_queries",
        "probabilities",
        "by_spec",
        "relevance",
        "_vector_matrix",
        "_vector_token",
    )

    def __init__(
        self,
        doc_ids: list[str],
        spec_queries: list[str],
        probabilities,
        by_spec,
        relevance,
    ) -> None:
        self.doc_ids = list(doc_ids)
        self.spec_queries = list(spec_queries)
        self.probabilities = _np.asarray(probabilities, dtype=_np.float64)
        self.by_spec = _np.ascontiguousarray(by_spec, dtype=_np.float64)
        self.relevance = _np.asarray(relevance, dtype=_np.float64)
        self._vector_matrix = None
        self._vector_token = None
        if self.by_spec.shape != (len(self.spec_queries), len(self.doc_ids)):
            raise ValueError(
                f"by_spec shape {self.by_spec.shape} does not match "
                f"(m={len(self.spec_queries)}, n={len(self.doc_ids)})"
            )

    @classmethod
    def from_task(cls, task: "DiversificationTask") -> "TaskArrays":
        """Densify *task* straight into the spec-major layout.

        One pass over each specialization's non-zero utilities: every
        document is placed by its baseline rank, read from the candidate
        list's own rank map.  Utilities of documents outside ``R_q`` are
        ignored, as the reference algorithms ignore them.
        """
        specializations = task.specializations
        candidates = task.candidates
        doc_ids = candidates.doc_ids
        n, m = len(doc_ids), len(specializations)
        # Reused, not rebuilt per task: doc_id -> 1-based rank.
        rank_get = candidates._rank_by_id.get
        rows = [task.utilities.useful_docs(spec) for spec, _p in specializations]
        sizes = [len(row) for row in rows]
        total = sum(sizes)
        ranks = _np.fromiter(
            chain.from_iterable(map(rank_get, row, repeat(0)) for row in rows),
            _np.intp,
            total,
        )
        values = _np.fromiter(
            chain.from_iterable(row.values() for row in rows), _np.float64, total
        )
        # Row j's cell for rank r is j·n + r − 1 of the flat matrix.
        cells = ranks + _np.repeat(_np.arange(m) * n - 1, sizes)
        if _np.count_nonzero(ranks) < total:  # rank 0: not a candidate
            inside = ranks > 0
            cells, values = cells[inside], values[inside]
        by_spec = _np.zeros((m, n), dtype=_np.float64)
        by_spec.put(cells, values)
        relevance = _np.fromiter(
            map(task.relevance.get, doc_ids, repeat(0.0)), _np.float64, n
        )
        return cls(
            doc_ids=doc_ids,
            spec_queries=[spec for spec, _p in specializations],
            probabilities=[p for _spec, p in specializations],
            by_spec=by_spec,
            relevance=relevance,
        )

    # -- shape ----------------------------------------------------------------

    @property
    def n(self) -> int:
        """|R_q| — number of candidates (matrix columns)."""
        return len(self.doc_ids)

    @property
    def m(self) -> int:
        """|S_q| — number of specializations (matrix rows)."""
        return len(self.spec_queries)

    def head(self, m: int) -> "TaskArrays":
        """The first *m* specializations with renormalised probabilities.

        Mirrors :meth:`SpecializationSet.top` exactly — including its
        pure-Python renormalisation sum — so kernel-backed diversifiers
        that truncate ``S_q`` to k specializations see bit-identical
        probabilities to their reference implementations.  The utility
        rows are a view of the first *m* rows, still C-contiguous.
        """
        if m >= self.m:
            return self
        kept = self.probabilities[:m].tolist()
        total = sum(kept)
        return TaskArrays(
            doc_ids=self.doc_ids,
            spec_queries=self.spec_queries[:m],
            probabilities=[p / total for p in kept],
            by_spec=self.by_spec[:m],
            relevance=self.relevance,
        )

    # -- candidate-candidate similarity (MMR) -----------------------------------

    def similarity_matrix(self, vectors) -> "_np.ndarray":
        """Dense ``n × n`` cosine matrix of the candidate surrogates.

        ``vectors`` maps doc_id → :class:`~repro.retrieval.similarity.TermVector`
        (already L2-normalised); candidates without a vector get an all-zero
        row, i.e. similarity 0 with everything, matching
        :func:`repro.retrieval.similarity.cosine` on empty vectors.  Built
        lazily and memoized on an identity-stable token: the tuple of the
        per-candidate vector *objects* themselves.  A caller that rebuilds
        the mapping around the same ``TermVector`` instances (tasks share
        vectors across ``with_lambda``/``with_threshold`` copies, and the
        serving layer rebuilds its vector dicts per batch) still hits the
        memo, while swapping any candidate's vector for a different object
        is detected and rebuilds — the old ``is``-comparison against the
        whole mapping missed both cases.  MMR is the only consumer.
        """
        token = tuple(vectors.get(doc_id) for doc_id in self.doc_ids)
        if self._vector_matrix is None or self._vector_token != token:
            present = [
                (i, vector.weights)
                for i, vector in enumerate(token)
                if vector is not None
            ]
            term_index: dict[str, int] = {}
            for _i, weights in present:
                for term in weights:
                    term_index.setdefault(term, len(term_index))
            dense = _np.zeros((self.n, max(1, len(term_index))))
            for i, weights in present:
                for term, w in weights.items():
                    dense[i, term_index[term]] = w
            self._vector_matrix = _np.clip(dense @ dense.T, 0.0, 1.0)
            self._vector_token = token
        return self._vector_matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskArrays(n={self.n}, m={self.m})"
