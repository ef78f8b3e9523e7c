"""Dense task representation — the shared substrate of the fast kernels.

A :class:`TaskArrays` is the dense (numpy) view of one
:class:`~repro.core.task.DiversificationTask`:

* ``doc_ids`` — the candidates of ``R_q`` in baseline-rank order;
* ``utilities`` — the ``n × m`` matrix Ũ(d|R_q') (zero where the sparse
  :class:`~repro.core.utility.UtilityMatrix` has no entry);
* ``probabilities`` — the specialization distribution P(q'|q) (length m);
* ``relevance`` — P(d|q) per candidate (length n).

It is built **once per task** (lazily, via
:meth:`DiversificationTask.arrays`) and consumed by every kernel-backed
diversifier in :mod:`repro.core.fast`, so a batch of algorithms — or the
serving layer ranking the same task under several configurations — pays
the densification cost a single time.  The candidate index map is hoisted
out of the per-specialization loop, so construction is O(n·m̄) in the
number of non-zero utilities instead of the seed's O(n·m).

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

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.task import DiversificationTask

__all__ = ["TaskArrays"]


class TaskArrays:
    """Dense ``(doc_ids, U[n×m], p[m], rel[n])`` views of one task.

    Instances are read-only by convention: every kernel treats the arrays
    as constants and keeps its mutable state (coverage, residuals, taken
    masks) in private copies.
    """

    __slots__ = (
        "doc_ids",
        "index_of",
        "spec_queries",
        "probabilities",
        "utilities",
        "relevance",
        "_vector_matrix",
        "_vector_token",
    )

    def __init__(
        self,
        doc_ids: list[str],
        spec_queries: list[str],
        probabilities,
        utilities,
        relevance,
        index_of: dict[str, int] | None = None,
    ) -> None:
        self.doc_ids = list(doc_ids)
        self.spec_queries = list(spec_queries)
        self.probabilities = _np.asarray(probabilities, dtype=_np.float64)
        self.utilities = _np.asarray(utilities, dtype=_np.float64)
        self.relevance = _np.asarray(relevance, dtype=_np.float64)
        self.index_of = index_of or {d: i for i, d in enumerate(self.doc_ids)}
        self._vector_matrix = None
        self._vector_token = None
        if self.utilities.shape != (len(self.doc_ids), len(self.spec_queries)):
            raise ValueError(
                f"utilities shape {self.utilities.shape} does not match "
                f"(n={len(self.doc_ids)}, m={len(self.spec_queries)})"
            )

    @classmethod
    def from_task(cls, task: "DiversificationTask") -> "TaskArrays":
        """Densify *task* in one pass over the sparse utility rows."""
        specializations = task.specializations
        doc_ids = task.candidates.doc_ids
        n, m = len(doc_ids), len(specializations)
        # Hoisted out of the per-specialization loop: one dict for all m
        # columns (the seed rebuilt it m times).
        index_of = {d: i for i, d in enumerate(doc_ids)}
        utilities = _np.zeros((n, m), dtype=_np.float64)
        probabilities = _np.empty(m, dtype=_np.float64)
        spec_queries: list[str] = []
        for j, (spec, p) in enumerate(specializations):
            spec_queries.append(spec)
            probabilities[j] = p
            for doc_id, value in task.utilities.useful_docs(spec).items():
                i = index_of.get(doc_id)
                if i is not None:
                    utilities[i, j] = value
        relevance = _np.array(
            [task.relevance.get(d, 0.0) for d in doc_ids], dtype=_np.float64
        )
        return cls(
            doc_ids=doc_ids,
            spec_queries=spec_queries,
            probabilities=probabilities,
            utilities=utilities,
            relevance=relevance,
            index_of=index_of,
        )

    # -- shape ----------------------------------------------------------------

    @property
    def n(self) -> int:
        """|R_q| — number of candidates (matrix rows)."""
        return len(self.doc_ids)

    @property
    def m(self) -> int:
        """|S_q| — number of specializations (matrix columns)."""
        return len(self.spec_queries)

    def head(self, m: int) -> "TaskArrays":
        """The first *m* specializations with renormalised probabilities.

        Mirrors :meth:`SpecializationSet.top` exactly — including its
        pure-Python renormalisation sum — so kernel-backed diversifiers
        that truncate ``S_q`` to k specializations see bit-identical
        probabilities to their reference implementations.
        """
        if m >= self.m:
            return self
        kept = self.probabilities[:m].tolist()
        total = sum(kept)
        return TaskArrays(
            doc_ids=self.doc_ids,
            spec_queries=self.spec_queries[:m],
            probabilities=[p / total for p in kept],
            utilities=self.utilities[:, :m],
            relevance=self.relevance,
            index_of=self.index_of,
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
