"""The shared input contract of every diversification algorithm.

A :class:`DiversificationTask` packages everything Section 3's three
problem formulations consume:

* the candidate list ``R_q`` (with its baseline ranking and scores),
* the specialization distribution ``S_q`` with ``P(q'|q)`` (Definition 1),
* the precomputed normalised utilities ``Ũ(d|R_q')`` (Definition 2),
* the relevance estimates ``P(d|q)``,
* the mixing parameter ``λ``.

Keeping the inputs in one immutable-ish object makes the three algorithms
interchangeable (same task in, same kind of ranking out) and lets the
benchmark harness build a workload once and hand it to each competitor —
exactly how the paper times them (Section 4, Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ambiguity import SpecializationSet
from repro.core.relevance import estimate_relevance
from repro.core.utility import UtilityMatrix
from repro.retrieval.engine import ResultList

__all__ = ["DiversificationTask"]


@dataclass
class DiversificationTask:
    """Inputs of one diversification invocation.

    ``relevance`` maps each candidate doc_id to P(d|q) ∈ [0, 1]; omitted
    documents are treated as P(d|q) = 0.
    """

    query: str
    candidates: ResultList
    specializations: SpecializationSet
    utilities: UtilityMatrix
    relevance: dict[str, float] = field(default_factory=dict)
    lambda_: float = 0.15
    #: Optional surrogate vectors of the candidates (doc_id → TermVector).
    #: Only algorithms needing candidate-candidate similarity (MMR) use
    #: them; the paper's three algorithms work from the utility matrix.
    vectors: dict = field(default_factory=dict)
    #: Lazily-built dense view (:class:`~repro.core.arrays.TaskArrays`);
    #: never passed in — see :meth:`arrays`.
    _arrays: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError("lambda_ must lie in [0, 1]")
        missing = [
            spec
            for spec, _ in self.specializations
            if spec not in set(self.utilities.specializations)
        ]
        if missing:
            raise ValueError(
                f"utility matrix lacks specializations: {missing!r}"
            )

    @classmethod
    def create(
        cls,
        query: str,
        candidates: ResultList,
        specializations: SpecializationSet,
        utilities: UtilityMatrix,
        lambda_: float = 0.15,
        relevance_method: str = "minmax",
    ) -> "DiversificationTask":
        """Build a task, estimating P(d|q) from the candidate scores."""
        return cls(
            query=query,
            candidates=candidates,
            specializations=specializations,
            utilities=utilities,
            relevance=estimate_relevance(candidates, relevance_method),
            lambda_=lambda_,
        )

    def __getstate__(self) -> dict:
        # The dense view is a per-process memo over numpy arrays, heavy
        # on the wire.  Receivers rebuild it lazily on first kernel use.
        state = dict(self.__dict__)
        state["_arrays"] = None
        return state

    # -- convenience accessors ---------------------------------------------------

    def arrays(self):
        """The dense numpy view of this task, built once and memoized.

        Every kernel-backed diversifier (:mod:`repro.core.fast`) consumes
        the same :class:`~repro.core.arrays.TaskArrays`, so densification
        happens a single time per task regardless of how many algorithms
        run on it.  Requires numpy; raises ``ImportError`` otherwise.
        """
        if self._arrays is None:
            from repro.core.arrays import TaskArrays

            self._arrays = TaskArrays.from_task(self)
        return self._arrays

    @property
    def n(self) -> int:
        """|R_q| — the number of candidates."""
        return len(self.candidates)

    def relevance_of(self, doc_id: str) -> float:
        return self.relevance.get(doc_id, 0.0)

    def overall_utility(self, doc_id: str) -> float:
        """Equation (9): the additive per-document score OptSelect ranks by.

        Ũ(d|q) = Σ_{q'∈S_q} [(1−λ)·P(d|q) + λ·P(q'|q)·Ũ(d|R_q')]
               = (1−λ)·|S_q|·P(d|q) + λ·Σ_{q'} P(q'|q)·Ũ(d|R_q')
        """
        lam = self.lambda_
        # One rounding per product and per add, left to right (built-in
        # ``sum`` compensates on Python >= 3.12):
        # repro.core.kernels.overall_utilities repeats this arithmetic.
        coverage = 0.0
        for spec, p_spec in self.specializations:
            coverage += p_spec * self.utilities.value(doc_id, spec)
        return (1.0 - lam) * len(self.specializations) * self.relevance_of(
            doc_id
        ) + lam * coverage

    def with_threshold(self, threshold: float) -> "DiversificationTask":
        """The same task with the utility threshold ``c`` re-applied."""
        return DiversificationTask(
            query=self.query,
            candidates=self.candidates,
            specializations=self.specializations,
            utilities=self.utilities.with_threshold(threshold),
            relevance=self.relevance,
            lambda_=self.lambda_,
            vectors=self.vectors,
        )

    def with_lambda(self, lambda_: float) -> "DiversificationTask":
        """The same task with a different mixing parameter (λ ablation)."""
        task = DiversificationTask(
            query=self.query,
            candidates=self.candidates,
            specializations=self.specializations,
            utilities=self.utilities,
            relevance=self.relevance,
            lambda_=lambda_,
            vectors=self.vectors,
        )
        # λ is not baked into the dense view, so the ablation sweep can
        # reuse an already-built one.
        task._arrays = self._arrays
        return task
