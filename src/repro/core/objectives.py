"""The paper's equations, evaluated literally: the test oracles.

Eq. (1)'s utility pair by pair (:func:`utility`, :func:`normalized_utility`
— the reference :meth:`~repro.core.utility.UtilityMatrix.build` is held
to) and the objective functions of the three problem formulations.  The
objectives are the *evaluation* side of Section 3: given a selected set S
they compute the value each formulation assigns to it.  The algorithms
themselves never call these (that would defeat the complexity analysis);
tests and ablation benches use them to check:

* IASelect's greedy value is within (1 − 1/e) of a brute-force optimum on
  small instances (the Nemhauser bound for submodular maximisation),
* OptSelect returns a maximiser of the additive objective (Eq. 8) when the
  proportionality constraint is inactive,
* the proportionality constraint of MaxUtility Diversify(k) holds.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence

from repro.core.task import DiversificationTask
from repro.core.utility import harmonic_number
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector, cosine

__all__ = [
    "utility",
    "normalized_utility",
    "ql_diversify_objective",
    "max_utility_objective",
    "xquad_step_score",
    "coverage_counts",
    "satisfies_proportionality",
    "brute_force_best",
]


def utility(
    candidate_vector: TermVector,
    spec_results: ResultList,
    vectors: Mapping[str, TermVector],
) -> float:
    """Equation (1): raw utility of a candidate for one specialization.

    ``vectors`` must contain the surrogate vector of every document in
    *spec_results*; documents missing a vector contribute zero (they have
    no textual evidence).
    """
    total = 0.0
    for result in spec_results:
        spec_vector = vectors.get(result.doc_id)
        if spec_vector is None:
            continue
        similarity = cosine(candidate_vector, spec_vector)
        if similarity > 0.0:
            total += similarity / result.rank
    return total


def normalized_utility(
    candidate_vector: TermVector,
    spec_results: ResultList,
    vectors: Mapping[str, TermVector],
    threshold: float = 0.0,
) -> float:
    """Ũ of Definition 2, with the Section 5 threshold ``c`` applied.

    Values below *threshold* are forced to exactly 0, as the paper does
    ("we forced its returning value to be 0 when it is below a given
    threshold c").
    """
    n = len(spec_results)
    if n == 0:
        return 0.0
    value = utility(candidate_vector, spec_results, vectors) / harmonic_number(n)
    # Floating-point safety: Ũ is mathematically in [0, 1].
    value = min(1.0, max(0.0, value))
    if value < threshold:
        return 0.0
    return value


def ql_diversify_objective(task: DiversificationTask, selected: Iterable[str]) -> float:
    """Equation (4): P(S|q) = Σ_q' P(q'|q)·(1 − Π_{d∈S}(1 − Ũ(d|R_q')))."""
    docs = list(selected)
    total = 0.0
    for spec, p in task.specializations:
        miss = 1.0
        for doc_id in docs:
            miss *= 1.0 - task.utilities.value(doc_id, spec)
        total += p * (1.0 - miss)
    return total


def max_utility_objective(task: DiversificationTask, selected: Iterable[str]) -> float:
    """Equations (7)/(8): Ũ(S|q) = Σ_{d∈S} Ũ(d|q) — additive."""
    return sum(task.overall_utility(doc_id) for doc_id in selected)


def xquad_step_score(
    task: DiversificationTask, selected: Sequence[str], doc_id: str
) -> float:
    """Equation (5) for candidate *doc_id* given current solution S.

    (1 − λ)·P(d|q) + λ·Σ_q' P(q'|q)·Ũ(d|R_q')·Π_{dj∈S}(1 − Ũ(dj|R_q'))
    """
    novelty = 0.0
    for spec, p in task.specializations:
        cov = 1.0
        for dj in selected:
            cov *= 1.0 - task.utilities.value(dj, spec)
        novelty += p * task.utilities.value(doc_id, spec) * cov
    return (1.0 - task.lambda_) * task.relevance_of(doc_id) + task.lambda_ * novelty


def coverage_counts(task: DiversificationTask, selected: Iterable[str]) -> dict[str, int]:
    """Per-specialization |S ⋈ q'| — how many selected docs are useful."""
    docs = list(selected)
    return {
        spec: sum(1 for d in docs if task.utilities.is_useful(d, spec))
        for spec, _ in task.specializations
    }


def satisfies_proportionality(
    task: DiversificationTask, selected: Iterable[str], k: int
) -> bool:
    """Check MaxUtility Diversify(k)'s constraint |S ⋈ q'| ≥ ⌊k·P(q'|q)⌋.

    The constraint can only be demanded up to what the candidate set
    offers: if fewer than ⌊k·P⌋ useful candidates exist at all, the bound
    drops to that number (the paper assumes rich candidate sets).
    """
    counts = coverage_counts(task, selected)
    for spec, p in task.specializations:
        available = len(task.utilities.useful_docs(spec))
        required = min(int(k * p), available)
        if counts.get(spec, 0) < required:
            return False
    return True


def brute_force_best(
    task: DiversificationTask,
    k: int,
    objective,
) -> tuple[tuple[str, ...], float]:
    """Exhaustively maximise *objective* over all k-subsets of candidates.

    Exponential — only for tiny test instances (n ≤ ~15).
    """
    best_set: tuple[str, ...] = ()
    best_value = float("-inf")
    for combo in itertools.combinations(task.candidates.doc_ids, k):
        value = objective(task, combo)
        if value > best_value:
            best_set, best_value = combo, value
    return best_set, best_value
