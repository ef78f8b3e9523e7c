"""Hand-built and randomized diversification tasks for algorithm tests.

The canonical fixture models the paper's running example: an ambiguous
query with a dominant and a minority interpretation, where the baseline
ranking is biased toward the dominant one.  :func:`random_task` is the
generator behind the randomized cross-implementation identity suite: a
seeded sweep over sizes, λ, thresholds and score/probability/utility
*distributions* — including heavy ties, the regime where a kernel
implementation diverges from its reference first.
"""

from __future__ import annotations

import random

from repro.core.ambiguity import SpecializationSet
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector


def build_task(
    utilities: dict[str, dict[str, float]],
    probabilities: dict[str, float],
    scores: list[tuple[str, float]],
    lambda_: float = 0.15,
    relevance_method: str = "sum",
) -> DiversificationTask:
    """Assemble a task from explicit utilities / probabilities / scores."""
    candidates = ResultList("q", scores)
    specializations = SpecializationSet.from_frequencies("q", probabilities)
    matrix = UtilityMatrix(utilities, candidates.doc_ids)
    return DiversificationTask.create(
        query="q",
        candidates=candidates,
        specializations=specializations,
        utilities=matrix,
        lambda_=lambda_,
        relevance_method=relevance_method,
    )


def two_intent_task(lambda_: float = 0.5) -> DiversificationTask:
    """Dominant intent A (p=0.75) vs minority intent B (p=0.25).

    Candidates a1..a4 serve A, b1..b2 serve B, junk1..junk2 serve nobody.
    The baseline score ranks all A docs above all B docs above junk.
    """
    scores = [
        ("a1", 10.0), ("a2", 9.0), ("a3", 8.0), ("a4", 7.0),
        ("b1", 6.0), ("b2", 5.0),
        ("junk1", 4.0), ("junk2", 3.0),
    ]
    utilities = {
        "q A": {"a1": 0.9, "a2": 0.8, "a3": 0.7, "a4": 0.6},
        "q B": {"b1": 0.9, "b2": 0.8},
    }
    probabilities = {"q A": 3.0, "q B": 1.0}
    return build_task(utilities, probabilities, scores, lambda_=lambda_)


def _random_scores(rng: random.Random, n: int) -> list[tuple[str, float]]:
    """Candidate scores under one of several realistic shapes."""
    shape = rng.choice(("inverse_rank", "uniform", "exponential", "tied"))
    doc_ids = [f"d{i:05d}" for i in range(n)]
    if shape == "inverse_rank":
        values = [1.0 / (i + 1) ** 0.5 for i in range(n)]
    elif shape == "uniform":
        values = sorted((rng.random() for _ in range(n)), reverse=True)
    elif shape == "exponential":
        values = [2.0 ** (-i * rng.uniform(0.05, 0.5)) for i in range(n)]
    else:  # heavy score ties: the tie-break torture case
        levels = [round(rng.random(), 1) for _ in range(max(1, n // 5))]
        values = sorted((rng.choice(levels) for _ in range(n)), reverse=True)
    return list(zip(doc_ids, values))


def _random_probabilities(
    rng: random.Random, num_specs: int
) -> dict[str, float]:
    """Specialization frequencies under one of several shapes."""
    shape = rng.choice(("zipf", "uniform", "dominant", "random"))
    if shape == "zipf":
        weights = [1.0 / (j + 1) for j in range(num_specs)]
    elif shape == "uniform":
        weights = [1.0] * num_specs
    elif shape == "dominant":
        weights = [10.0] + [rng.uniform(0.1, 1.0) for _ in range(num_specs - 1)]
    else:
        weights = [rng.uniform(0.1, 5.0) for _ in range(num_specs)]
    return {f"q spec{j}": weights[j] for j in range(num_specs)}


def random_task(seed: int) -> tuple[DiversificationTask, int]:
    """A seeded random (task, k) pair for the identity sweep.

    Varies every axis the kernels specialise on: candidate count, number
    of specializations (sometimes > k), utility density and value
    distribution (including constant utilities — pure tie-breaking), λ
    across [0, 1] inclusive of the extremes, the threshold *c*, and the
    score curve.  Sparse surrogate vectors are always attached so MMR
    runs on every generated task.
    """
    rng = random.Random(seed)
    utility_shape = rng.choice(("uniform", "heavy_tail", "binary"))
    if utility_shape == "binary":
        # The tie-torture regime: identical 0.5 utilities make documents
        # with *different* coverage patterns tie exactly.  Everything is
        # kept a (sum of few) power(s) of two — uniform probabilities
        # over 1/2/4/8 specializations, bounded selection depth — so all
        # scores are exactly representable and both implementations
        # compute bit-identical floats.  Ties are then decided purely by
        # the documented baseline-rank rule.  (Ties only up to rounding —
        # a group member ranked with |S_q| > k — are decided by the
        # kernels' rounding window, in the reference's arithmetic.)
        n = rng.randint(5, 40)
        num_specs = rng.choice((1, 2, 4, 8))
        k = rng.randint(1, 20)
        probabilities = {f"q spec{j}": 1.0 for j in range(num_specs)}
    else:
        n = rng.randint(5, 120)
        num_specs = rng.randint(1, 12)
        k = rng.randint(1, n + 5)  # occasionally > n: exercises capping
        probabilities = _random_probabilities(rng, num_specs)
    lambda_ = rng.choice((0.0, 1.0, rng.random(), rng.random()))
    density = rng.uniform(0.05, 0.9)
    scores = _random_scores(rng, n)
    doc_ids = [doc_id for doc_id, _ in scores]

    utilities: dict[str, dict[str, float]] = {}
    for spec in probabilities:
        row: dict[str, float] = {}
        for doc_id in doc_ids:
            if rng.random() >= density:
                continue
            if utility_shape == "uniform":
                row[doc_id] = rng.random()
            elif utility_shape == "heavy_tail":
                row[doc_id] = rng.random() ** 3
            else:  # identical utilities: selection is all tie-breaking
                row[doc_id] = 0.5
        utilities[spec] = row

    candidates = ResultList("q", scores)
    specializations = SpecializationSet.from_frequencies("q", probabilities)
    matrix = UtilityMatrix(utilities, doc_ids)
    if rng.random() < 0.3:
        matrix = matrix.with_threshold(round(rng.uniform(0.1, 0.7), 2))
    task = DiversificationTask.create(
        query="q",
        candidates=candidates,
        specializations=specializations,
        utilities=matrix,
        lambda_=lambda_,
        relevance_method=rng.choice(("sum", "minmax", "softmax", "reciprocal")),
    )
    vocabulary = [f"term{t}" for t in range(30)]
    task.vectors = {
        doc_id: TermVector(
            {
                term: rng.random()
                for term in rng.sample(vocabulary, rng.randint(0, 6))
            }
        )
        for doc_id in doc_ids
    }
    return task, k
