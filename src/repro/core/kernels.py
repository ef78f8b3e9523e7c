"""Shared numpy kernels of the greedy diversifiers.

Every kernel consumes a :class:`~repro.core.arrays.TaskArrays` (plus
scalars) and returns **candidate indices** in selection order; mapping
back to doc_ids, stats bookkeeping and the pure-Python fallbacks live in
:mod:`repro.core.fast`.  Keeping the kernels free of task/Diversifier
types makes them unit-testable on raw arrays.

Selection-equivalence contract (asserted in the test suite): each kernel
reproduces its reference implementation's ranking exactly, including tie
breaks.  The references break equal scores by baseline rank (first
maximiser in candidate order).  A BLAS mat-vec does not preserve that on
its own: it rounds a candidate's score differently depending on where its
column sits, so two candidates with bit-identical utilities can score one
ULP apart and the later one can win an ``argmax``.  The greedy kernels
therefore decide a pick on the BLAS scores only when no other candidate
lies within rounding of the best (:func:`rounding_window`); otherwise
they re-score the candidates inside that window in the reference's own
left-to-right arithmetic, and the first maximiser wins.  Eq. 9
(:func:`overall_utilities`) is evaluated in the reference's arithmetic
outright, and the bounded-retention kernel replicates
:class:`~repro.core.heaps.BoundedMaxHeap`'s earlier-insertion-wins rule
with a stable argsort.  That contract is what allows the kernel-backed
diversifiers to be the framework-wide *default*
(:func:`repro.core.framework.default_diversifier`): swapping the
kernels in or out changes latency, never a served ranking.
"""

from __future__ import annotations

import numpy as _np

from repro.core.arrays import TaskArrays

__all__ = [
    "overall_utilities",
    "xquad_select",
    "iaselect_select",
    "mmr_select",
    "bounded_retention",
]

#: ``bounded_retention`` switches from a full stable sort to an
#: ``argpartition`` partial top-k once the offered pool is this many
#: times larger than the capacity — below that a sort's cache behaviour
#: wins, above it the O(n) selection does.
PARTIAL_TOPK_FACTOR = 4

_EPS = float(_np.finfo(_np.float64).eps)


def rounding_window(m: int) -> float:
    """Relative width below a pick's best score that rounding can reach.

    A greedy score is a non-negative sum of at most m + 4 rounded terms,
    so BLAS (any summation order, with or without FMA) and the
    reference's left-to-right loop each land within (m + 4)·ε/2 of the
    exact value, relative to it; nothing cancels.  Two evaluations of two
    candidates misorder them only within 2(m + 4)·ε; this is twice that.
    The bound assumes no product underflows, which utilities in [0, 1]
    and probabilities of a real distribution keep far away.
    """
    return 4.0 * (m + 4) * _EPS


def overall_utilities(arrays: TaskArrays, lambda_: float) -> "_np.ndarray":
    """Equation (9) for every candidate at once.

    Ũ(d|q) = (1−λ)·|S_q|·P(d|q) + λ·Σ_{q'} P(q'|q)·Ũ(d|R_q') — the
    additive per-document score OptSelect ranks by.  The coverage sum
    runs over the specialization rows left to right, one rounding per
    product and per add, which is exactly
    :meth:`DiversificationTask.overall_utility`'s loop: OptSelect's sorts
    and its general-heap retention compare the reference's own values,
    and equal rows score equal wherever they sit.
    """
    coverage = _np.zeros(arrays.n)
    term = _np.empty(arrays.n)
    for p, row in zip(arrays.probabilities.tolist(), arrays.by_spec):
        _np.multiply(row, p, out=term)
        coverage += term
    return (1.0 - lambda_) * arrays.m * arrays.relevance + lambda_ * coverage


def _greedy(by_spec, weights, addend, k: int, rescore, take) -> list[int]:
    """The greedy loop shared by xQuAD and IASelect.

    A pick's scores are ``weights @ by_spec + addend``: one mat-vec plus
    a per-candidate term hoisted out of the loop, where the loop writes
    ``-inf`` once a candidate is taken.  ``rescore(near)`` returns the
    reference's scores of the candidate positions *near*; ``take(i)``
    updates *weights* in place for a pick.
    """
    window = rounding_window(len(weights))
    within = _np.empty(len(addend), dtype=bool)
    selected: list[int] = []
    while len(selected) < k:
        scores = weights @ by_spec
        scores += addend
        best = int(scores.argmax())
        top = float(scores[best])
        if top == 0.0:
            # Every remaining score is an exact 0 and a pick of zero gain
            # changes no state, so the reference takes the rest in
            # baseline order.
            rest = _np.flatnonzero(scores == 0.0)
            selected.extend(rest[: k - len(selected)].tolist())
            break
        _np.greater_equal(scores, top - top * window, out=within)
        if _np.count_nonzero(within) > 1:
            near = _np.flatnonzero(within)
            exact = rescore(near)
            best = int(near[exact.index(max(exact))])
        addend[best] = -_np.inf
        take(best)
        selected.append(best)
    return selected


def xquad_select(arrays: TaskArrays, lambda_: float, k: int) -> list[int]:
    """Greedy xQuAD (Eq. 5/6): one mat-vec per pick.

    A candidate scores λ·Σ_{q'} P(q'|q)·cov(q')·Ũ(d|R_q') + (1−λ)·P(d|q);
    the relevance term is computed once, outside the loop.
    """
    by_spec, probabilities = arrays.by_spec, arrays.probabilities
    relevance = (1.0 - lambda_) * arrays.relevance
    coverage = _np.ones(arrays.m)
    weights = probabilities * lambda_  # λ·P(q'|q)·cov(q'), updated in place

    def rescore(near) -> list[float]:
        # XQuAD.diversify's arithmetic: (1 − λ)·P(d|q) + λ·Σ P·Ũ·cov,
        # summed over covered specializations in order.
        terms = list(zip(probabilities.tolist(), coverage.tolist()))
        exact = []
        for base, column in zip(
            relevance[near].tolist(), by_spec[:, near].T.tolist()
        ):
            novelty = 0.0
            for (p, cov), utility in zip(terms, column):
                if cov > 0.0:
                    novelty += p * utility * cov
            exact.append(base + lambda_ * novelty)
        return exact

    def take(best: int) -> None:
        coverage[:] *= 1.0 - by_spec[:, best]
        _np.multiply(probabilities, coverage, out=weights)
        weights[:] *= lambda_

    return _greedy(
        by_spec, weights, relevance, min(k, arrays.n), rescore, take
    )


def iaselect_select(arrays: TaskArrays, k: int) -> list[int]:
    """Greedy IASelect: marginal gains against shrinking residuals.

    A candidate gains Σ_{q'} W(q')·Ũ(d|R_q'), W(q') = P(q'|q)·Π(1 − Ũ)
    over the picks so far.
    """
    by_spec = arrays.by_spec
    residual = arrays.probabilities.copy()  # W(q'), updated in place

    def rescore(near) -> list[float]:
        # IASelect.diversify's arithmetic: Σ W(q')·Ũ over W(q') > 0.
        weights = residual.tolist()
        exact = []
        for column in by_spec[:, near].T.tolist():
            gain = 0.0
            for weight, utility in zip(weights, column):
                if weight > 0.0:
                    gain += weight * utility
            exact.append(gain)
        return exact

    def take(best: int) -> None:
        residual[:] *= 1.0 - by_spec[:, best]

    return _greedy(
        by_spec, residual, _np.zeros(arrays.n), min(k, arrays.n), rescore, take
    )


def mmr_select(
    similarity: "_np.ndarray",
    relevance: "_np.ndarray",
    lambda_: float,
    k: int,
) -> list[int]:
    """Greedy MMR over a precomputed candidate-candidate cosine matrix.

    ``redundancy`` is the running max similarity to the selected set —
    one vectorised ``maximum`` per pick instead of |S| cosines per
    remaining candidate.
    """
    n = len(relevance)
    redundancy = _np.zeros(n)
    taken = _np.zeros(n, dtype=bool)
    selected: list[int] = []
    for _ in range(min(k, n)):
        scores = lambda_ * relevance - (1.0 - lambda_) * redundancy
        scores[taken] = -_np.inf
        best = int(_np.argmax(scores))
        if scores[best] == -_np.inf:
            break
        taken[best] = True
        selected.append(best)
        redundancy = _np.maximum(redundancy, similarity[best])
    return selected


def bounded_retention(
    values: "_np.ndarray",
    capacity: int,
    offered: "_np.ndarray | None" = None,
) -> "_np.ndarray":
    """Indices a :class:`BoundedMaxHeap` of *capacity* would retain.

    ``offered`` are the candidate indices pushed, in index (= insertion)
    order; ``None`` offers every index.  The heap keeps the
    top-*capacity* by ``values``, earlier insertions winning ties.  A
    stable argsort on ``-values`` reproduces that rule: equal values stay
    in ascending-index (insertion) order.  Returned indices are ascending
    (candidate order).

    When the capacity is small relative to the offered pool (k ≪ n — the
    paper-scale serving regime: |R_q| = 25k candidates feeding heaps of
    ⌊k·P⌋+1) the full O(n log n) sort is replaced by an O(n)
    ``argpartition``: everything strictly above the capacity-th largest
    value is retained, and the boundary ties are filled earliest-index
    first — exactly the heap's earlier-insertion-wins rule, so the
    retained set is identical to the stable-sort path's.
    """
    if offered is None:
        offered = _np.arange(len(values))
    if capacity <= 0:
        return offered[:0]
    if len(offered) > capacity:
        vals = values[offered]
        if len(offered) >= PARTIAL_TOPK_FACTOR * capacity:
            part = _np.argpartition(-vals, capacity - 1)
            threshold = vals[part[capacity - 1]]
            keep = _np.nonzero(vals > threshold)[0]
            tied = _np.nonzero(vals == threshold)[0]
            keep = _np.concatenate([keep, tied[: capacity - len(keep)]])
            offered = _np.sort(offered[keep])
        else:
            order = _np.argsort(-vals, kind="stable")
            offered = _np.sort(offered[order[:capacity]])
    return offered
