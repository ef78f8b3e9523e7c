"""Shared numpy kernels of the greedy diversifiers.

Every kernel consumes a :class:`~repro.core.arrays.TaskArrays` (plus
scalars) and returns **candidate indices** in selection order; mapping
back to doc_ids, stats bookkeeping and the pure-Python fallbacks live in
:mod:`repro.core.fast`.  Keeping the kernels free of task/Diversifier
types makes them unit-testable on raw arrays.

Selection-equivalence contract (asserted in the test suite): each kernel
reproduces its reference implementation's ranking exactly, including tie
breaks.  Ties are broken by baseline rank everywhere, which ``argmax``
over candidate-ordered arrays yields for free (first maximiser wins), and
the bounded-retention kernel replicates
:class:`~repro.core.heaps.BoundedMaxHeap`'s earlier-insertion-wins rule
with a stable argsort.  That contract is what allows the kernel-backed
diversifiers to be the framework-wide *default* whenever numpy is
present (:func:`repro.core.framework.default_diversifier`): swapping the
kernels in or out changes latency, never a served ranking.
"""

from __future__ import annotations

try:
    import numpy as _np
except ImportError as _exc:  # pragma: no cover - environment dependent
    raise ImportError(
        "repro.core.kernels requires numpy; install it or use the "
        "pure-Python algorithms in repro.core"
    ) from _exc

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


def overall_utilities(arrays: TaskArrays, lambda_: float) -> "_np.ndarray":
    """Equation (9) for every candidate at once.

    Ũ(d|q) = (1−λ)·|S_q|·P(d|q) + λ·Σ_{q'} P(q'|q)·Ũ(d|R_q') — the
    additive per-document score OptSelect ranks by; one dense
    matrix-vector product replaces n·m dict lookups.
    """
    coverage = arrays.utilities @ arrays.probabilities
    return (1.0 - lambda_) * arrays.m * arrays.relevance + lambda_ * coverage


def xquad_select(arrays: TaskArrays, lambda_: float, k: int) -> list[int]:
    """Greedy xQuAD (Eq. 5/6): k passes of one dense mat-vec each."""
    coverage = _np.ones(arrays.m)
    taken = _np.zeros(arrays.n, dtype=bool)
    selected: list[int] = []
    for _ in range(min(k, arrays.n)):
        novelty = arrays.utilities @ (arrays.probabilities * coverage)
        scores = (1.0 - lambda_) * arrays.relevance + lambda_ * novelty
        scores[taken] = -_np.inf
        best = int(_np.argmax(scores))
        if scores[best] == -_np.inf:
            break
        taken[best] = True
        selected.append(best)
        coverage *= 1.0 - arrays.utilities[best]
    return selected


def iaselect_select(arrays: TaskArrays, k: int) -> list[int]:
    """Greedy IASelect: marginal gains against shrinking residuals."""
    residual = arrays.probabilities.copy()
    taken = _np.zeros(arrays.n, dtype=bool)
    selected: list[int] = []
    for _ in range(min(k, arrays.n)):
        gains = arrays.utilities @ residual
        gains[taken] = -_np.inf
        best = int(_np.argmax(gains))
        if gains[best] == -_np.inf:
            break
        taken[best] = True
        selected.append(best)
        residual *= 1.0 - arrays.utilities[best]
    return selected


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
