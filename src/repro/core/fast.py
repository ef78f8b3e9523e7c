"""Kernel-backed (numpy) variants of all four diversifiers.

The reference implementations in :mod:`repro.core.optselect`,
:mod:`repro.core.xquad`, :mod:`repro.core.iaselect` and
:mod:`repro.core.mmr` are pure Python and instrumented — they are what
the complexity experiments measure.  Their per-iteration dict loops make
the paper's largest Table 2 cells (|R_q| = 100k, k = 1000) take tens of
minutes in the interpreter, so this module provides drop-in variants
built on the shared dense layer:

* :class:`~repro.core.arrays.TaskArrays` — the ``(doc_ids, U[n×m],
  p[m], rel[n])`` view built once per task (``task.arrays()``);
* :mod:`repro.core.kernels` — the common numpy selection kernels.

The asymptotics are unchanged (the paper's point survives vectorisation —
OptSelect still wins by ~k/log k); only the constant shrinks by ~50×.

**Selection-identical guarantee.**  Every ``Fast*`` class reproduces its
reference implementation's ranking *exactly*, including tie breaks
(baseline rank everywhere; earlier-insertion-wins in the bounded-heap
phase).  The test suite asserts equality on randomised tasks.  That
guarantee is what lets these classes be the library **default**: when
numpy is importable, :func:`repro.core.framework.default_diversifier`
returns :class:`FastOptSelect`, so a framework or serving layer built
without an explicit diversifier runs on the kernels.  The instrumented
pure-Python references remain what the complexity experiments (Tables 1
and 2) measure, and what the default falls back to without numpy.

numpy is an optional dependency: importing this module without numpy
installed raises ``ImportError`` with a clear message, and the rest of
the library is unaffected.
"""

from __future__ import annotations

import math

from repro.core import kernels
from repro.core.arrays import BatchArrays, TaskArrays, stacked_similarity
from repro.core.base import Diversifier, DiversifierStats
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.profiling import NULL_TIMER
from repro.core.task import DiversificationTask

import numpy as _np

__all__ = [
    "FastOptSelect",
    "FastXQuAD",
    "FastIASelect",
    "FastMMR",
    "get_fast_diversifier",
    "fused_capable",
    "fused_shape",
    "diversify_fused",
]


def _dense_inputs(task: DiversificationTask):
    """(doc_ids, U[n×m], p[m], rel[n]) dense views of the task.

    Retained for backwards compatibility; the dense view now lives in
    :class:`~repro.core.arrays.TaskArrays` and is memoized on the task.
    """
    arrays = task.arrays()
    return arrays.doc_ids, arrays.utilities, arrays.probabilities, arrays.relevance


def _truncated_arrays(task: DiversificationTask, k: int) -> TaskArrays:
    """The task's dense view, truncated to its k most probable
    specializations exactly like ``SpecializationSet.top(k)``."""
    arrays = task.arrays()
    if arrays.m > k:
        arrays = arrays.head(k)
    return arrays


class FastXQuAD(Diversifier):
    """Vectorised xQuAD; selection-identical to :class:`~repro.core.xquad.XQuAD`.

    Ties are broken by baseline rank exactly as in the reference: scores
    are compared in candidate order and ``argmax`` returns the first
    (lowest-rank) maximiser.
    """

    name = "xQuAD-fast"

    def diversify(self, task: DiversificationTask, k: int) -> list[str]:
        k = self._check_k(task, k)
        stats = DiversifierStats()
        arrays = _truncated_arrays(task, k)
        picks = kernels.xquad_select(arrays, task.lambda_, k)
        stats.marginal_updates = arrays.utilities.size * len(picks)
        stats.operations = stats.marginal_updates
        stats.selected = len(picks)
        self.last_stats = stats
        return [arrays.doc_ids[i] for i in picks]


class FastIASelect(Diversifier):
    """Vectorised IASelect; selection-identical to the reference.

    The reference breaks zero-gain ties by baseline rank; ``argmax`` over
    candidate order reproduces that.
    """

    name = "IASelect-fast"

    def diversify(self, task: DiversificationTask, k: int) -> list[str]:
        k = self._check_k(task, k)
        stats = DiversifierStats()
        arrays = _truncated_arrays(task, k)
        picks = kernels.iaselect_select(arrays, k)
        stats.marginal_updates = arrays.utilities.size * len(picks)
        stats.operations = stats.marginal_updates
        stats.selected = len(picks)
        self.last_stats = stats
        return [arrays.doc_ids[i] for i in picks]


class FastMMR(MMR):
    """Vectorised MMR; selection-identical to :class:`~repro.core.mmr.MMR`.

    The candidate-candidate cosine matrix is materialised once from the
    task's surrogate vectors (cached on the dense view); each greedy pick
    then costs one vectorised max-update instead of |S| sparse cosines
    per remaining candidate.
    """

    name = "MMR-fast"

    def diversify(self, task: DiversificationTask, k: int) -> list[str]:
        k = self._check_k(task, k)
        if not task.vectors:
            raise ValueError(
                "MMR needs candidate surrogate vectors in task.vectors"
            )
        stats = DiversifierStats()
        arrays = task.arrays()
        similarity = arrays.similarity_matrix(task.vectors)
        picks = kernels.mmr_select(
            similarity, arrays.relevance, self.lambda_, k
        )
        stats.marginal_updates = arrays.n * len(picks)
        stats.operations = stats.marginal_updates
        stats.selected = len(picks)
        self.last_stats = stats
        return [arrays.doc_ids[i] for i in picks]


class FastOptSelect(OptSelect):
    """Kernel-backed OptSelect; selection-identical to the reference.

    Overrides the two O(n·|S_q|) stages of Algorithm 2 — the Eq. 9 pass
    and the heap routing — with dense kernels, and inherits the
    selection phase unchanged.  :func:`kernels.bounded_retention`
    replicates :class:`~repro.core.heaps.BoundedMaxHeap`'s
    earlier-insertion-wins tie rule, so the retained pools (and hence
    the final ranking) match the reference exactly.
    """

    name = "OptSelect-fast"

    def _overall_utilities(self, task, specializations, stats):
        # Eq. 9 uses the task's *full* specialization set (the reference
        # truncates only the heap phase), so the kernel runs on the
        # untruncated arrays.
        arrays = task.arrays()
        overall = kernels.overall_utilities(arrays, task.lambda_)
        stats.marginal_updates += arrays.n * max(1, len(specializations))
        return dict(zip(arrays.doc_ids, overall.tolist()))

    def _build_pools(self, task, specializations, overall, k, stats):
        arrays = _truncated_arrays(task, k)
        utilities = arrays.utilities
        doc_ids = arrays.doc_ids
        rank_of = task.candidates.rank_of

        useful_mask = _np.zeros(arrays.n, dtype=bool)
        spec_pools: dict[str, list[str]] = {}
        pushes = 0
        for j, (spec, p) in enumerate(specializations):
            column = utilities[:, j]
            positive = column > 0.0
            offered = _np.nonzero(positive)[0]
            useful_mask |= positive
            pushes += len(offered)
            capacity = math.floor(k * p) + 1
            retained = kernels.bounded_retention(column, capacity, offered)
            docs = [doc_ids[i] for i in retained]
            docs.sort(key=lambda d: (-overall[d], rank_of(d)))
            spec_pools[spec] = docs

        not_useful = _np.nonzero(~useful_mask)[0]
        pushes += len(not_useful)
        overall_values = _np.array([overall[doc_ids[i]] for i in not_useful])
        retained = kernels.bounded_retention(overall_values, k)
        general_pool = [doc_ids[not_useful[i]] for i in retained]
        general_pool.sort(key=lambda d: (-overall[d], rank_of(d)))

        stats.heap_pushes = pushes
        stats.operations = stats.heap_pushes
        return spec_pools, general_pool


# ---------------------------------------------------------------------------
# Cross-query fused execution
# ---------------------------------------------------------------------------
#
# A batch of same-algorithm tasks can be pushed through the batched
# kernels in :mod:`repro.core.kernels` as one padded 3-D stack instead of
# a Python loop of per-query kernel launches.  The executors below do the
# stacking, kernel dispatch and map-back per algorithm; grouping policy
# (which tasks to stack together, when padding is too wasteful) lives in
# the serving layer's planner, which calls :func:`fused_shape` to reason
# about shapes and :func:`diversify_fused` to execute a group.
#
# The selection-identity contract extends unchanged: for every task in
# the group, the fused ranking equals ``diversifier.diversify(task, k)``
# including tie breaks.  The ``timer`` hooks receive the service's
# ``profiler`` (a :class:`~repro.core.profiling.StageTimer` when set).


def _record_stats(diversifier, arrays: TaskArrays, picks) -> None:
    """Mirror the per-query classes' stats bookkeeping for one task."""
    stats = DiversifierStats()
    stats.marginal_updates = arrays.utilities.size * len(picks)
    stats.operations = stats.marginal_updates
    stats.selected = len(picks)
    diversifier.last_stats = stats


def _fused_xquad(diversifier, tasks, k, timer):
    with timer.stage("densify"):
        arrays_list = [
            _truncated_arrays(task, diversifier._check_k(task, k))
            for task in tasks
        ]
        batch = BatchArrays(arrays_list)
    with timer.stage("select"):
        lambdas = _np.array([task.lambda_ for task in tasks])
        picks = kernels.xquad_select_batch(batch, lambdas, k)
    with timer.stage("map-back"):
        rankings = []
        for arrays, sel in zip(arrays_list, picks):
            rankings.append([arrays.doc_ids[i] for i in sel])
            _record_stats(diversifier, arrays, sel)
    return rankings


def _fused_iaselect(diversifier, tasks, k, timer):
    with timer.stage("densify"):
        arrays_list = [
            _truncated_arrays(task, diversifier._check_k(task, k))
            for task in tasks
        ]
        batch = BatchArrays(arrays_list)
    with timer.stage("select"):
        picks = kernels.iaselect_select_batch(batch, k)
    with timer.stage("map-back"):
        rankings = []
        for arrays, sel in zip(arrays_list, picks):
            rankings.append([arrays.doc_ids[i] for i in sel])
            _record_stats(diversifier, arrays, sel)
    return rankings


def _fused_mmr(diversifier, tasks, k, timer):
    for task in tasks:
        if not task.vectors:
            raise ValueError(
                "MMR needs candidate surrogate vectors in task.vectors"
            )
    with timer.stage("densify"):
        arrays_list = [task.arrays() for task in tasks]
        batch = BatchArrays(arrays_list)
        similarity = stacked_similarity(
            batch, [task.vectors for task in tasks]
        )
    with timer.stage("select"):
        picks = kernels.mmr_select_batch(
            similarity, batch.relevance, batch.valid, diversifier.lambda_, k
        )
    with timer.stage("map-back"):
        rankings = []
        for arrays, sel in zip(arrays_list, picks):
            rankings.append([arrays.doc_ids[i] for i in sel])
            stats = DiversifierStats()
            stats.marginal_updates = arrays.n * len(sel)
            stats.operations = stats.marginal_updates
            stats.selected = len(sel)
            diversifier.last_stats = stats
    return rankings


def _fused_optselect(diversifier, tasks, k, timer):
    # Eq. 9 uses the full specialization set, so the stacked matmul runs
    # on the untruncated arrays; the heap/selection machinery then runs
    # per query through OptSelect._select, unchanged — which is what
    # keeps the fused ranking identical to the per-query one.
    with timer.stage("densify"):
        arrays_list = [task.arrays() for task in tasks]
        batch = BatchArrays(arrays_list)
    with timer.stage("score"):
        lambdas = _np.array([task.lambda_ for task in tasks])
        overall = kernels.overall_utilities_batch(batch, lambdas)
    rankings = []
    with timer.stage("select"):
        for b, task in enumerate(tasks):
            kk = diversifier._check_k(task, k)
            stats = DiversifierStats()
            specializations = task.specializations
            if len(specializations) > kk:
                specializations = specializations.top(kk)
            arrays = arrays_list[b]
            scores = dict(
                zip(arrays.doc_ids, overall[b, : arrays.n].tolist())
            )
            stats.marginal_updates += arrays.n * max(1, len(specializations))
            rankings.append(
                diversifier._select(task, specializations, scores, kk, stats)
            )
    return rankings


#: Exact type → group executor.  Exact-type matching is deliberate: a
#: subclass may override per-query behaviour the fused path knows nothing
#: about, so anything not literally one of the four Fast classes falls
#: back to the per-query loop.
_FUSED_EXECUTORS = {
    FastOptSelect: _fused_optselect,
    FastXQuAD: _fused_xquad,
    FastIASelect: _fused_iaselect,
    FastMMR: _fused_mmr,
}


def fused_capable(diversifier: Diversifier) -> bool:
    """True iff *diversifier* has a fused group executor."""
    return type(diversifier) in _FUSED_EXECUTORS


def fused_shape(
    diversifier: Diversifier, task: DiversificationTask, k: int
) -> tuple[int, int]:
    """Rows × cols of the dominant stacked tensor *task* contributes.

    This is what the serving planner buckets and pads on: xQuAD and
    IASelect stack their k-truncated utility matrices, OptSelect its full
    Eq. 9 matrix, MMR its n × n cosine matrix.  The planner uses these
    shapes both to group compatible queries and to account pad fill.
    """
    arrays = task.arrays()
    kind = type(diversifier)
    if kind is FastMMR:
        return arrays.n, arrays.n
    if kind is FastOptSelect:
        return arrays.n, max(1, arrays.m)
    return arrays.n, max(1, min(arrays.m, min(k, arrays.n)))


def diversify_fused(
    diversifier: Diversifier,
    tasks: list[DiversificationTask],
    k: int,
    timer=NULL_TIMER,
) -> list[list[str]]:
    """Diversify a same-algorithm group of tasks through batched kernels.

    Returns one ranking per task, in task order; each equals
    ``diversifier.diversify(task, k)`` exactly, including tie breaks.
    Raises ``ValueError`` for diversifiers without a fused executor
    (check :func:`fused_capable` first).
    """
    try:
        executor = _FUSED_EXECUTORS[type(diversifier)]
    except KeyError:
        raise ValueError(
            f"no fused executor for {type(diversifier).__name__}; "
            "use the per-query diversify loop"
        ) from None
    if not tasks:
        return []
    return executor(diversifier, tasks, k, timer)


def get_fast_diversifier(name: str, **kwargs) -> Diversifier:
    """Instantiate a kernel-backed algorithm by its paper name.

    Accepts the same names as
    :func:`repro.core.framework.get_diversifier` (case-insensitive,
    with or without a ``-fast`` suffix).
    """
    registry = {
        "optselect": FastOptSelect,
        "iaselect": FastIASelect,
        "xquad": FastXQuAD,
        "mmr": FastMMR,
    }
    key = name.lower().removesuffix("-fast")
    try:
        factory = registry[key]
    except KeyError:
        raise ValueError(
            f"unknown diversifier {name!r}; choose from {sorted(registry)}"
        ) from None
    return factory(**kwargs)
