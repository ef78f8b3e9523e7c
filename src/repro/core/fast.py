"""Kernel-backed (numpy) variants of all four diversifiers.

The reference implementations in :mod:`repro.core.optselect`,
:mod:`repro.core.xquad`, :mod:`repro.core.iaselect` and
:mod:`repro.core.mmr` are pure Python and instrumented — they are what
the complexity experiments measure.  Their per-iteration dict loops make
the paper's largest Table 2 cells (|R_q| = 100k, k = 1000) take tens of
minutes in the interpreter, so this module provides drop-in variants
built on the shared dense layer:

* :class:`~repro.core.arrays.TaskArrays` — the ``(doc_ids, U[m×n],
  p[m], rel[n])`` view built once per task (``task.arrays()``);
* :mod:`repro.core.kernels` — the common numpy selection kernels.

The asymptotics are unchanged (the paper's point survives vectorisation —
OptSelect still wins by ~k/log k); only the constant shrinks.  The
``select_scaling`` workload of ``bench/`` measures the kernels at Table 2
scale; its traced split (``select.xquad_over_optselect``) is the paper's
gap as the kernels realise it.

**Selection-identical guarantee.**  Every ``Fast*`` class reproduces its
reference implementation's ranking *exactly*, including tie breaks
(baseline rank everywhere — decided in the reference's own arithmetic
inside a rounding window, see :mod:`repro.core.kernels`;
earlier-insertion-wins in the bounded-heap phase).  The test suite
asserts equality on randomised tasks and on candidates that share
identical utility rows.  That
guarantee is what lets these classes be the library **default**:
:func:`repro.core.framework.default_diversifier` returns
:class:`FastOptSelect`, so a framework or serving layer built without an
explicit diversifier runs on the kernels.  The instrumented pure-Python
references remain what the complexity experiments (Tables 1 and 2)
measure, chosen there with ``use_fast=False``.
"""

from __future__ import annotations

import math

from repro.core import kernels
from repro.core.arrays import TaskArrays
from repro.core.base import Diversifier, DiversifierStats
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.task import DiversificationTask

import numpy as _np

__all__ = [
    "FastOptSelect",
    "FastXQuAD",
    "FastIASelect",
    "FastMMR",
    "get_fast_diversifier",
]


def _truncated_arrays(task: DiversificationTask, k: int) -> TaskArrays:
    """The task's dense view, truncated to its k most probable
    specializations exactly like ``SpecializationSet.top(k)``."""
    arrays = task.arrays()
    if arrays.m > k:
        arrays = arrays.head(k)
    return arrays


class FastXQuAD(Diversifier):
    """Vectorised xQuAD; selection-identical to :class:`~repro.core.xquad.XQuAD`.

    Ties are broken by baseline rank exactly as in the reference: a pick
    whose best score has a rival within rounding is re-decided in the
    reference's arithmetic, first (lowest-rank) maximiser winning.
    """

    name = "xQuAD-fast"

    def diversify(self, task: DiversificationTask, k: int) -> list[str]:
        k = self._check_k(task, k)
        stats = DiversifierStats()
        arrays = _truncated_arrays(task, k)
        picks = kernels.xquad_select(arrays, task.lambda_, k)
        stats.marginal_updates = arrays.by_spec.size * len(picks)
        stats.operations = stats.marginal_updates
        stats.selected = len(picks)
        self.last_stats = stats
        return [arrays.doc_ids[i] for i in picks]


class FastIASelect(Diversifier):
    """Vectorised IASelect; selection-identical to the reference.

    The reference breaks ties (zero-gain ones included) by baseline rank;
    the kernel decides near-ties in the reference's arithmetic and takes
    an all-zero tail in baseline order.
    """

    name = "IASelect-fast"

    def diversify(self, task: DiversificationTask, k: int) -> list[str]:
        k = self._check_k(task, k)
        stats = DiversifierStats()
        arrays = _truncated_arrays(task, k)
        picks = kernels.iaselect_select(arrays, k)
        stats.marginal_updates = arrays.by_spec.size * len(picks)
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
    selection phase unchanged.  :func:`kernels.overall_utilities` computes
    the reference's own Eq. 9 values and :func:`kernels.bounded_retention`
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
        stats.marginal_updates += arrays.n * max(1, len(specializations))
        return kernels.overall_utilities(arrays, task.lambda_)

    def _build_pools(self, task, specializations, overall, k, stats):
        arrays = _truncated_arrays(task, k)
        useful_mask = _np.zeros(arrays.n, dtype=bool)
        spec_pools: dict[str, list[tuple[float, int]]] = {}
        pushes = 0
        for row, (spec, p) in zip(arrays.by_spec, specializations):
            positive = row > 0.0
            offered = _np.nonzero(positive)[0]
            useful_mask |= positive
            pushes += len(offered)
            capacity = math.floor(k * p) + 1
            retained = kernels.bounded_retention(row, capacity, offered)
            spec_pools[spec] = _ranked(overall, retained)

        not_useful = _np.nonzero(~useful_mask)[0]
        pushes += len(not_useful)
        retained = kernels.bounded_retention(overall[not_useful], k)
        general_pool = _ranked(overall, not_useful[retained])

        stats.heap_pushes = pushes
        stats.operations = stats.heap_pushes
        return spec_pools, general_pool


def _ranked(overall, positions) -> list[tuple[float, int]]:
    """``(−Ũ(d|q), position)`` pairs of ascending *positions*, best first.

    A stable sort keeps equal overall utilities in position (baseline)
    order — the reference's ``sorted`` on the same pairs.
    """
    keys = -overall[positions]
    order = _np.argsort(keys, kind="stable")
    return list(zip(keys[order].tolist(), positions[order].tolist()))


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
