"""OptSelect — the paper's algorithm for MaxUtility Diversify(k).

Section 3.1.3 relaxes Agrawal et al.'s coverage objective into a purely
additive one (Eq. 7/8): the utility of a set is the sum of per-document
overall utilities Ũ(d|q) (Eq. 9).  Maximising an additive objective is a
top-k selection — no marginal-gain recomputation — subject to the
constraint that "every specialization is covered proportionally to its
probability" (at least ⌊k·P(q'|q)⌋ useful results per specialization).

Algorithm 2 (Appendix A) realises this with bounded heaps:

* one heap ``M_q'`` of capacity ``⌊k·P(q'|q)⌋ + 1`` per specialization,
  keeping the documents **most useful for that specialization**
  (retention ordered by Ũ(d|R_q'), line 06: pushed iff Ũ(d|R_q') > 0);
* one general heap ``M`` of capacity ``k`` receiving documents useful for
  no specialization (their Eq. 9 score reduces to the relevance term);
* a selection phase that pops "d with the max Ũ(d|q)" — the *overall*
  utility — first once per non-empty specialization heap (lines 07–09,
  guaranteeing coverage) and then fills ``S`` up to ``k`` (lines 10–12).

Every push costs O(log k), and each document is pushed at most once per
specialization, giving the paper's O(n·|S_q|·log k) bound (Table 1); the
selection phase touches only the O(k·|S_q|) retained entries.

Faithfulness note: the printed pseudocode fills the tail
of ``S`` only from ``M``.  When most candidates are useful for some
specialization (the common case) ``M`` holds too few documents to reach
``k`` and the proportionality constraint would never bind.  The default
mode therefore also drains the specialization heaps — up to their quota
``⌊k·P⌋ + 1``, best overall utility first — before topping up from the
baseline ranking.  ``strict_paper_pseudocode=True`` reproduces the
literal pseudocode instead (and may return fewer than *k* documents).
"""

from __future__ import annotations

import math

from repro.core.base import Diversifier, DiversifierStats
from repro.core.heaps import BoundedMaxHeap
from repro.core.task import DiversificationTask

__all__ = ["OptSelect"]


class OptSelect(Diversifier):
    """Heap-based optimal selection for the additive utility objective.

    Parameters
    ----------
    strict_paper_pseudocode:
        When True, follow Algorithm 2 to the letter (one pop per
        specialization heap, then fill from the general heap only); the
        returned list may then be shorter than *k*.  Default False — see
        the module docstring.
    """

    name = "OptSelect"

    def __init__(self, strict_paper_pseudocode: bool = False) -> None:
        super().__init__()
        self.strict_paper_pseudocode = strict_paper_pseudocode

    def diversify(self, task: DiversificationTask, k: int) -> list[str]:
        k = self._check_k(task, k)
        stats = DiversifierStats()

        # "if |S_q| > k we select from S_q the k specializations with the
        # largest probabilities" (Section 3.1.3).
        specializations = task.specializations
        if len(specializations) > k:
            specializations = specializations.top(k)

        overall = self._overall_utilities(task, specializations, stats)
        spec_pools, general_pool = self._build_pools(
            task, specializations, overall, k, stats
        )

        # The selection phase works on candidate positions (baseline rank
        # − 1); pools hold (−Ũ(d|q), position) pairs, best first.
        # Lines 07-09: guarantee every non-empty specialization one slot,
        # most probable specialization first.
        selected: list[int] = []
        chosen: set[int] = set()
        consumed: dict[str, int] = {}
        for spec, _p in specializations:
            pool = spec_pools[spec]
            i = 0
            while i < len(pool) and len(selected) < k:
                position = pool[i][1]
                i += 1
                if position not in chosen:
                    chosen.add(position)
                    selected.append(position)
                    break
            consumed[spec] = i

        if self.strict_paper_pseudocode:
            for _key, position in general_pool:
                if len(selected) >= k:
                    break
                if position not in chosen:
                    chosen.add(position)
                    selected.append(position)
        else:
            self._fill_proportionally(
                task.n,
                specializations,
                spec_pools,
                consumed,
                general_pool,
                selected,
                chosen,
                k,
            )

        # The returned SERP keeps the *selection order* of Algorithm 2:
        # lines 07-09 put one document per specialization first (most
        # probable specialization first), then the fill phase appends by
        # descending overall utility.  Eq. 8 treats S as a set, so any
        # order maximises the objective; selection order is the one the
        # pseudocode itself produces and it front-loads coverage, which is
        # how a diversified SERP is presented (and evaluated at the
        # Table 3 rank cutoffs).
        stats.selected = len(selected)
        self.last_stats = stats
        results = task.candidates.results
        return [results[position].doc_id for position in selected]

    # -- overridable O(n·|S_q|) stages --------------------------------------------
    #
    # The two passes below dominate the runtime; the kernel-backed
    # FastOptSelect (repro.core.fast) overrides them with dense numpy
    # equivalents while reusing the selection phase above unchanged, which
    # is what keeps the two implementations ranking-identical.

    def _overall_utilities(
        self, task: DiversificationTask, specializations, stats: DiversifierStats
    ) -> list[float]:
        """Eq. 9 per candidate position: one pass, n·|S_q| utility lookups."""
        overall: list[float] = []
        for result in task.candidates:
            overall.append(task.overall_utility(result.doc_id))
            stats.marginal_updates += max(1, len(specializations))
        return overall

    def _build_pools(
        self,
        task: DiversificationTask,
        specializations,
        overall: list[float],
        k: int,
        stats: DiversifierStats,
    ) -> tuple[dict[str, list[tuple[float, int]]], list[tuple[float, int]]]:
        """Algorithm 2 lines 02-06: route candidates into bounded heaps.

        Specialization heaps retain by per-specialization utility
        Ũ(d|R_q') — "the most useful documents for that specialization";
        the general heap retains by overall utility (its documents have
        no per-specialization signal at all).  Every heap is then drained
        once and re-ordered by the overall utility Ũ(d|q), because lines
        08 and 11 pop "d with the max Ũ(d|q)".  At most Σ(⌊kP⌋+1) + k =
        O(k) entries total.
        """
        general: BoundedMaxHeap[int] = BoundedMaxHeap(k)
        spec_heaps: dict[str, BoundedMaxHeap[int]] = {
            spec: BoundedMaxHeap(math.floor(k * p) + 1)
            for spec, p in specializations
        }
        utilities = task.utilities
        for position, result in enumerate(task.candidates):
            useful = False
            for spec, _ in specializations:
                value = utilities.value(result.doc_id, spec)
                if value > 0.0:
                    spec_heaps[spec].push(position, value)
                    useful = True
            if not useful:
                general.push(position, overall[position])
        stats.heap_pushes = general.pushes + sum(
            heap.pushes for heap in spec_heaps.values()
        )
        stats.operations = stats.heap_pushes

        spec_pools = {
            spec: sorted((-overall[i], i) for i, _v in spec_heaps[spec].drain())
            for spec, _p in specializations
        }
        general_pool = sorted((-overall[i], i) for i, _v in general.drain())
        return spec_pools, general_pool

    # -- proportional fill --------------------------------------------------------

    @staticmethod
    def _fill_proportionally(
        n: int,
        specializations,
        spec_pools: dict[str, list[tuple[float, int]]],
        consumed: dict[str, int],
        general_pool: list[tuple[float, int]],
        selected: list[int],
        chosen: set[int],
        k: int,
    ) -> None:
        """Drain specialization pools up to quota, then M, then baseline.

        Entries across all pools are merged best-overall-utility-first
        while respecting each specialization's quota ``⌊k·P⌋ + 1``,
        realising the proportional-coverage constraint of MaxUtility
        Diversify(k).  A document in several pools is charged to the one
        whose specialization *name* sorts first (the last sort key).
        """
        quota = {spec: math.floor(k * p) + 1 for spec, p in specializations}
        taken = dict(consumed)  # phase-1 picks count against their spec

        merged: list[tuple[float, int, str | None]] = [
            (key, position, spec)
            for spec, _p in specializations
            for key, position in spec_pools[spec][consumed[spec] :]
        ]
        merged += [(key, position, None) for key, position in general_pool]
        merged.sort()

        for _key, position, spec in merged:
            if len(selected) >= k:
                break
            if position in chosen:
                continue
            if spec is not None and taken[spec] >= quota[spec]:
                continue
            chosen.add(position)
            selected.append(position)
            if spec is not None:
                taken[spec] += 1

        # Degenerate workloads (everything thresholded away, tiny pools):
        # top up from the baseline ranking so |S| = k like the paper's
        # evaluated runs.
        if len(selected) < k:
            for position in range(n):
                if len(selected) >= k:
                    break
                if position not in chosen:
                    chosen.add(position)
                    selected.append(position)
