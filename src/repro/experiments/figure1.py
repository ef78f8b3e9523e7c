"""Figure 1 — average utility gain per number of specializations.

Appendix C of the paper: the two query logs are split 70/30 into train
and test; for every ambiguous query detected in the test split, the query
is submitted to an *external* web search engine (Yahoo! BOSS; |R_q| =
200), the result list is re-ranked by OptSelect (|R_q'| = k = 20), and
the ratio between the summed normalised utilities of the diversified and
the original top-k lists is computed::

    ratio = Σ_{i≤k} Ũ(d_i ∈ S)  /  Σ_{i≤k} Ũ(d_i ∈ R_q)

Figure 1 plots the average ratio against the number of specializations
|S_q|; the paper reports improvement factors between 5 and 10 for both
AOL and MSN.

Substitutions: Yahoo! BOSS is gone, so the external WSE is
a second engine over the same corpus with a different ranking model
(BM25), mirroring the external/internal engine mismatch of the original
setup.  The per-document utility is the pure coverage part of Eq. 9,
``Σ_q' P(q'|q)·Ũ(d|R_q')`` — Definition 2 aggregated over the mined
specializations, which is what "the utility function as in Definition 2"
can mean for a whole list.

Run as a script::

    python -m repro.experiments.figure1
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.core.optselect import OptSelect
from repro.core.task import DiversificationTask
from repro.experiments.reporting import render_series
from repro.experiments.workloads import (
    PAPER_SCALE,
    SMALL_SCALE,
    TrecWorkload,
    build_trec_workload,
)
from repro.querylog.specializations import MinerConfig, SpecializationMiner

__all__ = ["UtilityPoint", "Figure1Result", "run_figure1", "main"]


@dataclass(frozen=True)
class UtilityPoint:
    """One evaluated ambiguous query."""

    query: str
    num_specializations: int
    original_utility: float
    diversified_utility: float

    #: Cap on individual ratios: near-zero original utilities would
    #: otherwise dominate the averages (the paper's per-query ratios stay
    #: within one order of magnitude, so the cap is conservative).
    MAX_RATIO = 20.0

    @property
    def ratio(self) -> float:
        if self.original_utility <= 1e-9:
            # No measurable utility in the original list: an unbounded
            # improvement, reported at the cap (or parity when the
            # diversified list found nothing either).
            return self.MAX_RATIO if self.diversified_utility > 0 else 1.0
        return min(self.MAX_RATIO, self.diversified_utility / self.original_utility)


@dataclass
class Figure1Result:
    """Per-log utility points and their aggregation by |S_q|."""

    points: dict[str, list[UtilityPoint]] = field(default_factory=dict)

    def series(self) -> dict[str, dict[int, float]]:
        """log name → (|S_q| → average ratio), the figure's series."""
        out: dict[str, dict[int, float]] = {}
        for log_name, points in self.points.items():
            by_n: dict[int, list[float]] = {}
            for point in points:
                by_n.setdefault(point.num_specializations, []).append(point.ratio)
            out[log_name] = {
                n: sum(ratios) / len(ratios) for n, ratios in sorted(by_n.items())
            }
        return out

    def overall_average(self, log_name: str) -> float:
        points = self.points.get(log_name, [])
        if not points:
            return 0.0
        return sum(p.ratio for p in points) / len(points)


def _coverage_utility(task: DiversificationTask, docs: list[str]) -> float:
    """Σ_d Σ_q' P(q'|q)·Ũ(d|R_q') — the list utility of Definition 2."""
    total = 0.0
    for doc_id in docs:
        for spec, p in task.specializations:
            total += p * task.utilities.value(doc_id, spec)
    return total


def run_figure1(
    workload: TrecWorkload | None = None,
    logs: tuple[str, ...] = ("AOL", "MSN"),
    external_candidates: int = 200,
    k: int = 20,
    spec_results: int = 20,
    threshold: float = 0.2,
    max_queries_per_log: int | None = None,
) -> Figure1Result:
    """Regenerate Figure 1: train on 70% of each log, evaluate ambiguous
    test-split queries, average utility ratios by |S_q|."""
    workload = workload or build_trec_workload(SMALL_SCALE, logs=logs)
    external = workload.external_engine()
    result = Figure1Result()
    for log_name in logs:
        log = workload.logs[log_name]
        train, test = log.split(0.7)
        miner = SpecializationMiner(train, MinerConfig()).build()
        framework = DiversificationFramework(
            external,
            miner,
            OptSelect(),
            FrameworkConfig(
                k=k,
                candidates=external_candidates,
                spec_results=spec_results,
                # A small utility threshold suppresses the incidental
                # cosine overlap two random synthetic documents share via
                # head-of-Zipf background terms (real snippets diverge
                # more); without it both lists' utilities carry the same
                # additive noise floor and the ratio is compressed.
                threshold=threshold,
            ),
        )
        points: list[UtilityPoint] = []
        seen: set[str] = set()
        for record in test:
            query = record.query
            if query in seen:
                continue
            seen.add(query)
            specializations = miner.mine(query)
            if not specializations:
                continue
            task = framework.build_task(query, specializations)
            if task is None:
                continue
            diversified = framework.diversifier.diversify(task, k)
            original_topk = task.candidates.doc_ids[:k]
            points.append(
                UtilityPoint(
                    query=query,
                    num_specializations=len(specializations),
                    original_utility=_coverage_utility(task, original_topk),
                    diversified_utility=_coverage_utility(task, diversified),
                )
            )
            if max_queries_per_log and len(points) >= max_queries_per_log:
                break
        result.points[log_name] = points
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args(argv)
    scale = PAPER_SCALE if args.paper_scale else SMALL_SCALE
    workload = build_trec_workload(scale, logs=("AOL", "MSN"))
    result = run_figure1(workload)
    print(
        render_series(
            "|S_q|",
            result.series(),
            title="Figure 1 — average utility ratio per number of specializations",
            precision=2,
        )
    )
    print()
    for log_name in ("AOL", "MSN"):
        n = len(result.points.get(log_name, []))
        print(
            f"{log_name}: {n} ambiguous test queries, average ratio "
            f"{result.overall_average(log_name):.2f}"
        )


if __name__ == "__main__":
    main()
