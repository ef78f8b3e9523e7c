"""pipeline_cold: every request pays analyse -> retrieve -> surrogate ->
utility -> select, and nothing else.

One client, closed loop.  A pass sends each distinct ambiguous topic query
once through ``DiversificationFramework.diversify_query`` on a fresh
framework, so the specialization artifacts are cold and there is no
result cache: the serving layers do no work here.
"""

from __future__ import annotations

import time

from repro.core.framework import default_diversifier

from bench import harness, inputs, reference


class PipelineCold:
    name = "pipeline_cold"
    min_passes = 3
    max_passes = None
    pooled = False  # see harness.summarize

    def __init__(self, seed: int, quick: bool = False, trace: bool = False):
        self.seed = seed
        self.scale = inputs.QUICK_SCALE if quick else inputs.PIPELINE_SCALE
        self.analyzer = inputs.TimingAnalyzer() if trace else None
        self.stack = None
        self.spec_lookups = self.spec_hits = 0

    def setup(self) -> None:
        self.stack = inputs.build_stack(self.scale, self.seed, self.analyzer)
        if self.analyzer is not None:
            self.analyzer.record(False)
        # Untimed warm-up op: first-call costs (lazy imports, numpy kernels).
        inputs.make_framework(self.stack.engine, self.stack.miner).diversify_query(
            self.stack.queries[0]
        )

    def teardown(self) -> None:
        self.stack = None

    def run_pass(self, index: int) -> harness.PassResult:
        stack = self.stack
        framework = inputs.make_framework(stack.engine, stack.miner)
        latencies, outputs, failed, reference_ms = [], [], 0, []
        for position, query in enumerate(stack.queries):
            op_start = time.perf_counter()
            result = framework.diversify_query(query)
            latencies.append((time.perf_counter() - op_start) * 1000.0)
            outputs.append((query, result.ranking))
            failed += not result.ranking
            if reference.due(position, len(stack.queries)):
                reference_ms.append(reference.run())
        info = framework.cache_info()
        self.spec_lookups += info.hits + info.misses
        self.spec_hits += info.hits
        return harness.PassResult(
            latencies,
            sum(latencies) / 1000.0,
            failed,
            outputs,
            reference_ms=reference_ms,
        )

    def traced_pass(self, index: int, tracer) -> harness.PassResult:
        stack = self.stack
        spec_cache: dict = {}
        diversifier = default_diversifier()
        latencies, outputs = [], []
        self.analyzer.record(True)
        try:
            for query in stack.queries:
                ranking, root = inputs.traced_query(
                    tracer, stack.engine, stack.miner, query, spec_cache, diversifier
                )
                latencies.append((root["end"] - root["start"]) * 1000.0)
                outputs.append((query, ranking))
        finally:
            self.analyzer.record(False)
        return harness.PassResult(latencies, sum(latencies) / 1000.0, 0, outputs)

    def check(self, passes, traced) -> tuple[int, int]:
        """Every pass (stepwise traced ones too) must serve the rankings
        the first pass served."""
        reference = passes[0].outputs
        later = passes[1:] + traced
        mismatched = sum(
            got != want
            for p in later
            for got, want in zip(p.outputs, reference)
        )
        return len(later) * len(reference), mismatched

    def digest_value(self, passes):
        return passes[0].outputs

    def extras(self, passes) -> dict[str, float]:
        return {
            "alpha_ndcg_20": inputs.mean_alpha_ndcg_20(
                self.stack.testbed, dict(passes[0].outputs)
            )
        }

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def layers(self, passes, traced, totals, ops: int) -> dict[str, float]:
        stages = self.stack.stages
        out = pipeline_layers(totals, ops)
        out.update(
            inputs.index_layers(
                self.stack.engine,
                len(self.stack.corpus.collection),
                stages["index_s"],
            )
        )
        out["speccache.hit_rate"] = (
            self.spec_hits / self.spec_lookups if self.spec_lookups else 0.0
        )
        out["quality.alpha_ndcg_20"] = self.extras(passes)["alpha_ndcg_20"]
        out.update({f"setup.{name}": value for name, value in stages.items()})
        return out


def pipeline_layers(totals: dict, ops: int) -> dict[str, float]:
    """Per-op layer metrics of stepwise-traced queries (shared with
    ingest_mixed, whose reads are the same pipeline)."""

    def layer(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0.0) / ops if ops else 0.0

    utility_spans = totals.get("utility", {}).get("spans", 0)
    return {
        "analysis.calls": layer("analysis", "calls"),
        "analysis.tokens": layer("analysis", "tokens"),
        "analysis.busy_s": layer("analysis"),
        "detect.busy_s": layer("detect"),
        "detect.specs_per_query": layer("detect", "specs"),
        "retrieve.busy_s": layer("retrieve"),
        "retrieve.calls": layer("retrieve", "spans"),
        "retrieve.postings_scored": layer("retrieve", "postings_scored"),
        "surrogate.busy_s": layer("surrogate"),
        "surrogate.docs": layer("surrogate", "docs"),
        "utility.busy_s": layer("utility"),
        "utility.cosine_pairs": layer("utility", "cosine_pairs"),
        "utility.density": (
            totals["utility"]["density"] / utility_spans if utility_spans else 0.0
        ),
        "densify.busy_s": layer("densify"),
        "select.busy_s": layer("select"),
    }
