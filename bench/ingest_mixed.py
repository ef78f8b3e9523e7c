"""ingest_mixed: writes beside reads on a store-backed engine.

The collection minus a seed-chosen hold-out is written to a SQLite store
and served by a ``StoreBackedSearchEngine``.  One client, closed loop:
each epoch is one ``service.ingest(2 adds, 1 remove)`` followed by 3
distinct topic queries, each its own ``diversify_batch`` call.  Every
ingest changes the collection statistics, so every read is
post-invalidation (cold) and the read latency distribution is unimodal.
The primary op (latency percentiles) is the read; throughput counts reads
and ingests together, so work moved from the query path into ingest shows.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.framework import default_diversifier
from repro.retrieval.documents import DocumentCollection
from repro.retrieval.sharding import PartitionedSearchEngine
from repro.retrieval.store import StoreBackedSearchEngine, append_epoch, write_store
from repro.serving.service import DiversificationService

from bench import harness, inputs, reference
from bench.pipeline_cold import pipeline_layers

#: append_epoch rebuilds every partition a changed document hashes to, so
#: the partition count sets the ingest cost: 16 keeps an epoch (3 changed
#: documents) near 60 ms on the ~600-document collection.
PARTITIONS = 16
ADDS, REMOVES, READS = 2, 1, 3


def _build_engine(documents, analyzer=None) -> PartitionedSearchEngine:
    return PartitionedSearchEngine(
        DocumentCollection(documents),
        num_partitions=PARTITIONS,
        analyzer=analyzer,
    )


class IngestMixed:
    name = "ingest_mixed"
    min_passes = 3
    pooled = False  # see harness.summarize

    def __init__(self, seed: int, quick: bool = False, trace: bool = False):
        self.seed = seed
        self.scale = inputs.QUICK_SCALE if quick else inputs.INGEST_SCALE
        self.holdout = 24 if quick else 350
        #: 4 epochs x 3 reads = one cycle over the 12 topic queries, so
        #: read position j of every pass is the same query.
        self.epochs_per_pass = 4
        #: The hold-out bounds the run: never start a pass it cannot feed.
        self.max_passes = self.holdout // (ADDS * self.epochs_per_pass)
        self.analyzer = inputs.TimingAnalyzer() if trace else None
        self.engine = None
        self.store_path = None
        self.final_rankings: dict[str, list[str]] = {}

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        stack = inputs.build_stack(self.scale, self.seed, index=False)
        self.stack, stages = stack, stack.stages
        documents = list(stack.corpus.collection)
        rng = random.Random(inputs.derive(self.seed, "holdout"))
        held = set(rng.sample(range(len(documents)), self.holdout))
        self.arrivals = [documents[i] for i in sorted(held)]
        rng.shuffle(self.arrivals)
        initial = [d for i, d in enumerate(documents) if i not in held]
        self.removals = rng.sample(
            [d.doc_id for d in initial], self.holdout // ADDS * REMOVES
        )
        self.expected_ids = [d.doc_id for d in initial]

        mark = time.perf_counter()
        built = _build_engine(initial, self.analyzer)
        stages["index_s"] = time.perf_counter() - mark
        self.index_layers = inputs.index_layers(
            built, len(initial), stages["index_s"]
        )
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.store_path = harness.OUT_DIR / f"ingest-{os.getpid()}.sqlite"
        mark = time.perf_counter()
        write_store(self.store_path, built)
        stages["write_s"] = time.perf_counter() - mark
        self.file_bytes = self.store_path.stat().st_size
        self.doc_bytes = sum(len(d.full_text.encode()) for d in initial)
        del built
        mark = time.perf_counter()
        self.engine = StoreBackedSearchEngine(
            self.store_path, analyzer=self.analyzer
        )
        stages["attach_s"] = time.perf_counter() - mark
        self.service = DiversificationService(
            inputs.make_framework(self.engine, stack.miner)
        )
        stages["warm_s"] = self.service.warm(stack.queries).seconds
        self.warm_bytes = self.service.warm_memory_estimate()["total_bytes"]
        if self.analyzer is not None:
            self.analyzer.record(False)
        self.service.diversify_batch([stack.queries[0]])  # untimed warm-up op
        self.epoch = 0
        self.read_cursor = 0

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.store_path is not None:
            for leftover in self.store_path.parent.glob(self.store_path.name + "*"):
                leftover.unlink()
            self.store_path = None

    # -- passes ----------------------------------------------------------------

    def _next_epoch(self):
        """The next epoch's inputs; also advances the from-scratch
        prediction of the collection order (survivors, then adds)."""
        adds = self.arrivals[self.epoch * ADDS:(self.epoch + 1) * ADDS]
        removes = self.removals[self.epoch * REMOVES:(self.epoch + 1) * REMOVES]
        self.epoch += 1
        gone = set(removes)
        self.expected_ids = [d for d in self.expected_ids if d not in gone]
        self.expected_ids.extend(d.doc_id for d in adds)
        queries = self.stack.queries
        reads = [
            queries[(self.read_cursor + j) % len(queries)] for j in range(READS)
        ]
        self.read_cursor += READS
        return adds, removes, reads

    def run_pass(self, index: int) -> harness.PassResult:
        service = self.service
        latencies, ingest_ms, outputs, failed, reference_ms = [], [], [], 0, []
        for position in range(self.epochs_per_pass):
            adds, removes, reads = self._next_epoch()
            op_start = time.perf_counter()
            epoch = service.ingest(add_documents=adds, remove_doc_ids=removes)
            ingest_ms.append((time.perf_counter() - op_start) * 1000.0)
            failed += epoch != self.epoch
            for query in reads:
                op_start = time.perf_counter()
                result = service.diversify_batch([query])[0]
                latencies.append((time.perf_counter() - op_start) * 1000.0)
                outputs.append((query, result.ranking))
                failed += not result.ranking
            if reference.due(position, self.epochs_per_pass):
                reference_ms.append(reference.run())
        wall = (sum(latencies) + sum(ingest_ms)) / 1000.0
        return harness.PassResult(
            latencies, wall, failed, outputs, self._extra(ingest_ms), reference_ms
        )

    def _extra(self, ingest_ms: list[float]) -> dict:
        return {"other_ms": ingest_ms, "ingest_docs": ADDS * len(ingest_ms)}

    def traced_pass(self, index: int, tracer) -> harness.PassResult:
        service, engine, analyzer = self.service, self.engine, self.analyzer
        diversifier = default_diversifier()
        latencies, ingest_ms, outputs, failed = [], [], [], 0
        for _ in range(self.epochs_per_pass):
            adds, removes, reads = self._next_epoch()
            dropped = service.stats.warm_invalidations
            analyzer.record(True)
            try:
                # service.ingest, taken apart: durable append, re-attach,
                # then apply_updates (whose own refresh is now a no-op) for
                # the cache sweeps.
                with tracer.span("ingest") as root:
                    with tracer.span("store.append_epoch", probe=analyzer):
                        append_epoch(
                            self.store_path, adds, removes, analyzer=analyzer
                        )
                    with tracer.span("store.refresh"):
                        engine.refresh()
                    with tracer.span("ingest.sweep"):
                        epoch = service.apply_updates(adds, removes)
                root["warm_invalidations"] = (
                    service.stats.warm_invalidations - dropped
                )
                ingest_ms.append((root["end"] - root["start"]) * 1000.0)
                failed += epoch != self.epoch
                spec_cache: dict = {}
                stepwise = []
                for query in reads:
                    ranking, span = inputs.traced_query(
                        tracer,
                        engine,
                        self.stack.miner,
                        query,
                        spec_cache,
                        diversifier,
                    )
                    latencies.append((span["end"] - span["start"]) * 1000.0)
                    stepwise.append((query, ranking))
            finally:
                analyzer.record(False)
            for query, ranking in stepwise:  # untimed: stepwise == served
                failed += service.diversify_batch([query])[0].ranking != ranking
            outputs.extend(stepwise)
        wall = (sum(latencies) + sum(ingest_ms)) / 1000.0
        return harness.PassResult(
            latencies, wall, failed, outputs, self._extra(ingest_ms)
        )

    # -- results ---------------------------------------------------------------

    def check(self, passes, traced) -> tuple[int, int]:
        """The live collection order, final rankings and baseline scores
        must equal a from-scratch rebuild of the final collection."""
        queries = self.stack.queries
        mismatched = int(self.engine.collection.doc_ids != self.expected_ids)
        collection = self.stack.corpus.collection
        reference = DiversificationService(
            inputs.make_framework(
                _build_engine([collection[doc_id] for doc_id in self.expected_ids]),
                self.stack.miner,
            )
        )
        live = self.service.diversify_batch(queries)
        for got, want in zip(live, reference.diversify_batch(queries)):
            scored = [(r.doc_id, r.score) for r in got.baseline]
            mismatched += got.ranking != want.ranking or scored != [
                (r.doc_id, r.score) for r in want.baseline
            ]
            self.final_rankings[got.query] = got.ranking
        return len(queries) + 1, mismatched

    def digest_value(self, passes):
        return passes[0].outputs

    def extras(self, passes) -> dict[str, float]:
        ingest_ms = [ms for p in passes for ms in p.extra["other_ms"]]
        docs = sum(p.extra["ingest_docs"] for p in passes)
        return {
            "alpha_ndcg_20": inputs.mean_alpha_ndcg_20(
                self.stack.testbed, self.final_rankings
            ),
            "ingest_docs_s": docs / (sum(ingest_ms) / 1000.0),
            "ingest_p50_ms": harness.percentile(ingest_ms, 0.5),
        }

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def layers(self, passes, traced, totals, ops: int) -> dict[str, float]:
        stages = self.stack.stages
        epochs = sum(len(p.extra["other_ms"]) for p in traced)
        page_cache = self.engine.page_cache_info()
        extras = self.extras(passes)

        def per_epoch(name: str, key: str = "self_s") -> float:
            return totals.get(name, {}).get(key, 0.0) / epochs if epochs else 0.0

        out = pipeline_layers(totals, ops)
        out.update(
            {
                "store.write_s": stages["write_s"],
                "store.attach_s": stages["attach_s"],
                "store.file_bytes": self.file_bytes,
                "store.bytes_per_doc_byte": self.file_bytes / self.doc_bytes,
                "store.append_epoch.busy_s": per_epoch("store.append_epoch"),
                "store.refresh.busy_s": per_epoch("store.refresh"),
                "store.page_cache_hit_rate": page_cache.hit_rate,
                "store.page_cache_evictions": page_cache.evictions,
                "ingest.epochs": self.epoch,
                "ingest.warm_invalidations": per_epoch(
                    "ingest", "warm_invalidations"
                ),
                "ingest.sweep_s": per_epoch("ingest.sweep"),
                "ingest.docs_s": extras["ingest_docs_s"],
                "ingest.p50_ms": extras["ingest_p50_ms"],
                "quality.alpha_ndcg_20": extras["alpha_ndcg_20"],
                "speccache.hit_rate": self.service.spec_cache_info().hit_rate,
                "service.result_cache_hit_rate": (
                    self.service.result_cache_info().hit_rate
                ),
                "service.warm_s": stages["warm_s"],
                "service.warm_bytes": self.warm_bytes,
                **self.index_layers,
            }
        )
        out.update(
            {
                f"setup.{name}": stages[name]
                for name in ("corpus_s", "querylog_s", "miner_s", "index_s", "warm_s")
            }
        )
        return out
