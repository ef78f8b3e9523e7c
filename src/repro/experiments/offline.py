"""Offline pipeline — build, per-shard warm, store round trip.

This harness runs the *offline* phase the paper's feasibility argument
rests on, end to end, with an identity check at every step:

1. **Index build** — a synthetic corpus at the chosen scale is built
   serially into a partitioned
   :class:`~repro.retrieval.engine.SearchEngine`, which must return
   **identical rankings and scores** to the single undivided engine over
   every topic query.  Each partition's size and estimated resident
   memory (postings, vocabulary, document tables) is reported.

2. **Warm** — a sharded cluster over that engine runs the paper's
   offline phase per-shard on the chosen execution backend, reporting
   wall-clock *and* summed shard-busy time
   (:class:`~repro.serving.service.WarmReport`), plus an estimated
   warm-artifact footprint (snippet vectors, per-specialization result
   lists) summed across shards.  Cluster rankings must equal an
   unsharded service's.

3. **Index store** (``--store``) — the engine and every shard's warm
   artifacts persist into one SQLite file, which is attached, asserted
   byte-identical to the undivided engine, and re-warmed by a cluster
   over the attached engine, whose shards hydrate from the store's warm
   rows: the re-warm must fetch **zero** artifacts.

Run as a script::

    python -m repro.experiments.offline
    python -m repro.experiments.offline --partitions 3 --shards 2 \\
        --backend process --store index.sqlite3
    python -m repro.experiments.offline --backend process --start-method spawn
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.experiments.reporting import render_table
from repro.experiments.workloads import (
    PAPER_SCALE,
    SMALL_SCALE,
    TrecWorkload,
    build_trec_workload,
    zipf_workload,
)
from repro.querylog.specializations import SpecializationMiner
from repro.retrieval.engine import SearchEngine
from repro.serving import (
    BACKEND_NAMES,
    DiversificationService,
    ShardedDiversificationService,
    WarmReport,
    make_backend,
)

__all__ = [
    "OfflineBuildResult",
    "PartitionedFrameworkFactory",
    "run_offline_build",
    "summarize_build",
    "main",
]


@dataclass(frozen=True)
class PartitionedFrameworkFactory:
    """Per-shard framework factory over a shared (partitioned) engine.

    Frozen, closure-free, and built from picklable parts, so it travels
    to process-backend workers under ``fork`` *and* ``spawn`` — the
    spawn-safe counterpart of building frameworks inline.
    """

    engine: SearchEngine
    miner: SpecializationMiner
    config: FrameworkConfig

    def __call__(self, shard: int) -> DiversificationFramework:
        return DiversificationFramework(
            self.engine, self.miner, config=self.config
        )


@dataclass(frozen=True)
class OfflineBuildResult:
    """Everything one offline-pipeline run measured."""

    partitions: int
    shards: int
    backend: str
    build_seconds: float
    #: per partition: documents, terms, postings and the
    #: ``memory_estimate()`` byte fields
    partition_sizes: tuple[dict, ...]
    serial_warm: WarmReport        #: unsharded service
    cluster_warm: WarmReport       #: merged cluster warm (wall + busy)
    warm_memory: dict              #: cluster-summed warm-artifact estimate
    identity_checked: bool
    store_bytes: int | None = None           #: size of the written store file
    store_write_seconds: float | None = None
    store_attach_seconds: float | None = None
    #: re-warm fetches on a store-hydrated cluster (0 = warm rows hit in full)
    store_warm_fetched: int | None = None

    @property
    def index_bytes(self) -> int:
        """Estimated resident bytes of every partition."""
        return sum(size["total_bytes"] for size in self.partition_sizes)


def _assert_engines_identical(
    reference: SearchEngine,
    candidates: dict[str, SearchEngine],
    queries: list[str],
    k: int,
) -> None:
    for query in queries:
        want = reference.search(query, k)
        for label, engine in candidates.items():
            got = engine.search(query, k)
            if want.doc_ids != got.doc_ids or want.scores != got.scores:
                raise AssertionError(
                    f"{label} engine changed ranking/scores of {query!r}"
                )


def _assert_same_rankings(reference, got, label: str) -> None:
    for want, result in zip(reference, got):
        if want.ranking != result.ranking:
            raise AssertionError(f"{label} changed the ranking of {want.query!r}")


def run_offline_build(
    workload: TrecWorkload | None = None,
    num_queries: int = 60,
    partitions: int = 4,
    shards: int = 2,
    backend: str = "inline",
    start_method: str | None = None,
    seed: int = 13,
    log_name: str = "AOL",
    store_path=None,
) -> OfflineBuildResult:
    """Run the offline pipeline at the given sizes.

    The identity checks run before any timing is trusted: the serially
    built partitioned engine must equal the single undivided engine
    (rankings and scores), and the sharded cluster's served rankings
    must equal the unsharded service's.  With *store_path* the pipeline
    additionally persists the engine plus every shard's warm artifacts
    as one SQLite index store, attaches it (timed), asserts the
    store-backed engine byte-identical to the undivided reference, and
    re-warms a cluster over it whose shards hydrated from the store —
    which must fetch **zero** artifacts and serve rankings identical to
    the in-memory reference service.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    if backend not in BACKEND_NAMES:
        raise ValueError(f"backend must be one of {BACKEND_NAMES}")
    workload = workload or build_trec_workload(SMALL_SCALE)
    scale = workload.scale
    queries = zipf_workload(workload, num_queries, seed)
    topic_queries = [topic.query for topic in workload.testbed.topics]
    config = FrameworkConfig(
        k=scale.k, candidates=scale.candidates, spec_results=scale.spec_results
    )
    miner = workload.miner(log_name)

    start = time.perf_counter()
    engine = SearchEngine(workload.corpus.collection, partitions)
    build_seconds = time.perf_counter() - start
    _assert_engines_identical(
        workload.engine, {"partitioned": engine}, topic_queries, scale.k
    )
    partition_sizes = tuple(
        {
            "documents": index.num_documents,
            "terms": index.num_terms,
            "postings": index.num_postings,
            **index.memory_estimate(),
        }
        for index in engine.partitions
    )

    reference = DiversificationService(
        DiversificationFramework(engine, miner, config=config)
    )
    serial_warm = reference.warm(queries)
    reference_results = reference.diversify_batch(queries)

    def cluster_over(shard_engine: SearchEngine) -> ShardedDiversificationService:
        return ShardedDiversificationService.from_factory(
            PartitionedFrameworkFactory(shard_engine, miner, config),
            shards,
            backend=make_backend(backend, start_method=start_method),
        )

    cluster = cluster_over(engine)
    store_bytes = store_write_seconds = store_attach_seconds = None
    store_warm_fetched = None
    try:
        cluster_warm = cluster.warm(queries)
        _assert_same_rankings(
            reference_results, cluster.diversify_batch(queries), "cluster"
        )
        warm_memory = cluster.warm_memory_estimate()
        if store_path is not None:
            from repro.serving.offline import persist_store

            start = time.perf_counter()
            persist_store(store_path, engine, cluster)
            store_write_seconds = time.perf_counter() - start
            store_bytes = os.path.getsize(store_path)
    finally:
        cluster.close()

    if store_path is not None:
        from repro.retrieval.store import StoreBackedSearchEngine

        start = time.perf_counter()
        store_engine = StoreBackedSearchEngine(store_path)
        store_attach_seconds = time.perf_counter() - start
        _assert_engines_identical(
            workload.engine,
            {"store-backed": store_engine},
            topic_queries,
            scale.k,
        )
        store_cluster = cluster_over(store_engine)
        try:
            # Warm rows hydrated at build time: a re-warm must fetch
            # nothing, and served rankings must match the reference.
            store_warm_fetched = store_cluster.warm(queries).fetched
            if store_warm_fetched:
                raise AssertionError(
                    f"store-hydrated cluster re-warm fetched "
                    f"{store_warm_fetched} artifacts, not 0"
                )
            _assert_same_rankings(
                reference_results,
                store_cluster.diversify_batch(queries),
                "store-hydrated cluster",
            )
        finally:
            store_cluster.close()
            store_engine.close()

    return OfflineBuildResult(
        partitions=partitions,
        shards=shards,
        backend=backend,
        build_seconds=build_seconds,
        partition_sizes=partition_sizes,
        serial_warm=serial_warm,
        cluster_warm=cluster_warm,
        warm_memory=warm_memory,
        identity_checked=True,
        store_bytes=store_bytes,
        store_write_seconds=store_write_seconds,
        store_attach_seconds=store_attach_seconds,
        store_warm_fetched=store_warm_fetched,
    )


def summarize_build(result: OfflineBuildResult) -> str:
    """The per-partition index table, with a total row."""
    fields = ("documents", "terms", "postings")
    rows = [
        [f"partition{i}", *(size[f] for f in fields),
         round(size["total_bytes"] / 1e6, 2)]
        for i, size in enumerate(result.partition_sizes)
    ]
    rows.append(
        ["total", *(sum(size[f] for size in result.partition_sizes) for f in fields),
         round(result.index_bytes / 1e6, 2)]
    )
    return render_table(
        ["partition", "docs", "terms", "postings", "est. MB"],
        rows,
        title=(
            f"Index — {result.partitions} partitions, built serially in "
            f"{result.build_seconds:.3f}s"
        ),
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="50 topics / larger corpus (slower)",
    )
    parser.add_argument("--log", default="AOL", choices=("AOL", "MSN"))
    parser.add_argument(
        "--partitions",
        type=int,
        default=4,
        metavar="N",
        help="index partitions to build",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="M",
        help="serving shards warming over the built engine",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="inline",
        help="execution backend for the warm fan-out",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --backend process "
        "(default: the platform's own default)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="persist the built engine + warm artifacts as one SQLite "
        "index store at PATH, then attach-verify it (byte-identical "
        "rankings/scores, store-hydrated cluster re-warm fetches 0)",
    )
    args = parser.parse_args(argv)
    scale = PAPER_SCALE if args.paper_scale else SMALL_SCALE
    workload = build_trec_workload(scale, logs=(args.log,))

    result = run_offline_build(
        workload,
        args.queries,
        partitions=args.partitions,
        shards=args.shards,
        backend=args.backend,
        start_method=args.start_method,
        log_name=args.log,
        store_path=args.store,
    )

    print(summarize_build(result))
    print()
    warm = result.cluster_warm
    print(
        f"warm: unsharded {result.serial_warm.seconds:.3f}s  vs  "
        f"{result.shards}-shard {result.backend} cluster {warm.seconds:.3f}s "
        f"wall (busy {warm.busy_seconds:.3f}s, fetched {warm.fetched})"
    )
    memory = result.warm_memory
    print(
        f"memory: index {result.index_bytes / 1e6:.2f}MB estimated across "
        f"{result.partitions} partitions; warm artifacts "
        f"{memory['total_bytes'] / 1e6:.2f}MB "
        f"({memory['specializations']} specializations, "
        f"{memory['vectors']} snippet vectors) across {result.shards} "
        f"shards"
    )
    if result.store_bytes is not None:
        print(
            f"store: {args.store!r} written in "
            f"{result.store_write_seconds:.3f}s "
            f"({result.store_bytes / 1e6:.2f}MB), attached in "
            f"{result.store_attach_seconds:.4f}s (vs "
            f"{result.build_seconds:.3f}s rebuild); store-hydrated "
            f"cluster re-warm fetched {result.store_warm_fetched} (hit in full)"
        )
    print(
        "rankings and scores verified identical: single engine == "
        f"{result.partitions}-partition engine; unsharded service == "
        f"{result.shards}-shard cluster ({result.backend} backend)."
    )


if __name__ == "__main__":
    main()
