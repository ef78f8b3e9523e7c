"""Offline pipeline benchmark — serial vs partition-parallel build + warm.

The online path has had its scale-out story since PR 2 (sharded serving,
execution backends); this harness measures the *offline* phase the
paper's feasibility argument rests on, end to end:

1. **Index build** — a synthetic corpus at the chosen scale is built
   into a :class:`~repro.retrieval.engine.SearchEngine`
   twice: serially (the plain constructor, one core) and
   partition-parallel
   (:func:`~repro.serving.offline.build_partitioned_engine` over the
   chosen execution backend).  Before any number is reported, both
   engines — and a single undivided reference engine — are asserted to
   return **identical rankings and scores** over every topic query.
   The parallel arm reports per-partition build time and estimated
   resident memory (postings, vocabulary, document tables) through a
   merged :class:`~repro.retrieval.engine.BuildReport` that carries
   both the scatter/gather wall-clock and the summed per-partition busy
   time.

2. **Warm** — a sharded cluster over the parallel-built engine runs the
   paper's offline phase per-shard on the same backend, reporting
   wall-clock *and* summed shard-busy time
   (:class:`~repro.serving.service.WarmReport`), plus an estimated
   warm-artifact footprint (snippet vectors, per-specialization result
   lists) summed across shards.  Cluster rankings are asserted
   identical to an unsharded service over the serially built engine.

3. **Index store** (``--store``) — the engine and every shard's warm
   artifacts persist into one SQLite file, which is attached, asserted
   byte-identical to the undivided engine, and re-warmed by a cluster
   over the attached engine, whose shards hydrate from the store's warm
   rows: the re-warm must fetch **zero** artifacts.

On a single-core host the parallel arms read as parity (the identity
check is the load-bearing result there); on an N-core host the process
backend is the arm that scales.

Run as a script::

    python -m repro.experiments.offline
    python -m repro.experiments.offline --partitions 4 --backend process
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
from repro.retrieval.engine import BuildReport, SearchEngine
from repro.serving import (
    BACKEND_NAMES,
    DiversificationService,
    ShardedDiversificationService,
    WarmReport,
    build_partitioned_engine,
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
    serial_build_seconds: float
    build_report: BuildReport      #: merged; per-partition in ``.shards``
    serial_warm: WarmReport        #: unsharded service over the serial engine
    cluster_warm: WarmReport       #: merged cluster warm (wall + busy)
    warm_memory: dict              #: cluster-summed warm-artifact estimate
    cores: int
    identity_checked: bool
    store_bytes: int | None = None           #: size of the written store file
    store_write_seconds: float | None = None
    store_attach_seconds: float | None = None
    #: re-warm fetches on a store-hydrated cluster (0 = warm rows hit in full)
    store_warm_fetched: int | None = None

    @property
    def build_speedup(self) -> float:
        """Serial build time over parallel build wall-clock."""
        return (
            self.serial_build_seconds / self.build_report.seconds
            if self.build_report.seconds
            else 0.0
        )

    @property
    def hardware_limited(self) -> bool:
        """True when the host cannot express the full N-way build fan-out."""
        return self.cores < max(2, self.partitions)


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


def run_offline_build(
    workload: TrecWorkload | None = None,
    num_queries: int = 60,
    partitions: int = 4,
    shards: int = 2,
    backend: str = "thread",
    start_method: str | None = None,
    seed: int = 13,
    log_name: str = "AOL",
    store_path=None,
) -> OfflineBuildResult:
    """Run the offline pipeline serial-vs-parallel at the given sizes.

    The identity checks run before any timing is trusted: the parallel-
    built partitioned engine must equal the serially built one *and*
    the single undivided engine (rankings and scores), and the sharded
    cluster's served rankings must equal the unsharded service's.  With
    *store_path* the pipeline additionally persists the engine plus
    every shard's warm artifacts as one SQLite index store, attaches it
    (timed), asserts the store-backed engine byte-identical to the
    undivided reference, and re-warms a cluster over it whose shards
    hydrated from the store — which must fetch **zero** artifacts and
    serve rankings identical to the in-memory reference service.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    if backend not in BACKEND_NAMES:
        raise ValueError(f"backend must be one of {BACKEND_NAMES}")
    workload = workload or build_trec_workload(SMALL_SCALE)
    scale = workload.scale
    collection = workload.corpus.collection
    queries = zipf_workload(workload, num_queries, seed)
    topic_queries = [topic.query for topic in workload.testbed.topics]
    config = FrameworkConfig(
        k=scale.k, candidates=scale.candidates, spec_results=scale.spec_results
    )
    miner = workload.miner(log_name)

    # Arm 1: the serial build (the pre-PR-5 path, one core by design).
    start = time.perf_counter()
    serial_engine = SearchEngine(collection, partitions)
    serial_build_seconds = time.perf_counter() - start

    # Arm 2: the partition-parallel build on the chosen backend.
    parallel_engine, build_report = build_partitioned_engine(
        collection,
        partitions,
        backend=backend,
        start_method=start_method,
    )

    # Identity before any timing is trusted — both partitioned engines
    # against the undivided single-index reference.
    _assert_engines_identical(
        workload.engine,
        {"serial partitioned": serial_engine,
         "parallel partitioned": parallel_engine},
        topic_queries,
        scale.k,
    )

    # Warm reference: unsharded service over the serially built engine.
    reference = DiversificationService(
        DiversificationFramework(serial_engine, miner, config=config)
    )
    serial_warm = reference.warm(queries)
    reference_results = reference.diversify_batch(queries)

    # The cluster: per-shard warm over the parallel-built engine, fanned
    # out on a fresh backend of the same kind (a process backend is
    # consumed by the build and cannot restart).
    cluster = ShardedDiversificationService.from_factory(
        PartitionedFrameworkFactory(parallel_engine, miner, config),
        shards,
        backend=make_backend(backend, start_method=start_method),
    )
    store_bytes = store_write_seconds = store_attach_seconds = None
    store_warm_fetched = None
    try:
        cluster_warm = cluster.warm(queries)
        got = cluster.diversify_batch(queries)
        for want, result in zip(reference_results, got):
            if want.ranking != result.ranking:
                raise AssertionError(
                    f"cluster changed the ranking of {want.query!r}"
                )
        warm_memory = cluster.warm_memory_estimate()
        if store_path is not None:
            from repro.serving.offline import persist_store

            start = time.perf_counter()
            persist_store(store_path, parallel_engine, cluster)
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
        store_cluster = ShardedDiversificationService.from_factory(
            PartitionedFrameworkFactory(store_engine, miner, config),
            shards,
            backend=make_backend(backend, start_method=start_method),
        )
        try:
            # Warm rows hydrated at build time: a re-warm must fetch
            # nothing, and served rankings must match the reference.
            store_warm_fetched = store_cluster.warm(queries).fetched
            got = store_cluster.diversify_batch(queries)
            for want, result in zip(reference_results, got):
                if want.ranking != result.ranking:
                    raise AssertionError(
                        "store-hydrated cluster changed the ranking of "
                        f"{want.query!r}"
                    )
        finally:
            store_cluster.close()
            store_engine.close()

    return OfflineBuildResult(
        partitions=partitions,
        shards=shards,
        backend=backend,
        serial_build_seconds=serial_build_seconds,
        build_report=build_report,
        serial_warm=serial_warm,
        cluster_warm=cluster_warm,
        warm_memory=warm_memory,
        cores=os.cpu_count() or 1,
        identity_checked=True,
        store_bytes=store_bytes,
        store_write_seconds=store_write_seconds,
        store_attach_seconds=store_attach_seconds,
        store_warm_fetched=store_warm_fetched,
    )


def summarize_build(result: OfflineBuildResult) -> str:
    headers = [
        "partition", "docs", "terms", "postings", "build s", "est. MB",
    ]
    rows = []
    for report in result.build_report.shards:
        rows.append(
            [
                report.name,
                report.documents,
                report.terms,
                report.postings,
                round(report.seconds, 3),
                round(report.total_bytes / 1e6, 2),
            ]
        )
    total = result.build_report
    rows.append(
        [
            total.name,
            total.documents,
            total.terms,
            total.postings,
            # The column holds per-partition busy time, so the total row
            # shows the *summed* busy time (the column's own sum); the
            # scatter/gather wall-clock is reported separately below —
            # never in a column whose other rows mean something else.
            round(total.busy_seconds, 3),
            round(total.total_bytes / 1e6, 2),
        ]
    )
    return render_table(
        headers,
        rows,
        title=(
            f"Partition-parallel build — {result.partitions} partitions "
            f"over the {result.backend} backend, {result.cores} core(s)"
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
        help="index partitions to build (serially vs on the backend)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="M",
        help="serving shards warming over the parallel-built engine",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="thread",
        help="execution backend for the parallel build and the warm fan-out",
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
    build = result.build_report
    print(
        f"index build: serial {result.serial_build_seconds:.3f}s  vs  "
        f"{result.backend} {build.seconds:.3f}s wall "
        f"(busy {build.busy_seconds:.3f}s across partitions)  "
        f"→ {result.build_speedup:.2f}x"
    )
    if result.cores < 2:
        print(
            f"note: this host reports {result.cores} core(s) — build "
            "parallelism cannot beat the serial arm here; parity within "
            "noise is the expected reading (the identity check is the "
            "load-bearing result on single-core hosts)."
        )
    elif result.hardware_limited:
        print(
            f"note: {result.cores} cores for {result.partitions} "
            f"partitions — expect at most ~{result.cores}x."
        )
    warm = result.cluster_warm
    print(
        f"warm: unsharded {result.serial_warm.seconds:.3f}s  vs  "
        f"{result.shards}-shard cluster {warm.seconds:.3f}s wall "
        f"(busy {warm.busy_seconds:.3f}s, fetched {warm.fetched})"
    )
    memory = result.warm_memory
    print(
        f"memory: index {build.total_bytes / 1e6:.2f}MB estimated across "
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
            f"{result.serial_build_seconds:.3f}s rebuild); store-hydrated "
            f"cluster re-warm fetched {result.store_warm_fetched} "
            f"({'hit in full' if result.store_warm_fetched == 0 else 'partial'})"
        )
    print(
        "rankings and scores verified identical: single engine == serial "
        "partitioned == parallel partitioned; unsharded service == "
        f"{result.shards}-shard cluster ({result.backend} backend)."
    )


if __name__ == "__main__":
    main()
