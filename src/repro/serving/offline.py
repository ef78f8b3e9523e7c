"""Partition-parallel offline pipeline: build the partitioned index on a
pluggable execution backend.

The paper's efficiency story rests on an *offline* phase — mine the
query log, precompute per-specialization result lists and snippet
vectors — amortising into a fast online path.  PR 2–4 scaled the online
path out (hash-routed shards over inline/thread/process backends); this
module scales the offline phase the same way, with the same substrate:

* :func:`build_partitioned_engine` hash-partitions the collection once,
  then builds the N :class:`~repro.retrieval.index.DocumentIndex`
  partitions (postings plus forward rows, one analysis pass) of a
  :class:`~repro.retrieval.engine.SearchEngine` *wherever
  the chosen* :class:`~repro.serving.backends.ExecutionBackend` *places
  them* — the calling thread, a thread pool, or real OS worker
  processes — and assembles the engine from the gathered indexes with
  collection-global statistics, so the result is **identical** (scores
  included) to the serially constructed engine; the test suite asserts
  it across every backend.
* Each partition build is timed and memory-accounted where it runs,
  reported through a mergeable
  :class:`~repro.retrieval.engine.BuildReport` whose merged form
  carries both the scatter/gather wall-clock and the summed
  per-partition busy time — the exact discipline the warm fan-out's
  :class:`~repro.serving.service.WarmReport` follows.

The warm half of the offline phase already fans out per-shard
(:meth:`~repro.serving.sharded.ShardedDiversificationService.warm`);
:func:`persist_store` writes the engine and every shard's warm artifacts
into one index store, from which store-backed shards hydrate on start;
``python -m repro.experiments.offline`` drives the whole pipeline —
parallel build, parallel warm, store round-trip — end to end with an
identity check.

Every travelling type here pickles (collections, analyzers, indexes,
reports), so the pipeline is spawn-safe: a
:class:`~repro.serving.backends.ProcessBackend` with
``start_method="spawn"`` builds partitions in fresh interpreters, and
the opt-in spawn test lane pins it.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import DocumentCollection
from repro.retrieval.engine import (
    BuildReport,
    SearchEngine,
    partition_collection,
    partition_seqs,
    shared_analysis,
)
from repro.retrieval.index import DocumentIndex
from repro.retrieval.snippets import SnippetExtractor
from repro.serving.backends import ExecutionBackend, make_backend

__all__ = [
    "PartitionBuildFactory",
    "build_partitioned_engine",
    "persist_store",
]


class _PartitionBuilder:
    """Worker-side build service for one index partition.

    The execution backends address *services* by shard id and method
    name; this is the build phase's service — one method, ``build()``,
    which indexes the partition where the service lives and returns the
    index together with its timed, memory-estimated
    :class:`~repro.retrieval.engine.BuildReport`.  On a process
    backend both travel back to the parent as pickles, exactly like
    stats snapshots do during serving.
    """

    def __init__(
        self,
        part: DocumentCollection,
        seqs: Sequence[int],
        shard: int,
        extractor: SnippetExtractor,
    ) -> None:
        self._part = part
        self._seqs = seqs
        self._shard = shard
        self._extractor = extractor

    def build(self) -> tuple[DocumentIndex, BuildReport]:
        start = time.perf_counter()
        index = DocumentIndex.from_collection(
            self._part, self._extractor, seqs=self._seqs
        )
        seconds = time.perf_counter() - start
        return index, BuildReport.from_index(
            index, seconds, name=f"partition{self._shard}"
        )


@dataclasses.dataclass(frozen=True)
class PartitionBuildFactory:
    """Build one partition's :class:`_PartitionBuilder` — the build
    phase's counterpart of
    :class:`~repro.serving.sharded.ShardServiceFactory`.

    Holds the already-partitioned sub-collections, and each document's
    collection position as its sequence number, so every worker indexes
    exactly the documents the parent's router placed, numbered as the
    serial build numbers them, and the assembled engine is *provably*
    the serial engine.  The dataclass and
    everything it holds pickle, so the factory travels under ``spawn``
    and ``forkserver`` as well as ``fork``.  *snippet_extractor* is the
    engine's (its ``window_terms`` shapes the forward rows the workers
    build); without one the workers use the stock extractor over
    *analyzer*.
    """

    partitions: tuple[DocumentCollection, ...]
    seqs: tuple[tuple[int, ...], ...]
    analyzer: Analyzer
    snippet_extractor: SnippetExtractor | None = None

    def __call__(self, shard: int) -> _PartitionBuilder:
        _, extractor = shared_analysis(self.analyzer, self.snippet_extractor)
        return _PartitionBuilder(
            self.partitions[shard], self.seqs[shard], shard, extractor
        )


def build_partitioned_engine(
    collection: DocumentCollection,
    num_partitions: int = 2,
    *,
    backend: "str | ExecutionBackend | None" = "thread",
    max_workers: int | None = None,
    start_method: str | None = None,
    model=None,
    analyzer: Analyzer | None = None,
    snippet_extractor=None,
    seed: int = 0,
) -> tuple[SearchEngine, BuildReport]:
    """Build a :class:`SearchEngine` partition-parallel.

    Partitions *collection* with the same seeded router the serial
    constructor uses, builds every partition index on *backend*
    (``"inline"`` / ``"thread"`` / ``"process"``, a pre-configured
    :class:`~repro.serving.backends.ExecutionBackend` instance, or
    ``None`` for the default thread pool), gathers the indexes, and
    assembles the engine with collection-global statistics — validated
    document-for-document, so rankings *and scores* are identical to
    ``SearchEngine(collection, num_partitions, ...)`` built
    serially, which is itself ranking-identical to a single undivided
    engine.

    Returns ``(engine, report)`` where *report* is the merged
    :class:`~repro.retrieval.engine.BuildReport`: ``seconds`` is the
    scatter/gather wall-clock measured here, ``busy_seconds`` the
    summed per-partition build time, and ``shards`` the per-partition
    reports (zero-document partitions included, well-formed) with each
    partition's estimated resident bytes.

    The backend is *consumed*: it is started for the build and closed
    before returning (a process backend cannot be restarted, and the
    builder services it holds are useless after assembly).  Pass a
    fresh backend spec per build — and a fresh one for the serving
    cluster that follows.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    analyzer, snippet_extractor = shared_analysis(analyzer, snippet_extractor)
    start = time.perf_counter()
    parts = partition_collection(collection, num_partitions, seed)
    seqs = partition_seqs(collection, parts)
    resolved = make_backend(
        backend, max_workers=max_workers, start_method=start_method
    )
    try:
        resolved.start(
            PartitionBuildFactory(tuple(parts), seqs, analyzer, snippet_extractor),
            num_partitions,
        )
        done = resolved.broadcast("build")
    finally:
        resolved.close()
    indexes: list[DocumentIndex] = []
    reports: list[BuildReport] = []
    for shard in range(num_partitions):
        index, report = done[shard]
        indexes.append(index)
        reports.append(report)
    engine = SearchEngine(
        collection,
        num_partitions,
        model=model,
        analyzer=analyzer,
        snippet_extractor=snippet_extractor,
        seed=seed,
        partition_collections=parts,
        partition_indexes=indexes,
    )
    merged = dataclasses.replace(
        BuildReport.merge(reports), seconds=time.perf_counter() - start
    )
    return engine, merged


def persist_store(path, engine, cluster=None):
    """Persist the offline phase's outputs as one durable index store.

    The final step of a store-producing offline pipeline (``python -m
    repro.experiments.offline --store PATH``): writes *engine*'s
    partitions, documents and collection-global statistics — plus, when
    a warmed *cluster*
    (:class:`~repro.serving.sharded.ShardedDiversificationService`) is
    given, every shard's warm artifacts collected over its execution
    backend — into a single SQLite file via
    :func:`repro.retrieval.store.write_store`.  Serving processes then
    cold-start by *attaching* the store
    (:class:`~repro.retrieval.store.StoreBackedSearchEngine`; a serving
    shard over it hydrates its warm rows) in O(attach) instead of
    re-running this pipeline.  Returns the written
    :class:`~pathlib.Path`.
    """
    from repro.retrieval.store import write_store

    warm_payloads = cluster.warm_payloads() if cluster is not None else None
    return write_store(path, engine, warm_payloads)
