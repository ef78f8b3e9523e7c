"""Batched serving layer over the diversification framework.

The paper's feasibility argument (Section 4.1) splits the system into an
*offline* phase — mine specializations, precompute their small result
lists R_q' and snippet vectors — and an *online* phase that only reads
those artifacts while re-ranking.  :class:`DiversificationService` makes
that split explicit on top of
:class:`~repro.core.framework.DiversificationFramework`:

* :meth:`warm` is the offline phase: run Algorithm 1 over an expected
  query workload and prefetch every mined specialization's artifacts
  into the framework's bounded LRU, batching the engine lookups;
* :meth:`diversify` / :meth:`diversify_batch` are the online phase:
  bounded result caching, deduplicated detection, specializations
  fetched through the framework's cache as each task needs them, and
  per-query latency accounting.

``diversify_batch`` is the throughput entry point: a batch of Q queries
with U distinct queries runs U pipelines instead of Q, and all U share
each specialization's one search — which is what the Table 2/3 harnesses
and the serving benchmark drive end-to-end.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.ambiguity import SpecializationSet
from repro.core.cache import BUCKETS, BUSY, CONCAT, MAX, PART_COPIES, PARTS
from repro.core.cache import CacheStats, LRUCache, Rollup, named
from repro.core.cache import put_tagged
from repro.core.framework import DiversificationFramework, DiversifiedResult
from repro.core.task import DiversificationTask

__all__ = [
    "ReadOnlyError",
    "PreparedQuery",
    "WarmReport",
    "ServiceStats",
    "DiversificationService",
]


class ReadOnlyError(RuntimeError):
    """Ingest into a service whose engine is in memory.

    Only a store changes a serving collection: the batch is appended to
    the store file and every attached engine refreshes.  An engine built
    in memory serves the collection it was built over.
    """


@dataclass
class PreparedQuery:
    """Offline output for one query: detection result plus ranking input.

    ``task`` is ``None`` when Algorithm 1 did not fire (unambiguous
    query) or retrieval returned nothing — the online phase then serves
    the baseline ranking.
    """

    query: str
    specializations: SpecializationSet
    task: DiversificationTask | None

    @property
    def ambiguous(self) -> bool:
        return bool(self.specializations)


@dataclass(frozen=True)
class WarmReport(Rollup):
    """What one offline :meth:`DiversificationService.warm` pass did.

    ``name`` labels the service that warmed (the shard id when the
    service is embedded in a
    :class:`~repro.serving.sharded.ShardedDiversificationService`);
    a merged cluster report carries its per-shard reports in ``shards``.

    Two clocks, labelled apart so neither masquerades as the other:
    ``seconds`` is the wall-clock of the pass a reader would time with a
    stopwatch (per-shard busy time on a leaf report; the measured
    fan-out wall-clock on a merged cluster report), while
    ``busy_seconds`` on a merged report is the *sum* of per-shard busy
    times — larger than the wall-clock when shards warmed concurrently
    (process backend), smaller when the fan-out added routing or
    merge overhead around sequential shards (inline backend).

    Merging sums the counters (shards warm disjoint query partitions)
    and ``seconds``, which a caller that measured the fan-out overwrites
    with the wall-clock.
    """

    queries: int
    ambiguous: int
    specializations: int
    fetched: int
    seconds: float
    name: str = field(default="", metadata=named("cluster"))
    shards: tuple["WarmReport", ...] = field(default=(), metadata=PARTS)
    busy_seconds: float = field(default=0.0, metadata=BUSY)

    def summary(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        text = (
            f"{label}queries={self.queries} ambiguous={self.ambiguous} "
            f"specializations={self.specializations} "
            f"fetched={self.fetched} seconds={self.seconds:.3f}"
        )
        if self.busy_seconds:
            text += f" busy={self.busy_seconds:.3f}"
        return text


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile of an ascending sequence.

    Matches ``statistics.quantiles(values, method="inclusive")`` (and
    numpy's default ``"linear"``): the quantile *q* sits at fractional
    position ``q * (n - 1)`` and interpolates between the two bracketing
    samples.  Degenerate inputs are pinned: an empty sequence reports
    ``0.0`` (there is no latency to report, not an error), a single
    sample answers every ``q`` with itself, and ``q`` outside ``[0, 1]``
    clamps to the extremes.  The earlier nearest-rank implementation
    rounded the position (with banker's rounding, so p50 of two samples
    fell on the *lower* one) — merged shard samples crossed the
    interpolation thresholds in order-dependent ways; this form is
    order-independent given the sort.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = min(1.0, max(0.0, q)) * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


#: How many recent per-query latencies ServiceStats keeps for the
#: percentile report; counters stay exact forever, the sample slides.
LATENCY_SAMPLE_SIZE = 4096

#: The ServiceStats fields copied from an engine's ``page_cache_info()``
#: (``page_hits`` from its ``hits``, and so on).
PAGE_FIELDS = ("page_hits", "page_misses", "page_evictions", "page_resident_bytes")


@dataclass
class ServiceStats(Rollup):
    """Online-path counters: volumes, cache effectiveness, latencies.

    Counters are exact over the service's lifetime; ``latencies_ms`` is
    a sliding sample of the most recent ranked queries (bounded, so a
    long-running service does not grow with traffic).  On the process
    backend the parent keeps ``served``, ``ranked``, ``diversified``,
    ``batches`` and ``seconds`` per shard, so they stay exact across a
    worker respawn; every other field, the latency and wait samples
    included, is the current worker's and restarts with it.  ``name`` labels
    the owning service in summaries (the shard id inside a sharded
    deployment); :meth:`merge` rolls per-shard stats into one
    cluster-level instance by the rules declared on the fields.  It sums
    ``seconds`` to total shard-busy time; a caller that measured the
    fan-out (the sharded service does) overwrites it with the wall-clock
    before deriving ``throughput_qps``.  ``shards`` keeps deep copies of
    the inputs — a snapshot later traffic does not mutate, one entry per
    shard, idle ones included.  Merging is not synchronised against
    concurrent writers: read stats between batches for exact numbers.

    The batch-formation fields (``batch_sizes`` / ``wait_ms`` /
    ``queue_depth_peak``) belong to the micro-batching front-end
    (:class:`~repro.serving.async_service.AsyncDiversificationService`),
    which dispatches a batch as soon as its batcher is free: how large
    the batches that queued behind a running one got, how long requests
    sat in the queue before their batch was dispatched, and how deep the
    queue ran.
    They stay zero/empty on services that receive pre-formed batches.
    """

    served: int = 0        #: results returned, including cache hits
    ranked: int = 0        #: pipelines actually executed
    diversified: int = 0   #: ranked queries where Algorithm 1 fired
    batches: int = 0
    seconds: float = 0.0   #: wall-clock spent inside the service
    #: merged instances only: summed per-shard busy seconds, kept next to
    #: the cluster wall-clock the merging caller writes into ``seconds``
    #: (can exceed it when shards overlap; zero on leaf stats).
    busy_seconds: float = field(default=0.0, metadata=BUSY)
    latencies_ms: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_SAMPLE_SIZE),
        metadata=CONCAT,
    )
    #: label in summaries (shard id when sharded)
    name: str = field(default="", metadata=named("cluster"))
    #: histogram of dispatched batch sizes: {size: count of batches}
    batch_sizes: dict[int, int] = field(default_factory=dict, metadata=BUCKETS)
    #: sliding sample of per-request queue waits (enqueue → batch close)
    wait_ms: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_SAMPLE_SIZE),
        metadata=CONCAT,
    )
    #: deepest the admission queue ever ran
    queue_depth_peak: int = field(default=0, metadata=MAX)
    #: -- process workers (zero on in-process backends) ------------------
    #: times this shard's worker was respawned after a crash or hang
    respawns: int = 0
    #: calls whose worker died or hung mid-call (retried unless unrepeatable)
    failovers: int = 0
    #: -- postings page cache (zero on fully in-memory engines) ----------
    #: pages served from the store-backed engine's page cache
    page_hits: int = 0
    #: pages faulted in from the store
    page_misses: int = 0
    #: pages dropped by capacity pressure or budget eviction
    page_evictions: int = 0
    #: estimated bytes of postings resident in the page cache
    page_resident_bytes: int = 0
    #: -- live ingest (zero until apply_updates runs) --------------------
    # Every shard applies every ingest batch to its own engine copy, so
    # these three agree across a merge's inputs — max, not sum, is the
    # cluster-level truth.
    #: documents added across every published epoch
    documents_ingested: int = field(default=0, metadata=MAX)
    #: documents removed across every published epoch
    documents_removed: int = field(default=0, metadata=MAX)
    #: epochs this service published (or refreshed to, store-backed)
    epochs_published: int = field(default=0, metadata=MAX)
    #: specialization result lists dropped by epoch invalidation
    warm_invalidations: int = 0
    #: per-shard breakdown of a merged instance (empty on leaf stats).
    #: Every shard of the merging cluster contributes exactly one entry,
    #: including shards that served zero queries — their entries are
    #: well-formed zeroed stats carrying the shard name.
    shards: tuple["ServiceStats", ...] = field(default=(), metadata=PART_COPIES)

    def record(self, latency_ms: float, diversified: bool) -> None:
        self.ranked += 1
        self.diversified += int(diversified)
        self.latencies_ms.append(latency_ms)

    def record_formation(
        self, batch_size: int, waits_ms: Iterable[float], queue_depth: int
    ) -> None:
        """Account one formed batch: its size, the queue wait of each of
        its requests, and the queue depth left behind at close time."""
        self.batch_sizes[batch_size] = self.batch_sizes.get(batch_size, 0) + 1
        self.wait_ms.extend(waits_ms)
        if queue_depth > self.queue_depth_peak:
            self.queue_depth_peak = queue_depth

    @property
    def mean_latency_ms(self) -> float:
        return (
            sum(self.latencies_ms) / len(self.latencies_ms)
            if self.latencies_ms
            else 0.0
        )

    def percentile_ms(self, q: float) -> float:
        return _percentile(sorted(self.latencies_ms), q)

    @property
    def mean_batch_size(self) -> float:
        formed = sum(self.batch_sizes.values())
        if not formed:
            return 0.0
        return sum(size * count for size, count in self.batch_sizes.items()) / formed

    @property
    def mean_wait_ms(self) -> float:
        return sum(self.wait_ms) / len(self.wait_ms) if self.wait_ms else 0.0

    def wait_percentile_ms(self, q: float) -> float:
        return _percentile(sorted(self.wait_ms), q)

    @property
    def throughput_qps(self) -> float:
        """Served queries per second of service wall-clock."""
        return self.served / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        text = (
            f"{label}served={self.served} ranked={self.ranked} "
            f"diversified={self.diversified} batches={self.batches} "
            f"throughput={self.throughput_qps:.1f} qps "
            f"latency mean={self.mean_latency_ms:.2f}ms "
            f"p50={self.percentile_ms(0.50):.2f}ms "
            f"p95={self.percentile_ms(0.95):.2f}ms"
        )
        if self.busy_seconds and abs(self.busy_seconds - self.seconds) > 1e-9:
            text += f" busy={self.busy_seconds:.3f}s"
        if self.batch_sizes:
            text += (
                f" batch mean={self.mean_batch_size:.1f} "
                f"wait p95={self.wait_percentile_ms(0.95):.2f}ms "
                f"depth peak={self.queue_depth_peak}"
            )
        if self.page_hits or self.page_misses or self.page_evictions:
            text += (
                f" pages={self.page_hits}/{self.page_misses} "
                f"evicted={self.page_evictions} "
                f"resident={self.page_resident_bytes}B"
            )
        if (
            self.epochs_published
            or self.documents_ingested
            or self.documents_removed
        ):
            text += (
                f" epochs={self.epochs_published} "
                f"ingested={self.documents_ingested} "
                f"removed={self.documents_removed} "
                f"warm_invalidated={self.warm_invalidations}"
            )
        if self.respawns or self.failovers:
            text += f" respawns={self.respawns} failovers={self.failovers}"
        return text


class DiversificationService:
    """Explicit-lifecycle serving wrapper around the framework.

    Parameters
    ----------
    framework:
        The configured pipeline (engine + detector + diversifier).
    result_cache_size:
        Bound of the query → ``(epoch, DiversifiedResult)`` LRU.  The
        cache key is the query string alone, so mutate the framework's
        diversifier/config only via a fresh service (or call
        :meth:`invalidate`).
    name:
        Label threaded into ``repr``, :class:`ServiceStats` and
        :class:`WarmReport` summaries.  The sharded serving layer sets
        it to the shard id (``"shard3"``) so per-shard reports stay
        attributable.

    >>> service = DiversificationService(framework)     # doctest: +SKIP
    >>> service.warm(expected_queries)                  # doctest: +SKIP
    >>> results = service.diversify_batch(traffic)      # doctest: +SKIP
    """

    def __init__(
        self,
        framework: DiversificationFramework,
        result_cache_size: int = 2048,
        name: str = "",
    ) -> None:
        self.framework = framework
        self.name = name
        self._result_cache: LRUCache[str, tuple[int, DiversifiedResult]] = (
            LRUCache(result_cache_size)
        )
        # Detection is deterministic per query, so warm() and the online
        # path share one cache: a warmed query never re-runs Algorithm 1.
        self._detect_cache: LRUCache[str, SpecializationSet] = LRUCache(
            result_cache_size
        )
        self.stats = ServiceStats(name=name)

    def _detect(self, query: str) -> SpecializationSet:
        specializations = self._detect_cache.get(query)
        if specializations is None:
            specializations = self.framework.detect(query)
            self._detect_cache.put(query, specializations)
        return specializations

    # -- offline phase -----------------------------------------------------------

    def warm(self, queries: Iterable[str]) -> WarmReport:
        """Precompute specialization artifacts for an expected workload.

        Runs Algorithm 1 over the distinct *queries* and prefetches the
        result list + snippet vectors of every mined specialization into
        the framework's bounded LRU — the paper's offline phase.  Safe to
        call repeatedly; already-cached artifacts are not refetched.
        """
        start = time.perf_counter()
        distinct = list(dict.fromkeys(queries))
        spec_queries: list[str] = []
        ambiguous = 0
        for query in distinct:
            specializations = self._detect(query)
            if specializations:
                ambiguous += 1
                spec_queries.extend(spec for spec, _ in specializations)
        fetched = self.framework.prefetch_specializations(spec_queries)
        return WarmReport(
            queries=len(distinct),
            ambiguous=ambiguous,
            specializations=len(set(spec_queries)),
            fetched=fetched,
            seconds=time.perf_counter() - start,
            name=self.name,
        )

    def prepare(self, query: str) -> PreparedQuery:
        """Detection + task construction for one query (no ranking)."""
        return self.prepare_batch([query])[query]

    def prepare_batch(self, queries: Iterable[str]) -> dict[str, PreparedQuery]:
        """Detection + task construction for a batch, amortised.

        Detection runs once per distinct query, and each task is built
        by :meth:`~repro.core.framework.DiversificationFramework.build_task`,
        which fetches each specialization through the spec cache: a
        specialization the batch shares is searched once, and each
        surrogate vector is built once per ``(query, seq)``.  Nothing is
        prefetched before a query's candidates are known (that is
        :meth:`warm`'s offline phase), so no candidate gets a q'-biased
        vector its own q-biased one shadows.  Returns
        ``{query: PreparedQuery}`` over the distinct queries.  The
        experiment harnesses use this to build per-topic tasks through
        the same code path the online system exercises.
        """
        distinct = list(dict.fromkeys(queries))
        detected = {query: self._detect(query) for query in distinct}
        prepared: dict[str, PreparedQuery] = {}
        for query in distinct:
            specializations = detected[query]
            task = (
                self.framework.build_task(query, specializations)
                if specializations
                else None
            )
            prepared[query] = PreparedQuery(
                query=query, specializations=specializations, task=task
            )
        return prepared

    # -- online phase ------------------------------------------------------------

    def cached(self, query: str) -> DiversifiedResult | None:
        """The result cached for *query* at the published epoch, or
        ``None``; runs nothing.

        A hit counts in the result LRU's ``hits``; a miss is left for the
        ``diversify_batch`` that follows to count.  :attr:`stats` is not
        touched.  The async front-end answers hits with this before they
        would queue for its batcher.
        """
        epoch = self.framework.engine.epoch
        entry = self._result_cache.hit(query, lambda e: e[0] == epoch)
        return None if entry is None else entry[1]

    def diversify(self, query: str) -> DiversifiedResult:
        """Serve one query (cache → pipeline)."""
        return self.diversify_batch([query])[0]

    def diversify_batch(self, queries: Sequence[str]) -> list[DiversifiedResult]:
        """Serve a batch; results align with *queries* order.

        Duplicate queries in the batch (and queries cached from earlier
        calls) share one :class:`DiversifiedResult` instance; only the
        distinct uncached queries run the pipeline, each fetching its
        specializations through the framework's spec cache as
        :meth:`prepare_batch` does.
        """
        start = time.perf_counter()
        queries = list(queries)
        by_query: dict[str, DiversifiedResult] = {}
        # One engine pin around the whole batch: every query in it reads
        # the same epoch even when an ingest publishes mid-batch (inner
        # pins inherit this one), cached results included.
        with self.framework.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            to_rank: list[str] = []
            for query in dict.fromkeys(queries):
                cached = self._result_cache.lookup(query, lambda e: e[0] == epoch)
                if cached is None:
                    to_rank.append(query)
                else:
                    by_query[query] = cached[1]
            detected = {query: self._detect(query) for query in to_rank}
            for query in to_rank:
                ranked_at = time.perf_counter()
                result = self.framework.diversify_detected(
                    query, detected[query]
                )
                self.stats.record(
                    (time.perf_counter() - ranked_at) * 1000.0,
                    result.diversified,
                )
                put_tagged(self._result_cache, query, (epoch, result))
                by_query[query] = result

        results = [by_query[query] for query in queries]
        self.stats.batches += 1
        self.stats.served += len(queries)
        self.stats.seconds += time.perf_counter() - start
        return results

    # -- warm-state persistence ---------------------------------------------------

    def load_warm_store(self, path, shard: int = 0) -> int:
        """Hydrate warm artifacts for *shard* from an index store.

        Reads the warm rows a store-writing offline pipeline persisted
        for this shard (:func:`repro.retrieval.store.read_warm_artifacts`)
        and installs them.  Returns how many artifacts were installed.
        """
        from repro.retrieval.store import read_warm_artifacts

        return self.framework.install_warm_state(
            read_warm_artifacts(path, shard)
        )

    def export_warm_payloads(self) -> dict[str, str]:
        """The warm state as canonical payload lines — ``{spec_query:
        line}`` ready for the ``warm_artifacts`` table of
        :func:`repro.retrieval.store.write_store`.  Strings travel
        cheaply over process boundaries, so a sharded cluster can
        collect every shard's payloads for one store write.
        """
        from repro.retrieval.store import encode_warm_artifact

        return {
            spec_query: encode_warm_artifact(spec_query, results, vectors)
            for spec_query, (results, vectors) in (
                self.framework.export_warm_state().items()
            )
        }

    def warm_memory_estimate(self) -> dict[str, int]:
        """Estimated resident bytes of the held warm artifacts.

        Counts and prices the per-specialization result lists in the
        framework's spec cache and the distinct snippet-surrogate vectors
        in its memo
        (:meth:`~repro.core.framework.DiversificationFramework.warm_memory_estimate`)
        — the snippet-vector half of the offline pipeline's per-shard
        memory accounting, next to the index's own
        :meth:`~repro.retrieval.engine.SearchEngine.memory_estimate`.  A *method* (not
        a property) so execution backends can fetch the snapshot over a
        process boundary.
        """
        return self.framework.warm_memory_estimate()

    # -- live ingest --------------------------------------------------------------

    def apply_updates(
        self,
        add_documents: Sequence = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> int:
        """Serve an ingest batch that is already in the store, and
        publish the epoch that holds it.

        The engine re-attaches to the epoch a coordinator appended to
        the store file
        (:meth:`~repro.retrieval.store.StoreBackedSearchEngine.refresh`)
        — the writer appends once, every attached service refreshes;
        services sharing one engine find it current after the first.
        Every spec list and cached end-to-end result tagged before the
        published epoch is then dropped
        (:meth:`~repro.core.framework.DiversificationFramework.drop_before`);
        surrogate vectors stay, since a changed document takes a new
        seq, and so do detections, since Algorithm 1 reads the query-log
        model, not the collection.  No lock spans the refresh and the
        drops: a read reuses an entry only at its tag's epoch, so the
        drops only free memory, and a second drop for one epoch removes
        nothing.  The batch itself only feeds the ingest counters.
        Returns the epoch that includes the batch; :class:`ReadOnlyError`
        on an in-memory engine.
        """
        self._store_path()
        engine = self.framework.engine
        engine.refresh()
        epoch = engine.epoch
        dropped = self.framework.drop_before(epoch)
        self._result_cache.discard(lambda entry: entry[0] < epoch)
        self.stats.documents_ingested += len(add_documents)
        self.stats.documents_removed += len(remove_doc_ids)
        self.stats.epochs_published += 1
        self.stats.warm_invalidations += dropped
        return epoch

    def ingest(
        self,
        add_documents: Sequence = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> int:
        """Coordinator entry point: make the batch durable, then apply.

        The batch is appended to the engine's store file
        (:meth:`append_to_store`) — exactly once, here — and
        :meth:`apply_updates` then refreshes; other shards receiving the
        broadcast refresh too, without re-appending.  Returns the epoch
        that includes the batch; :class:`ReadOnlyError` on an in-memory
        engine, with nothing changed.
        """
        self.append_to_store(add_documents, remove_doc_ids)
        return self.apply_updates(add_documents, remove_doc_ids)

    def append_to_store(
        self,
        add_documents: Sequence = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> None:
        """Append the batch to the engine's store file as its next epoch,
        analysed with the engine's own analyzer.  The one durable-append
        call site: a service's and a cluster's ingest both come here."""
        from repro.retrieval.store import append_epoch

        append_epoch(
            self._store_path(),
            add_documents,
            remove_doc_ids,
            analyzer=self.framework.engine.analyzer,
        )

    def _store_path(self) -> str:
        """The engine's store file, where every change to the collection
        goes; :class:`ReadOnlyError` when the engine is in memory."""
        path = self.framework.engine.store_path
        if path is None:
            raise ReadOnlyError(
                "this service's engine is in memory and read-only: write "
                "it to a store with repro.serving.offline.persist_store "
                "and serve a StoreBackedSearchEngine attached to that "
                "file to ingest documents"
            )
        return path

    def current_epoch(self) -> int:
        """Epoch of the engine's currently published snapshot (0 for
        engines that never ingested)."""
        return self.framework.engine.epoch

    # -- maintenance -------------------------------------------------------------

    def get_stats(self) -> ServiceStats:
        """The live :class:`ServiceStats` — as a *method* so execution
        backends can fetch a snapshot over a process boundary.  When the
        engine serves from a store, the postings page-cache counters are
        refreshed into the stats first."""
        page_cache_info = getattr(
            self.framework.engine, "page_cache_info", None
        )
        if callable(page_cache_info):
            info = page_cache_info()
            for name in PAGE_FIELDS:
                setattr(self.stats, name, getattr(info, name.removeprefix("page_")))
        return self.stats

    def invalidate(self) -> None:
        """Drop cached results and detections (e.g. after reconfiguring
        the framework or retraining the detector)."""
        self._result_cache.clear()
        self._detect_cache.clear()

    def result_cache_info(self) -> CacheStats:
        return self._result_cache.stats()

    def spec_cache_info(self) -> CacheStats:
        return self.framework.cache_info()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f"name={self.name!r}, " if self.name else ""
        return (
            f"DiversificationService({label}{self.framework!r}, "
            f"cached={len(self._result_cache)})"
        )
